import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsieve.cfs import (CorrelationStats, SearchConfig, best_first_search,
                           build_stats, merit, merit_trajectory)
from flowsieve.config import load_config
from flowsieve.dataset import Dataset, generate_synthetic
from oracles import (correlation, direct_merit, exhaustive_search,
                     random_realizable_stats, random_stats, reference_stats)


def make_stats(rcf, rff=None) -> CorrelationStats:
    rcf = np.asarray(rcf, dtype=np.float64)
    n = len(rcf)
    if rff is None:
        rff = np.zeros((n, n))
    rff = np.asarray(rff, dtype=np.float64).copy()
    np.fill_diagonal(rff, 1.0)
    return CorrelationStats(rcf, rff)


class TestCorrelation:
    def test_perfect_linear(self):
        assert correlation([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_perfect_inverse(self):
        assert correlation([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_constant_convention(self):
        assert correlation([1, 2, 3], [5, 5, 5]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            correlation([1, 2], [1, 2, 3])

    def test_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            r = correlation(rng.normal(size=10), rng.normal(size=10))
            assert -1.0 <= r <= 1.0


class TestBuildStats:
    def _dataset(self, X, y):
        return Dataset(tuple(f"f{i}" for i in range(X.shape[1])),
                       np.asarray(X, dtype=float), np.asarray(y))

    def test_duplicate_features(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
        stats = build_stats(self._dataset(X, [0, 0, 1, 1]))
        assert stats.feature_feature[0, 1] == pytest.approx(1.0)

    def test_feature_equal_to_label(self):
        y = np.array([0, 1, 0, 1])
        X = np.column_stack([y.astype(float), [5.0, 6.0, 7.0, 8.0]])
        stats = build_stats(self._dataset(X, y))
        assert stats.feature_class[0] == pytest.approx(1.0)

    def test_shape_and_symmetry(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 3))
        stats = build_stats(self._dataset(X, rng.integers(0, 2, 30)))
        assert stats.feature_feature.shape == (3, 3)
        np.testing.assert_array_equal(stats.feature_feature,
                                      stats.feature_feature.T)
        np.testing.assert_array_equal(np.diag(stats.feature_feature),
                                      np.ones(3))
        assert ((stats.feature_feature >= 0) & (stats.feature_feature <= 1)).all()

    def test_matches_per_column_reference(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            rows = int(rng.integers(2, 200))
            y = rng.integers(0, 2, rows)
            scale = rng.uniform(0.1, 10.0, 6)
            X = rng.normal(size=(rows, 6)) * scale + rng.normal(size=6) * scale
            X[:, 1] = rng.normal()  # constant
            X[:, 2] = y  # the class itself
            X[:, 3] = X[:, 0]  # exact duplicate
            ds = self._dataset(X, y)
            got, ref = build_stats(ds), reference_stats(ds)
            np.testing.assert_allclose(got.feature_class, ref.feature_class,
                                       rtol=0, atol=1e-14)
            np.testing.assert_allclose(got.feature_feature, ref.feature_feature,
                                       rtol=0, atol=1e-14)

    def test_selection_matches_per_column_reference(self, repo_root):
        spec = load_config(str(repo_root / "configs" / "two_cluster.ini")).synth_spec
        for seed in range(30):
            ds, _ = generate_synthetic(spec, seed=seed)
            got = best_first_search(build_stats(ds))
            ref = best_first_search(reference_stats(ds))
            assert (got.indices, got.path) == (ref.indices, ref.path), seed


class TestMerit:
    def test_singleton(self):
        stats = make_stats([0.8])
        assert merit([0], stats) == pytest.approx(0.8)

    def test_duplicate_pair_no_gain(self):
        # Both features fully correlated with each other: 1.6/sqrt(4) = 0.8.
        stats = make_stats([0.8, 0.8], [[1, 1], [1, 1]])
        value = merit([0, 1], stats)
        assert value == pytest.approx(0.8)
        assert value == pytest.approx(direct_merit([0, 1], stats))

    def test_complementary_pair_gains(self):
        stats = make_stats([0.8, 0.8])
        value = merit([0, 1], stats)
        assert value == pytest.approx(1.6 / math.sqrt(2))
        assert value == pytest.approx(1.1314, abs=1e-4)
        assert value == pytest.approx(direct_merit([0, 1], stats))

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            merit([], make_stats([0.5]))

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            stats = random_stats(rng, n)
            k = int(rng.integers(1, n + 1))
            subset = rng.choice(n, size=k, replace=False)
            assert merit(subset, stats) == pytest.approx(
                direct_merit(subset, stats), abs=1e-12)

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(40, 4))
        y = rng.integers(0, 2, 40)
        base = build_stats(Dataset(("a", "b", "c", "d"), X, y))
        scaled = build_stats(Dataset(("a", "b", "c", "d"),
                                     X * np.array([3.0, -0.5, 100.0, 1e-3])
                                     + np.array([1.0, -2.0, 0.0, 5.0]), y))
        for subset in [(0,), (1, 2), (0, 1, 2, 3)]:
            assert abs(merit(subset, base) - merit(subset, scaled)) <= 1e-12


class TestBestFirst:
    def test_dominant_feature_selected(self):
        stats = make_stats([0.1, 0.1, 0.9, 0.1])
        found = best_first_search(stats)
        oracle = exhaustive_search(stats)
        assert 2 in found.indices
        assert found.indices == oracle.indices
        assert found.merit == pytest.approx(oracle.merit, abs=1e-12)

    def test_duplicates_not_coselected(self, redundant_dataset):
        ds, roles = redundant_dataset
        stats = build_stats(ds)
        found = best_first_search(stats)
        oracle = exhaustive_search(stats)
        assert found.merit == pytest.approx(oracle.merit, abs=1e-12)
        for dup, src in roles["duplicate_of"].items():
            assert not ({dup, src} <= set(found.indices))

    def test_all_noise_returns_first_singleton(self):
        stats = make_stats([0.0, 0.0, 0.0])
        found = best_first_search(stats)
        assert found.indices == (0,)
        assert found.merit == 0.0

    def test_beats_every_singleton(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            stats = random_stats(rng, 8)
            found = best_first_search(stats)
            singles = max(merit([i], stats) for i in range(8))
            assert found.merit >= singles - 1e-12

    def test_never_exceeds_exhaustive(self):
        # The bound must hold even on non-realizable random matrices.
        rng = np.random.default_rng(10)
        for _ in range(30):
            stats = random_stats(rng, 9)
            found = best_first_search(stats)
            oracle = exhaustive_search(stats)
            assert found.merit <= oracle.merit + 1e-12

    def test_matches_exhaustive_on_realizable_instances(self):
        rng = np.random.default_rng(10)
        matches = 0
        trials = 30
        for _ in range(trials):
            stats = random_realizable_stats(rng, int(rng.integers(4, 13)))
            found = best_first_search(stats)
            oracle = exhaustive_search(stats)
            assert found.merit <= oracle.merit + 1e-12
            if abs(found.merit - oracle.merit) <= 1e-12:
                matches += 1
        assert matches >= 0.95 * trials

    def test_trajectory_is_path_prefix_merits(self):
        stats = make_stats([0.5, 0.6, 0.4])
        found = best_first_search(stats)
        trajectory = merit_trajectory(found, stats)
        assert [idx for idx, _ in trajectory] == list(found.path)
        assert trajectory[-1][1] == pytest.approx(found.merit)

    def test_stale_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(max_stale_expansions=0)

    def test_max_subset_size_respected(self):
        stats = make_stats([0.5, 0.5, 0.5, 0.5])
        found = best_first_search(stats, SearchConfig(max_subset_size=2))
        assert len(found.indices) <= 2


class TestExhaustive:
    def test_hand_enumerated_three_features(self):
        # rcf = [0.9, 0.1, 0.1], all pairwise 0. The 7 subsets score:
        # {0}=0.9 {1}={2}=0.1 {0,1}={0,2}=1.0/sqrt(2)=0.7071
        # {1,2}=0.1414 {0,1,2}=1.1/sqrt(3)=0.6351 -> argmax {0}.
        stats = make_stats([0.9, 0.1, 0.1])
        found = exhaustive_search(stats)
        assert found.indices == (0,)
        assert found.merit == pytest.approx(0.9)

    def test_single_feature(self):
        stats = make_stats([0.3])
        assert exhaustive_search(stats).indices == (0,)

    def test_tie_break_lexicographic(self):
        # Features 0 and 1 identical twins: {0} and {1} tie at 0.7.
        stats = make_stats([0.7, 0.7], [[1, 1], [1, 1]])
        found = exhaustive_search(stats)
        assert found.indices == (0,)

    def test_too_many_features_rejected(self):
        stats = make_stats(np.full(21, 0.5))
        with pytest.raises(ValueError, match="exhaustive"):
            exhaustive_search(stats)

    def test_smaller_subset_preferred_on_tie(self):
        # Adding a perfect duplicate keeps merit identical; prefer size 1.
        stats = make_stats([0.5, 0.5, 0.0], [[1, 1, 0], [1, 1, 0], [0, 0, 1]])
        found = exhaustive_search(stats)
        assert found.indices == (0,)


class TestDuplicateInvariance:
    @settings(max_examples=30)
    @given(st.floats(0.05, 1.0), st.integers(2, 5))
    def test_perfect_duplicates_never_increase_merit(self, rcf, k):
        stats = make_stats([rcf] * k, np.ones((k, k)))
        assert merit(range(k), stats) == pytest.approx(merit([0], stats))
