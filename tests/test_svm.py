import math
import tracemalloc

import numpy as np
import pytest

from flowsieve import modelfile, svm
from flowsieve.config import PipelineConfig, make_kernel
from flowsieve.dataset import Scaler
from flowsieve.errors import DataError
from flowsieve.svm import (Kernel, SmoConfig, SvmModel, decision_values,
                           kernel_matrix, predict_batch, save_models,
                           smo_train, train_ovr)
from oracles import (decision_value, dual_objective, kernel_eval,
                     primal_objective, qp_dual_oracle, reference_decision_values,
                     reference_smo_train, svm_argmax_rule)
from oracles import svm_predict as predict


def load_model(path):
    """Read a saved SVM model file the way `flowsieve eval` does."""
    doc = modelfile.ModelFile(path, (svm.MODEL_FORMAT,))
    return svm.read_body(doc), doc.meta


def separable_2d(n_per_class=10, seed=0, gap=2.5):
    rng = np.random.default_rng(seed)
    pos = rng.normal(size=(n_per_class, 2)) + [gap, 0.0]
    neg = rng.normal(size=(n_per_class, 2)) - [gap, 0.0]
    X = np.vstack([pos, neg])
    y = np.array([1.0] * n_per_class + [-1.0] * n_per_class)
    return X, y


XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y_PM = np.array([-1.0, 1.0, 1.0, -1.0])


def full_alphas(model: SvmModel, X: np.ndarray) -> np.ndarray:
    """Scatter the support-vector alphas back onto the training rows."""
    alphas = np.zeros(len(X))
    used = np.zeros(len(X), dtype=bool)
    for coeff, sv in zip(model.coefficients, model.support_vectors):
        i = int(np.flatnonzero((X == sv).all(axis=1) & ~used)[0])
        alphas[i] = abs(coeff)
        used[i] = True
    return alphas


def kkt_violations(model: SvmModel, X: np.ndarray, y_pm: np.ndarray,
                   tol: float) -> int:
    margins = y_pm * decision_values(model, X) - 1.0
    alphas = full_alphas(model, X)
    count = 0
    for a, r in zip(alphas, margins):
        if a < 1e-9:
            ok = r >= -tol
        elif a > model.C - 1e-9:
            ok = r <= tol
        else:
            ok = abs(r) <= tol
        count += not ok
    return count


class TestKernel:
    def test_linear_dot(self):
        assert kernel_eval(Kernel("linear"), [1.0, 2.0], [1.0, 2.0]) == 5.0

    def test_rbf_at_zero_distance(self):
        for gamma in (0.1, 1.0, 7.0):
            k = Kernel("rbf", gamma=gamma)
            assert kernel_eval(k, [1.0, 2.0], [1.0, 2.0]) == 1.0

    def test_rbf_closed_form(self):
        k = Kernel("rbf", gamma=0.5)
        value = kernel_eval(k, [0.0, 0.0], [2.0, 0.0])
        assert value == pytest.approx(math.exp(-2.0))
        assert value == pytest.approx(0.1353, abs=1e-4)

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="width mismatch"):
            kernel_eval(Kernel("linear"), [1.0], [1.0, 2.0])

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            Kernel("rbf", gamma=-1.0)
        with pytest.raises(ValueError):
            Kernel("rbf")

    def test_matrix_matches_eval(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(4, 3))
        Z = rng.normal(size=(5, 3))
        k = Kernel("rbf", gamma=0.7)
        gram = kernel_matrix(k, X, Z)
        for i in range(4):
            for j in range(5):
                assert gram[i, j] == pytest.approx(kernel_eval(k, X[i], Z[j]),
                                                   rel=1e-12)


class TestSmo:
    def test_separable_linear_fixture(self):
        X, y = separable_2d()
        cfg = SmoConfig(C=1e3, tolerance=1e-3)
        model = smo_train(X, y, Kernel("linear"), cfg)
        assert model.converged is True  # a bool, as SvmModel declares
        assert ((decision_values(model, X) > 0) == (y > 0)).all()
        # hard-margin solution: boundary alphas strictly inside (0, C)
        assert (np.abs(model.coefficients) > 0).all()
        assert (np.abs(model.coefficients) < cfg.C).all()
        assert kkt_violations(model, X, y, cfg.tolerance) == 0

    def test_dual_matches_qp_oracle(self):
        X, y = separable_2d()
        cfg = SmoConfig(C=1e3, tolerance=1e-3)
        model = smo_train(X, y, Kernel("linear"), cfg)
        _, oracle = qp_dual_oracle(kernel_matrix(Kernel("linear"), X, X), y, cfg.C)
        assert abs(dual_objective(model) - oracle) <= 1e-4

    def test_xor_rbf(self):
        model = smo_train(XOR_X, XOR_Y_PM, Kernel("rbf", gamma=1.0),
                          SmoConfig(C=10.0))
        assert ((decision_values(model, XOR_X) > 0) == (XOR_Y_PM > 0)).all()

    def test_kkt_on_random_instances(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            n = int(rng.integers(8, 21))
            X = rng.normal(size=(n, 3))
            y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            y[0], y[1] = 1.0, -1.0
            cfg = SmoConfig(C=1.0, tolerance=1e-3)
            model = smo_train(X, y, Kernel("rbf", gamma=0.5), cfg)
            assert kkt_violations(model, X, y, cfg.tolerance) == 0
            assert abs(model.coefficients.sum()) <= 1e-9

    def test_dual_agreement_random_instances(self):
        rng = np.random.default_rng(3)
        for trial in range(4):
            n = int(rng.integers(8, 21))
            X = rng.normal(size=(n, 3))
            y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            y[0], y[1] = 1.0, -1.0
            kernel = Kernel("rbf", gamma=0.5)
            model = smo_train(X, y, kernel, SmoConfig(C=1.0))
            _, oracle = qp_dual_oracle(kernel_matrix(kernel, X, X), y, 1.0)
            assert abs(dual_objective(model) - oracle) <= 1e-4

    def test_deterministic_rerun(self):
        X, y = separable_2d(seed=4)
        runs = [smo_train(X, y, Kernel("rbf", gamma=0.5), SmoConfig())
                for _ in range(2)]
        np.testing.assert_array_equal(runs[0].coefficients, runs[1].coefficients)
        assert runs[0].bias == runs[1].bias

    def test_memory_stays_below_gram_size(self):
        # The 3000 x 3000 Gram matrix alone would take 72 MB.
        X, y = separable_2d(n_per_class=1500, seed=18)
        tracemalloc.start()
        try:
            smo_train(X, y, Kernel("rbf", gamma=0.5), SmoConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_iteration_cap_flags_model(self):
        X, y = separable_2d()
        model = smo_train(X, y, Kernel("linear"),
                          SmoConfig(C=1e3, max_iterations=1))
        assert model.converged is False  # a bool, as SvmModel declares

    @pytest.mark.parametrize("kind", ["rbf", "linear"])
    @pytest.mark.parametrize("C", [0.1, 1.0, 1e3])
    @pytest.mark.parametrize("tolerance", [1e-3, 0.1])
    @pytest.mark.parametrize("max_iterations", [None, 7])
    def test_bits_match_reference_solver(self, kind, C, tolerance, max_iterations):
        # Overlapping classes in 10 dimensions, with 12 rows repeated.
        rng = np.random.default_rng(23)
        y = np.where(rng.random(90) < 0.5, 1.0, -1.0)
        X = rng.normal(size=(90, 10)) + 0.6 * y[:, None]
        X, y = np.vstack([X, X[:12]]), np.concatenate([y, y[:12]])
        kernel = Kernel(kind, gamma=0.1 if kind == "rbf" else None)
        cfg = SmoConfig(C=C, tolerance=tolerance, max_iterations=max_iterations)
        got, want = smo_train(X, y, kernel, cfg), reference_smo_train(X, y, kernel, cfg)
        if max_iterations is not None:
            assert not want.converged
        assert got.converged == want.converged
        assert np.float64(got.bias).view(np.uint64) == np.float64(want.bias).view(np.uint64)
        np.testing.assert_array_equal(got.coefficients.view(np.uint64),
                                      want.coefficients.view(np.uint64))
        np.testing.assert_array_equal(got.support_vectors, want.support_vectors)

    def test_bad_labels_rejected(self):
        for labels in ([1.0, 1.0], [1.0, 0.0], [1.0, -1.0, 2.0], [1.0, -1.0, np.nan],
                       []):
            with pytest.raises(ValueError, match="internal labels"):
                smo_train(np.zeros((len(labels), 1)), np.array(labels),
                          Kernel("linear"), SmoConfig())


class TestDecision:
    def linear_model(self, w, b):
        # w = (1,-1) as two unit support vectors with signed coefficients.
        return SvmModel(kernel=Kernel("linear"), C=1.0,
                        support_vectors=np.array([[1.0, 0.0], [0.0, 1.0]]),
                        coefficients=np.array([w[0], w[1]]), bias=b)

    def test_linear_arithmetic(self):
        model = self.linear_model([1.0, -1.0], 0.0)
        assert decision_value(model, np.array([3.0, 1.0])) == 2.0
        assert decision_values(model, np.array([3.0, 1.0])).tolist() == [2.0]

    def test_margin_support_vectors_on_unit_margin(self):
        X, y = separable_2d(seed=7)
        cfg = SmoConfig(C=1e3, tolerance=1e-3)
        model = smo_train(X, y, Kernel("linear"), cfg)
        alphas = full_alphas(model, X)
        margins = y * decision_values(model, X)
        inside = (alphas > 1e-9) & (alphas < cfg.C - 1e-9)
        assert inside.any()
        assert np.abs(margins[inside] - 1.0).max() <= cfg.tolerance


class TestDecisionBlocks:
    """decision_values takes the test rows in blocks of at most
    svm._BLOCK_CELLS kernel values; oracles.reference_decision_values builds
    the one whole matrix. A row-split matrix product may differ in its last
    bits under the host BLAS, so the values agree to 1e-12 * sum|coeff| and
    the predictions exactly."""

    @staticmethod
    def random_model(kind, d, n_sv, seed):
        rng = np.random.default_rng(seed)
        kernel = Kernel(kind, gamma=1.0 / d if kind == "rbf" else None)
        return SvmModel(kernel=kernel, C=1.0,
                        support_vectors=rng.normal(size=(n_sv, d)),
                        coefficients=rng.uniform(-1.0, 1.0, n_sv),
                        bias=float(rng.normal()))

    @pytest.mark.parametrize("kind", ["rbf", "linear"])
    @pytest.mark.parametrize("d", [4, 28])
    def test_no_support_vectors_gives_the_bias(self, kind, d):
        model = self.random_model(kind, d, 0, seed=d)
        for rows in (1, 5):
            X = np.random.default_rng(rows).normal(size=(rows, d))
            assert decision_values(model, X).tolist() == [model.bias] * rows
            np.testing.assert_array_equal(predict_batch(model, X),
                                          np.full(rows, int(model.bias > 0)))

    @pytest.mark.parametrize("kind", ["rbf", "linear"])
    @pytest.mark.parametrize("d", [4, 28])
    @pytest.mark.parametrize("offset", [None, -1, 0, 1])
    def test_matches_one_matrix_rule(self, kind, d, offset):
        n_sv = 257
        model = self.random_model(kind, d, n_sv, seed=d + n_sv)
        block_rows = svm._BLOCK_CELLS // n_sv
        rows = 1 if offset is None else block_rows + offset
        X = np.random.default_rng(rows).normal(size=(rows, d))
        got, want = decision_values(model, X), reference_decision_values(model, X)
        assert got.shape == want.shape == (rows,)
        bound = 1e-12 * np.abs(model.coefficients).sum()
        assert np.abs(got - want).max() <= bound
        np.testing.assert_array_equal(predict_batch(model, X),
                                      (want > 0).astype(np.int64))

    def test_peak_memory_independent_of_rows(self):
        rng = np.random.default_rng(33)
        model = self.random_model("rbf", 4, 1000, seed=33)
        peaks = []
        for n in (2000, 8000):
            X = rng.normal(size=(n, 4))
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                predict_batch(model, X)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks


class TestPredict:
    """predict_batch is the sign rule. oracles.svm_argmax_rule is the
    argmax over the two models that files of format 1 held, f and -f; the
    two rules agree on every row, ties and NaN included."""

    @staticmethod
    def constant_model(bias):
        return SvmModel(kernel=Kernel("linear"), C=1.0,
                        support_vectors=np.zeros((0, 2)),
                        coefficients=np.zeros(0), bias=bias)

    def test_argmax(self):
        points = np.zeros((3, 2))
        for bias in (0.0, -0.0, math.nan, math.inf, -math.inf, 0.5, -0.2):
            model = self.constant_model(bias)
            np.testing.assert_array_equal(predict_batch(model, points),
                                          svm_argmax_rule(model, points))
        assert predict(self.constant_model(0.5), np.zeros(2)) == 1
        assert predict(self.constant_model(-0.2), np.zeros(2)) == 0

    def test_tie_goes_to_lowest_class(self):
        for bias in (0.0, -0.0, math.nan):
            assert predict(self.constant_model(bias), np.zeros(2)) == 0

    def test_binary_argmax_agrees_with_sign_rule(self):
        X, y = separable_2d(seed=10, gap=1.5)
        points = np.random.default_rng(11).normal(size=(100, 2)) * 2.0
        for kernel in (Kernel("rbf", gamma=0.5), Kernel("linear")):
            [model] = train_ovr(X, (y > 0).astype(int), kernel, SmoConfig())
            predictions = predict_batch(model, points)
            assert predictions.dtype == np.int64
            np.testing.assert_array_equal(
                predictions, (decision_values(model, points) > 0).astype(int))
            np.testing.assert_array_equal(predictions,
                                          svm_argmax_rule(model, points))
            assert 0 < predictions.sum() < len(points)


class TestTrainOvr:
    def test_one_model_for_binary_problem(self, two_cluster_dataset):
        ds = two_cluster_dataset
        models = train_ovr(ds.X, ds.y, Kernel("rbf", gamma=0.5),
                           SmoConfig())
        assert len(models) == 1
        assert (predict_batch(models[0], ds.X) == ds.y).mean() >= 0.99

    def test_default_kernel_gamma(self, two_cluster_dataset):
        n = two_cluster_dataset.n_features
        assert make_kernel(PipelineConfig(), n).gamma == 1.0 / n

    @pytest.mark.parametrize("kernel", [Kernel("rbf", gamma=0.5),
                                        Kernel("linear")])
    def test_tor_is_the_positive_side(self, kernel):
        X, y = separable_2d(seed=10, gap=1.5)
        [model] = train_ovr(X, (y > 0).astype(int), kernel, SmoConfig())
        direct = smo_train(X, y, kernel, SmoConfig())
        np.testing.assert_array_equal(model.coefficients, direct.coefficients)
        assert model.bias == direct.bias
        assert (predict_batch(model, X) == (y > 0)).all()

    def test_empty_class_rejected(self):
        X = np.zeros((3, 2))
        with pytest.raises(DataError, match="no training examples"):
            train_ovr(X, np.array([0, 0, 0]), Kernel("linear"), SmoConfig())


class TestPrimal:
    def test_separable_solution_has_zero_slack(self):
        X, y = separable_2d(seed=12)
        cfg = SmoConfig(C=1e3, tolerance=1e-4)
        model = smo_train(X, y, Kernel("linear"), cfg)
        gram = kernel_matrix(model.kernel, model.support_vectors,
                             model.support_vectors)
        w_norm_sq = float(model.coefficients @ gram @ model.coefficients)
        slack = primal_objective(model, X, y) - 0.5 * w_norm_sq
        assert slack <= 1e-6 * cfg.C

    def test_points_inside_the_box_have_slack_within_tolerance(self):
        """What the stopping rule guarantees, on every seed that converges.

        smo_train keeps v_t = y_t - g_t, where g_t = sum_s alpha_s y_s K_st,
        so a point's hinge slack is max(0, 1 - y_t (g_t + b)) =
        max(0, y_t (v_t - b)). A converged solve has v_max - v_min <=
        tolerance, with v_max = max(v, I_up) and v_min = min(v, I_low). The
        bias lies between v_min and v_max: it is v of a free point, which is
        in both sets, or the midpoint of the two. A point with alpha < C and
        y = +1 is in I_up, so v_t - b <= v_max - v_min; one with y = -1 is in
        I_low, so b - v_t <= v_max - v_min. Either way its slack is at most
        the tolerance. Points at alpha = C may have any slack.
        """
        cfg = SmoConfig(C=1e3, tolerance=1e-4)
        converged = 0
        for seed in range(100):
            X, y = separable_2d(seed=seed)
            model = smo_train(X, y, Kernel("linear"), cfg)
            if not model.converged:  # seed 92 stops at the pair-update cap
                continue
            converged += 1
            slack = np.maximum(0.0, 1.0 - y * decision_values(model, X))
            inside = full_alphas(model, X) < cfg.C
            assert slack[inside].max() <= cfg.tolerance, f"seed {seed}"
        assert converged >= 99

    def test_weak_duality(self):
        rng = np.random.default_rng(13)
        for trial in range(5):
            n = int(rng.integers(8, 16))
            X = rng.normal(size=(n, 2))
            y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            y[0], y[1] = 1.0, -1.0
            model = smo_train(X, y, Kernel("rbf", gamma=1.0),
                              SmoConfig(C=2.0))
            assert primal_objective(model, X, y) >= dual_objective(model) - 1e-9

    def test_duality_gap_small_at_convergence(self):
        X, y = separable_2d(seed=14, gap=1.2)
        model = smo_train(X, y, Kernel("rbf", gamma=0.5),
                          SmoConfig(C=1.0))
        assert model.converged
        primal = primal_objective(model, X, y)
        gap = primal - dual_objective(model)
        assert gap < 1e-3 * (1.0 + abs(primal))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        X, y = separable_2d(seed=15)
        [model] = train_ovr(X, (y > 0).astype(int), Kernel("rbf", gamma=0.25),
                            SmoConfig())
        scaler = Scaler(mean=np.array([0.5, -0.5]), std=np.array([1.5, 2.0]),
                        passthrough=np.array([False, False]))
        path = tmp_path / "svm.txt"
        save_models(path, model, ("a", "b"), scaler)
        restored, meta = load_model(path)
        assert meta["features"] == ("a", "b")
        np.testing.assert_array_equal(meta["scaler"].std, scaler.std)
        np.testing.assert_array_equal(restored.coefficients, model.coefficients)
        np.testing.assert_array_equal(restored.support_vectors,
                                      model.support_vectors)
        assert restored.bias == model.bias
        assert restored.kernel == model.kernel
        assert restored.converged == model.converged
        rng = np.random.default_rng(16)
        for _ in range(5):
            x = rng.normal(size=2)
            assert decision_value(restored, x) == pytest.approx(
                decision_value(model, x), rel=1e-15, abs=1e-15)

    def test_linear_round_trip_restores_weights(self, tmp_path):
        X, y = separable_2d(seed=17)
        [model] = train_ovr(X, (y > 0).astype(int), Kernel("linear"),
                            SmoConfig(C=5.0))
        path = tmp_path / "svm.txt"
        save_models(path, model, ("a", "b"))
        restored, _ = load_model(path)
        np.testing.assert_array_equal(restored.coefficients, model.coefficients)
        np.testing.assert_array_equal(restored.support_vectors,
                                      model.support_vectors)
        np.testing.assert_array_equal(
            restored.support_vectors.T @ restored.coefficients,
            model.support_vectors.T @ model.coefficients)
