import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flowsieve import mlp, modelfile
from flowsieve.dataset import Scaler, one_hot
from flowsieve.errors import DataError, TrainingDiverged
from flowsieve.lm import minimize_least_squares
from oracles import (fd_gradient, masked_sigmoid, max_relative_error,
                     residual_jacobian)
from oracles import random_mlp_case as random_case

XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([0, 1, 1, 0])
XOR_T = one_hot(XOR_Y)


def forward_one(model, x):
    """mlp.forward on a one-row batch; returns that row's (hidden, outputs)."""
    A, Y = mlp.forward(model, np.asarray(x, dtype=np.float64)[None, :])
    return A[0], Y[0]


def load_model(path):
    """Read a saved MLP model file the way `flowsieve eval` does."""
    doc = modelfile.ModelFile(path, (mlp.MODEL_FORMAT,))
    return mlp.read_body(doc), doc.meta


class TestInit:
    def test_parameter_count_small(self):
        model = mlp.init_model(10, 6)
        assert model.n_parameters == 6 * 10 + 6 + 2 * 6 + 2 == 80

    def test_parameter_count_full(self):
        model = mlp.init_model(28, 20)
        assert model.n_parameters == 20 * 28 + 20 + 2 * 20 + 2 == 622

    def test_seed_determinism(self):
        a = mlp.init_model(5, 3, seed=9)
        b = mlp.init_model(5, 3, seed=9)
        np.testing.assert_array_equal(a.w1, b.w1)
        np.testing.assert_array_equal(a.w2, b.w2)

    def test_bounds_and_zero_biases(self):
        model = mlp.init_model(7, 4, seed=1)
        limit = np.sqrt(6.0 / (7 + 4))
        assert np.abs(model.w1).max() <= limit
        np.testing.assert_array_equal(model.b1, 0.0)
        np.testing.assert_array_equal(model.b2, 0.0)

    def test_zero_layer_rejected(self):
        with pytest.raises(ValueError):
            mlp.init_model(0, 3)


class TestForward:
    def test_zero_model_outputs_half(self):
        model = mlp.MlpModel(np.zeros(17), n_inputs=2, n_hidden=3)
        _, y = forward_one(model, np.array([1.0, -2.0]))
        np.testing.assert_allclose(y, [0.5, 0.5])

    def test_zero_input_zero_bias(self):
        model = mlp.init_model(4, 3, seed=2)  # biases are zero at init
        _, y = forward_one(model, np.zeros(4))
        np.testing.assert_allclose(y, [0.5, 0.5])

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(3)
        model = mlp.init_model(5, 4, seed=31)
        x = rng.normal(size=5)
        a, y = forward_one(model, x)
        hidden = np.tanh(model.w1 @ x + model.b1)
        out = 1.0 / (1.0 + np.exp(-(model.w2 @ hidden + model.b2)))
        np.testing.assert_allclose(a, hidden, rtol=1e-12)
        np.testing.assert_allclose(y, out, rtol=1e-12)

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="width"):
            mlp.forward(mlp.init_model(3, 2), np.zeros((1, 4)))

    def test_sigmoid_bits_match_masked_reference(self):
        rng = np.random.default_rng(7)
        z = np.concatenate([scale * rng.normal(size=200)
                            for scale in (1e-3, 1.0, 10.0, 100.0, 800.0)]
                           + [np.array([0.0, -0.0, 745.0, -745.0])])
        got, want = mlp._sigmoid(z), masked_sigmoid(z)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_outputs_in_open_interval(self):
        rng = np.random.default_rng(4)
        model = mlp.init_model(3, 5, seed=8)
        for _ in range(20):
            _, y = forward_one(model, rng.normal(size=3))
            assert ((y > 0) & (y < 1)).all()


class TestLoss:
    def test_perfect_outputs(self):
        model = mlp.init_model(2, 2, seed=0)
        _, y = forward_one(model, np.zeros(2))
        assert mlp.loss(model, np.zeros((1, 2)), y[None, :]) == pytest.approx(0.0)

    def test_half_outputs_quarter_loss(self):
        model = mlp.MlpModel(np.zeros(12), n_inputs=2, n_hidden=2)
        value = mlp.loss(model, np.zeros((1, 2)), np.array([[1.0, 0.0]]))
        assert value == pytest.approx(0.25)

    def test_batch_loss_is_mean(self):
        rng = np.random.default_rng(5)
        model = mlp.init_model(3, 2, seed=6)
        X = rng.normal(size=(6, 3))
        T = one_hot(rng.integers(0, 2, 6))
        per_example = [mlp.loss(model, X[i:i + 1], T[i:i + 1]) for i in range(6)]
        assert mlp.loss(model, X, T) == pytest.approx(np.mean(per_example))


class TestGradient:
    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            model, X, T = random_case(rng)
            analytic = mlp.gradient(model, X, T)
            numeric = fd_gradient(model, X, T)
            assert max_relative_error(analytic, numeric) < 1e-6

    def test_zero_at_constructed_stationary_point(self):
        model = mlp.MlpModel(np.zeros(17), n_inputs=2, n_hidden=3)
        X = np.array([[0.3, -0.7]])
        T = np.array([[0.5, 0.5]])  # outputs are exactly (0.5, 0.5)
        np.testing.assert_array_equal(mlp.gradient(model, X, T), 0.0)

    def test_duplicated_batch_invariance(self):
        rng = np.random.default_rng(7)
        model, X, T = random_case(rng)
        doubled = mlp.gradient(model, np.vstack([X, X]), np.vstack([T, T]))
        np.testing.assert_allclose(doubled, mlp.gradient(model, X, T),
                                   rtol=1e-12, atol=1e-15)

    def test_jacobian_consistent_with_gradient(self):
        rng = np.random.default_rng(8)
        model, X, T = random_case(rng)
        residuals, jac = residual_jacobian(model, X, T)
        np.testing.assert_allclose(jac.T @ residuals / len(X),
                                   mlp.gradient(model, X, T),
                                   rtol=1e-10, atol=1e-14)


class TestNormalEquations:
    """normal_equations against the products of the whole-batch Jacobian."""

    CHUNK = 7

    @pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
    def test_matches_full_jacobian(self, monkeypatch, n):
        monkeypatch.setattr(mlp, "_CHUNK_ROWS", self.CHUNK)
        rng = np.random.default_rng(30 + n)
        model = mlp.init_model(5, 4, seed=30 + n)
        X = rng.normal(size=(n, 5))
        T = one_hot(rng.integers(0, 2, n))
        jtj, jtr = mlp.normal_equations(model, X, T)
        residuals, jac = residual_jacobian(model, X, T)
        want_jtj, want_jtr = jac.T @ jac, jac.T @ residuals
        if n <= self.CHUNK:  # one chunk: the very same products
            assert np.array_equal(jtj, want_jtj)
            assert np.array_equal(jtr, want_jtr)
        np.testing.assert_allclose(jtj, want_jtj, rtol=1e-12)
        np.testing.assert_allclose(jtr, want_jtr, rtol=1e-12)

    def test_peak_memory_independent_of_rows(self, monkeypatch):
        monkeypatch.setattr(mlp, "_CHUNK_ROWS", 64)
        rng = np.random.default_rng(31)
        model = mlp.init_model(28, 6, seed=31)
        peaks = []
        for n in (2000, 8000):
            X = rng.normal(size=(n, 28))
            T = one_hot(rng.integers(0, 2, n))
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                mlp.normal_equations(model, X, T)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks

    @pytest.mark.parametrize("n_outputs", [1, 2, 3])
    @pytest.mark.parametrize("n_hidden", [1, 4])
    @pytest.mark.parametrize("n", [1, CHUNK, 2 * CHUNK + 3])
    def test_fill_bits_match_oracle(self, monkeypatch, n, n_hidden, n_outputs):
        """Each chunk's in-place fill, into a buffer still holding the last
        chunk (or NaN before the first), equals the oracle's zeroed einsum
        Jacobian of the same rows, bit for bit."""
        monkeypatch.setattr(mlp, "_CHUNK_ROWS", self.CHUNK)
        rng = np.random.default_rng(40 + n + 10 * n_hidden + n_outputs)
        model = mlp.init_model(5, n_hidden, seed=n, n_outputs=n_outputs)
        X = rng.normal(size=(n, 5))
        T = rng.random((n, n_outputs))
        fill, fills = mlp._fill_jacobian, []

        def recording(buffer, model, X, T):
            if not fills:
                buffer[:] = np.nan
            residuals, jac = fill(buffer, model, X, T)
            assert np.shares_memory(jac, buffer)
            fills.append((jac.copy(), residuals))
            return residuals, jac

        monkeypatch.setattr(mlp, "_fill_jacobian", recording)
        mlp.normal_equations(model, X, T)
        starts = range(0, n, self.CHUNK)
        assert len(fills) == len(starts)
        for start, (jac, residuals) in zip(starts, fills):
            rows = slice(start, start + self.CHUNK)
            want_residuals, want_jac = residual_jacobian(model, X[rows], T[rows])
            assert np.array_equal(jac, want_jac)
            assert np.array_equal(residuals, want_residuals)

    def test_peak_memory_within_one_chunk(self, monkeypatch):
        """One chunk's Jacobian is held at a time, with no second one and no
        full-size temporary beside it: the peak stays within 1.25 chunk
        Jacobians plus the J^T J and J^T r accumulators."""
        chunk = 2048
        monkeypatch.setattr(mlp, "_CHUNK_ROWS", chunk)
        rng = np.random.default_rng(32)
        model = mlp.init_model(28, 4, seed=32)
        n, P = 3 * chunk + 17, model.n_parameters
        X = rng.normal(size=(n, 28))
        T = one_hot(rng.integers(0, 2, n))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            mlp.normal_equations(model, X, T)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        chunk_jacobian = model.n_outputs * chunk * P * 8
        assert peak <= 1.25 * chunk_jacobian + P * P * 8 + P * 8, peak


class TestTrainBp:
    def test_xor_converges(self):
        model = mlp.init_model(2, 4, seed=1)
        cfg = mlp.TrainConfig(mode="bp-sgd", max_epochs=5000, learning_rate=0.5,
                              batch_size=4, patience=5000, seed=1)
        trained, history = mlp.train_bp(model, XOR_X, XOR_T, XOR_X, XOR_T, cfg)
        assert (mlp.predict_batch(trained, XOR_X) == XOR_Y).all()
        assert len(history.train_loss) <= 5000

    def test_diverged_error_path(self):
        # lr=1e9 with an overflowing input row drives the loss to NaN.
        X = np.array([[np.inf, np.inf], [0.5, -0.5]])
        T = np.array([[1.0, 0.0], [0.0, 1.0]])
        model = mlp.init_model(2, 3, seed=0)
        cfg = mlp.TrainConfig(mode="bp-sgd", learning_rate=1e9, max_epochs=10,
                              seed=0)
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as err:
            mlp.train_bp(model, X, T, X, T, cfg)
        assert err.value.epoch == 0
        assert "diverged" in str(err.value)

    def test_patience_stops_exactly_after_best(self):
        # Gradient is exactly zero at this stationary point, so the
        # validation loss never improves after the first epoch.
        model = mlp.MlpModel(np.zeros(12), n_inputs=2, n_hidden=2)
        X = np.array([[0.1, 0.2], [0.3, 0.4]])
        T = np.full((2, 2), 0.5)
        cfg = mlp.TrainConfig(mode="bp-sgd", max_epochs=100, patience=6, seed=0)
        _, history = mlp.train_bp(model, X, T, X, T, cfg)
        assert history.stopping_reason == "early_stop"
        assert len(history.val_loss) == 1 + cfg.patience

    def test_returns_best_validation_parameters(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(20, 3))
        T = one_hot(rng.integers(0, 2, 20))
        model = mlp.init_model(3, 4, seed=11)
        cfg = mlp.TrainConfig(mode="bp-sgd", max_epochs=50, learning_rate=0.3,
                              patience=50, seed=11)
        trained, history = mlp.train_bp(model, X, T, X[:5], T[:5], cfg)
        best = min(history.val_loss)
        assert mlp.loss(trained, X[:5], T[:5]) == pytest.approx(best)

    def test_history_deterministic(self):
        cfg = mlp.TrainConfig(mode="bp-sgd", max_epochs=30, learning_rate=0.5,
                              patience=30, seed=3)
        runs = []
        for _ in range(2):
            model = mlp.init_model(2, 3, seed=3)
            _, history = mlp.train_bp(model, XOR_X, XOR_T, XOR_X, XOR_T, cfg)
            runs.append(history)
        assert runs[0].train_loss == runs[1].train_loss
        assert runs[0].val_loss == runs[1].val_loss


class TestTrainLm:
    def test_xor_converges_fast(self):
        model = mlp.init_model(2, 4, seed=2)
        cfg = mlp.TrainConfig(mode="lm", max_epochs=200, patience=200, seed=2)
        trained, history = mlp.train_lm(model, XOR_X, XOR_T, XOR_X, XOR_T, cfg)
        assert (mlp.predict_batch(trained, XOR_X) == XOR_Y).all()
        assert len(history.train_loss) <= 200

    def test_accepted_losses_strictly_decrease(self):
        model = mlp.init_model(2, 4, seed=4)
        cfg = mlp.TrainConfig(mode="lm", max_epochs=100, patience=100, seed=4)
        _, history = mlp.train_lm(model, XOR_X, XOR_T, XOR_X, XOR_T, cfg)
        losses = history.train_loss
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_quadratic_sanity_one_step(self):
        # Linear residuals r = A theta - b: one accepted step with mu -> 0
        # lands on the normal-equations optimum.
        rng = np.random.default_rng(12)
        A = rng.normal(size=(8, 3))
        b = rng.normal(size=8)
        optimum = np.linalg.solve(A.T @ A, A.T @ b)
        result = minimize_least_squares(
            lambda t: A @ t - b, lambda t: (A.T @ A, A.T @ (A @ t - b)),
            np.zeros(3),
            mu_init=1e-12, max_iterations=1)
        assert np.abs(result.theta - optimum).max() < 1e-8
        assert result.iterations == 1

    def test_mu_max_stop_on_kinked_flat_problem(self):
        # r(theta) = 1 + |theta| at theta = 0: every proposed step increases
        # the cost, so mu climbs to its cap; the gradient norm stays at 1.
        result = minimize_least_squares(
            lambda t: np.array([1.0 + abs(t[0])]),
            lambda t: (np.array([[1.0]]),
                       np.array([(1.0 if t[0] >= 0 else -1.0)
                                 * (1.0 + abs(t[0]))])),
            np.zeros(1), max_iterations=50)
        assert result.reason == "mu_max"
        assert result.iterations == 0  # no step was accepted

    def test_large_mu_step_approaches_negative_gradient(self):
        rng = np.random.default_rng(13)
        model, X, T = random_case(rng)
        residuals, jac = residual_jacobian(model, X, T)
        gradient = jac.T @ residuals
        hessian = jac.T @ jac
        mu = 1e9 * np.linalg.norm(hessian)
        step = np.linalg.solve(hessian + mu * np.eye(len(gradient)), -gradient)
        cosine = (step @ -gradient) / (np.linalg.norm(step)
                                       * np.linalg.norm(gradient))
        assert cosine > 0.999

    def test_gradient_stop_reason(self):
        model = mlp.init_model(2, 4, seed=5)
        cfg = mlp.TrainConfig(mode="lm", max_epochs=500, patience=500, seed=5)
        _, history = mlp.train_lm(model, XOR_X, XOR_T, XOR_X, XOR_T, cfg)
        assert history.stopping_reason in ("converged: gradient",
                                           "converged: mu_max", "max_epochs")

    def test_validation_patience(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(30, 3))
        T = one_hot(rng.integers(0, 2, 30))
        X_val = rng.normal(size=(10, 3)) + 5.0  # unrelated, so val soon stalls
        T_val = one_hot(rng.integers(0, 2, 10))
        model = mlp.init_model(3, 4, seed=14)
        cfg = mlp.TrainConfig(mode="lm", max_epochs=500, patience=3, seed=14)
        _, history = mlp.train_lm(model, X, T, X_val, T_val, cfg)
        if history.stopping_reason == "early_stop":
            best_epoch = int(np.argmin(history.val_loss))
            assert len(history.val_loss) == best_epoch + 1 + cfg.patience


class TestPredict:
    def test_argmax_cases(self):
        assert int(np.argmax([0.9, 0.2])) == 0  # NonTor
        assert int(np.argmax([0.2, 0.9])) == 1  # Tor
        assert int(np.argmax([0.5, 0.5])) == 0  # tie goes to class 0

    def test_predict_uses_argmax(self):
        model = mlp.init_model(3, 4, seed=15)
        x = np.array([0.1, -0.2, 0.3])
        _, y = forward_one(model, x)
        assert mlp.predict_batch(model, x[None, :])[0] == int(np.argmax(y))

    @settings(max_examples=50)
    @given(st.floats(0.01, 0.99), st.floats(0.01, 0.99),
           st.floats(0.1, 5.0), st.floats(-2.0, 2.0))
    def test_argmax_invariant_under_increasing_transform(self, y0, y1,
                                                         scale, shift):
        outputs = np.array([y0, y1])
        # Increasing, but rounding can map two close outputs to one value.
        transformed = scale * outputs + shift
        assume(transformed[0] != transformed[1])
        assert int(np.argmax(outputs)) == int(np.argmax(transformed))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        model = mlp.init_model(4, 3, seed=16)
        scaler = Scaler(mean=np.array([1.0, 2.0, 3.0, 4.0]),
                        std=np.array([1.0, 0.5, 2.0, 1.0]),
                        passthrough=np.array([False, False, True, False]))
        path = tmp_path / "model.txt"
        mlp.save_model(path, model, ("a", "b", "c", "d"), scaler)
        loaded, meta = load_model(path)
        np.testing.assert_array_equal(loaded.w1, model.w1)
        np.testing.assert_array_equal(loaded.b1, model.b1)
        np.testing.assert_array_equal(loaded.w2, model.w2)
        np.testing.assert_array_equal(loaded.b2, model.b2)
        assert meta["features"] == ("a", "b", "c", "d")
        np.testing.assert_array_equal(meta["scaler"].mean, scaler.mean)
        np.testing.assert_array_equal(meta["scaler"].passthrough,
                                      scaler.passthrough)

    def test_versioned_header(self, tmp_path):
        path = tmp_path / "model.txt"
        mlp.save_model(path, mlp.init_model(2, 2, seed=0), ("a", "b"))
        assert path.read_text().startswith("flowsieve-mlp 1\n")

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("something else\n")
        with pytest.raises(DataError, match="not a"):
            load_model(path)
