import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flowsieve import lm, mlp, modelfile
from flowsieve.dataset import Scaler, one_hot
from flowsieve.errors import DataError
from flowsieve.lm import minimize_least_squares
from conftest import REPO_ROOT
from oracles import (fd_gradient, masked_sigmoid, max_relative_error,
                     reference_gradient, reference_normal_equations, reference_train_bp,
                     residual_jacobian)
from oracles import random_mlp_case as random_case

XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([0, 1, 1, 0])
XOR_T = one_hot(XOR_Y)


def forward_one(model, x):
    """mlp.forward on a one-row batch; returns that row's (hidden, outputs)."""
    A, Y = mlp.forward(model, np.asarray(x, dtype=np.float64)[None, :])
    return A[0], Y[0]


def lm_pass(model, X, T) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, Y, R = Y - T) of mlp.residuals over X, the pass train_lm hands to
    normal_equations."""
    ws = mlp._Workspace(model, len(X))
    mlp.residuals(model, X, T, ws)
    return ws.hidden, ws.y, ws.z


def normal_equations(model, X, T) -> tuple[np.ndarray, np.ndarray]:
    """mlp.normal_equations at the pass mlp.residuals leaves, as in train_lm."""
    return mlp.normal_equations(model, X, *lm_pass(model, X, T))


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

    def test_out_buffer_returned_with_the_same_bits(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            model, X, T = random_case(rng, batch_max=40)
            ws = mlp._Workspace(model, len(X))
            ws.grad[:] = np.nan
            assert mlp.gradient(model, X, T, ws) is ws.grad
            fresh = mlp.gradient(model, X, T)
            np.testing.assert_array_equal(ws.grad.view(np.uint64), fresh.view(np.uint64))
            np.testing.assert_array_equal(
                fresh.view(np.uint64), reference_gradient(model, X, T).view(np.uint64))

    def test_workspace_bits_match_reference_over_shapes(self):
        """One workspace per model, more rows than some of its batches: each
        batch, a 1-row one included, uses the leading rows."""
        rng = np.random.default_rng(13)
        for _ in range(60):
            model, X, T = random_case(rng, n_max=9, h_max=9, batch_max=40)
            ws = mlp._Workspace(model, len(X) + int(rng.integers(0, 4)))
            for rows in (len(X), 1, int(rng.integers(1, len(X) + 1))):
                got = mlp.gradient(model, X[:rows], T[:rows], ws)
                np.testing.assert_array_equal(
                    got.view(np.uint64),
                    reference_gradient(model, X[:rows], T[:rows]).view(np.uint64))

    def test_forward_bits_same_with_and_without_workspace(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            model, X, _ = random_case(rng, n_max=9, h_max=9, batch_max=40)
            ws = mlp._Workspace(model, len(X) + int(rng.integers(0, 4)))
            A = np.tanh(X @ model.w1.T + model.b1)  # the expressions forward replaced
            want = (A, masked_sigmoid(A @ model.w2.T + model.b2))
            for got in (mlp.forward(model, X), mlp.forward(model, X, ws)):
                for g, w in zip(got, want):
                    np.testing.assert_array_equal(g.view(np.uint64), w.view(np.uint64))

    def test_sigmoid_bits_at_the_edges(self):
        z = np.array([[0.0, -0.0], [1e-300, -1e-300], [40.0, -40.0], [800.0, -800.0],
                      [np.inf, -np.inf], [np.nan, -np.nan]])
        want = masked_sigmoid(z).view(np.uint64)
        np.testing.assert_array_equal(mlp._sigmoid(z).view(np.uint64), want)
        z_copy, out = z.copy(), np.empty_like(z)
        got = mlp._sigmoid(z_copy, z_copy, out)  # e in z's buffer, as in forward
        assert got is out
        np.testing.assert_array_equal(got.view(np.uint64), want)

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
        jtj, jtr = normal_equations(model, X, T)
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
            forward_pass = lm_pass(model, X, T)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                mlp.normal_equations(model, X, *forward_pass)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks

    @pytest.mark.parametrize("n_outputs", [2])  # the one count left; keeps the cases' seeds
    @pytest.mark.parametrize("n_hidden", [1, 4])
    @pytest.mark.parametrize("n", [1, CHUNK, 2 * CHUNK + 3])
    def test_fill_bits_match_oracle(self, monkeypatch, n, n_hidden, n_outputs):
        """Each chunk's in-place fill, into a buffer still holding the last
        chunk (or NaN before the first), equals the oracle's zeroed einsum
        Jacobian of the same rows, bit for bit."""
        monkeypatch.setattr(mlp, "_CHUNK_ROWS", self.CHUNK)
        rng = np.random.default_rng(40 + n + 10 * n_hidden + n_outputs)
        model = mlp.init_model(5, n_hidden, seed=n)
        assert model.n_outputs == n_outputs
        X = rng.normal(size=(n, 5))
        T = rng.random((n, n_outputs))
        monkeypatch.setattr(mlp, "chunk_workers", lambda chunks: 1)  # fills in chunk order
        fill, fills = mlp._fill_jacobian, []

        def recording(buffer, model, X, A, Y):
            if not fills:
                buffer[:] = np.nan
            jac = fill(buffer, model, X, A, Y)
            assert np.shares_memory(jac, buffer)
            fills.append(jac.copy())
            return jac

        monkeypatch.setattr(mlp, "_fill_jacobian", recording)
        A, Y, R = lm_pass(model, X, T)
        mlp.normal_equations(model, X, A, Y, R)
        starts = range(0, n, self.CHUNK)
        assert len(fills) == len(starts)
        for start, jac in zip(starts, fills):
            rows = slice(start, start + self.CHUNK)
            want_residuals, want_jac = residual_jacobian(model, X[rows], T[rows])
            assert np.array_equal(jac, want_jac)
            assert np.array_equal(R[rows].ravel(), want_residuals)

    @staticmethod
    def chunk_build_peak(monkeypatch, workers):
        """Traced peak of one normal_equations call over 3 chunks and a bit at
        `workers` workers, with one chunk's Jacobian and the accumulators'
        sizes in bytes."""
        chunk = 2048
        monkeypatch.setattr(mlp, "_CHUNK_ROWS", chunk)
        monkeypatch.setattr(mlp, "chunk_workers", lambda chunks: workers)
        rng = np.random.default_rng(32)
        model = mlp.init_model(28, 4, seed=32)
        n, P = 3 * chunk + 17, model.n_parameters
        X = rng.normal(size=(n, 28))
        T = one_hot(rng.integers(0, 2, n))
        forward_pass = lm_pass(model, X, T)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            mlp.normal_equations(model, X, *forward_pass)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        return peak, model.n_outputs * chunk * P * 8, P * P * 8 + P * 8

    def test_peak_memory_within_one_chunk(self, monkeypatch):
        """One worker holds one chunk's Jacobian at a time, with no second one
        and no full-size temporary beside it: the peak stays within 1.25 chunk
        Jacobians plus the J^T J and J^T r accumulators."""
        peak, chunk_jacobian, accumulators = self.chunk_build_peak(monkeypatch, 1)
        assert peak <= 1.25 * chunk_jacobian + accumulators, peak

    def test_peak_memory_within_one_chunk_per_worker(self, monkeypatch):
        """Two workers hold one chunk's Jacobian each, and one pending pair of
        products each: within 2 x 1.25 chunk Jacobians plus the accumulators
        plus two products' worth of them."""
        peak, chunk_jacobian, accumulators = self.chunk_build_peak(monkeypatch, 2)
        assert peak <= 2 * 1.25 * chunk_jacobian + accumulators + 2 * accumulators, peak

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n", [1, 4096, 4097, 3 * 4096 + 17])
    def test_bits_match_serial_oracle(self, monkeypatch, n, workers):
        """At the real chunk size and unb-scale's P = 188, one or two workers
        give the serial loop's J^T J and J^T r byte for byte; with two, the
        main thread and the helper each run chunks' forward passes and fill
        chunks' Jacobians."""
        monkeypatch.setattr(mlp, "chunk_workers", lambda chunks: workers)
        threads = {"forward": set(), "_fill_jacobian": set()}
        for name, seen in threads.items():
            def recording(*args, _call=getattr(mlp, name), _seen=seen):
                _seen.add(threading.current_thread() is threading.main_thread())
                return _call(*args)
            monkeypatch.setattr(mlp, name, recording)
        rng = np.random.default_rng(50 + n)
        model = mlp.init_model(28, 6, seed=n)
        X = rng.normal(size=(n, 28))
        T = one_hot(rng.integers(0, 2, n))
        jtj, jtr = normal_equations(model, X, T)
        monkeypatch.undo()
        want_jtj, want_jtr = reference_normal_equations(model, X, T)
        assert jtj.tobytes() == want_jtj.tobytes()
        assert jtr.tobytes() == want_jtr.tobytes()
        both = {True, False} if workers == 2 and n > 4096 else {True}
        assert threads == {"forward": both, "_fill_jacobian": both}

    @pytest.mark.parametrize("openblas", [None])
    def test_one_worker_unless_blas_runs_one_thread(self, monkeypatch, openblas):
        """Without OpenBLAS (another BLAS, or no /proc), whose thread count LM
        cannot hold at one, the serial loop runs, and no thread is started."""
        monkeypatch.setattr(mlp, "_openblas", lambda: openblas)
        monkeypatch.setattr(mlp, "_helper", lambda: pytest.fail("helper thread used"))
        monkeypatch.setattr(mlp, "_CHUNK_ROWS", 7)
        assert mlp.chunk_workers(3) == 1
        before = threading.enumerate()
        model = mlp.init_model(5, 4, seed=3)
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20, 5))
        T = one_hot(rng.integers(0, 2, 20))
        normal_equations(model, X, T)
        assert threading.enumerate() == before

    def test_worker_rule(self, monkeypatch):
        """Two workers need OpenBLAS, 2 CPUs and 2 chunks; one chunk does not
        even look the BLAS up."""
        monkeypatch.setattr(mlp, "_openblas", lambda: (lambda: 1, lambda threads: None))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert mlp.chunk_workers(2) == 2
        assert mlp.chunk_workers(11) == 2
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert mlp.chunk_workers(2) == 1
        monkeypatch.setattr(mlp, "_openblas", lambda: pytest.fail("looked up"))
        assert mlp.chunk_workers(1) == 1
        assert mlp.chunk_workers(0) == 1

    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_blas_thread_takes_two_workers(self, threads):
        """Under OPENBLAS_NUM_THREADS=1 or =2, in a fresh process, a real
        train_lm over two chunks records two workers when 2 CPUs are
        available, normal_equations still gives the serial oracle's bytes,
        and the caller's thread count is back afterwards."""
        out = blas_child(threads, (
            "from oracles import reference_normal_equations\n"
            "rng = np.random.default_rng(60)\n"
            "model = mlp.init_model(28, 6, seed=60)\n"
            "X = rng.normal(size=(2 * 4096 + 5, 28))\n"
            "T = one_hot(rng.integers(0, 2, len(X)))\n"
            "ws = mlp._Workspace(model, len(X))\n"
            "mlp.residuals(model, X, T, ws)\n"
            "got = mlp.normal_equations(model, X, ws.hidden, ws.y, ws.z)\n"
            "want = reference_normal_equations(model, X, T)\n"
            "_, history = mlp.train_lm(model, X, T, X[:50], T[:50], "
            "mlp.TrainConfig(mode='lm', max_epochs=1))\n"
            "print(mlp.blas_threads(), len(os.sched_getaffinity(0)), history.chunk_workers,"
            " all(a.tobytes() == b.tobytes() for a, b in zip(got, want)))\n"))
        blas_threads, cpus, workers, same = out.split()
        assert blas_threads == str(threads) or int(cpus) < threads
        assert workers == ("2" if int(cpus) >= 2 else "1")
        assert same == "True"


def blas_child(threads: int, code: str) -> str:
    """stdout of `code`, run after numpy, mlp, one_hot and os are imported in
    a fresh process under OPENBLAS_NUM_THREADS=threads; skips the test where
    the child finds no OpenBLAS thread count."""
    prelude = (
        "import os, sys\n"
        f"sys.path[:0] = [{str(REPO_ROOT / 'src')!r}, {str(REPO_ROOT / 'tests')!r}]\n"
        "import numpy as np\n"
        "from flowsieve import mlp\n"
        "from flowsieve.dataset import one_hot\n"
        "if mlp.blas_threads() is None:\n"
        "    sys.exit(99)\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    run = subprocess.run([sys.executable, "-c", prelude + code], env=env,
                         capture_output=True, text=True, timeout=120)
    if run.returncode == 99:
        pytest.skip("no OpenBLAS thread count to read in this build")
    assert run.returncode == 0, run.stderr
    return run.stdout


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
        with np.errstate(all="ignore"), pytest.raises(DataError) as err:
            mlp.train_bp(model, X, T, X, T, cfg)
        assert str(err.value) == ("training diverged at epoch 0: "
                                  "non-finite loss or parameters")

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

    @pytest.mark.parametrize("n, batch_size, patience, stop", [
        (64, 16, 40, "max_epochs"),  # the batch size divides N
        (50, 16, 40, "max_epochs"),  # a short last batch
        (13, 1, 40, "max_epochs"),
        (20, 64, 40, "max_epochs"),  # one batch larger than N
        (20, 10**12, 40, "max_epochs"),  # the workspace holds N rows, not batch_size
        (50, 8, 3, "early_stop"),
    ])
    def test_bits_match_reference_loop(self, n, batch_size, patience, stop):
        rng = np.random.default_rng(n + batch_size)
        X = rng.normal(size=(n, 3))
        T = one_hot(rng.integers(0, 2, n))
        X_val, T_val = rng.normal(size=(9, 3)), one_hot(rng.integers(0, 2, 9))
        cfg = mlp.TrainConfig(mode="bp-sgd", max_epochs=40, learning_rate=0.5,
                              batch_size=batch_size, patience=patience, seed=5)
        model = mlp.init_model(3, 4, seed=5)
        best, history = mlp.train_bp(model, X, T, X_val, T_val, cfg)
        want, want_history = reference_train_bp(model, X, T, X_val, T_val, cfg)
        assert history.stopping_reason == want_history.stopping_reason == stop
        np.testing.assert_array_equal(best.theta.view(np.uint64),
                                      want.theta.view(np.uint64))
        for got, ref in ((history.train_loss, want_history.train_loss),
                         (history.val_loss, want_history.val_loss)):
            np.testing.assert_array_equal(np.array(got).view(np.uint64),
                                          np.array(ref).view(np.uint64))


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
        # Linear residuals r = A theta - b: one accepted step from 0 lands on
        # the damped normal-equations solution at mu = MU_INIT.
        rng = np.random.default_rng(12)
        A = rng.normal(size=(8, 3))
        b = rng.normal(size=8)
        damped = np.linalg.solve(A.T @ A + lm.MU_INIT * np.eye(3), A.T @ b)
        result = minimize_least_squares(
            lambda t: A @ t - b, lambda t: (A.T @ A, A.T @ (A @ t - b)),
            np.zeros(3), max_iterations=1)
        assert np.abs(result.theta - damped).max() < 1e-8
        assert result.iterations == 1

    @pytest.mark.parametrize("k, stop_after, reason", [
        (1, None, "max_iterations"), (4, None, "max_iterations"),
        (10, 1, "callback"), (10, 3, "callback")])
    def test_normal_equations_built_once_per_step(self, monkeypatch, k, stop_after,
                                                  reason):
        # J^T J and J^T r are built only for a step that will be taken:
        # not after the last one. A start at mu = 1 keeps the steps short of
        # the optimum, so no gradient stop ends the run first.
        monkeypatch.setattr(lm, "MU_INIT", 1.0)
        rng = np.random.default_rng(15)
        A = rng.normal(size=(8, 3))
        b = rng.normal(size=8)
        builds, steps = [], []

        def normal_fn(t):
            builds.append(t)
            return A.T @ A, A.T @ (A @ t - b)

        def callback(t, cost):
            steps.append(t)
            return len(steps) != stop_after

        result = minimize_least_squares(lambda t: A @ t - b, normal_fn, np.zeros(3),
                                        max_iterations=k, callback=callback)
        assert result.reason == reason
        assert len(builds) == result.iterations == (stop_after or k)

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


    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_memory_within_the_budget(self, monkeypatch, workers):
        """Three LM steps at P = 994 over two chunks hold J^T J and, per worker, one
        product and one chunk Jacobian: the traced peak stays within those cells
        plus 10 %, which check_budget counts. The damping once added an
        identity matrix and two P x P temporaries, and J^T J of the last step and
        the last chunk's product stayed alive while the next ones were built."""
        chunk, rows, hidden = 150, 300, 32
        monkeypatch.setattr(mlp, "_CHUNK_ROWS", chunk)
        monkeypatch.setattr(mlp, "chunk_workers", lambda chunks: workers)
        rng = np.random.default_rng(70)
        X, X_val = rng.normal(size=(rows, 28)), rng.normal(size=(50, 28))
        T, T_val = one_hot(rng.integers(0, 2, rows)), one_hot(rng.integers(0, 2, 50))
        model = mlp.init_model(28, hidden, seed=70)
        P = model.n_parameters
        cfg = mlp.TrainConfig(mode="lm", max_epochs=3, patience=3, seed=70)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _, history = mlp.train_lm(model, X, T, X_val, T_val, cfg)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert (P, len(history.train_loss), history.chunk_workers) == (994, 3, workers)
        held = (1 + workers) * P * P + workers * model.n_outputs * chunk * P
        assert peak <= 1.1 * 8 * held, peak / (8 * P * P)
        assert held <= mlp.check_budget(28, hidden, rows, "lm")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_forward_pass_per_point(self, monkeypatch, workers):
        """train_lm's forward passes over the training rows cover each row once
        per residual_fn call, in chunks, and normal_equations runs none: it
        builds from the pass the last residual_fn call left."""
        monkeypatch.setattr(mlp, "_CHUNK_ROWS", 7)
        monkeypatch.setattr(mlp, "chunk_workers", lambda chunks: workers)
        rng = np.random.default_rng(90)
        X, X_val = rng.normal(size=(40, 3)), rng.normal(size=(9, 3))
        T, T_val = one_hot(rng.integers(0, 2, 40)), one_hot(rng.integers(0, 2, 9))
        passes, forwards, building = [], [], []
        forward, residuals, normal_equations = (
            mlp.forward, mlp.residuals, mlp.normal_equations)

        def counting_forward(model, rows, ws=None, start=0):
            if np.shares_memory(rows, X):
                forwards.append((start, len(rows), bool(building)))
            return forward(model, rows, ws, start)

        def counting_residuals(*args):
            passes.append(len(forwards))
            return residuals(*args)

        def flagged_normal_equations(*args):
            building.append(True)
            try:
                return normal_equations(*args)
            finally:
                building.pop()

        monkeypatch.setattr(mlp, "forward", counting_forward)
        monkeypatch.setattr(mlp, "residuals", counting_residuals)
        monkeypatch.setattr(mlp, "normal_equations", flagged_normal_equations)
        cfg = mlp.TrainConfig(mode="lm", max_epochs=4, patience=4)
        _, history = mlp.train_lm(mlp.init_model(3, 4, seed=90), X, T, X_val, T_val, cfg)
        assert len(history.train_loss) == 4 and len(passes) >= 5
        assert not any(inside for _, _, inside in forwards)
        covered = np.zeros((len(passes), len(X)), dtype=int)
        for call, first in enumerate(passes):
            last = passes[call + 1] if call + 1 < len(passes) else len(forwards)
            for start, rows, _ in forwards[first:last]:
                covered[call, start:start + rows] += 1
                assert rows <= 7
        np.testing.assert_array_equal(covered, 1)

    def test_history_records_the_chunk_workers_used(self):
        cfg = mlp.TrainConfig(mode="lm", max_epochs=2)
        _, history = mlp.train(mlp.init_model(2, 4), XOR_X, XOR_T, XOR_X, XOR_T, cfg)
        assert history.chunk_workers == 1  # one chunk
        _, history = mlp.train(mlp.init_model(2, 4), XOR_X, XOR_T, XOR_X, XOR_T,
                               mlp.TrainConfig(mode="bp-sgd", max_epochs=2))
        assert history.chunk_workers is None

    @pytest.mark.parametrize("rows", [3000, 6000])
    def test_model_bytes_do_not_depend_on_blas_threads(self, rows):
        """Three LM steps on one chunk (3,000 rows) or two (6,000) end at the
        same parameters and losses, byte for byte, under OPENBLAS_NUM_THREADS=1
        and =2: train_lm holds BLAS at one thread. At the caller's thread
        count both sizes once differed in their last bits."""
        code = (
            "import hashlib\n"
            "rng = np.random.default_rng(80)\n"
            f"X = rng.normal(size=({rows} + 500, 28))\n"
            "T = one_hot((X[:, :4].sum(axis=1) + rng.normal(size=len(X)) > 0).astype(int))\n"
            "model = mlp.init_model(28, 6, seed=80)\n"
            f"trained, history = mlp.train_lm(model, X[:{rows}], T[:{rows}], X[{rows}:],"
            f" T[{rows}:], mlp.TrainConfig(mode='lm', max_epochs=3, patience=3))\n"
            "print(mlp.blas_threads(), len(os.sched_getaffinity(0)), len(history.val_loss),"
            " not np.array_equal(trained.theta, model.theta), hashlib.sha256("
            "trained.theta.tobytes() + np.array(history.train_loss + history.val_loss)"
            ".tobytes()).hexdigest())\n")
        runs = {threads: blas_child(threads, code).split() for threads in (1, 2)}
        for threads, (blas_threads, cpus, epochs, moved, _) in runs.items():
            assert blas_threads == str(threads) or int(cpus) < threads
            assert (epochs, moved) == ("3", "True")
        assert runs[1][4] == runs[2][4]

    def test_train_lm_restores_the_callers_blas_threads(self, monkeypatch):
        """train_lm runs LM on one OpenBLAS thread and gives the caller's
        count back afterwards, also when training raises."""
        if mlp.blas_threads() is None:
            pytest.skip("no OpenBLAS thread count to set in this build")
        get, put = mlp._openblas()
        callers = get()
        cfg = mlp.TrainConfig(mode="lm", max_epochs=2)
        try:
            put(2)
            mlp.train_lm(mlp.init_model(2, 4), XOR_X, XOR_T, XOR_X, XOR_T, cfg)
            assert mlp.blas_threads() == 2
            seen = []

            def failing(*args, **kwargs):
                seen.append(mlp.blas_threads())
                raise DataError("training diverged at epoch 0")

            monkeypatch.setattr(mlp, "minimize_least_squares", failing)
            with pytest.raises(DataError):
                mlp.train_lm(mlp.init_model(2, 4), XOR_X, XOR_T, XOR_X, XOR_T, cfg)
            assert seen == [1]
            assert mlp.blas_threads() == 2
        finally:
            put(callers)


class TestBudget:
    """check_budget counts cells from the layer sizes alone, allocating nothing."""

    # (n_inputs, hidden, rows) giving exactly MAX_CELLS = 10**8 cells:
    # LM: 4931817 x 20 activations + 3 x 82**2 + 2 x 2 x 4096 x 82 (P = 82);
    # SGD: 7142826 x 14 activations + P = 436.
    EXACT = {"lm": (1, 20, 4931817), "bp-sgd": (28, 14, 7142826)}

    @pytest.mark.parametrize("mode", ["lm", "bp-sgd"])
    def test_exactly_max_cells_passes_and_one_more_fails(self, monkeypatch, mode):
        n_inputs, hidden, rows = self.EXACT[mode]
        assert mlp.check_budget(n_inputs, hidden, rows, mode) == mlp.MAX_CELLS == 10**8
        with pytest.raises(ValueError, match=rf"^P = \d+ parameters: {mode} would allocate "
                                             f"{10**8 + hidden} cells, more than {10**8}$"):
            mlp.check_budget(n_inputs, hidden, rows + 1, mode)
        monkeypatch.setattr(mlp, "MAX_CELLS", 10**8 - 1)  # the same cells, one over
        with pytest.raises(ValueError, match=f"would allocate {10**8} cells, "
                                             f"more than {10**8 - 1}$"):
            mlp.check_budget(n_inputs, hidden, rows, mode)

    def test_lm_counts_its_square_arrays_and_two_workers_chunks(self):
        """At P = 994: J^T J and two products, two 2 x 4096-row chunk Jacobians
        (N = 10000 spans three chunks), and N x hidden activations; SGD counts P."""
        assert mlp.check_budget(28, 32, 10000, "lm") == (
            3 * 994**2 + 2 * 2 * 4096 * 994 + 10000 * 32)
        assert mlp.check_budget(28, 32, 100, "lm") == 3 * 994**2 + 2 * 2 * 100 * 994 + 3200
        assert mlp.check_budget(28, 32, 10000, "bp-sgd") == 994 + 10000 * 32


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
        assert mlp.predict_batch(model, np.full((1, 3), np.nan))[0] == 0  # NaN outputs

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
        scaler = Scaler(mean=np.zeros(2), std=np.ones(2),
                        passthrough=np.array([False, True]))
        mlp.save_model(path, mlp.init_model(2, 2, seed=0), ("a", "b"), scaler)
        assert path.read_text().startswith("flowsieve-mlp 1\n")

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("something else\n")
        with pytest.raises(DataError, match="not a"):
            load_model(path)
