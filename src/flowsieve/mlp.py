"""Two-layer perceptron with tanh hidden units and sigmoid outputs.

The loss is the mean over examples of half the squared output error, so the
same objective is shared by the mini-batch gradient-descent trainer and the
damped-least-squares trainer. Output i scores class i of CLASS_NAMES.
"""

from __future__ import annotations

import ctypes
import functools
import os
from dataclasses import dataclass, field

import numpy as np

from . import modelfile
from .dataset import CLASS_NAMES, MAX_CELLS
from .errors import DataError
from .lm import minimize_least_squares


def _blocks(n_inputs: int, n_hidden: int) -> dict[str, tuple[slice, int, int]]:
    """The one layout of the flat parameter vector theta: each block's slice
    and (rows, cols) shape, a bias being one row. Training, the gradient,
    the Jacobian and the model file all follow it."""
    blocks, start, n_outputs = {}, 0, len(CLASS_NAMES)
    for name, rows, cols in (("w1", n_hidden, n_inputs), ("b1", 1, n_hidden),
                             ("w2", n_outputs, n_hidden), ("b2", 1, n_outputs)):
        blocks[name] = (slice(start, start + rows * cols), rows, cols)
        start += rows * cols
    return blocks


def _split(theta: np.ndarray, n_inputs: int, n_hidden: int) -> tuple[np.ndarray, ...]:
    """w1 (h, n), b1 (h,), w2 (o, h) and b2 (o,) as views into theta."""
    blocks = _blocks(n_inputs, n_hidden)
    if theta.shape != (blocks["b2"][0].stop,):
        raise ValueError("parameter vector length mismatch")
    w1, b1, w2, b2 = (theta[block].reshape(rows, cols)
                      for block, rows, cols in blocks.values())
    return w1, b1[0], w2, b2[0]


class MlpModel:
    """Parameters held in one flat vector `theta` (a copy of the vector
    given), laid out by _blocks for the given layer sizes; w1, b1, w2 and b2
    are views into it, so an in-place update of theta updates them."""

    def __init__(self, theta, n_inputs: int, n_hidden: int):
        self.theta = np.array(theta, dtype=np.float64)
        self.n_parameters = self.theta.size
        self.n_inputs, self.n_hidden, self.n_outputs = n_inputs, n_hidden, len(CLASS_NAMES)
        self.w1, self.b1, self.w2, self.b2 = _split(self.theta, n_inputs, n_hidden)

    def copy(self) -> "MlpModel":
        return MlpModel(self.theta, self.n_inputs, self.n_hidden)


@dataclass
class TrainConfig:
    mode: str = "lm"  # "bp-sgd" | "lm"
    max_epochs: int = 1000
    learning_rate: float = 0.01
    batch_size: int = 32
    patience: int = 6
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("bp-sgd", "lm"):
            raise ValueError(f"unknown training mode {self.mode!r}")
        if self.max_epochs < 1 or self.patience < 1:
            raise ValueError("max_epochs and patience must be positive")
        if not self.learning_rate > 0 or self.batch_size < 1:  # NaN fails too
            raise ValueError("learning_rate and batch_size must be positive")


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    stopping_reason: str = ""
    chunk_workers: int | None = None  # LM's chunk workers; None under SGD


def _sigmoid(z: np.ndarray, e=None, out=None) -> np.ndarray:
    """Logistic function, exp(min(z, 0)) / (1 + exp(-|z|)), so exp cannot overflow.
    e and out are optional buffers of z's shape (e may be z)."""
    out = np.add(1.0, np.exp(np.copysign(z, -1.0, out=out), out=out), out=out)
    return np.divide(np.exp(np.minimum(z, 0.0, out=e), out=e), out, out=out)


class _Workspace:
    """The arrays forward and gradient write for up to `rows` rows, one allocation each."""

    def __init__(self, model: MlpModel, rows: int):
        self.hidden, self.delta_hidden = (np.empty((rows, model.n_hidden)) for _ in range(2))
        self.z, self.y = (np.empty((rows, model.n_outputs)) for _ in range(2))
        self.grad = np.empty(model.n_parameters)
        self.blocks = _split(self.grad, model.n_inputs, model.n_hidden)


def init_model(n_inputs: int, n_hidden: int, seed: int = 0) -> MlpModel:
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases."""
    if n_inputs < 1 or n_hidden < 1:
        raise ValueError("all layer sizes must be at least 1")
    n_outputs = len(CLASS_NAMES)
    rng = np.random.default_rng(seed)
    limit1 = np.sqrt(6.0 / (n_inputs + n_hidden))
    limit2 = np.sqrt(6.0 / (n_hidden + n_outputs))
    theta = np.concatenate([
        rng.uniform(-limit1, limit1, n_hidden * n_inputs), np.zeros(n_hidden),
        rng.uniform(-limit2, limit2, n_outputs * n_hidden), np.zeros(n_outputs)])
    return MlpModel(theta, n_inputs, n_hidden)


def forward(model: MlpModel, X: np.ndarray, ws: _Workspace | None = None,
            start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Pass a batch of rows through the network; returns (hidden activations (N, h),
    outputs (N, o)) in rows start.. of `ws` (fresh if None), leaving ws.z's as scratch."""
    if X.ndim != 2 or X.shape[1] != model.n_inputs:
        raise ValueError(f"expected rows of input width {model.n_inputs}, "
                         f"got shape {X.shape}")
    rows = slice(start, start + len(X))
    ws = ws or _Workspace(model, len(X))
    A = np.dot(X, model.w1.T, out=ws.hidden[rows])
    np.tanh(np.add(A, model.b1, out=A), out=A)
    z = np.dot(A, model.w2.T, out=ws.z[rows])
    z += model.b2
    return A, _sigmoid(z, z, ws.y[rows])


def loss(model: MlpModel, X: np.ndarray, T: np.ndarray) -> float:
    """Mean over examples of half the squared error of both outputs."""
    if len(X) == 0:
        raise ValueError("empty batch")
    _, Y = forward(model, X)
    return 0.5 * float(((Y - T) ** 2).sum(axis=1).mean())


def gradient(model: MlpModel, X: np.ndarray, T: np.ndarray,
             ws: _Workspace | None = None) -> np.ndarray:
    """Analytic gradient of loss(), laid out as theta, returned in `ws.grad` (of a fresh
    _Workspace if None). Each mean is np.add.reduce / n, as ndarray.mean computes it."""
    if (n := len(X)) == 0:
        raise ValueError("empty batch")
    ws = ws or _Workspace(model, n)
    A, Y = forward(model, X, ws)
    d_w1, d_b1, d_w2, d_b2 = ws.blocks
    delta_out = np.subtract(Y, T, out=ws.z[:n])  # (Y - T) * Y * (1 - Y)
    delta_out *= Y
    delta_out *= np.subtract(1.0, Y, out=Y)
    np.dot(delta_out.T, A, out=d_w2)
    np.add.reduce(delta_out, axis=0, out=d_b2)
    delta_hidden = np.dot(delta_out, model.w2, out=ws.delta_hidden[:n])
    delta_hidden *= np.subtract(1.0, np.square(A, out=A), out=A)  # times 1 - A ** 2
    np.dot(delta_hidden.T, X, out=d_w1)
    np.add.reduce(delta_hidden, axis=0, out=d_b1)
    return np.divide(ws.grad, n, out=ws.grad)


def _fill_jacobian(buffer: np.ndarray, model: MlpModel, X: np.ndarray,
                   A: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The residuals' Jacobian at forward's pass (A, Y) over rows X, one row per (example,
    output), written into buffer's leading rows; only w2 and b2 columns need zeroing."""
    n, o, h, d = len(X), model.n_outputs, model.n_hidden, model.n_inputs
    jac = buffer[:n * o]
    sens = Y * (1.0 - Y)  # (N, o)
    tanh_grad = 1.0 - A ** 2  # (N, h)
    w1, b1, w2, b2 = (block for block, _, _ in _blocks(d, h).values())
    jac[:, w2.start:] = 0.0
    for out in range(o):
        rows = slice(out, n * o, o)  # row o*i+out is example i, output out
        s = sens[:, out]  # (N,)
        delta_hidden = s[:, None] * model.w2[out][None, :] * tanh_grad  # (N, h)
        np.multiply(delta_hidden[:, :, None], X[:, None, :],
                    out=jac[rows, w1].reshape(n, h, d))
        jac[rows, b1] = delta_hidden
        jac[rows, w2.start + out * h:w2.start + (out + 1) * h] = s[:, None] * A
        jac[rows, b2.start + out] = s
    return jac


# Rows per chunk of LM's forward pass and of its Jacobian in normal_equations:
# the Jacobian held at once is outputs*4096 x P per worker whatever N is, and
# a batch of 4096 rows or fewer gets exactly the products of the full Jacobian.
_CHUNK_ROWS = 4096


@functools.cache
def _openblas() -> tuple | None:
    """OpenBLAS's thread-count (getter, setter), found once; None for another BLAS or OS."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line and ".so" in line}
        return next((get, getattr(lib, name.replace("_get_", "_set_")))
                    for lib in map(ctypes.CDLL, sorted(libs)) for name in (
            "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
            "openblas_get_num_threads") if (get := getattr(lib, name, None)))
    except (OSError, AttributeError, StopIteration):  # no maps, library, getter or setter
        return None


def blas_threads() -> int | None:
    """Threads this process's OpenBLAS runs now; None if there is no OpenBLAS."""
    return openblas[0]() if (openblas := _openblas()) else None


def chunk_workers(chunks: int) -> int:
    """2 chunk builders under OpenBLAS (one thread in train_lm) on 2 or more CPUs, else 1."""
    return 2 if chunks > 1 and _openblas() and len(os.sched_getaffinity(0)) > 1 else 1


@functools.cache
def _helper():
    from concurrent.futures import ThreadPoolExecutor  # only runs with 2 workers import it
    os.register_at_fork(after_in_child=_helper.cache_clear)  # a forked child has no helper
    return ThreadPoolExecutor(1)  # the process's one helper thread


def residuals(model: MlpModel, X: np.ndarray, T: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Y - T, flat in ws.z, from forward over X's chunks into ws's rows; with 2
    chunk_workers the helper thread runs every second chunk beside the main thread."""
    def run(starts: range) -> None:
        for rows in (slice(start, start + _CHUNK_ROWS) for start in starts):
            np.subtract(forward(model, X[rows], ws, rows.start)[1], T[rows], out=ws.z[rows])

    starts = range(0, len(X), _CHUNK_ROWS)
    helped = _helper().submit(run, starts[1::2]) if chunk_workers(len(starts)) == 2 else None
    run(starts[::2] if helped else starts)
    if helped:
        helped.result()
    return ws.z.ravel()


def normal_equations(model: MlpModel, X: np.ndarray, A: np.ndarray, Y: np.ndarray,
                     R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J^T J and J^T r at forward's pass (A, Y) over X, R = Y - T, each worker filling
    chunks into its own buffer; products are added in chunk order, the serial bits."""
    starts = range(0, len(X), _CHUNK_ROWS)
    buffers = [np.empty((model.n_outputs * min(len(X), _CHUNK_ROWS), model.n_parameters))
               for _ in range(chunk_workers(len(starts)))]
    jtj = np.zeros((model.n_parameters, model.n_parameters))
    jtr = np.zeros(model.n_parameters)

    def products(start: int, buffer: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        chunk = slice(start, start + _CHUNK_ROWS)
        jac = _fill_jacobian(buffer, model, X[chunk], A[chunk], Y[chunk])
        return jac.T @ jac, jac.T @ R[chunk].ravel()

    for first in range(0, len(starts), len(buffers)):
        own, *helped = zip(starts[first:first + len(buffers)], buffers)
        pending = [_helper().submit(products, *job) for job in helped]
        for jtj_part, jtr_part in [products(*own)] + [job.result() for job in pending]:
            jtj += jtj_part
            jtr += jtr_part
        del pending, jtj_part, jtr_part  # so the next products are built beside no old ones
    return jtj, jtr


def check_budget(n_inputs: int, n_hidden: int, rows: int, mode: str) -> int:
    """The float64 cells training on `rows` rows holds at most at once, ValueError above
    MAX_CELLS: rows x hidden activations, plus for SGD the P parameters, or for LM J^T J
    and, for each of up to 2 chunk_workers, one P x P product and one chunk Jacobian."""
    P = _blocks(n_inputs, n_hidden)["b2"][0].stop
    cells = rows * n_hidden + (
        3 * P * P + 2 * len(CLASS_NAMES) * min(rows, _CHUNK_ROWS) * P
        if mode == "lm" else P)
    if cells > MAX_CELLS:
        raise ValueError(f"P = {P} parameters: {mode} would allocate {cells} cells, "
                         f"more than {MAX_CELLS}")
    return cells


def predict_batch(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Class of the larger output per row; an exact tie or NaN outputs map to class 0."""
    _, Y = forward(model, X)
    return np.argmax(Y, axis=1)


def _check_finite(value: float, model: MlpModel, epoch: int) -> None:
    if not np.isfinite(value) or not np.isfinite(model.theta).all():
        raise DataError(f"training diverged at epoch {epoch}: non-finite loss or parameters")


class _BestEpoch:
    """Validation early stopping shared by both trainers: records each
    epoch's losses and keeps a copy of the model from the epoch with the
    lowest validation loss."""

    def __init__(self, model: MlpModel, X_val: np.ndarray, T_val: np.ndarray,
                 patience: int):
        if len(X_val) == 0:
            raise ValueError("validation set must be non-empty")
        self.X_val, self.T_val, self.patience = X_val, T_val, patience
        self.history = TrainHistory()
        self.best_val, self.best, self.failures = np.inf, model.copy(), 0

    def keep_going(self, model: MlpModel, train_loss: float) -> bool:
        """Record one epoch; False once `patience` epochs in a row have not
        improved the validation loss."""
        epoch = len(self.history.train_loss)
        _check_finite(train_loss, model, epoch)
        val_loss = loss(model, self.X_val, self.T_val)
        _check_finite(val_loss, model, epoch)
        self.history.train_loss.append(train_loss)
        self.history.val_loss.append(val_loss)
        if val_loss < self.best_val:
            self.best_val, self.best, self.failures = val_loss, model.copy(), 0
        else:
            self.failures += 1
        return self.failures < self.patience


def train_bp(model: MlpModel, X: np.ndarray, T: np.ndarray,
             X_val: np.ndarray, T_val: np.ndarray,
             cfg: TrainConfig | None = None) -> tuple[MlpModel, TrainHistory]:
    """Seeded mini-batch gradient descent with validation early stopping.

    Returns the parameters from the best validation epoch. Raises
    DataError naming the epoch when the loss or parameters go non-finite.
    """
    cfg = cfg or TrainConfig(mode="bp-sgd")
    tracker = _BestEpoch(model, X_val, T_val, cfg.patience)
    model = model.copy()
    rng = np.random.default_rng(cfg.seed)
    ws = _Workspace(model, min(cfg.batch_size, len(X)))
    # Weights near the float limit saturate tanh by overflow, or give NaN for _check_finite.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.max_epochs):
            order = rng.permutation(len(X))
            X_epoch, T_epoch = X[order], T[order]  # each batch is then a contiguous slice
            for start in range(0, len(X), cfg.batch_size):
                batch = slice(start, start + cfg.batch_size)
                grad = gradient(model, X_epoch[batch], T_epoch[batch], ws)
                model.theta -= np.multiply(cfg.learning_rate, grad, out=grad)
            if not tracker.keep_going(model, loss(model, X, T)):
                tracker.history.stopping_reason = "early_stop"
                break
        else:
            tracker.history.stopping_reason = "max_epochs"
    return tracker.best, tracker.history


def train_lm(model: MlpModel, X: np.ndarray, T: np.ndarray,
             X_val: np.ndarray, T_val: np.ndarray,
             cfg: TrainConfig | None = None) -> tuple[MlpModel, TrainHistory]:
    """Damped least-squares training of the full parameter vector, on one
    OpenBLAS thread and with the lm module's fixed damping schedule.

    One history entry per accepted step; validation patience, a vanishing
    gradient, mu exceeding its cap, or the epoch budget stop the run. A
    non-finite loss or parameter raises DataError, as in train_bp.
    """
    cfg = cfg or TrainConfig(mode="lm")
    tracker = _BestEpoch(model, X_val, T_val, cfg.patience)
    tracker.history.chunk_workers = chunk_workers(-(-len(X) // _CHUNK_ROWS))
    work = model.copy()  # the point residual_fn saw last, the one the other callbacks see
    ws = _Workspace(work, len(X))  # and the pass residual_fn ran there, for normal_fn

    def residual_fn(theta: np.ndarray) -> np.ndarray:
        work.theta[:] = theta
        return residuals(work, X, T, ws)

    def normal_fn(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return normal_equations(work, X, ws.hidden, ws.y, ws.z)

    def on_step(theta: np.ndarray, cost: float) -> bool:
        # cost is 0.5*||r||^2 summed over all examples
        return tracker.keep_going(work, cost / len(X))

    get, put = _openblas() or (lambda: None, lambda threads: None)
    threads = get()
    put(1)  # so the bits do not depend on the caller's count, which comes back after
    try:  # With no accepted step, on_step never runs and the initial model stays best.
        result = minimize_least_squares(residual_fn, normal_fn, model.theta,
                                        max_iterations=cfg.max_epochs, callback=on_step)
    finally:
        put(threads)
    reasons = {"callback": "early_stop", "max_iterations": "max_epochs"}  # "gradient", "mu_max"
    tracker.history.stopping_reason = reasons.get(result.reason, f"converged: {result.reason}")
    return tracker.best, tracker.history


def train(model: MlpModel, X: np.ndarray, T: np.ndarray,
          X_val: np.ndarray, T_val: np.ndarray,
          cfg: TrainConfig) -> tuple[MlpModel, TrainHistory]:
    if cfg.mode == "bp-sgd":
        return train_bp(model, X, T, X_val, T_val, cfg)
    return train_lm(model, X, T, X_val, T_val, cfg)


MODEL_FORMAT = "flowsieve-mlp 1"


def save_model(path, model: MlpModel, feature_names: tuple[str, ...], scaler) -> None:
    """Versioned flat text format: model-file header, layout line, then each
    parameter block as a name line and its rows."""
    def body():
        yield f"layout {model.n_inputs} {model.n_hidden} {model.n_outputs}"
        blocks = _blocks(model.n_inputs, model.n_hidden)
        for name, (block, rows, cols) in blocks.items():
            yield name
            for row in model.theta[block].reshape(rows, cols):
                yield modelfile.format_row(row)

    modelfile.write(path, MODEL_FORMAT, feature_names, scaler, body())


def read_body(doc: modelfile.ModelFile) -> MlpModel:
    """Parse the body of a model file whose header `doc` has read."""
    n_inputs, n_hidden, n_outputs = (int(v) for v in doc.values("layout", 3, int))
    if (n_inputs != len(doc.meta["features"]) or n_hidden < 1
            or n_outputs != len(CLASS_NAMES)):
        raise doc.error(f"layout needs {len(doc.meta['features'])} inputs, "
                        f"at least 1 hidden unit and {len(CLASS_NAMES)} outputs")
    rows_read = []
    for name, (_, rows, cols) in _blocks(n_inputs, n_hidden).items():
        doc.keyed(name)
        rows_read += [doc.values(None, cols) for _ in range(rows)]
    doc.end("the b2 block")
    return MlpModel(np.concatenate(rows_read), n_inputs, n_hidden)

