"""Soft-margin SVM for the binary Tor/nonTor problem, trained by SMO with
second-order working-set selection (WSS2: Fan, Chen & Lin, JMLR 6, 2005).

One dual problem is solved with internal labels +1/-1. Each step picks the
maximal violating index i, then the partner j with the largest second-order
gain, and moves the pair in closed form inside the box. Kernel rows are
computed when a pair needs them; no Gram matrix is stored. Tor (class 1)
is the +1 side: a row is predicted Tor where its decision value is > 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import modelfile
from .dataset import CLASS_NAMES
from .errors import DataError


@dataclass(frozen=True)
class Kernel:
    kind: str  # "linear" | "rbf"
    gamma: float | None = None

    def __post_init__(self):
        if self.kind not in ("linear", "rbf"):
            raise ValueError(f"unknown kernel {self.kind!r}")
        if self.kind == "rbf":
            if self.gamma is None or not np.isfinite(self.gamma) or self.gamma <= 0:
                raise ValueError("rbf kernel needs finite gamma > 0")


def kernel_matrix(kernel: Kernel, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    Z = np.asarray(Z, dtype=np.float64)
    if kernel.kind == "linear":
        return X @ Z.T
    sq = (X ** 2).sum(axis=1)[:, None] + (Z ** 2).sum(axis=1)[None, :] - 2.0 * X @ Z.T
    return np.exp(-kernel.gamma * np.maximum(sq, 0.0))


@dataclass
class SmoConfig:
    C: float = 1.0
    tolerance: float = 1e-3  # stop when the maximal violation gap is this small
    max_iterations: int | None = None  # pair updates; default 100 * N

    def __post_init__(self):
        if not (self.C > 0 and self.tolerance > 0):  # NaN fails too
            raise ValueError("C and tolerance must be positive")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass
class SvmModel:
    """Binary model: Tor (class 1) where the decision value is > 0."""

    kernel: Kernel
    C: float
    support_vectors: np.ndarray  # (m, d)
    coefficients: np.ndarray  # (m,) alpha_i * y_i, signed
    bias: float
    converged: bool = True
    weights: np.ndarray | None = None  # materialized for linear kernels


def decision_values(model: SvmModel, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if model.kernel.kind == "linear" and model.weights is not None:
        return X @ model.weights + model.bias
    gram = kernel_matrix(model.kernel, X, model.support_vectors)
    return gram @ model.coefficients + model.bias


def predict_batch(model: SvmModel, X: np.ndarray) -> np.ndarray:
    """Class 1 (Tor) where the decision value is > 0, else class 0; a value
    of exactly 0 or NaN gives class 0."""
    return (decision_values(model, X) > 0).astype(np.int64)


def smo_train(X: np.ndarray, y_pm: np.ndarray, kernel: Kernel,
              cfg: SmoConfig) -> SvmModel:
    """Solve one binary problem with labels in {+1, -1}, both present.

    The solver keeps v = -y * grad f of the dual, so that with the sets
    I_up = {t: y_t * alpha_t can grow} and I_low = {t: y_t * alpha_t can
    shrink} the KKT conditions read max(v, I_up) <= min(v, I_low).
    Converged means that gap fell to `tolerance`; reaching the
    `max_iterations` cap on pair updates first flags the model instead.
    The bias is v of the last pair's free member, or the midpoint of the
    final gap when neither member is free.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y_pm, dtype=np.float64)
    if set(np.unique(y)) != {1.0, -1.0}:
        raise ValueError("internal labels must be +1/-1, with both present")
    n, c = len(y), cfg.C
    budget = cfg.max_iterations if cfg.max_iterations is not None else 100 * n
    diag = np.ones(n) if kernel.kind == "rbf" else np.einsum("ij,ij->i", X, X)
    alphas = np.zeros(n)
    v = y.copy()
    pair = ()
    updates = 0
    while True:
        up = np.where(y > 0, alphas < c, alphas > 0)
        low = np.where(y > 0, alphas > 0, alphas < c)
        i = int(np.argmax(np.where(up, v, -np.inf)))
        v_max, v_min = v[i], float(np.min(v[low]))
        converged = v_max - v_min <= cfg.tolerance
        if converged or updates >= budget:
            break
        k_i = kernel_matrix(kernel, X[i:i + 1], X)[0]
        gain = np.where(low & (v < v_max), (v_max - v) ** 2, -np.inf)
        j = int(np.argmax(gain / np.maximum(k_i[i] + diag - 2.0 * k_i, 1e-12)))
        k_j = kernel_matrix(kernel, X[j:j + 1], X)[0]
        # alpha_i moves toward end_i and alpha_j toward end_j as delta grows.
        end_i = c if y[i] > 0 else 0.0
        end_j = 0.0 if y[j] > 0 else c
        room_i, room_j = abs(end_i - alphas[i]), abs(end_j - alphas[j])
        delta = min((v_max - v[j]) / max(k_i[i] + k_j[j] - 2.0 * k_i[j], 1e-12),
                    room_i, room_j)
        alphas[i] = end_i if delta == room_i else alphas[i] + y[i] * delta
        alphas[j] = end_j if delta == room_j else alphas[j] - y[j] * delta
        v -= delta * (k_i - k_j)
        pair = (i, j)
        updates += 1

    free = [t for t in pair if 0.0 < alphas[t] < c]
    bias = float(v[free[0]] if free else 0.5 * (v_max + v_min))
    support = np.flatnonzero(alphas > 1e-12)
    coefficients = alphas[support] * y[support]
    weights = None
    if kernel.kind == "linear":
        weights = X[support].T @ coefficients if len(support) else np.zeros(X.shape[1])
    return SvmModel(
        kernel=kernel, C=c,
        support_vectors=X[support].copy(),
        coefficients=coefficients,
        bias=bias,
        converged=converged,
        weights=weights,
    )


def train_ovr(X: np.ndarray, y: np.ndarray, kernel: Kernel,
              cfg: SmoConfig) -> list[SvmModel]:
    """The one binary model, Tor (class 1) trained +1 against NonTor, as a
    one-element list: the benchmark's tracer iterates the result to count
    support vectors."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    for class_id, name in enumerate(CLASS_NAMES):
        if not (y == class_id).any():
            raise DataError(f"class {name} has no training examples")
    return [smo_train(X, np.where(y == 1, 1.0, -1.0), kernel, cfg)]


MODEL_FORMAT = "flowsieve-svm 2"


def save_models(path, model: SvmModel, feature_names: tuple[str, ...],
                scaler=None) -> None:
    """Versioned text format: model-file header, then the kernel, C, bias
    and convergence lines, the support-vector rows and `end`."""
    def body():
        yield (f"kernel rbf {model.kernel.gamma:.17g}"
               if model.kernel.kind == "rbf" else "kernel linear")
        yield f"C {model.C:.17g}"
        yield f"bias {model.bias:.17g}"
        yield f"converged {int(model.converged)}"
        for coeff, sv in zip(model.coefficients, model.support_vectors):
            yield ("sv " + modelfile.format_row([coeff]) + " "
                   + modelfile.format_row(sv))
        yield "end"

    modelfile.write(path, MODEL_FORMAT, feature_names, scaler, body())


def read_body(doc: modelfile.ModelFile) -> SvmModel:
    """Parse the body of a model file whose header `doc` has read; nothing
    may follow its `end` line."""
    width = len(doc.meta["features"])
    kind, _, gamma = doc.keyed("kernel").partition(" ")
    try:
        kernel = Kernel(kind, gamma=float(gamma) if gamma else None)
    except ValueError as exc:
        raise doc.error(f"bad kernel: {exc}") from None
    c_value = float(doc.values("C", 1)[0])
    bias = float(doc.values("bias", 1)[0])
    converged = bool(doc.values("converged", 1, int)[0])
    rows = []
    while doc.peek_key() == "sv":
        rows.append(doc.values("sv", 1 + width))
    doc.keyed("end")
    doc.end("the 'end' line")
    table = np.array(rows).reshape(len(rows), 1 + width)
    coefficients, support = table[:, 0].copy(), table[:, 1:].copy()
    return SvmModel(
        kernel=kernel, C=c_value, support_vectors=support,
        coefficients=coefficients, bias=bias, converged=converged,
        weights=support.T @ coefficients if kernel.kind == "linear" else None)

