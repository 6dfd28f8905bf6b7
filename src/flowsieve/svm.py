"""Soft-margin SVM trained one-vs-rest with sequential minimal optimization.

Each binary problem is solved on the dual with internal labels +1/-1; a
pair of dual coefficients is updated in closed form per step, with the
second index chosen by the largest error difference and deterministic
seeded sweeps as fallback. Class prediction is the argmax of the per-class
decision values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import modelfile
from .errors import DataError

_KERNEL_CACHE_LIMIT = 4000  # precompute the full Gram matrix below this N


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


def kernel_eval(kernel: Kernel, x: np.ndarray, z: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if x.shape != z.shape:
        raise ValueError(f"width mismatch: {x.shape} vs {z.shape}")
    if kernel.kind == "linear":
        return float(x @ z)
    diff = x - z
    return float(np.exp(-kernel.gamma * (diff @ diff)))


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
    tolerance: float = 1e-3
    max_passes: int = 10  # consecutive change-free passes to declare convergence
    max_iterations: int | None = None  # full passes; default 10 * N
    seed: int = 0

    def __post_init__(self):
        if self.C <= 0 or self.tolerance <= 0:
            raise ValueError("C and tolerance must be positive")
        if self.max_passes < 1:
            raise ValueError("max_passes must be at least 1")


@dataclass
class SvmModel:
    """One-vs-rest binary model: class `positive_class` against the rest."""

    kernel: Kernel
    C: float
    support_vectors: np.ndarray  # (m, d)
    coefficients: np.ndarray  # (m,) alpha_i * y_i, signed
    bias: float
    positive_class: int = 1
    converged: bool = True
    weights: np.ndarray | None = None  # materialized for linear kernels

    def dual_objective(self) -> float:
        """sum(alpha) - 0.5 * coeff^T K coeff over the support vectors."""
        gram = kernel_matrix(self.kernel, self.support_vectors, self.support_vectors)
        alphas = np.abs(self.coefficients)
        return float(alphas.sum() - 0.5 * self.coefficients @ gram @ self.coefficients)


def decision_values(model: SvmModel, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if model.kernel.kind == "linear" and model.weights is not None:
        return X @ model.weights + model.bias
    gram = kernel_matrix(model.kernel, X, model.support_vectors)
    return gram @ model.coefficients + model.bias


def decision_value(model: SvmModel, x: np.ndarray) -> float:
    return float(decision_values(model, np.asarray(x)[None, :])[0])


def predict(models: list[SvmModel], x: np.ndarray) -> int:
    """predict_batch for one example."""
    if not models:
        raise ValueError("need at least one model")
    return int(predict_batch(models, np.asarray(x)[None, :])[0])


def predict_batch(models: list[SvmModel], X: np.ndarray) -> np.ndarray:
    """Per row, the `positive_class` of the model with the largest decision
    value; ties go to the lowest class, so the order of `models` does not
    matter."""
    models = sorted(models, key=lambda m: m.positive_class)
    values = np.column_stack([decision_values(m, X) for m in models])
    classes = np.array([m.positive_class for m in models])
    return classes[np.argmax(values, axis=1)]


def primal_objective(model: SvmModel, X: np.ndarray, y_pm: np.ndarray) -> float:
    """0.5||w||^2 + C * sum of hinge losses on (X, y_pm) with y in {+1,-1}."""
    gram = kernel_matrix(model.kernel, model.support_vectors, model.support_vectors)
    w_norm_sq = float(model.coefficients @ gram @ model.coefficients)
    margins = y_pm * (decision_values(model, X))
    hinge = np.maximum(0.0, 1.0 - margins).sum()
    return 0.5 * w_norm_sq + model.C * float(hinge)


class _SmoState:
    """Working state of one SMO run; indices reference the training set."""

    def __init__(self, X: np.ndarray, y: np.ndarray, kernel: Kernel,
                 cfg: SmoConfig, rng: np.random.Generator):
        self.X = X
        self.y = y
        self.kernel = kernel
        self.c = cfg.C
        self.tol = cfg.tolerance
        self.rng = rng
        n = len(y)
        self.alphas = np.zeros(n)
        self.b = 0.0
        self.errors = -y.astype(np.float64)  # f(x)=0 initially, E = f - y
        self.gram = kernel_matrix(kernel, X, X) if n <= _KERNEL_CACHE_LIMIT else None

    def krow(self, i: int) -> np.ndarray:
        if self.gram is not None:
            return self.gram[i]
        return kernel_matrix(self.kernel, self.X[i][None, :], self.X)[0]

    def kval(self, i: int, j: int) -> float:
        if self.gram is not None:
            return float(self.gram[i, j])
        return kernel_eval(self.kernel, self.X[i], self.X[j])

    def take_step(self, i1: int, i2: int) -> bool:
        if i1 == i2:
            return False
        a1_old, a2_old = self.alphas[i1], self.alphas[i2]
        y1, y2 = self.y[i1], self.y[i2]
        e1, e2 = self.errors[i1], self.errors[i2]
        s = y1 * y2
        if s < 0:
            low = max(0.0, a2_old - a1_old)
            high = min(self.c, self.c + a2_old - a1_old)
        else:
            low = max(0.0, a1_old + a2_old - self.c)
            high = min(self.c, a1_old + a2_old)
        if low >= high:
            return False
        k11 = self.kval(i1, i1)
        k12 = self.kval(i1, i2)
        k22 = self.kval(i2, i2)
        eta = k11 + k22 - 2.0 * k12
        if eta > 0:
            a2 = a2_old + y2 * (e1 - e2) / eta
            a2 = min(high, max(low, a2))
        else:
            # Flat or concave along the pair: evaluate the objective at the
            # box ends and move to the better one.
            f1 = y1 * (e1 + self.b) - a1_old * k11 - s * a2_old * k12
            f2 = y2 * (e2 + self.b) - s * a1_old * k12 - a2_old * k22
            l1 = a1_old + s * (a2_old - low)
            h1 = a1_old + s * (a2_old - high)
            obj_low = (l1 * f1 + low * f2 + 0.5 * l1 * l1 * k11
                       + 0.5 * low * low * k22 + s * low * l1 * k12)
            obj_high = (h1 * f1 + high * f2 + 0.5 * h1 * h1 * k11
                        + 0.5 * high * high * k22 + s * high * h1 * k12)
            if obj_low < obj_high - 1e-12:
                a2 = low
            elif obj_high < obj_low - 1e-12:
                a2 = high
            else:
                a2 = a2_old
        if abs(a2 - a2_old) < 1e-12 * (a2 + a2_old + 1e-12):
            return False
        a1 = a1_old + s * (a2_old - a2)
        d1 = y1 * (a1 - a1_old)
        d2 = y2 * (a2 - a2_old)
        b1 = self.b - e1 - d1 * k11 - d2 * k12
        b2 = self.b - e2 - d1 * k12 - d2 * k22
        if 0.0 < a1 < self.c:
            b_new = b1
        elif 0.0 < a2 < self.c:
            b_new = b2
        else:
            b_new = 0.5 * (b1 + b2)
        self.errors += d1 * self.krow(i1) + d2 * self.krow(i2) + (b_new - self.b)
        self.alphas[i1] = a1
        self.alphas[i2] = a2
        self.b = b_new
        return True

    def examine(self, i2: int) -> bool:
        y2 = self.y[i2]
        a2 = self.alphas[i2]
        r2 = self.errors[i2] * y2
        if not ((r2 < -self.tol and a2 < self.c) or (r2 > self.tol and a2 > 0)):
            return False
        non_bound = np.flatnonzero((self.alphas > 0) & (self.alphas < self.c))
        if len(non_bound) > 1:
            # Second-choice heuristic: largest |E1 - E2|.
            i1 = int(non_bound[np.argmax(np.abs(self.errors[non_bound]
                                                - self.errors[i2]))])
            if self.take_step(i1, i2):
                return True
        n = len(self.y)
        start = int(self.rng.integers(n))
        for offset in range(len(non_bound)):
            i1 = int(non_bound[(start + offset) % len(non_bound)])
            if self.take_step(i1, i2):
                return True
        start = int(self.rng.integers(n))
        for offset in range(n):
            i1 = (start + offset) % n
            if self.take_step(i1, i2):
                return True
        return False


def smo_train(X: np.ndarray, y_pm: np.ndarray, kernel: Kernel,
              cfg: SmoConfig, positive_class: int = 1,
              rng: np.random.Generator | None = None) -> SvmModel:
    """Solve one binary problem with labels in {+1, -1}.

    Converged means the required number of consecutive full passes produced
    no coefficient change (no point violates its optimality condition beyond
    the tolerance); hitting the pass budget first flags the model instead.
    """
    X = np.asarray(X, dtype=np.float64)
    y_pm = np.asarray(y_pm, dtype=np.float64)
    if set(np.unique(y_pm)) - {1.0, -1.0}:
        raise ValueError("internal labels must be +1/-1")
    rng = rng or np.random.default_rng(cfg.seed)
    state = _SmoState(X, y_pm, kernel, cfg, rng)
    n = len(y_pm)
    max_pass_budget = cfg.max_iterations if cfg.max_iterations is not None else 10 * n
    clean_passes = 0
    converged = False
    passes = 0
    while passes < max_pass_budget:
        passes += 1
        changed = sum(state.examine(i) for i in range(n))
        if changed == 0:
            clean_passes += 1
            if clean_passes >= cfg.max_passes:
                converged = True
                break
        else:
            clean_passes = 0

    support = np.flatnonzero(state.alphas > 1e-12)
    coefficients = state.alphas[support] * y_pm[support]
    weights = None
    if kernel.kind == "linear":
        weights = X[support].T @ coefficients if len(support) else np.zeros(X.shape[1])
    return SvmModel(
        kernel=kernel, C=cfg.C,
        support_vectors=X[support].copy(),
        coefficients=coefficients,
        bias=state.b,
        positive_class=positive_class,
        converged=converged,
        weights=weights,
    )


def train_ovr(X: np.ndarray, y: np.ndarray, n_classes: int,
              kernel: Kernel | None = None,
              cfg: SmoConfig | None = None) -> list[SvmModel]:
    """One model per class: class l relabeled +1 against the rest."""
    cfg = cfg or SmoConfig()
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if kernel is None:
        kernel = Kernel("rbf", gamma=1.0 / X.shape[1])
    models = []
    for class_id in range(n_classes):
        if not (y == class_id).any():
            raise DataError(f"class {class_id} has no training examples")
        y_pm = np.where(y == class_id, 1.0, -1.0)
        rng = np.random.default_rng((cfg.seed, class_id))
        models.append(smo_train(X, y_pm, kernel, cfg,
                                positive_class=class_id, rng=rng))
    return models


MODEL_FORMAT = "flowsieve-svm 1"


def save_models(path, models: list[SvmModel], feature_names: tuple[str, ...],
                scaler=None, class_names: tuple[str, ...] = ("NonTor", "Tor")) -> None:
    """Versioned text format: model-file header, then per model its class,
    kernel, C, bias and convergence lines, support-vector rows and `end`."""
    def body():
        for model in models:
            yield f"model {model.positive_class}"
            yield (f"kernel rbf {model.kernel.gamma:.17g}"
                   if model.kernel.kind == "rbf" else "kernel linear")
            yield f"C {model.C:.17g}"
            yield f"bias {model.bias:.17g}"
            yield f"converged {int(model.converged)}"
            for coeff, sv in zip(model.coefficients, model.support_vectors):
                yield ("sv " + modelfile.format_row([coeff]) + " "
                       + modelfile.format_row(sv))
            yield "end"

    modelfile.write(path, MODEL_FORMAT, feature_names, class_names, scaler, body())


def read_body(doc: modelfile.ModelFile) -> list[SvmModel]:
    """Parse the body of a model file whose header `doc` has read: one
    block for each class in `classes`, in any order."""
    width = len(doc.meta["features"])
    n_classes = len(doc.meta["classes"])
    models = []
    while doc.peek_key() is not None:
        positive_class = int(doc.values("model", 1, int)[0])
        if (not 0 <= positive_class < n_classes
                or any(m.positive_class == positive_class for m in models)):
            raise doc.error(f"unexpected model block for class {positive_class}")
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
        table = np.array(rows).reshape(len(rows), 1 + width)
        coefficients, support = table[:, 0].copy(), table[:, 1:].copy()
        models.append(SvmModel(
            kernel=kernel, C=c_value, support_vectors=support,
            coefficients=coefficients, bias=bias, positive_class=positive_class,
            converged=converged,
            weights=support.T @ coefficients if kernel.kind == "linear" else None))
    if len(models) != n_classes:
        raise doc.error(f"expected {n_classes} model blocks, got {len(models)}")
    return models


def load_models(path) -> tuple[list[SvmModel], dict]:
    """Inverse of save_models; returns (models, metadata dict)."""
    doc = modelfile.ModelFile(path, (MODEL_FORMAT,))
    return read_body(doc), doc.meta
