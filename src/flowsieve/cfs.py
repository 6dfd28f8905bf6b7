"""Correlation-driven feature subset selection.

A subset is scored by how strongly its features correlate with the class
relative to how much they correlate with each other; a forward best-first
search walks the subset lattice.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset


@dataclass(frozen=True)
class CorrelationStats:
    """Absolute correlations: feature-vs-class vector and feature-vs-feature
    matrix (symmetric, unit diagonal), computed on a training split."""

    feature_class: np.ndarray  # (n,) |r|
    feature_feature: np.ndarray  # (n, n) |r|

    @property
    def n_features(self) -> int:
        return len(self.feature_class)


@dataclass(frozen=True)
class FeatureSubset:
    indices: tuple[int, ...]  # sorted
    merit: float
    path: tuple[int, ...] = ()  # order in which features were added


@dataclass
class SearchConfig:
    max_stale_expansions: int = 5
    max_subset_size: int | None = None

    def __post_init__(self):
        if self.max_stale_expansions < 1:
            raise ValueError("max_stale_expansions must be at least 1")
        if self.max_subset_size is not None and self.max_subset_size < 1:
            raise ValueError("max_subset_size must be at least 1")


def correlation(x, y) -> float:
    """Pearson correlation; either column constant gives 0 by convention."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    if len(x) < 2:
        raise ValueError("need at least 2 observations")
    xc = x - x.mean()
    yc = y - y.mean()
    sxx = float(xc @ xc)
    syy = float(yc @ yc)
    if sxx == 0.0 or syy == 0.0:
        return 0.0
    r = float(xc @ yc) / math.sqrt(sxx * syy)
    return min(1.0, max(-1.0, r))


def build_stats(train: Dataset) -> CorrelationStats:
    """Absolute-correlation statistics over the training split."""
    X = train.X
    y = train.y.astype(np.float64)
    n = X.shape[1]
    feature_class = np.array(
        [abs(correlation(X[:, j], y)) for j in range(n)])
    xc = X - X.mean(axis=0)
    norms = np.sqrt((xc * xc).sum(axis=0))
    cross = xc.T @ xc
    denom = np.outer(norms, norms)
    with np.errstate(invalid="ignore", divide="ignore"):
        ff = np.where(denom > 0.0, cross / denom, 0.0)
    ff = np.abs(np.clip(ff, -1.0, 1.0))
    ff = np.triu(ff, 1)
    ff = ff + ff.T  # force exact symmetry
    np.fill_diagonal(ff, 1.0)
    return CorrelationStats(feature_class, ff)


def merit(indices, stats: CorrelationStats) -> float:
    """Subset score: k*mean(class corr) / sqrt(k + k(k-1)*mean(pairwise corr)).

    With a unit diagonal the denominator squared equals the sum of the
    subset's feature-feature submatrix, which is how it is computed here.
    """
    idx = sorted(set(int(i) for i in indices))
    if not idx:
        raise ValueError("empty feature subset")
    if idx[0] < 0 or idx[-1] >= stats.n_features:
        raise ValueError(f"subset indices out of range: {idx}")
    numerator = float(stats.feature_class[idx].sum())
    denom_sq = float(stats.feature_feature[np.ix_(idx, idx)].sum())
    return numerator / math.sqrt(denom_sq)


def _better(candidate: tuple[tuple[int, ...], float],
            incumbent: tuple[tuple[int, ...], float] | None) -> bool:
    # Higher merit wins; ties go to the smaller, then lexicographically
    # earlier, subset.
    if incumbent is None:
        return True
    c_idx, c_merit = candidate
    i_idx, i_merit = incumbent
    return (-c_merit, len(c_idx), c_idx) < (-i_merit, len(i_idx), i_idx)


def best_first_search(stats: CorrelationStats,
                      cfg: SearchConfig | None = None) -> FeatureSubset:
    """Forward best-first search over feature subsets.

    The frontier is ordered by merit (ties: smaller subset, then
    lexicographic indices); the best frontier node is expanded by all
    single-feature additions. The search stops after max_stale_expansions
    consecutive expansions that fail to improve the global best merit.
    """
    cfg = cfg or SearchConfig()
    n = stats.n_features
    frontier: list[tuple[float, int, tuple[int, ...], tuple[int, ...]]] = []
    visited: set[tuple[int, ...]] = set()
    best: tuple[tuple[int, ...], float] | None = None
    best_path: tuple[int, ...] = ()

    def evaluate(indices: tuple[int, ...], path: tuple[int, ...]) -> float:
        score = merit(indices, stats)
        heapq.heappush(frontier, (-score, len(indices), indices, path))
        visited.add(indices)
        return score

    for f in range(n):
        score = evaluate((f,), (f,))
        if _better(((f,), score), best):
            best = ((f,), score)
            best_path = (f,)
    stale = 0
    while frontier and stale < cfg.max_stale_expansions:
        neg_score, size, indices, path = heapq.heappop(frontier)
        if cfg.max_subset_size is not None and size >= cfg.max_subset_size:
            continue
        improved_any = False
        for f in range(n):
            if f in indices:
                continue
            child = tuple(sorted(indices + (f,)))
            if child in visited:
                continue
            score = evaluate(child, path + (f,))
            if best is not None and score > best[1]:
                improved_any = True
            if _better((child, score), best):
                best = (child, score)
                best_path = path + (f,)
        stale = 0 if improved_any else stale + 1
    assert best is not None
    return FeatureSubset(indices=best[0], merit=best[1], path=best_path)


def merit_trajectory(subset: FeatureSubset,
                     stats: CorrelationStats) -> list[tuple[int, float]]:
    """Merit after each addition along the subset's search path."""
    out = []
    for k in range(1, len(subset.path) + 1):
        prefix = subset.path[:k]
        out.append((subset.path[k - 1], merit(prefix, stats)))
    return out

