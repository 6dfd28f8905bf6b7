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

from .dataset import CLASS_NAMES, Dataset
from .errors import DataError


@dataclass(frozen=True)
class CorrelationStats:
    """Absolute correlations: feature-vs-class vector and feature-vs-feature
    matrix (symmetric, unit diagonal). `select` computes them on every row
    of the table it reads, before any split."""

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

    def __post_init__(self):
        if self.max_stale_expansions < 1:
            raise ValueError("max_stale_expansions must be at least 1")


def build_stats(table: Dataset) -> CorrelationStats:
    """Absolute Pearson correlations from one centred matrix product, with
    the class stacked on as the last column; a constant column gives 0.
    A table of one class, or a column whose norm or correlation products
    are not finite, is a DataError naming the class or the column."""
    counts = np.bincount(table.y, minlength=len(CLASS_NAMES))
    if not counts.all():
        raise DataError("selection needs rows of both classes, got only "
                        f"{CLASS_NAMES[np.argmax(counts)]} rows")
    Z = np.column_stack([table.X, table.y.astype(np.float64)])
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is named below
        Z -= Z.mean(axis=0)
        norms = np.sqrt((Z * Z).sum(axis=0))
        cross = Z.T @ Z
    finite = np.isfinite(cross)
    finite = np.isfinite(norms) & finite.all(axis=0) & finite.all(axis=1)
    if not finite.all():
        raise DataError(f"column {table.schema[np.argmin(finite)]}: its norm or correlation "
                        "products are not finite")
    denom = np.outer(norms, norms)
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.where(denom > 0.0, cross / denom, 0.0)
    r = np.abs(np.clip(r, -1.0, 1.0))
    ff = np.triu(r[:-1, :-1], 1)
    ff = ff + ff.T  # force exact symmetry
    np.fill_diagonal(ff, 1.0)
    return CorrelationStats(r[:-1, -1], ff)


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


def best_first_search(stats: CorrelationStats,
                      cfg: SearchConfig | None = None) -> FeatureSubset:
    """Forward best-first search over feature subsets.

    A node is (-merit, size, indices, path); the least node is the best
    (higher merit, then smaller, then lexicographically earlier subset).
    The heap pops the least frontier node and adds each feature to it; the
    search stops after max_stale_expansions consecutive expansions that
    fail to raise the best merit, and returns the least node seen.
    """
    cfg = cfg or SearchConfig()
    n = stats.n_features
    frontier = [(-merit((f,), stats), 1, (f,), (f,)) for f in range(n)]
    heapq.heapify(frontier)
    visited = {(f,) for f in range(n)}
    best = frontier[0]  # the heap's least node
    stale = 0
    while frontier and stale < cfg.max_stale_expansions:
        _, size, indices, path = heapq.heappop(frontier)
        improved_any = False
        for f in range(n):
            if f in indices:
                continue
            child = tuple(sorted(indices + (f,)))
            if child in visited:
                continue
            visited.add(child)
            node = (-merit(child, stats), size + 1, child, path + (f,))
            heapq.heappush(frontier, node)
            improved_any = improved_any or node[0] < best[0]
            best = min(best, node)
        stale = 0 if improved_any else stale + 1
    neg_merit, _, indices, path = best
    return FeatureSubset(indices=indices, merit=-neg_merit, path=path)


def merit_trajectory(subset: FeatureSubset,
                     stats: CorrelationStats) -> list[tuple[int, float]]:
    """Merit after each addition along the subset's search path."""
    out = []
    for k in range(1, len(subset.path) + 1):
        prefix = subset.path[:k]
        out.append((subset.path[k - 1], merit(prefix, stats)))
    return out

