"""Labeled flow datasets: CSV loading, scaling, splits, synthetic generation."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import DataError, open_text
from .flow_meter import FEATURE_COLUMNS, c_parse, parse_ipv4

# The two classes of the study; a class id is its index here.
CLASS_NAMES = ("NonTor", "Tor")
LABEL_TO_ID = {name.lower(): class_id for class_id, name in enumerate(CLASS_NAMES)}
BAD_VALUE_POLICIES = ("error", "drop")

# Column names as published with the UNB-CIC Tor traffic CSVs.
UNB_CIC_ALIASES = {
    "Source IP": "src_ip",
    "Source Port": "src_port",
    "Destination IP": "dst_ip",
    "Destination Port": "dst_port",
    "Protocol": "protocol",
    "Flow Duration": "flow_duration",
    "Flow Bytes/s": "flow_bytes_per_s",
    "Flow Packets/s": "flow_packets_per_s",
    "Flow IAT Mean": "flow_iat_mean",
    "Flow IAT Std": "flow_iat_std",
    "Flow IAT Max": "flow_iat_max",
    "Flow IAT Min": "flow_iat_min",
    "Fwd IAT Mean": "fwd_iat_mean",
    "Fwd IAT Std": "fwd_iat_std",
    "Fwd IAT Max": "fwd_iat_max",
    "Fwd IAT Min": "fwd_iat_min",
    "Bwd IAT Mean": "bwd_iat_mean",
    "Bwd IAT Std": "bwd_iat_std",
    "Bwd IAT Max": "bwd_iat_max",
    "Bwd IAT Min": "bwd_iat_min",
    "Active Mean": "active_mean",
    "Active Std": "active_std",
    "Active Max": "active_max",
    "Active Min": "active_min",
    "Idle Mean": "idle_mean",
    "Idle Std": "idle_std",
    "Idle Max": "idle_max",
    "Idle Min": "idle_min",
    "Label": "label",
}

_IP_COLUMNS = ("src_ip", "dst_ip")


@dataclass
class Dataset:
    """Immutable-by-convention feature matrix with integer class labels."""

    schema: tuple[str, ...]
    X: np.ndarray  # (N, n) float64
    y: np.ndarray  # (N,) class ids, indices into CLASS_NAMES
    dropped: int = field(default=0, compare=False)  # rows load_flow_csv skipped

    def __post_init__(self):
        if self.X.ndim != 2 or self.X.shape[0] != self.y.shape[0]:
            raise ValueError("feature matrix and labels disagree on N")
        if self.X.shape[1] != len(self.schema):
            raise ValueError("schema width does not match feature matrix")
        if self.X.shape[1] == 0:
            raise DataError("dataset has no feature columns")
        if self.X.shape[0] < 1:
            raise DataError("dataset has no examples")

    @property
    def n_examples(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.schema, self.X[indices], self.y[indices])

    def select_features(self, names: Iterable[str]) -> "Dataset":
        """Project columns by name; unknown names raise DataError."""
        names = list(names)
        missing = [n for n in names if n not in self.schema]
        if missing:
            raise DataError(f"missing model features: {', '.join(missing)}")
        cols = [self.schema.index(n) for n in names]
        return Dataset(tuple(names), self.X[:, cols], self.y)


def _normalize_header(cells: list[str]) -> list[str]:
    return [UNB_CIC_ALIASES.get(cell.strip(), cell.strip()) for cell in cells]


class _Labels(dict):
    """Class id by label text, matched stripped and in any case; as a converter,
    the bound __getitem__ finds a text already seen in C."""

    refused: str | None = None  # the first text that is no label

    def __missing__(self, text: str) -> int:
        if (label := LABEL_TO_ID.get(text.strip().lower())) is None:
            self.refused = text
            raise KeyError(text)
        return self.setdefault(text, label)


def _ip_cell(text: str, quads: dict[str, int | None]) -> float:
    """An IP-column cell: a number or a dotted quad, each distinct quad parsed
    once and kept in `quads`. Other text raises TypeError, from float(None)."""
    try:
        return float(text)
    except ValueError:
        if text not in quads:
            quads[text] = parse_ipv4(text)
        return float(quads[text])


def _parse_cells(path, row_number: int, feature_names: tuple[str, ...],
                 cells: list[str], bad_value_policy: str,
                 quads: dict[str, int | None]) -> list[float] | None:
    """One row's feature cells checked one at a time; None drops the row.

    Cells are stripped, IP columns also accept dotted quads, and every
    rejected cell raises DataError naming its row and column.
    """
    values = []
    for col, (name, cell) in enumerate(zip(feature_names, cells), start=1):
        cell = cell.strip()
        try:
            value = _ip_cell(cell, quads) if name in _IP_COLUMNS else float(cell)
        except (TypeError, ValueError):
            raise DataError(f"{path}: row {row_number} column {col} ({name}): "
                            f"non-numeric cell {cell!r}") from None
        if not math.isfinite(value):
            if bad_value_policy == "drop":
                return None
            raise DataError(f"{path}: row {row_number} column {col} ({name}): "
                            f"non-finite value {cell!r}")
        values.append(value)
    return values


def _read_rows(path, reader, feature_names: tuple[str, ...], bad_value_policy: str,
               quads: dict[str, int | None]) -> tuple[np.ndarray, list[int], int]:
    """The rows left in `reader`, each checked by _parse_cells: (the kept rows'
    features, their labels, rows dropped). A bad row raises DataError naming it."""
    labels: list[int] = []
    dropped = 0

    def kept_rows():
        nonlocal dropped
        for row_number, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != len(feature_names) + 1:
                raise DataError(f"{path}: expected {len(feature_names) + 1} "
                                f"columns at row {row_number}, got {len(cells)}")
            values = _parse_cells(path, row_number, feature_names, cells,
                                  bad_value_policy, quads)
            if values is None:
                dropped += 1
                continue
            raw_label = cells[-1].strip()
            label_id = LABEL_TO_ID.get(raw_label.lower())
            if label_id is None:
                raise DataError(f"{path}: row {row_number}: unknown label {raw_label!r}")
            labels.append(label_id)
            yield values

    X = np.fromiter(kept_rows(), np.dtype((np.float64, len(feature_names))))
    return X, labels, dropped


def _front_cells(table: np.ndarray, keep: np.ndarray, width: int) -> np.ndarray:
    """A C-contiguous table cut in place, with no second table, to its `keep`
    rows and first `width` columns: they move block by block to its front."""
    kept = 0
    for start in range(0, len(table), 4096):
        block = table[start:start + 4096][keep[start:start + 4096], :width].ravel()
        table.reshape(-1)[kept * width:kept * width + block.size] = block
        kept += block.size // width
    table.resize((kept, width), refcheck=False)  # no view of it is left
    return table


def load_flow_csv(path, bad_value_policy: str = "error") -> Dataset:
    """Load a labeled flow CSV into a Dataset.

    Columns must be canonical feature names (or their published UNB-CIC
    aliases) with "label" last. Labels are matched case-insensitively.
    bad_value_policy controls rows with non-finite cells: "error" (default)
    or "drop" (skip the row and count it in Dataset.dropped; the published
    dataset contains Infinity rates).

    numpy's C reader parses the rows, then, if it rejects a cell that is not a
    label, again with IP cells also read as dotted quads. A file it rejects, or
    with a non-finite cell under "error", is read row by row, as csv and
    float() read it.
    """
    if bad_value_policy not in BAD_VALUE_POLICIES:
        raise ValueError(f"unknown bad_value_policy {bad_value_policy!r}")
    with open_text(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = _normalize_header(next(reader))
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        last = header[-1] if header else ""  # a blank first line has no cells
        if last.lower() != "label":
            raise DataError(f"{path}: last column must be 'label', got {last!r}")
        feature_names = tuple(header[:-1])
        if not feature_names:
            raise DataError(f"{path}: no feature columns before 'label'")
        unknown = [n for n in feature_names if n not in FEATURE_COLUMNS]
        if unknown:
            raise DataError(f"{path}: unknown feature columns: {', '.join(unknown)}")
        if len(set(feature_names)) != len(feature_names):
            raise DataError(f"{path}: duplicate feature columns")
        n = len(feature_names)
        class_ids = _Labels({name: i for i, name in enumerate(CLASS_NAMES)})
        converters = {n: class_ids.__getitem__}
        table = c_parse(handle, np.float64, converters)
        quads: dict[str, int | None] = {}  # the file's dotted quads, for _ip_cell
        ip_cells = {i: lambda text: _ip_cell(text, quads)
                    for i, name in enumerate(feature_names) if name in _IP_COLUMNS}
        if table is None and ip_cells and class_ids.refused is None:  # a dotted quad, say
            handle.seek(0)
            next(reader)
            table = c_parse(handle, np.float64, converters | ip_cells)
        finite = (np.isfinite(table).all(axis=1)
                  if table is not None and table.shape[1] == n + 1 else None)
        if finite is None or (bad_value_policy == "error" and not finite.all()):
            handle.seek(0)
            next(reader)
            X, labels, dropped = _read_rows(path, reader, feature_names,
                                            bad_value_policy, quads)
        else:
            labels = table[finite, n].astype(np.int64)
            dropped = len(table) - len(labels)
            X = _front_cells(table, finite, n)
    if not len(labels):
        raise DataError(f"{path}: no data rows")
    return Dataset(feature_names, X, np.asarray(labels, dtype=np.int64),
                   dropped=dropped)


def _lines(ds: Dataset):
    """Yield the flow-CSV line of each row of `ds`, 4096 rows at a time. A
    finite cell prints as "%d" if integral and below 2**53 in magnitude, else
    as "%.6g", once a non-integral cell of magnitude 999999.5 or more, which
    "%.6g" would print with an exponent, is rounded to 6 significant digits."""
    formats: dict[bytes, str] = {}  # line format by the row's mask of integral cells
    for start in range(0, ds.n_examples, 4096):
        X = ds.X[start:start + 4096].copy()
        wide = (np.abs(X) >= 999999.5) & (X != np.trunc(X))
        X[wide] = [float(f"{v:.6g}") for v in X[wide].tolist()]
        integral = (X == np.trunc(X)) & (np.abs(X) < 2 ** 53)
        keys = map(bytes, np.packbits(integral, axis=1))
        for row, mask, key, label in zip(X, integral, keys, ds.y[start:start + 4096]):
            if key not in formats:
                formats[key] = ",".join(np.where(mask, "%d", "%.6g")) + ",%s\n"
            yield formats[key] % (*row.tolist(), CLASS_NAMES[label])


def write_csv(ds: Dataset, path) -> None:
    """Write a Dataset in the flow-CSV layout (schema + label): the one
    writer of that layout. A non-finite cell raises DataError naming its
    row and column before the file is opened."""
    for start in range(0, ds.n_examples, 4096):
        for row, col in np.argwhere(~np.isfinite(ds.X[start:start + 4096]))[:1].tolist():
            raise DataError(f"{path}: row {start + row + 2} column {col + 1} "
                            f"({ds.schema[col]}): non-finite value {ds.X[start + row, col]}")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(ds.schema + ("label",)) + "\n")
        handle.writelines(_lines(ds))


@dataclass
class SplitSpec:
    train: float = 0.7
    validation: float = 0.15
    test: float = 0.15
    seed: int = 0

    def __post_init__(self):
        ratios = (self.train, self.validation, self.test)
        if not all(r > 0 for r in ratios):  # NaN fails too
            raise ValueError("all split ratios must be positive")
        if abs(sum(ratios) - 1.0) > 1e-9:
            raise ValueError(f"split ratios must sum to 1, got {sum(ratios)}")


def stratified_split_indices(y: np.ndarray,
                             spec: SplitSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic stratified 3-way partition of the index set.

    Per class, fractional seats left over after flooring go to the split
    with the largest remainder; remainder ties go to the split furthest
    below its global target, so class-level rounding errors cancel.
    """
    ratios = (spec.train, spec.validation, spec.test)
    for c, name in enumerate(CLASS_NAMES):
        if (count := int((y == c).sum())) < 3:
            raise DataError(f"class {name} has {count} rows, fewer than 3; "
                            "training needs at least 3 of each class")
    rng = np.random.default_rng(spec.seed)
    n_total = len(y)
    global_targets = [n_total * r for r in ratios]
    assigned = [0, 0, 0]
    buckets: list[list[np.ndarray]] = [[], [], []]
    for c in range(len(CLASS_NAMES)):
        idx = np.flatnonzero(y == c)
        rng.shuffle(idx)
        m = len(idx)
        ideal = [m * r for r in ratios]
        counts = [int(math.floor(v)) for v in ideal]
        remainders = [v - c_ for v, c_ in zip(ideal, counts)]
        leftovers = m - sum(counts)
        deficits = [global_targets[i] - (assigned[i] + counts[i]) for i in range(3)]
        order = sorted(range(3), key=lambda i: (-remainders[i], -deficits[i], i))
        for i in order[:leftovers]:
            counts[i] += 1
        if counts[0] == 0:
            raise DataError(f"class {CLASS_NAMES[c]} has {m} rows and none falls "
                            f"in the training split at train = {spec.train:g}")
        for i, part in enumerate(np.split(idx, np.cumsum(counts)[:2])):
            buckets[i].append(part)
            assigned[i] += counts[i]
    return tuple(np.sort(np.concatenate(b)) for b in buckets)


def stratified_split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    idx_train, idx_val, idx_test = stratified_split_indices(ds.y, spec)
    return ds.subset(idx_train), ds.subset(idx_val), ds.subset(idx_test)


@dataclass
class Scaler:
    """Z-score parameters fit on a training split; constant columns pass through."""

    mean: np.ndarray
    std: np.ndarray
    passthrough: np.ndarray  # bool per feature

    def transform(self, X: np.ndarray) -> np.ndarray:
        out = np.subtract(X, np.where(self.passthrough, 0.0, self.mean))
        out /= np.where(self.passthrough, 1.0, self.std)
        return out


def fit_scaler(train: Dataset) -> Scaler:
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is named below
        mean = train.X.mean(axis=0)
        std = train.X.std(axis=0)  # population std
    if not (finite := np.isfinite(mean) & np.isfinite(std)).all():
        raise DataError(f"column {train.schema[np.argmin(finite)]}: its training-split mean "
                        "or std is not finite")
    passthrough = std == 0.0
    safe_std = np.where(passthrough, 1.0, std)
    return Scaler(mean=mean, std=safe_std, passthrough=passthrough)


def apply_scaler(scaler: Scaler, ds: Dataset) -> Dataset:
    return Dataset(ds.schema, scaler.transform(ds.X), ds.y)


@dataclass
class SyntheticSpec:
    """Desk-scale generator: class-conditional Gaussians plus planted
    duplicate and pure-noise columns, with roles recorded for selection tests."""

    class_means: tuple[tuple[float, ...], ...]
    rows_per_class: tuple[int, ...]
    covariance_scale: float | None = None  # covariance scale * I; None = I
    duplicates: tuple[tuple[int, float], ...] = ()  # (source index, noise eps)
    n_noise: int = 0
    noise_scale: float = 1.0
    feature_names: tuple[str, ...] | None = None

    @property
    def n_informative(self) -> int:
        return len(self.class_means[0])

    @property
    def n_features(self) -> int:
        return self.n_informative + len(self.duplicates) + self.n_noise

    def __post_init__(self):
        if len(self.class_means) != len(CLASS_NAMES):
            raise ValueError(f"need one class mean for each of {len(CLASS_NAMES)} "
                             f"classes, got {len(self.class_means)}")
        widths = {len(m) for m in self.class_means}
        if len(widths) != 1:
            raise ValueError("class means must share one width")
        if len(self.rows_per_class) != len(self.class_means):
            raise ValueError("rows_per_class must match the class count")
        if min(self.rows_per_class) < 1 or self.n_noise < 0:
            raise ValueError("rows_per_class must be at least 1 and n_noise at least 0")
        if not np.isfinite([*np.ravel(self.class_means), self.noise_scale,
                            *(eps for _, eps in self.duplicates)]).all():
            raise ValueError("class means and noise scales must be finite")
        if (self.covariance_scale is not None
                and not 0 <= self.covariance_scale < math.inf):
            raise ValueError("covariance_scale must be finite and at least 0")
        for src, _ in self.duplicates:
            if not 0 <= src < self.n_informative:
                raise ValueError(f"duplicate source {src} out of range")
        if self.feature_names is not None and len(self.feature_names) != self.n_features:
            raise ValueError("feature_names width mismatch")


# The most float64 cells (800 MB) of a synthetic table or of an MLP's training arrays.
MAX_CELLS = 10**8


def default_synthetic_spec(rows_per_class: int = 500,
                           class0_mean: tuple[float, ...] = (0.0, 0.0, 0.0, 0.0),
                           class1_mean: tuple[float, ...] = (4.0, 4.0, 4.0, 4.0),
                           covariance_scale: float | None = None,
                           duplicates: int = 2, duplicate_noise: float = 0.05,
                           noise_features: int = 22,
                           noise_scale: float = 1.0) -> SyntheticSpec:
    """The two-class spec the [synth] config keys describe: covariance
    covariance_scale * I (None: the identity), duplicates copying informative
    columns round-robin. The defaults give 28 columns named as in the
    flow-CSV layout: 4 informative, 2 duplicates and 22 noise."""
    m = len(class0_mean)
    n_features = m + duplicates + noise_features
    if m < 1 or duplicates < 0 or n_features > 10_000:  # keeps the spec buildable
        raise ValueError("need at least one mean, duplicates at least 0 and at "
                         "most 10000 columns")
    if 2 * rows_per_class * n_features > MAX_CELLS:  # checked before numpy allocates
        raise ValueError(f"2 x {rows_per_class} rows x {n_features} columns is "
                         f"more than {MAX_CELLS} cells")
    return SyntheticSpec(
        class_means=(tuple(class0_mean), tuple(class1_mean)),
        rows_per_class=(rows_per_class, rows_per_class),
        covariance_scale=covariance_scale,
        duplicates=tuple((i % m, duplicate_noise) for i in range(duplicates)),
        n_noise=noise_features,
        noise_scale=noise_scale,
        feature_names=(FEATURE_COLUMNS if n_features == len(FEATURE_COLUMNS)
                       else None))


def generate_synthetic(spec: SyntheticSpec,
                       seed: int = 0) -> tuple[Dataset, dict[str, object]]:
    """Sample a labeled dataset; returns (dataset, ground-truth feature roles)."""
    rng = np.random.default_rng(seed)
    std = 1.0 if spec.covariance_scale is None else math.sqrt(spec.covariance_scale)
    m = spec.n_informative
    blocks = []
    labels = []
    for class_id, (mean, rows) in enumerate(zip(spec.class_means, spec.rows_per_class)):
        z = rng.standard_normal((rows, m))
        blocks.append(std * z + np.asarray(mean))
        labels.append(np.full(rows, class_id, dtype=np.int64))
    informative = np.vstack(blocks)
    y = np.concatenate(labels)
    columns = [informative]
    with np.errstate(over="ignore"):  # write_csv refuses a non-finite cell
        for src, eps in spec.duplicates:
            col = informative[:, src] + eps * rng.standard_normal(len(y))
            columns.append(col[:, None])
        if spec.n_noise:
            columns.append(spec.noise_scale * rng.standard_normal((len(y), spec.n_noise)))
    X = np.hstack(columns)
    perm = rng.permutation(len(y))
    X, y = X[perm], y[perm]
    names = spec.feature_names or tuple(
        f"f{i:02d}" for i in range(spec.n_features))
    roles = {
        "informative": list(range(m)),
        "duplicate": list(range(m, m + len(spec.duplicates))),
        "noise": list(range(m + len(spec.duplicates), spec.n_features)),
        "duplicate_of": {m + i: src for i, (src, _) in enumerate(spec.duplicates)},
    }
    return Dataset(tuple(names), X, y), roles


def one_hot(y: np.ndarray) -> np.ndarray:
    out = np.zeros((len(y), len(CLASS_NAMES)))
    out[np.arange(len(y)), y] = 1.0
    return out
