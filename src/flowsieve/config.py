"""Key-value run configuration and the reproducibility manifest."""

from __future__ import annotations

import configparser
import hashlib
import json
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path

from . import __version__, mlp, svm
from .cfs import SearchConfig
from .dataset import SplitSpec, SyntheticSpec, default_synthetic_spec
from .flow_meter import MeterConfig
from .mlp import TrainConfig
from .svm import Kernel, SmoConfig

# The format recorded in the manifest for each artifact a command writes.
ARTIFACT_FORMATS = {
    **dict.fromkeys(["flows.csv", "synthetic_flows.csv", "selected.csv",
                     "test.csv"], "flow-csv 1"),
    **dict.fromkeys(["selection.txt", "correlation_matrix.csv", "report.txt",
                     "report.csv"], "report 1"),
    "ann_model.txt": mlp.MODEL_FORMAT,
    "ann_history.csv": "ann-history-csv 1",
    "svm_model.txt": svm.MODEL_FORMAT,
}


class UsageError(Exception):
    """Bad flags, unknown config keys, or missing input paths (exit code 2)."""


_KNOWN_KEYS = {
    "input": {"packets", "flows", "synth", "label", "bad_value_policy"},
    "meter": {"activity_timeout_us", "flow_timeout_us"},
    "split": {"train", "validation", "test"},
    "select": {"enabled", "max_stale_expansions", "max_subset_size"},
    "train": {"classifier"},
    "mlp": {"mode", "hidden", "max_epochs", "learning_rate", "batch_size",
            "patience", "mu_init", "mu_up", "mu_down", "mu_max"},
    "svm": {"kernel", "gamma", "c", "tolerance", "max_iterations"},
    "synth": {"rows_per_class", "class0_mean", "class1_mean", "covariance_scale",
              "duplicates", "duplicate_noise", "noise_features", "noise_scale"},
}


@dataclass
class PipelineConfig:
    """Everything one end-to-end run needs; a single seed drives all stages."""

    packets_path: str | None = None
    flows_path: str | None = None
    use_synth: bool = False
    meter_label: str = "Unlabeled"
    bad_value_policy: str = "error"
    meter: MeterConfig = field(default_factory=MeterConfig)
    split: SplitSpec = field(default_factory=SplitSpec)
    select_enabled: bool = True
    search: SearchConfig = field(default_factory=SearchConfig)
    classifier: str = "ann"  # ann | svm | both
    mlp_hidden: int = 6
    mlp_train: TrainConfig = field(default_factory=TrainConfig)
    svm_kernel_kind: str = "rbf"
    svm_gamma: float | None = None  # None = 1/n_features
    smo: SmoConfig = field(default_factory=SmoConfig)
    synth_spec: SyntheticSpec = field(default_factory=default_synthetic_spec)
    seed: int = 0
    out_dir: str = "out"

    def __post_init__(self):
        if self.classifier not in ("ann", "svm", "both"):
            raise UsageError(f"classifier must be ann, svm or both, "
                             f"got {self.classifier!r}")

    def apply_seed(self, seed: int) -> None:
        """One seed controls split, init and synthesis deterministically."""
        self.seed = seed
        self.split.seed = seed
        self.mlp_train.seed = seed + 1

    def snapshot(self) -> dict:
        """JSON-serializable copy of the configuration for the manifest."""
        raw = asdict(self)
        return json.loads(json.dumps(raw, default=str))


def _parse_vector(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.replace(",", " ").split())


def load_config(path: str | None, seed: int | None = None,
                out_dir: str | None = None) -> PipelineConfig:
    """Build a PipelineConfig from an INI-style key-value file plus overrides."""
    cfg = PipelineConfig()
    if path is not None:
        if not Path(path).exists():
            raise UsageError(f"config file not found: {path}")
        parser = configparser.ConfigParser()
        try:
            parser.read(path)
        except configparser.Error as exc:
            raise UsageError(f"{path}: {exc}") from None
        for section in parser.sections():
            if section not in _KNOWN_KEYS:
                raise UsageError(f"{path}: unknown section [{section}]")
            for key in parser[section]:
                if key not in _KNOWN_KEYS[section]:
                    raise UsageError(f"{path}: unknown key {key!r} in [{section}]")
        try:
            _apply_file(cfg, parser)
        except (ValueError, KeyError) as exc:
            raise UsageError(f"{path}: {exc}") from None
    if seed is not None:
        cfg.apply_seed(seed)
    else:
        cfg.apply_seed(cfg.seed)
    if out_dir is not None:
        cfg.out_dir = out_dir
    return cfg


def _apply_file(cfg: PipelineConfig, parser: configparser.ConfigParser) -> None:
    if parser.has_section("input"):
        sec = parser["input"]
        cfg.packets_path = sec.get("packets", cfg.packets_path)
        cfg.flows_path = sec.get("flows", cfg.flows_path)
        cfg.use_synth = sec.getboolean("synth", cfg.use_synth)
        cfg.meter_label = sec.get("label", cfg.meter_label)
        cfg.bad_value_policy = sec.get("bad_value_policy", cfg.bad_value_policy)
    if parser.has_section("meter"):
        sec = parser["meter"]
        cfg.meter = MeterConfig(
            activity_timeout_us=sec.getint("activity_timeout_us",
                                           cfg.meter.activity_timeout_us),
            flow_timeout_us=sec.getint("flow_timeout_us",
                                       cfg.meter.flow_timeout_us))
    if parser.has_section("split"):
        sec = parser["split"]
        cfg.split = SplitSpec(
            train=sec.getfloat("train", cfg.split.train),
            validation=sec.getfloat("validation", cfg.split.validation),
            test=sec.getfloat("test", cfg.split.test),
            seed=cfg.split.seed)
    if parser.has_section("select"):
        sec = parser["select"]
        cfg.select_enabled = sec.getboolean("enabled", cfg.select_enabled)
        max_size = sec.get("max_subset_size", None)
        cfg.search = SearchConfig(
            max_stale_expansions=sec.getint("max_stale_expansions",
                                            cfg.search.max_stale_expansions),
            max_subset_size=int(max_size) if max_size else None)
    if parser.has_section("train"):
        cfg.classifier = parser["train"].get("classifier", cfg.classifier)
        if cfg.classifier not in ("ann", "svm", "both"):
            raise ValueError(f"classifier must be ann, svm or both, "
                             f"got {cfg.classifier!r}")
    if parser.has_section("mlp"):
        sec = parser["mlp"]
        cfg.mlp_hidden = sec.getint("hidden", cfg.mlp_hidden)
        t = cfg.mlp_train
        cfg.mlp_train = TrainConfig(
            mode=sec.get("mode", t.mode),
            max_epochs=sec.getint("max_epochs", t.max_epochs),
            learning_rate=sec.getfloat("learning_rate", t.learning_rate),
            batch_size=sec.getint("batch_size", t.batch_size),
            lm_mu_init=sec.getfloat("mu_init", t.lm_mu_init),
            lm_mu_up=sec.getfloat("mu_up", t.lm_mu_up),
            lm_mu_down=sec.getfloat("mu_down", t.lm_mu_down),
            lm_mu_max=sec.getfloat("mu_max", t.lm_mu_max),
            patience=sec.getint("patience", t.patience),
            seed=t.seed)
    if parser.has_section("svm"):
        sec = parser["svm"]
        cfg.svm_kernel_kind = sec.get("kernel", cfg.svm_kernel_kind)
        gamma = sec.get("gamma", None)
        cfg.svm_gamma = float(gamma) if gamma else cfg.svm_gamma
        s = cfg.smo
        max_iter = sec.get("max_iterations", None)
        cfg.smo = SmoConfig(
            C=sec.getfloat("c", s.C),
            tolerance=sec.getfloat("tolerance", s.tolerance),
            max_iterations=int(max_iter) if max_iter else s.max_iterations)
    if parser.has_section("synth"):
        sec = parser["synth"]
        base = cfg.synth_spec
        rows = sec.getint("rows_per_class", base.rows_per_class[0])
        mean0 = _parse_vector(sec.get("class0_mean", "0 0 0 0"))
        mean1 = _parse_vector(sec.get("class1_mean", "4 4 4 4"))
        cov_scale = sec.getfloat("covariance_scale", 1.0)
        n_dup = sec.getint("duplicates", len(base.duplicates))
        dup_eps = sec.getfloat("duplicate_noise", 0.05)
        n_noise = sec.getint("noise_features", base.n_noise)
        m = len(mean0)
        covariance = tuple(tuple(cov_scale * (1.0 if i == j else 0.0)
                                 for j in range(m)) for i in range(m))
        n_features = m + n_dup + n_noise
        names = base.feature_names if (base.feature_names is not None
                                       and len(base.feature_names) == n_features) else None
        cfg.synth_spec = SyntheticSpec(
            class_means=(mean0, mean1),
            rows_per_class=(rows, rows),
            covariance=covariance,
            duplicates=tuple((i % m, dup_eps) for i in range(n_dup)),
            n_noise=n_noise,
            noise_scale=sec.getfloat("noise_scale", base.noise_scale),
            feature_names=names)


def make_kernel(cfg: PipelineConfig, n_features: int) -> Kernel:
    if cfg.svm_kernel_kind == "linear":
        return Kernel("linear")
    gamma = cfg.svm_gamma if cfg.svm_gamma is not None else 1.0 / n_features
    return Kernel("rbf", gamma=gamma)


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


class StageTimer:
    """Collects wall-clock stage durations for the manifest."""

    def __init__(self):
        self.timings: dict[str, float] = {}
        self._start: float | None = None
        self._stage: str | None = None

    def start(self, stage: str) -> None:
        self._stage = stage
        self._start = time.perf_counter()

    def stop(self) -> None:
        if self._stage is not None and self._start is not None:
            self.timings[self._stage] = round(time.perf_counter() - self._start, 6)
        self._stage = self._start = None


def write_manifest(out_dir, command: str, cfg: PipelineConfig,
                   inputs: list, artifacts: list[str],
                   timings: dict[str, float]) -> Path:
    """Record config snapshot, input digests, artifact versions and timings."""
    out_dir = Path(out_dir)
    manifest = {
        "command": command,
        "package_version": __version__,
        "seed": cfg.seed,
        "config": cfg.snapshot(),
        "inputs": {str(p): sha256_file(p) for p in inputs if Path(p).exists()},
        "artifacts": {
            name: {"format": ARTIFACT_FORMATS[name],
                   "sha256": sha256_file(out_dir / name)}
            for name in artifacts if (out_dir / name).exists()
        },
        "timings_s": timings,
    }
    path = out_dir / "manifest.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
