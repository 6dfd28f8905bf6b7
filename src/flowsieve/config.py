"""Key-value run configuration: every key, its parser and its checks."""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace

from .cfs import SearchConfig
from .dataset import (BAD_VALUE_POLICIES, CLASS_NAMES, SplitSpec, SyntheticSpec,
                      default_synthetic_spec)
from .errors import Conflict, DataError, UsageError, open_text
from .flow_meter import MeterConfig
from .mlp import TrainConfig
from .svm import Kernel, SmoConfig


@dataclass
class PipelineConfig:
    """Everything one end-to-end run needs; a single seed drives all stages."""

    flows_path: str | None = None
    use_synth: bool = False
    meter_label: str | None = None  # the class of a metered capture; None = unset
    bad_value_policy: str = "error"
    meter: MeterConfig = field(default_factory=MeterConfig)
    split: SplitSpec = field(default_factory=SplitSpec)
    select_enabled: bool = True  # pipeline's switch; the select command always selects
    search: SearchConfig = field(default_factory=SearchConfig)
    classifier: str = "ann"  # ann | svm | both
    mlp_hidden: int = 6
    mlp_train: TrainConfig = field(default_factory=TrainConfig)
    svm_kernel_kind: str = "rbf"
    svm_gamma: float | None = None  # None = 1/n_features
    smo: SmoConfig = field(default_factory=SmoConfig)
    synth_spec: SyntheticSpec = field(default_factory=default_synthetic_spec)
    seed: int = 0

    def __post_init__(self):
        for name, allowed in (("classifier", ("ann", "svm", "both")),
                              ("meter_label", (None, *CLASS_NAMES)),
                              ("bad_value_policy", BAD_VALUE_POLICIES)):
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of "
                                 f"{', '.join(filter(None, allowed))}, "
                                 f"got {getattr(self, name)!r}")
        if self.flows_path and self.use_synth:
            raise Conflict("set only one input: flows or synth", ("flows_path", "use_synth"))
        if self.mlp_hidden < 1:
            raise ValueError(f"mlp_hidden must be at least 1, got {self.mlp_hidden}")
        make_kernel(self, n_features=1)  # checks svm_kernel_kind and svm_gamma

    def apply_seed(self, seed: int) -> None:
        """One seed controls split, init and synthesis deterministically."""
        self.seed = seed
        self.split.seed = seed
        self.mlp_train.seed = seed + 1


def _bool(text: str) -> bool:
    if text.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ValueError(f"not a boolean: {text!r}")
    return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]


def _finite(text: str) -> float:
    """The one parser of float settings: inf and nan are refused."""
    if not math.isfinite(value := float(text)):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _optional(parse):
    """An empty value leaves the setting at None."""
    return lambda text: parse(text) if text else None


def _numbers(text: str) -> tuple[float, ...]:
    return tuple(_finite(v) for v in text.replace(",", " ").split())


# Every config key: [section] key -> (the PipelineConfig attribute it sets,
# dotted for a nested config or a default_synthetic_spec argument, and the
# parser of its text). The constructors check every range and choice.
SETTINGS = {
    ("input", "flows"): ("flows_path", str),
    ("input", "synth"): ("use_synth", _bool),
    ("input", "label"): ("meter_label", str),
    ("input", "bad_value_policy"): ("bad_value_policy", str),
    ("meter", "activity_timeout_us"): ("meter.activity_timeout_us", int),
    ("meter", "flow_timeout_us"): ("meter.flow_timeout_us", int),
    ("split", "train"): ("split.train", _finite),
    ("split", "validation"): ("split.validation", _finite),
    ("split", "test"): ("split.test", _finite),
    ("select", "enabled"): ("select_enabled", _bool),
    ("select", "max_stale_expansions"): ("search.max_stale_expansions", int),
    ("train", "classifier"): ("classifier", str),
    ("mlp", "mode"): ("mlp_train.mode", str),
    ("mlp", "hidden"): ("mlp_hidden", int),
    ("mlp", "max_epochs"): ("mlp_train.max_epochs", int),
    ("mlp", "learning_rate"): ("mlp_train.learning_rate", _finite),
    ("mlp", "batch_size"): ("mlp_train.batch_size", int),
    ("mlp", "patience"): ("mlp_train.patience", int),
    ("svm", "kernel"): ("svm_kernel_kind", str),
    ("svm", "gamma"): ("svm_gamma", _optional(_finite)),
    ("svm", "c"): ("smo.C", _finite),
    ("svm", "tolerance"): ("smo.tolerance", _finite),
    ("svm", "max_iterations"): ("smo.max_iterations", _optional(int)),
    ("synth", "rows_per_class"): ("synth_spec.rows_per_class", int),
    ("synth", "class0_mean"): ("synth_spec.class0_mean", _numbers),
    ("synth", "class1_mean"): ("synth_spec.class1_mean", _numbers),
    ("synth", "covariance_scale"): ("synth_spec.covariance_scale", _finite),
    ("synth", "duplicates"): ("synth_spec.duplicates", int),
    ("synth", "duplicate_noise"): ("synth_spec.duplicate_noise", _finite),
    ("synth", "noise_features"): ("synth_spec.noise_features", int),
    ("synth", "noise_scale"): ("synth_spec.noise_scale", _finite),
}


def load_config(path: str | None, seed: int | None = None,
                overrides: dict[tuple[str, str], str] | None = None) -> PipelineConfig:
    """A PipelineConfig from an INI-style key-value file, then `overrides`
    (command-line values keyed by the (section, key) they set), parsed and
    checked alike: a fault is a UsageError naming the file or the command
    line, and the [section] key."""
    if seed is not None and seed < 0:
        raise UsageError(f"command line: --seed must be at least 0, got {seed}")
    texts = _read_settings(path) if path is not None else {}
    texts.update({key: ("command line", text) for key, text in (overrides or {}).items()})
    cfg = _build(texts)
    cfg.apply_seed(cfg.seed if seed is None else seed)
    return cfg


def _read_settings(path) -> dict[tuple[str, str], tuple[str, str]]:
    """(section, key) -> (path, text) for each key in an INI file; an
    unknown section or key is an error. Values are read literally: "%" is
    a plain character, not interpolation syntax."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open_text(path) as handle:
            parser.read_file(handle)
    except DataError as exc:  # a byte that is not UTF-8, named by its line
        raise UsageError(str(exc)) from None
    except configparser.Error as exc:
        raise UsageError(f"{path}: {exc}") from None
    texts = {(section, key): (path, parser[section][key])
             for section in parser.sections() for key in parser[section]}
    unknown = [f"section [{section}]" for section in parser.sections()
               if section not in {section for section, _ in SETTINGS}]
    unknown += [f"key {key!r} in [{section}]" for section, key in texts
                if (section, key) not in SETTINGS]
    if unknown:
        raise UsageError(f"{path}: unknown {unknown[0]}")
    return texts


def _build(texts: dict) -> PipelineConfig:
    """The PipelineConfig that `texts` describe, each nested config built
    once from all its keys, so a check that spans keys (the split ratios,
    the timeouts) sees their final values."""
    cfg = PipelineConfig()
    groups: dict[str, dict] = {}  # owner attribute ("" = top level) -> keys
    for key, source_text in texts.items():
        groups.setdefault(SETTINGS[key][0].rpartition(".")[0], {})[key] = source_text

    def make(owner, group):
        kwargs = {SETTINGS[key][0].rpartition(".")[2]: SETTINGS[key][1](text)
                  for key, (_, text) in group.items()}
        if owner == "synth_spec":
            return default_synthetic_spec(**kwargs)
        return replace(getattr(cfg, owner) if owner else cfg, **kwargs)

    def checked(owner, group):
        try:
            return make(owner, group)
        except ValueError as exc:
            # Blame the keys that fail alone or that a failed Conflict
            # compares, else all (a check spans them).
            compared = getattr(exc, "fields", ())
            blamed = []
            for key in group:
                try:
                    make(owner, {key: group[key]})
                    if SETTINGS[key][0].rpartition(".")[2] in compared:
                        blamed.append(key)
                except ValueError:
                    blamed.append(key)
            raise UsageError("; ".join(f"{group[key][0]}: [{key[0]}] {key[1]}"
                                       for key in blamed or group) + f": {exc}") from None

    for owner, group in groups.items():
        if owner:
            setattr(cfg, owner, checked(owner, group))
    return checked("", groups.get("", {}))


def make_kernel(cfg: PipelineConfig, n_features: int) -> Kernel:
    """The configured kernel; rbf gamma defaults to 1/n_features."""
    gamma = cfg.svm_gamma if cfg.svm_gamma is not None else 1.0 / n_features
    return Kernel(cfg.svm_kernel_kind, gamma if cfg.svm_kernel_kind == "rbf" else None)
