"""Command-line pipeline: meter, select, train, eval, synth, pipeline.

Every stage reads and writes files, so each subcommand is re-runnable from
its on-disk inputs alone and every artifact can be golden-file tested.
Exit codes: 0 success, 2 usage error, 3 data error (a diverging trainer
among them). Each run leaves a manifest.json in its out dir that says how
it ended, holds each input's digest as it was read, and lists only the
artifacts it wrote.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, cfs, metrics, mlp, modelfile, svm
from .config import PipelineConfig, load_config, make_kernel
from .dataset import (CLASS_NAMES, Dataset, apply_scaler, fit_scaler,
                      generate_synthetic, load_flow_csv, one_hot, stratified_split, write_csv)
# perfbench times the meter's write under this name until ROADMAP item 3 moves spans into src/.
from .dataset import write_csv as write_flow_csv
from .errors import DataError, UsageError
from .flow_meter import FEATURE_COLUMNS, meter_packets, read_packet_file

EXIT_OK = 0
# The exit code and stderr prefix of each error a command ends in.
_EXITS = {UsageError: (2, "error"), DataError: (3, "data error")}

# The format the manifest records for each artifact a command writes.
ARTIFACT_FORMATS = {
    **dict.fromkeys(["flows.csv", "synthetic_flows.csv", "selected.csv",
                     "test.csv"], "flow-csv 1"),
    **dict.fromkeys(["selection.txt", "correlation_matrix.csv", "report.txt",
                     "report.csv"], "report 1"),
    "ann_model.txt": mlp.MODEL_FORMAT,
    "ann_history.csv": "ann-history-csv 1",
    "svm_model.txt": svm.MODEL_FORMAT,
}


def _exit_of(exc: Exception) -> tuple[int, str]:
    """The exit code and stderr line of a command that raised `exc`."""
    [(code, prefix)] = [ending for kind, ending in _EXITS.items() if isinstance(exc, kind)]
    return code, f"{prefix}: {exc}"


@contextmanager
def _writing(path: Path):
    """An OSError while `path` is written, or the out dir made, is a usage
    error naming the path that failed."""
    try:
        yield path
    except OSError as exc:
        raise UsageError(f"cannot write {exc.filename or path}: {exc.strerror}") from None


def _require_file(path: str) -> Path:
    p = Path(path)
    if not p.is_file():  # a FIFO, like any path, is only stat'ed here
        raise UsageError(f"{path}: not a regular file" if p.exists()
                         else f"input file not found: {path}")
    return p


def _config(args) -> tuple[PipelineConfig, Path]:
    """The --config file with each flag given that sets a config key (its
    dest is "section:key") laid over it, and the out dir, created."""
    overrides = {tuple(dest.split(":")): value for dest, value in vars(args).items()
                 if ":" in dest and value is not None}
    cfg = load_config(args.config, seed=args.seed, overrides=overrides)
    out_dir = Path(args.out_dir)
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    return cfg, out_dir


@dataclass
class _Run:
    """A command's run record, the manifest's only source: the command, the
    input files it read, each with its digest taken before any stage can
    overwrite it, its config and out dir, the artifacts it finished
    writing, the seconds each finished stage took, the chunk workers LM used
    (None if no LM model trained), and its exit code and stderr line (None
    until it ends, and after an exception that is a bug)."""

    command: str
    inputs: dict[Path, str | None]
    cfg: PipelineConfig
    out_dir: Path
    artifacts: list[str] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    lm_chunk_workers: int | None = None
    exit_code: int | None = None
    error: str | None = None

    @contextmanager
    def artifact(self, name: str):
        """The path a stage writes artifact `name` to; recorded for the
        manifest once the write returns."""
        with _writing(self.out_dir / name) as path:
            yield path
        self.artifacts.append(name)

    def write_text(self, name: str, text: str) -> None:
        with self.artifact(name) as path:
            path.write_text(text, encoding="utf-8")

    @contextmanager
    def stage(self, name: str):
        start = time.perf_counter()
        yield
        self.timings[name] = round(time.perf_counter() - start, 6)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _input_sha256(path) -> str | None:
    """An input's digest, or None if it cannot be read, which its reader reports."""
    try:
        return _sha256(path)
    except OSError:
        return None


def write_manifest(run: _Run) -> Path:
    """Write manifest.json from the run record: how the run ended, its config,
    the digests of its inputs and of the artifacts it wrote, its stage
    timings and the environment its numbers depend on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 cannot return a dict
        blas = {}
    manifest = {
        "command": run.command,
        "exit_code": run.exit_code,
        "error": run.error,
        "package_version": __version__,
        "seed": run.cfg.seed,
        "config": json.loads(json.dumps(asdict(run.cfg), default=str)),
        "inputs": {str(p): digest for p, digest in run.inputs.items()},
        "artifacts": {name: {"format": ARTIFACT_FORMATS[name],
                             "sha256": _sha256(run.out_dir / name)}
                      for name in run.artifacts},
        "timings_s": run.timings,
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "blas": f"{blas.get('name')} {blas.get('version')}",
                        "blas_threads": mlp.blas_threads(),
                        "lm_chunk_workers": run.lm_chunk_workers},
    }
    with _writing(run.out_dir / "manifest.json") as path:
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    return path


@contextmanager
def _command(args, *paths: str):
    """The one runner of every subcommand: check each input file (before
    the config, so a missing file is reported ahead of a bad --config), load
    the config, make the out dir, take the inputs' digests and remove the
    manifest there, run the body's stages, then write the manifest however
    the body ends."""
    inputs = [_require_file(path) for path in paths]
    run = _Run(args.command, {p: _input_sha256(p) for p in inputs}, *_config(args))
    with _writing(run.out_dir / "manifest.json") as stale:
        stale.unlink(missing_ok=True)
    try:
        yield run
        run.exit_code = EXIT_OK
    except tuple(_EXITS) as exc:
        run.exit_code, run.error = _exit_of(exc)
        raise
    finally:
        write_manifest(run)


def _load_flows(path, cfg: PipelineConfig) -> Dataset:
    """load_flow_csv under the config's bad_value_policy, reporting dropped
    rows on stderr so a drop is never silent."""
    ds = load_flow_csv(path, cfg.bad_value_policy)
    if ds.dropped:
        print(f"{path}: dropped {ds.dropped} rows with non-finite cells "
              "(bad_value_policy = drop)", file=sys.stderr)
    return ds


# ---------------------------------------------------------------- meter


def run_meter(run: _Run, packets_path) -> Path:
    if run.cfg.meter_label is None:  # checked before the capture is read
        raise UsageError(f"[input] label (--label) must be {' or '.join(CLASS_NAMES)} "
                         "to meter")
    packets = read_packet_file(packets_path)
    if len(packets) == 0:
        raise DataError(f"{packets_path}: no packets")
    table = meter_packets(packets, run.cfg.meter)
    with run.artifact("flows.csv") as out:
        write_flow_csv(Dataset(FEATURE_COLUMNS, table,
                               np.full(len(table), CLASS_NAMES.index(run.cfg.meter_label))),
                       out)
    return out


def cmd_meter(args) -> None:
    with _command(args, args.packets) as run, run.stage("meter"):
        out = run_meter(run, *run.inputs)
    print(f"wrote {out}")


# ---------------------------------------------------------------- select


def run_select(run: _Run, flows_path) -> Path:
    """Select features and write selected.csv; return its path."""
    ds = _load_flows(flows_path, run.cfg)
    try:  # a table of one class, or a column too large to correlate, has no subset merit
        stats = cfs.build_stats(ds)
    except DataError as exc:
        raise DataError(f"{flows_path}: {exc}") from None
    subset = cfs.best_first_search(stats, run.cfg.search)
    trajectory = cfs.merit_trajectory(subset, stats)
    kept = ds.select_features([ds.schema[i] for i in sorted(subset.indices)])
    with run.artifact("selected.csv") as reduced_path:
        write_csv(kept, reduced_path)

    n_before, n_after = ds.n_features, len(subset.indices)
    report_lines = [
        "selected features (in selection order): "
        + ", ".join(ds.schema[i] for i in subset.path),
        f"subset merit: {subset.merit:.6f}",
        "merit trajectory:",
        *(f"  + {ds.schema[idx]}: {value:.6f}" for idx, value in trajectory),
        f"dimensionality reduction: {100.0 * (1.0 - n_after / n_before):.1f}% "
        f"({n_before} -> {n_after})",
    ]
    run.write_text("selection.txt", "\n".join(report_lines) + "\n")

    with (run.artifact("correlation_matrix.csv") as path,
          open(path, "w", encoding="utf-8") as handle):
        handle.write("feature," + ",".join(ds.schema) + ",class\n")
        for name, row, with_class in zip(ds.schema, stats.feature_feature,
                                         stats.feature_class):
            handle.write(",".join([name, *(f"{v:.6g}" for v in (*row, with_class))]) + "\n")

    print(report_lines[0])
    print(report_lines[-1])
    return reduced_path


def cmd_select(args) -> None:
    with _command(args, args.flows) as run, run.stage("select"):
        run_select(run, *run.inputs)


# ---------------------------------------------------------------- train


def _train_models(run: _Run, train_ds: Dataset, val_ds: Dataset,
                  scaler) -> list[tuple[str, Path]]:
    """Train and save the configured models; return (column, model file) pairs."""
    cfg, models = run.cfg, []
    if cfg.classifier in ("ann", "both"):
        try:
            mlp.check_budget(train_ds.n_features, cfg.mlp_hidden,
                             max(len(train_ds.y), len(val_ds.y)), cfg.mlp_train.mode)
        except ValueError as exc:
            raise UsageError(f"[mlp] hidden = {cfg.mlp_hidden} on {train_ds.n_features} "
                             f"features gives {exc}") from None
        model = mlp.init_model(train_ds.n_features, cfg.mlp_hidden, seed=cfg.mlp_train.seed)
        model, history = mlp.train(
            model, train_ds.X, one_hot(train_ds.y), val_ds.X, one_hot(val_ds.y),
            cfg.mlp_train)
        run.lm_chunk_workers = history.chunk_workers
        with run.artifact("ann_model.txt") as path:
            mlp.save_model(path, model, train_ds.schema, scaler)
        models.append(("ANN", path))
        run.write_text("ann_history.csv", "epoch,train_loss,val_loss\n" + "".join(
            f"{epoch},{tl:.17g},{vl:.17g}\n" for epoch, (tl, vl)
            in enumerate(zip(history.train_loss, history.val_loss), start=1)))
        print(f"ann: {len(history.train_loss)} epochs, "
              f"stop: {history.stopping_reason}")
    if cfg.classifier in ("svm", "both"):
        kernel = make_kernel(cfg, train_ds.n_features)
        [model] = svm.train_ovr(train_ds.X, train_ds.y, kernel, cfg.smo)
        with run.artifact("svm_model.txt") as path:
            svm.save_models(path, model, train_ds.schema, scaler)
        models.append(("SVM", path))
        print("svm: " + ("converged" if model.converged else "not fully converged"))
    return models


def run_train(run: _Run, ds: Dataset, flows_path) -> list[tuple[str, Path]]:
    """Split, scale, train and write test.csv; return (column, model file) pairs."""
    try:  # a too-small class, a too-large column or a diverging trainer stops all training
        train_ds, val_ds, test_ds = stratified_split(ds, run.cfg.split)
        scaler = fit_scaler(train_ds)
        del ds  # the splits are copies; models train on only the splits they use
        train_ds = apply_scaler(scaler, train_ds)
        val_ds = apply_scaler(scaler, val_ds)
        models = _train_models(run, train_ds, val_ds, scaler)
    except DataError as exc:
        raise DataError(f"{flows_path}: {exc}") from None
    with run.artifact("test.csv") as path:  # unscaled; models carry their scaler
        write_csv(test_ds, path)
    return models


def cmd_train(args) -> None:
    with _command(args, args.flows) as run, run.stage("train"):
        [flows] = run.inputs
        run_train(run, _load_flows(flows, run.cfg), flows)


# ---------------------------------------------------------------- eval


# Each model module parses its file body and predicts in batches.
_MODEL_MODULES = {mlp.MODEL_FORMAT: mlp, svm.MODEL_FORMAT: svm}


def run_eval(run: _Run, flows_path, models: list[tuple[str, Path]],
             include_reference: bool = False) -> dict[str, dict]:
    """Write report.txt and report.csv, one column per (name, model file) pair."""
    names = [name for name, _ in models]
    for position, (name, model_path) in enumerate(models):
        if name in names[:position]:
            raise UsageError(f"--model {models[names.index(name)][1]} and "
                             f"{model_path} both name report column {name!r}")
        if include_reference and name == metrics.C45_COLUMN_NAME:
            raise UsageError(f"--model {model_path} and --reference "
                             f"both name report column {name!r}")
    ds = _load_flows(flows_path, run.cfg)
    columns: dict[str, dict] = {}
    for name, model_path in models:
        doc = modelfile.ModelFile(Path(model_path), tuple(_MODEL_MODULES))
        module = _MODEL_MODULES[doc.format]
        model = module.read_body(doc)
        try:
            projected = ds.select_features(doc.meta["features"])
        except DataError as exc:
            raise DataError(f"{model_path}: evaluation data is {exc}") from None
        with np.errstate(over="ignore", invalid="ignore"):  # cells near the float limit
            X = doc.meta["scaler"].transform(projected.X)
            columns[name] = metrics.build_report(module.predict_batch(model, X), projected.y)
    table = metrics.render_table(columns, include_reference)
    run.write_text("report.txt", table)
    run.write_text("report.csv", metrics.render_csv(columns, include_reference))
    print(table, end="")
    return columns


def cmd_eval(args) -> None:
    with _command(args, args.flows, *(path for _, path in args.model)) as run, run.stage("eval"):
        run_eval(run, Path(args.flows), [(name, Path(path)) for name, path in args.model],
                 include_reference=args.reference)


def _named_model(text: str) -> tuple[str, str]:
    """--model [NAME=]PATH, split at its first "="; with no "=", NAME is the
    file's stem. A NAME that no report column can take is refused here."""
    name, equals, path = text.partition("=")
    if equals and not name:
        raise argparse.ArgumentTypeError(f"empty column name in {text!r}")
    if not equals:
        name, path = Path(text).stem, text
    try:
        return metrics.check_column_name(name), path
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# ---------------------------------------------------------------- synth


def run_synth(run: _Run) -> Path:
    ds, _roles = generate_synthetic(run.cfg.synth_spec, seed=run.cfg.seed)
    with run.artifact("synthetic_flows.csv") as out:
        write_csv(ds, out)
    return out


def cmd_synth(args) -> None:
    with _command(args) as run, run.stage("synth"):
        out = run_synth(run)
    print(f"wrote {out}")


# ---------------------------------------------------------------- pipeline


def cmd_pipeline(args) -> None:
    with _command(args) as run:
        cfg = run.cfg
        if cfg.flows_path:
            flows = _require_file(cfg.flows_path)
            run.inputs[flows] = _input_sha256(flows)
        elif cfg.use_synth:
            with run.stage("synth"):
                flows = run_synth(run)
        else:
            raise UsageError("config must provide [input] flows or synth")

        table = flows
        if cfg.select_enabled:
            with run.stage("select"):
                table = run_select(run, flows)

        with run.stage("train"):
            trained = run_train(run, _load_flows(table, cfg), flows)

        prefix = "CFS-" if cfg.select_enabled else ""
        with run.stage("eval"):
            run_eval(run, run.out_dir / "test.csv",
                     [(prefix + column, path) for column, path in trained],
                     include_reference=args.reference)


# ---------------------------------------------------------------- parser


# The (section, key) pairs each subcommand sets from a flag named --KEY.
_FLAG_KEYS = {
    "meter": (("input", "label"), ("meter", "activity_timeout_us"),
              ("meter", "flow_timeout_us")),
    "select": (("select", "max_stale_expansions"),),
    "train": (("train", "classifier"), ("mlp", "hidden"), ("mlp", "mode")),
    "synth": (("synth", "rows_per_class"),),
    "pipeline": (("input", "flows"),),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowsieve",
        description="Tor/nonTor traffic classification pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *positionals):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        for positional in positionals:
            p.add_argument(positional)
        for section, key in _FLAG_KEYS.get(name, ()):
            p.add_argument("--" + key.replace("_", "-"), dest=f"{section}:{key}",
                           help=f"sets [{section}] {key}")
        return p

    command("meter", cmd_meter, "packet records -> flow feature CSV", "packets")
    command("select", cmd_select, "correlation-based feature selection", "flows")
    command("train", cmd_train, "split, scale and train classifiers", "flows")
    p = command("eval", cmd_eval, "evaluate saved models on a flow CSV", "flows")
    p.add_argument("--model", action="append", required=True, type=_named_model,
                   metavar="[NAME=]PATH",
                   help="model file, its report column named NAME or else the file's "
                        "stem; repeat for a multi-column report")
    p.add_argument("--reference", action="store_true",
                   help="append the published C4.5 comparison column")
    command("synth", cmd_synth, "generate a synthetic flow CSV")
    p = command("pipeline", cmd_pipeline, "run synth (if set) -> select -> train -> eval")
    p.add_argument("--reference", action="store_true")
    for p in sub.choices.values():
        p.add_argument("--config", default=None, help="key-value config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out-dir", default="out")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except tuple(_EXITS) as exc:
        code, line = _exit_of(exc)
        print(line, file=sys.stderr)
        return code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
