"""Spans and counters around flowsieve's public functions, installed from outside.

`install` replaces module attributes with timing wrappers, at the names the
callers look up: the names `flowsieve.cli` imported, or the module attribute
another module calls (for example `mlp.minimize_least_squares`). Nothing in
`src/` is edited. A missing attribute is skipped, so a later refactor loses
a span instead of breaking the run.

Spans are kept in memory and returned at the end of the pass. A function
called once per flow (`compute_features`) is timed as a total and a call
count instead of one span per call.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

LAYERS = ("flow_meter", "dataset", "cfs", "mlp", "lm", "svm", "metrics",
          "config", "cli")

# Numeric codes for the reason `lm.minimize_least_squares` stopped.
LM_STOP_CODES = {"callback": 1, "gradient": 2, "mu_max": 3, "max_iterations": 4}


class Tracer:
    """Records nested spans (name, start, end, parent, pass) and counters."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self.open_spans: list[dict] = []
        self.totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
        self.counts: dict[str, float] = defaultdict(float)

    def open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name, "pass": self.pass_id,
                "parent": self.open_spans[-1]["id"] if self.open_spans else None,
                "start": time.perf_counter() - self.origin, "end": None,
                "child_s": 0.0}
        self.spans.append(span)
        self.open_spans.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter() - self.origin
        self.open_spans.pop()
        if self.open_spans:
            self.open_spans[-1]["child_s"] += span["end"] - span["start"]

    def add_total(self, name: str, seconds: float) -> None:
        total = self.totals[name]
        total[0] += seconds
        total[1] += 1
        if self.open_spans:
            self.open_spans[-1]["child_s"] += seconds

    def inside(self, name: str) -> bool:
        return any(span["name"] == name for span in self.open_spans)

    def span_seconds(self, *names: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] in names)

    def self_seconds(self, layer: str) -> float:
        """Time in the layer's own code: its spans minus their child spans."""
        own = sum(s["end"] - s["start"] - s["child_s"] for s in self.spans
                  if s["name"].split(".")[0] == layer)
        return own + sum(seconds for name, (seconds, _) in self.totals.items()
                         if name.split(".")[0] == layer)


def _bind(fn, args, kwargs) -> dict:
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments
    except (TypeError, ValueError):
        return {}


def _spanned(tracer: Tracer, name: str, fn, observe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if observe is not None:
            observe(tracer, _bind(fn, args, kwargs), result)
        return result
    return wrapper


def _totalled(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.add_total(name, time.perf_counter() - start)
    return wrapper


def _counted_gram(tracer: Tracer, fn):
    """Count the bytes of kernel values SMO computes while training."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        if tracer.inside("svm.train_ovr"):
            tracer.counts["svm.gram_bytes"] += result.nbytes
        return result
    return wrapper


# ---------------------------------------------------------------- observers


def _packets(t, a, result):
    t.counts["flow_meter.packets"] += len(result)


def _flows(t, a, result):
    t.counts["flow_meter.flows"] += len(result)


def _rows_loaded(t, a, result):
    t.counts["dataset.rows_loaded"] += result.n_examples


def _rows_written(t, a, result):
    t.counts["dataset.rows_written"] += a["ds"].n_examples


def _features_kept(t, a, result):
    t.counts["cfs.features_kept"] = len(result.indices)


def _mlp_trained(t, a, result):
    model, history = result
    t.counts["mlp.epochs"] += len(history.train_loss)
    if a["cfg"].mode == "lm":  # one (outputs*N) x P float64 Jacobian
        rows = len(a["X"]) * model.n_outputs
        t.counts["mlp.jacobian_mb_computed"] += rows * model.n_parameters * 8 / 1e6


def _lm_result(t, a, result):
    t.counts["lm.iterations"] += result.iterations
    t.counts["lm.stop_reason"] = LM_STOP_CODES.get(result.reason, 9)


def _svm_trained(t, a, result, limit):
    rows = len(a["X"])
    t.counts["svm.train_rows"] += rows
    t.counts["svm.gram_cached"] = float(limit is not None and rows <= limit)
    t.counts["svm.support_vectors"] += sum(len(m.support_vectors) for m in result)
    t.counts["svm.converged"] = float(all(m.converged for m in result))


def _solved(t, a, result):
    t.counts["svm.solves"] += 1


def install(tracer: Tracer) -> None:
    """Wrap flowsieve's public functions at the names their callers use."""
    from flowsieve import cfs, cli, flow_meter, metrics, mlp, svm

    limit = getattr(svm, "_KERNEL_CACHE_LIMIT", None)
    spans = [
        (cli, "run_meter", "cli.run_meter", None),
        (cli, "run_select", "cli.run_select", None),
        (cli, "run_train", "cli.run_train", None),
        (cli, "run_eval", "cli.run_eval", None),
        (cli, "read_packet_file", "flow_meter.read_packet_file", _packets),
        (cli, "meter_packets", "flow_meter.meter_packets", _flows),
        (flow_meter, "assemble_flows", "flow_meter.assemble_flows", None),
        (cli, "write_flow_csv", "flow_meter.write_flow_csv", None),
        (cli, "load_flow_csv", "dataset.load_flow_csv", _rows_loaded),
        (cli, "write_csv", "dataset.write_csv", _rows_written),
        (cli, "stratified_split", "dataset.stratified_split", None),
        (cli, "fit_scaler", "dataset.fit_scaler", None),
        (cli, "apply_scaler", "dataset.apply_scaler", None),
        (cfs, "build_stats", "cfs.build_stats", None),
        (cfs, "best_first_search", "cfs.best_first_search", _features_kept),
        (cfs, "merit_trajectory", "cfs.merit_trajectory", None),
        (mlp, "init_model", "mlp.init_model", None),
        (mlp, "train", "mlp.train", _mlp_trained),
        (mlp, "predict_batch", "mlp.predict_batch", None),
        (mlp, "save_model", "mlp.save_model", None),
        (mlp, "load_model", "mlp.load_model", None),
        (mlp, "minimize_least_squares", "lm.minimize_least_squares", _lm_result),
        (svm, "train_ovr", "svm.train_ovr",
         lambda t, a, r: _svm_trained(t, a, r, limit)),
        (svm, "smo_train", "svm.smo_train", _solved),
        (svm, "predict_batch", "svm.predict_batch", None),
        (svm, "save_models", "svm.save_models", None),
        (svm, "load_models", "svm.load_models", None),
        (metrics, "build_report", "metrics.build_report", None),
        (metrics, "render_table", "metrics.render_table", None),
        (metrics, "render_csv", "metrics.render_csv", None),
        (cli, "load_config", "config.load_config", None),
        (cli, "write_manifest", "config.write_manifest", None),
    ]
    for module, attr, name, observe in spans:
        if hasattr(module, attr):
            setattr(module, attr, _spanned(tracer, name, getattr(module, attr),
                                           observe))
    if hasattr(flow_meter, "compute_features"):
        flow_meter.compute_features = _totalled(
            tracer, "flow_meter.compute_features", flow_meter.compute_features)
    if hasattr(svm, "kernel_matrix"):
        svm.kernel_matrix = _counted_gram(tracer, svm.kernel_matrix)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass (times in s, sizes in MB)."""
    t, c = tracer, tracer.counts
    meter_s = t.span_seconds("flow_meter.read_packet_file",
                             "flow_meter.meter_packets", "flow_meter.write_flow_csv")
    train_s = t.span_seconds("mlp.train")
    out = {
        "flow_meter.read_packet_file_s": t.span_seconds("flow_meter.read_packet_file"),
        "flow_meter.assemble_flows_s": t.span_seconds("flow_meter.assemble_flows"),
        "flow_meter.compute_features_s": t.totals["flow_meter.compute_features"][0],
        "flow_meter.write_flow_csv_s": t.span_seconds("flow_meter.write_flow_csv"),
        "flow_meter.packets": c["flow_meter.packets"],
        "flow_meter.flows": c["flow_meter.flows"],
        "flow_meter.packets_per_s": c["flow_meter.packets"] / meter_s if meter_s else 0.0,
        "dataset.load_flow_csv_s": t.span_seconds("dataset.load_flow_csv"),
        "dataset.rows_loaded": c["dataset.rows_loaded"],
        "dataset.write_csv_s": t.span_seconds("dataset.write_csv"),
        "dataset.rows_written": c["dataset.rows_written"],
        "dataset.split_scale_s": t.span_seconds(
            "dataset.stratified_split", "dataset.fit_scaler", "dataset.apply_scaler"),
        "cfs.build_stats_s": t.span_seconds("cfs.build_stats"),
        "cfs.best_first_search_s": t.span_seconds("cfs.best_first_search"),
        "cfs.features_kept": c["cfs.features_kept"],
        "mlp.train_s": train_s,
        "mlp.epochs": c["mlp.epochs"],
        "mlp.epoch_s": train_s / c["mlp.epochs"] if c["mlp.epochs"] else 0.0,
        "mlp.predict_batch_s": t.span_seconds("mlp.predict_batch"),
        "mlp.jacobian_mb_computed": c["mlp.jacobian_mb_computed"],
        "lm.minimize_least_squares_s": t.span_seconds("lm.minimize_least_squares"),
        "lm.iterations": c["lm.iterations"],
        "lm.stop_reason": c["lm.stop_reason"],
        "svm.train_ovr_s": t.span_seconds("svm.train_ovr"),
        "svm.solves": c["svm.solves"],
        "svm.train_rows": c["svm.train_rows"],
        "svm.gram_cached": c["svm.gram_cached"],
        "svm.gram_mb_computed": c["svm.gram_bytes"] / 1e6,
        "svm.support_vectors": c["svm.support_vectors"],
        "svm.converged": c["svm.converged"],
        "svm.predict_batch_s": t.span_seconds("svm.predict_batch"),
        "metrics.build_report_s": t.span_seconds("metrics.build_report"),
        "metrics.render_s": t.span_seconds("metrics.render_table", "metrics.render_csv"),
        "config.load_config_s": t.span_seconds("config.load_config"),
        "config.write_manifest_s": t.span_seconds("config.write_manifest"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = t.self_seconds(layer)
    return out


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name == "lm.stop_reason":
        return "code"
    if name.endswith("acc_pct"):
        return "%"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb_computed"):
        return "MB"
    return "count"


def span_records(tracer: Tracer) -> list[dict]:
    """Closed spans without the bookkeeping field, ready to write out."""
    return [{key: span[key] for key in ("id", "name", "parent", "pass",
                                        "start", "end")}
            for span in tracer.spans]
