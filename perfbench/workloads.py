"""The benchmark's workloads: their inputs, configs and the CLI calls of a pass.

A pass is the sequence of `flowsieve` CLI invocations that turns a
workload's input files into `report.csv`. Steps are either CLI argument
lists or a `Join` the benchmark performs itself (not timed), because the
CLI has no way yet to combine two labelled flow CSVs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs

PIPELINE_SEED = 1  # fixed; the workload seed only shapes the input files


@dataclass(frozen=True)
class Join:
    """Concatenate flow CSVs that share a header into one file."""

    sources: tuple[Path, ...]
    target: Path

    def run(self) -> None:
        with open(self.target, "w", encoding="utf-8", newline="") as out:
            for index, source in enumerate(self.sources):
                with open(source, "r", encoding="utf-8", newline="") as handle:
                    header = handle.readline()
                    if index == 0:
                        out.write(header)
                    out.write(handle.read())


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # INI text; {flows} is replaced by the pass's flow CSV path
    make_inputs: Callable[[Path, int], dict[str, int]]
    steps: Callable[[Path, Path], list]  # (input dir, pass dir) -> steps
    artifacts: tuple[str, ...]  # compared byte for byte across passes
    select: bool
    svm: bool

    def write_config(self, pass_dir: Path, flows: Path) -> Path:
        path = pass_dir / "pipeline.ini"
        path.write_text(self.config.format(flows=flows), encoding="utf-8")
        return path


def _pipeline_argv(config: Path, out_dir: Path) -> list[str]:
    return ["pipeline", "--config", str(config), "--seed", str(PIPELINE_SEED),
            "--out-dir", str(out_dir)]


# ---------------------------------------------------------------- capture

TRACE_LABELS = ("Tor", "NonTor")


def _capture_inputs(input_dir: Path, seed: int) -> dict[str, int]:
    packets = 0
    for label in TRACE_LABELS:
        packets += inputs.write_packet_trace(input_dir / f"{label}.txt", label, seed)
    return {"packets": packets}


def _capture_steps(input_dir: Path, pass_dir: Path) -> list:
    steps: list = []
    for label in TRACE_LABELS:
        steps.append(["meter", str(input_dir / f"{label}.txt"), "--label", label,
                      "--seed", str(PIPELINE_SEED),
                      "--out-dir", str(pass_dir / f"meter-{label}")])
    joined = pass_dir / "flows.csv"
    steps.append(Join(tuple(pass_dir / f"meter-{label}" / "flows.csv"
                            for label in TRACE_LABELS), joined))
    config = CAPTURE.write_config(pass_dir, joined)
    steps.append(_pipeline_argv(config, pass_dir / "pipeline"))
    return steps


# Epoch budgets equal the patience, so training always runs the whole
# budget: the work per pass then does not hinge on when early stopping fires.
# For the same reason svm-large sets C and the SMO tolerance: at C = 1 and
# tolerance 1e-3, SMO time on one input size varied 4-11 s with the seed,
# because a few examples that stay just outside the tolerance trigger full
# sweeps on every pass; at C = 0.1 and tolerance 0.1 it varied by under 10%.
CAPTURE = Workload(
    name="capture",
    config="[input]\nflows = {flows}\n"
           "[select]\nenabled = true\n"
           "[train]\nclassifier = both\n"
           "[mlp]\nmode = lm\nmax_epochs = 30\npatience = 30\n",
    make_inputs=_capture_inputs,
    steps=_capture_steps,
    artifacts=tuple(f"meter-{label}/flows.csv" for label in TRACE_LABELS) + (
        "pipeline/report.csv", "pipeline/ann_model.txt",
        "pipeline/svm_model.txt", "pipeline/test.csv"),
    select=True,
    svm=True,
)


# ---------------------------------------------------------------- csv workloads

def _table_inputs(rows_per_class: int, separation: float):
    def make(input_dir: Path, seed: int) -> dict[str, int]:
        rows = inputs.write_flow_table(input_dir / "flows.csv", rows_per_class,
                                       separation, seed)
        return {"rows": rows}
    return make


def _table_steps(workload_name: str):
    def steps(input_dir: Path, pass_dir: Path) -> list:
        config = WORKLOADS[workload_name].write_config(
            pass_dir, input_dir / "flows.csv")
        return [_pipeline_argv(config, pass_dir / "pipeline")]
    return steps


UNB_SCALE = Workload(
    name="unb-scale",
    config="[input]\nflows = {flows}\n"
           "[select]\nenabled = false\n"
           "[train]\nclassifier = ann\n"
           "[mlp]\nmode = lm\nmax_epochs = 12\npatience = 12\n",
    make_inputs=_table_inputs(30_000, 1.0),
    steps=_table_steps("unb-scale"),
    artifacts=("pipeline/report.csv", "pipeline/ann_model.txt",
               "pipeline/test.csv"),
    select=False,
    svm=False,
)

SVM_LARGE = Workload(
    name="svm-large",
    config="[input]\nflows = {flows}\n"
           "[select]\nenabled = true\n"
           "[train]\nclassifier = both\n"
           "[mlp]\nmode = bp-sgd\nmax_epochs = 100\npatience = 100\n"
           "[svm]\nc = 0.1\ntolerance = 0.1\n",
    make_inputs=_table_inputs(3_000, 1.5),
    steps=_table_steps("svm-large"),
    artifacts=("pipeline/report.csv", "pipeline/ann_model.txt",
               "pipeline/svm_model.txt", "pipeline/test.csv"),
    select=True,
    svm=True,
)

WORKLOADS = {w.name: w for w in (CAPTURE, UNB_SCALE, SVM_LARGE)}
