"""Run one pass of a workload in this (fresh) process and write its result.

Usage: python3 perfbench/passrun.py WORKLOAD INPUT_DIR PASS_DIR PASS_ID TRACE RESULT_JSON

Run from the root of the repository. The pass's wall time is the sum of its
CLI calls; CPU time is this process's user+sys over the same calls (BLAS
threads included); peak RSS is this process's high-water mark, read before
the result is written.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path("src").resolve()))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
from workloads import WORKLOADS, Join  # noqa: E402


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_pass(workload_name: str, input_dir: Path, pass_dir: Path, pass_id: int,
             traced: bool) -> dict:
    from flowsieve import cli

    workload = WORKLOADS[workload_name]
    pass_dir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer(pass_id) if traced else None
    if tracer is not None:
        tracing.install(tracer)
    wall = cpu = 0.0
    calls = []
    steps = workload.steps(input_dir, pass_dir)
    with open(os.devnull, "w", encoding="utf-8") as sink:
        for step in steps:
            if isinstance(step, Join):
                step.run()
                continue
            span = tracer.open("cli.main") if tracer is not None else None
            cpu0, start = _cpu_seconds(), time.perf_counter()
            with contextlib.redirect_stdout(sink):
                code = cli.main(step)
            wall += time.perf_counter() - start
            cpu += _cpu_seconds() - cpu0
            if span is not None:
                tracer.close(span)
            calls.append({"argv": step, "exit": code})
            if code != 0:
                break
    result = {
        "pass": pass_id, "traced": traced, "calls": calls,
        "cli_steps": sum(1 for step in steps if not isinstance(step, Join)),
        "pipeline_s": wall, "pipeline_cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        result["spans"] = tracing.span_records(tracer)
        result["totals"] = {name: {"seconds": seconds, "calls": n}
                            for name, (seconds, n) in tracer.totals.items()}
    return result


def main(argv: list[str]) -> int:
    workload, input_dir, pass_dir, pass_id, trace, out = argv
    try:
        result = run_pass(workload, Path(input_dir), Path(pass_dir), int(pass_id),
                          trace == "1")
    except Exception:  # reported as a failed pass, with its traceback
        result = {"pass": int(pass_id), "error": traceback.format_exc()}
    Path(out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
