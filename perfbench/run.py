"""flowsieve benchmark: one workload, one seed, end-to-end or traced metrics.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload capture --seed 1 --seconds 30 --trace 0

The workload's inputs are generated from --seed, then passes run one at a
time, each in a fresh process, until --seconds have been spent on passes.
Every pass is checked: exit codes, a parseable report.csv with a sane
accuracy, and artifact bytes equal to the first pass. With --trace 0 the
end-to-end metrics are reported; with --trace 1 untraced and traced passes
alternate and the per-layer metrics of the traced passes are reported,
together with the tracing overhead. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

Results, the environment record and the spans are written to
.perfbench_work/results/. See perfbench/README.md for the workloads and
the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"
PASSRUN = HERE / "passrun.py"

SETUP_REPEATS = 7
MIN_PASSES = 2  # per kind: the second pass is compared with the first
RUN_BUDGET_S = 150.0  # no pass starts that could end past this
ACC_FLOOR_PCT = 60.0  # every workload's classes are separable well above chance
BLAS_THREADS = 1  # one BLAS thread: steadier on a shared machine

END_TO_END = (("pipeline_s", "s"), ("pipeline_cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"), ("acc_ann_pct", "%"))

# Traced counts that must equal what the untraced passes wrote to disk.
CHECKED_COUNTS = ("flow_meter.packets", "flow_meter.flows", "dataset.rows_written",
                  "cfs.features_kept", "mlp.epochs", "svm.support_vectors")

SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); import flowsieve.cli as cli; "
              "cli.load_config(sys.argv[1], seed=1)")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(BLAS_THREADS)
    return env


# ---------------------------------------------------------------- environment


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return ""


def _loadavg() -> str:
    return " ".join(_read("/proc/loadavg").split()[:3])


def _git_commit() -> str | None:
    head = _read(str(ROOT / ".git" / "HEAD")).strip()
    if head.startswith("ref: "):
        return _read(str(ROOT / ".git" / head[5:])).strip() or head[5:]
    return head or None


def _blas_threads() -> int | None:
    """Threads the bundled OpenBLAS would use, asked in a BLAS-limited child."""
    code = ("import ctypes, numpy\n"
            "libs = {l.split()[-1] for l in open('/proc/self/maps') "
            "if 'openblas' in l.lower() and '.so' in l}\n"
            "for lib in libs:\n"
            "    for name in ('scipy_openblas_get_num_threads64_', "
            "'openblas_get_num_threads64_', 'openblas_get_num_threads'):\n"
            "        fn = getattr(ctypes.CDLL(lib), name, None)\n"
            "        if fn is not None:\n"
            "            print(fn()); raise SystemExit\n")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(),
                         capture_output=True, text=True, timeout=60)
    return int(out.stdout) if out.stdout.strip().isdigit() else None


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 cannot return a dict
        blas = {}
    cpu_model = next((line.split(":", 1)[1].strip()
                      for line in _read("/proc/cpuinfo").splitlines()
                      if line.startswith("model name")), platform.processor())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "loadavg_start": _loadavg(),
        "git_commit": _git_commit(),
        "workload_seed": seed,
    }


# ---------------------------------------------------------------- measuring


def _run_setup_process(argv: list[str]) -> float:
    # A blocking wait: Popen.wait(timeout=...) polls in steps of up to 50 ms,
    # which would quantize the measurement. A timer kills a hung child.
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=child_env())
    killer = threading.Timer(60.0, proc.kill)
    killer.start()
    try:
        code = proc.wait()
    finally:
        killer.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, argv)
    return elapsed


def measure_setup(config: Path) -> list[float]:
    """Wall time of fresh processes that import the CLI and load a config."""
    argv = [sys.executable, "-c", SETUP_CODE, str(config)]
    _run_setup_process(argv)  # warms the bytecode and file caches
    return [_run_setup_process(argv) for _ in range(SETUP_REPEATS)]


def run_pass(workload: str, input_dir: Path, pass_dir: Path, pass_id: int,
             traced: bool, timeout: float) -> dict:
    out = pass_dir.with_suffix(".json")
    argv = [sys.executable, str(PASSRUN), workload, str(input_dir), str(pass_dir),
            str(pass_id), "1" if traced else "0", str(out)]
    try:
        proc = subprocess.run(argv, env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"pass": pass_id, "traced": traced,
                "error": f"pass timed out after {timeout:.0f} s"}
    if not out.is_file():
        return {"pass": pass_id, "traced": traced,
                "error": f"pass process exited {proc.returncode}: {proc.stderr[-2000:]}"}
    result = json.loads(out.read_text(encoding="utf-8"))
    result["traced"] = traced
    if proc.stderr.strip():
        result["stderr"] = proc.stderr[-2000:]
    return result


# ---------------------------------------------------------------- checking


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _data_rows(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(1 for line in handle if line.strip()) - 1


def output_facts(workload, pass_dir: Path, generated: dict) -> dict[str, float]:
    """The counts a traced pass must reproduce, read from an untraced pass."""
    from flowsieve.metrics import parse_report_csv

    out = pass_dir / "pipeline"
    facts: dict[str, float] = {
        "mlp.epochs": _data_rows(out / "ann_history.csv"),
        "dataset.rows_written": _data_rows(out / "test.csv"),
    }
    if "packets" in generated:
        facts["flow_meter.packets"] = generated["packets"]
        facts["flow_meter.flows"] = sum(_data_rows(p)
                                        for p in pass_dir.glob("meter-*/flows.csv"))
    if workload.select:
        facts["dataset.rows_written"] += _data_rows(out / "selected.csv")
        header = (out / "selected.csv").read_text(encoding="utf-8").split("\n", 1)[0]
        facts["cfs.features_kept"] = len(header.split(",")) - 1
    if workload.svm:
        text = (out / "svm_model.txt").read_text(encoding="utf-8")
        facts["svm.support_vectors"] = sum(1 for line in text.splitlines()
                                           if line.startswith("sv "))
    report = parse_report_csv((out / "report.csv").read_text(encoding="utf-8"))
    for column, values in report.items():
        kind = "ann" if column.endswith("ANN") else "svm"
        facts[f"acc_{kind}_pct"] = values["overall_acc"]
    return facts


def check_pass(workload, result: dict, pass_dir: Path, reference: dict | None,
               generated: dict) -> tuple[list[str], dict, dict]:
    """Problems found in one pass, its artifact hashes and its output facts."""
    if "error" in result:
        return [result["error"]], {}, {}
    problems = []
    calls = result["calls"]
    if len(calls) != result["cli_steps"] or any(c["exit"] != 0 for c in calls):
        problems.append(f"CLI exit codes {[c['exit'] for c in calls]}"
                        f" {result.get('stderr', '')}")
        return problems, {}, {}
    hashes = {}
    for name in workload.artifacts:
        path = pass_dir / name
        if not path.is_file():
            problems.append(f"missing artifact {name}")
        else:
            hashes[name] = _sha256(path)
    try:
        facts = output_facts(workload, pass_dir, generated)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return problems + [f"unreadable outputs: {exc!r}"], hashes, {}
    for kind in ("ann",) + (("svm",) if workload.svm else ()):
        acc = facts.get(f"acc_{kind}_pct")
        if acc is None or not ACC_FLOOR_PCT <= acc <= 100.0:
            problems.append(f"{kind} accuracy {acc} outside [{ACC_FLOOR_PCT}, 100]")
    if reference is not None and hashes != reference["hashes"]:
        differing = sorted(n for n in hashes if hashes[n] != reference["hashes"].get(n))
        problems.append(f"artifacts differ from the first pass: {differing}")
    if reference is not None and result.get("traced"):
        for name in CHECKED_COUNTS:
            if name in reference["facts"] and \
                    result["layers"][name] != reference["facts"][name]:
                problems.append(f"traced {name} = {result['layers'][name]}, "
                                f"outputs say {reference['facts'][name]}")
    return problems, hashes, facts


# ---------------------------------------------------------------- reporting


def summary(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def print_table(title: str, rows: list[tuple[str, str, dict]]) -> None:
    """One line per metric; spread is (q3 - q1) / median."""
    print(title)
    print(f"  {'metric':34} {'unit':6} {'median':>14} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'n':>3}")
    for name, unit, s in rows:
        spread = (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0
        print(f"  {name:34} {unit:6} {s['median']:14.6g} {s['q1']:12.6g} "
              f"{s['q3']:12.6g} {spread:7.3f} {s['n']:3d}")


def run_passes(workload, run_dir: Path, generated: dict, seconds: float,
               trace: bool, run_start: float) -> tuple[list, dict, dict]:
    """Passes until about `seconds` are spent; returns passes, problems, facts.

    With tracing, untraced and traced passes alternate, starting untraced, so
    every traced pass has an untraced one to be compared with.
    """
    passes: list[dict] = []
    problems_by_pass: dict[int, list[str]] = {}
    reference = None
    pass_start = time.perf_counter()
    longest = 0.0
    while True:
        pass_id = len(passes)
        traced = trace and pass_id % 2 == 1
        pass_dir = run_dir / f"pass-{pass_id}"
        began = time.perf_counter()
        result = run_pass(workload.name, run_dir / "input", pass_dir, pass_id, traced,
                          timeout=max(10.0, 170.0 - (began - run_start)))
        longest = max(longest, time.perf_counter() - began)
        problems, hashes, facts = check_pass(workload, result, pass_dir,
                                             reference, generated)
        if reference is None and not problems:
            if traced:
                problems.append("no untraced pass to compare with")
            else:
                reference = {"hashes": hashes, "facts": facts}
        problems_by_pass[pass_id] = problems
        passes.append(result)
        shutil.rmtree(pass_dir, ignore_errors=True)
        if time.perf_counter() - run_start + 1.5 * longest > RUN_BUDGET_S:
            break
        spent = time.perf_counter() - pass_start
        if len(passes) >= MIN_PASSES * (1 + trace) and spent + longest / 2 >= seconds:
            break
    traced = [p for p in passes if p.get("traced") and not problems_by_pass[p["pass"]]]
    for p in traced[1:]:
        for name, value in p["layers"].items():
            exact = tracing.unit_of(name) in ("count", "MB", "code")
            if exact and value != traced[0]["layers"][name]:
                problems_by_pass[p["pass"]].append(f"traced {name} did not repeat")
    return passes, problems_by_pass, reference["facts"] if reference else {}


def end_to_end_samples(plain: list[dict], setup_samples: list[float],
                       facts: dict) -> dict[str, list[float]]:
    return {
        "pipeline_s": [p["pipeline_s"] for p in plain],
        "pipeline_cpu_s": [p["pipeline_cpu_s"] for p in plain],
        "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
        "setup_s": setup_samples,
        "acc_ann_pct": [facts.get("acc_ann_pct", 0.0)] * len(plain),
    }


def layer_samples(plain: list[dict], traced: list[dict],
                  facts: dict) -> dict[str, list[float]]:
    names = tracing.layer_metrics(tracing.Tracer(0))  # every name, all zero
    samples = {name: [p["layers"][name] for p in traced] for name in names}
    samples["svm.acc_pct"] = [facts.get("acc_svm_pct", 0.0)]
    overhead = 0.0
    if plain and traced:
        overhead = (statistics.median(p["pipeline_s"] for p in traced)
                    - statistics.median(p["pipeline_s"] for p in plain))
    samples["trace.overhead_s"] = [overhead]
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "flowsieve" / "cli.py").is_file():
        print(f"error: {ROOT} holds no flowsieve sources (src/flowsieve); "
              "run from the root of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_start = time.perf_counter()
    env = environment(args.seed)

    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    run_dir = WORK / stem
    shutil.rmtree(run_dir, ignore_errors=True)
    input_dir = run_dir / "input"
    input_dir.mkdir(parents=True)
    start = time.perf_counter()
    generated = workload.make_inputs(input_dir, args.seed)
    generate_s = time.perf_counter() - start
    setup_samples = measure_setup(
        workload.write_config(input_dir, input_dir / "flows.csv"))
    passes, problems_by_pass, facts = run_passes(
        workload, run_dir, generated, args.seconds, bool(args.trace), run_start)
    env["loadavg_end"] = _loadavg()

    failed = sum(1 for problems in problems_by_pass.values() if problems)
    good = [p for p in passes if not problems_by_pass[p["pass"]]]
    plain = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]
    correct = failed == 0 and bool(plain) and (not args.trace or bool(traced))
    if args.trace:
        samples = layer_samples(plain, traced, facts)
        units = {name: tracing.unit_of(name) for name in samples}
    else:
        samples = end_to_end_samples(plain, setup_samples, facts)
        units = dict(END_TO_END)

    rows = [(name, units[name], summary(samples[name] or [0.0]))
            for name in sorted(samples)]
    metrics = {name: {"value": s["median"], "unit": unit} for name, unit, s in rows}
    print_table(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
                f"{len(passes)} passes ({len(plain)} untraced and {len(traced)} "
                f"traced passed), {failed} failed, error_rate="
                f"{failed / len(passes):.3g}, inputs generated in {generate_s:.2f} s",
                rows)
    if not args.trace:
        print(f"  acc_svm_pct: {facts.get('acc_svm_pct', 'n/a (no SVM)')}")
    for pass_id, problems in problems_by_pass.items():
        for problem in problems:
            print(f"  pass {pass_id} FAILED: {problem}")
    print("environment: " + json.dumps(env, sort_keys=True))

    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    with open(results_dir / f"{stem}-spans.jsonl", "w", encoding="utf-8") as handle:
        for p in passes:
            for span in p.pop("spans", []):
                handle.write(json.dumps(span) + "\n")
    record = {"workload": workload.name, "env": env,
              "generated": generated, "generate_s": generate_s,
              "setup_s_samples": setup_samples, "passes": passes,
              "problems": problems_by_pass, "metrics": metrics}
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1),
                                              encoding="utf-8")
    shutil.rmtree(run_dir, ignore_errors=True)

    print(json.dumps({"correct": correct, "attempted": len(passes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
