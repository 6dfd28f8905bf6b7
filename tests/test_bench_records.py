"""The shape every committed benchmark record shares, so that one command can
later read them all: the root BENCH_*.json files against BENCHMARK.json."""

import json

import pytest

from conftest import REPO_ROOT

RECORDS = sorted(REPO_ROOT.glob("BENCH_*.json"))
WORKLOADS = tuple(w["name"] for w in
                  json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["workloads"])


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_shape(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert {"what", "machine", "workloads"} <= record.keys()
    assert {"cpu", "nproc", "python", "numpy", "blas_threads"} <= record["machine"].keys()
    unknown = [key for key in record["workloads"] if not key.startswith(WORKLOADS)]
    assert not unknown, f"workload keys not named after a benchmark workload: {unknown}"
