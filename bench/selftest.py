"""Smoke test of the benchmark harness (timings are not asserted).

Run from the repository root:  python -m pytest -q bench/selftest.py

A one-second run of each workload, plain and traced, must end with the
result line the benchmark contract asks for, carry every metric that
BENCHMARK.json names with its unit, and print a well-formed report.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    text = proc.stdout.rstrip()
    body, _, last = text.rpartition("\n")
    return json.loads(body), json.loads(last)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_minimal_run_emits_every_metric(workload, trace):
    report, result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["correct"], bool)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for m in named:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]

    assert report["workload"] == workload
    assert report["provenance"]["workload_seed"] == 0
    for key in ("src_sha256", "python", "numpy", "scipy", "blas", "blas_threads", "nproc",
                "loadavg_start", "loadavg_end"):
        assert key in report["provenance"], key
    assert set(report["static"]) == {"static.src_lines", "static.runtime_deps"}
    assert report["ops"]["attempted"] == result["attempted"]
    assert report["ops"]["failed"] == len(report["ops"]["failures"]) == result["failed"]
    assert report["op_tail"]["samples"] >= 1
    for key in ("setup_s", "op_p50_s", "setup_reference_s", "op_reference_s"):
        assert report["wall"][key] > 0, key
    if trace:
        assert report["per_layer"] == result["metrics"]
    if trace and workload == "verify-all":
        d = report["decomposition"]
        parts = sum(d["import_self_s"].values()) + sum(d["span_self_s"].values())
        assert parts + d["unattributed_s"] == pytest.approx(d["op_wall_s"])
