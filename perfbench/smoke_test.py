"""Smoke test of the benchmark: one short run per workload, schema only.

    python3 perfbench/smoke_test.py      (or: python3 -m pytest perfbench/smoke_test.py)

Timings are never compared; only the shape of the output is.  The solve
workload makes one pass of about half a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REPORT_KEYS = {"workload", "seed", "nproc", "python", "numpy", "blas", "blas_threads",
               "passes", "attempted", "failed", "fail_share", "commands", "subcommand_s"}


def _run(workload: str, trace: int):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0])["report"], json.loads(lines[-1])


def _check_schema(workload: str, trace: int):
    report, result = _run(workload, trace)
    assert REPORT_KEYS <= set(report)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["correct"], bool)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and not isinstance(got["value"], bool)


def test_solve():
    _check_schema("solve", 0)


def test_simulate():
    _check_schema("simulate", 0)


def test_export():
    _check_schema("export", 0)


def test_traced():
    _check_schema("simulate", 1)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name}: ok")
    sys.exit(0)
