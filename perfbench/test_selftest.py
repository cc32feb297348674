"""Self-test of the benchmark: short runs of every workload in both modes.

Run from the repository root (about two minutes)::

    python3 -m pytest perfbench/test_selftest.py -q

Each run must end with the result line the BENCHMARK.json contract
describes, carry every declared metric with its declared unit, and pass
every oracle.  A directory holding only the benchmark files must make the
command fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def _run(cwd: Path, workload: str, trace: int, seconds: float = 3.0):
    cmd = [sys.executable if part == "python3" else part
           for part in CONTRACT["command"]]
    return subprocess.run(
        cmd + ["--workload", workload, "--seed", "7",
               "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    *report, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout[-3000:]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], (int, float)), metric["name"]
    oracles = report[report.index("oracles:") + 1:]
    assert oracles and all(line.strip().startswith("PASS") for line in oracles)


#: Runs the benchmark with the tile cache's invalidation made a no-op, so
#: every ingest leaves stale tiles in the cache.
_NO_INVALIDATION = """
import runpy, sys
sys.path[:0] = [{src!r}, {bench!r}]
from repro.serve.cache import LRUCache
LRUCache.invalidate = lambda self, key=None, predicate=None: 0
sys.argv = [{run!r}] + sys.argv[1:]
runpy.run_path({run!r}, run_name="__main__")
"""


def test_ingest_oracle_catches_missed_invalidation(tmp_path):
    script = tmp_path / "no_invalidation.py"
    script.write_text(_NO_INVALIDATION.format(
        src=str(ROOT / "src"), bench=str(ROOT / "perfbench"),
        run=str(ROOT / "perfbench" / "run.py")))
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", "ingest_retile",
         "--seed", "7", "--seconds", "8", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in CONTRACT["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
