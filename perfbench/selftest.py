"""The benchmark's own test: every workload, one round each, traced and untraced.

    python3 -m pytest -q perfbench/selftest.py

It takes about two minutes, so the file is named outside pytest's default
``test_*.py`` pattern and the repository's test run does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
# Named in the benchmark's definition but not a JSON metric, because it is 0
# whenever the program is right: attempted and failed carry it instead.
PRINTED_ONLY = {"fail_ratio": "ratio"}


def run(workload: str, trace: int, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric_and_fails_nothing(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *report, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], proc.stderr

    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]

    text = "\n".join(report)
    for name, unit in PRINTED_ONLY.items():
        line = next(line for line in report if line.split()[:1] == [name])
        assert line.split()[1:3] == ["0", unit], line
    if trace:
        assert "tracing overhead" in text and "wait time: not applicable" in text
        for m in declared:
            if m["name"].endswith(("_ms", "_us")):
                assert m["name"].rsplit("_", 1)[0] in text, m["name"]
    else:
        for m in declared:
            assert any(line.split()[:1] == [m["name"]] and line.split()[2] == m["unit"] for line in report)
        assert "op_tail_ms is p" in text


def test_refuses_to_run_without_the_sources(tmp_path):
    """A directory with only the benchmark's files gives no result and a nonzero exit."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("king-large", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
