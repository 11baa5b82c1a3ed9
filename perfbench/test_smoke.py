"""The benchmark's own tests: a tiny smoke configuration of every workload
(schema and no crash, no timing bound) and the failure paths of set-up.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd: Path, workload: str, trace: int, *extra: str):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _bare_copy(tmp_path: Path, with_sources: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=ignore)
    if with_sources:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    return tmp_path


def test_fails_without_sources(tmp_path):
    proc = _run(_bare_copy(tmp_path, with_sources=False), "train", 0)
    assert proc.returncode != 0
    assert _last_json(proc.stdout) is None


def test_rejected_checkpoint_fails_set_up(tmp_path):
    root = _bare_copy(tmp_path, with_sources=True)
    (root / "perfbench" / "checkpoint.npz").write_bytes(b"not a checkpoint")
    proc = _run(root, "track-sparse", 0, "--smoke")
    assert proc.returncode == 1
    assert "set-up failed" in proc.stderr
    assert _last_json(proc.stdout) is None
