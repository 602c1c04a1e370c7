"""Smoke test of the benchmark itself, at ``--tiny`` sizes (one profile at
scale 0.05, 20 faults, a few dozen step requests).

Run from the repository root::

    python3 -m pytest e2ebench/test_smoke.py -q

For every workload it checks that each end-to-end and per-layer metric is
printed by name with its unit, that the gates pass on a clean run, and
that the pinned-digest gate fails — with a non-zero exit — when the pin is
wrong.
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
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

SEED = bench.DEFAULT_SEED
DIGEST_LINE = {"fig6_all12": "tables_sha256", "figs_small2": "tables_sha256",
               "faults": "report_sha256", "serve_steps": "oracle_sha256"}


@pytest.fixture
def scratch():
    path = ROOT / ".e2ebench_work" / "smoke"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def invoke(workload, pins, trace=0, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--tiny",
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--pins", str(pins)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def result_of(lines):
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def assert_metrics(lines, units):
    result = result_of(lines)
    assert {name: entry["unit"] for name, entry in
            result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(name in line and f" {unit}" in line and "n=" in line
                   for line in lines[:-1]), name


def pinned_digest(lines, workload):
    prefix = f"  {DIGEST_LINE[workload]}: "
    return next(line[len(prefix):] for line in lines
                if line.startswith(prefix))


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_metrics_and_gates(workload, scratch):
    pins = scratch / "pins.json"
    key = f"{workload}@tiny"

    proc, lines = invoke(workload, pins)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result_of(lines)["correct"]
    assert_metrics(lines, bench.E2E_UNITS)
    digest = pinned_digest(lines, workload)

    pins.write_text(json.dumps({key: {str(SEED): digest}}))
    proc, lines = invoke(workload, pins, trace=1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_of(lines)
    assert result["correct"] and result["failed"] == 0
    assert_metrics(lines, bench.LAYER_UNITS)
    assert any(line.startswith("  gate ") and "pinned" in line
               and line.endswith(f"ok {digest}") for line in lines)

    pins.write_text(json.dumps({key: {str(SEED): "0" * 64}}))
    proc, lines = invoke(workload, pins)
    assert proc.returncode != 0
    result = result_of(lines)
    assert not result["correct"] and result["failed"] >= 1
    assert any("pinned" in line and "FAILED" in line for line in lines)


def test_refuses_without_program_sources(scratch):
    """A directory holding only the benchmark's files: non-zero exit and
    no result line."""
    shutil.copytree(HERE, scratch / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = invoke("faults", scratch / "none.json", cwd=scratch,
                         script=scratch / "e2ebench" / "run.py")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
