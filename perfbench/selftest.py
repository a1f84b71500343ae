"""The serving benchmark's own tests: tiny runs through the real command.

Each workload must print every metric ``BENCHMARK.json`` names, with its
unit, and pass its output check; a run against a deliberately perturbed
reference must report failures; and the command must refuse to run where
the program is absent.  The runs are short (``--seconds 1``), so they check
shape and correctness, never speed.
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
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _result(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr[-4000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_and_passes_the_check(workload, trace):
    result = _result(_run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in expected}
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float)) and math.isfinite(reported["value"])
    if trace:
        # Layer self times are disjoint slices of the traced wall time.
        assert 0.0 < result["metrics"]["trace.self_share"]["value"] <= 1.0
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0.0
    else:
        assert result["metrics"]["success_rate"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_reference_reports_failures(workload):
    completed = _run(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--child", "--setups", "1", "--no-ladder", "--perturb-reference",
    )
    assert completed.returncode == 0, completed.stderr[-4000:]
    child = json.loads(completed.stdout.strip().splitlines()[-1])
    assert child["attempted"] >= 1
    assert child["failed"] > 0


@pytest.mark.parametrize("limit", [300.0, 900.0, 5000.0])
def test_capacity_ladder_settles_at_any_rate(limit):
    """The staircase finds the limit of a noiseless stack wherever it lies,
    far above the ladder's first rung too."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import StreamCold

    cold = StreamCold(1, 8.0, None, None)
    cold.phase_inputs = lambda phase, rate, seconds: []
    cold.check_now = lambda: None

    def run_phase(label, rate, seconds, requests):
        cold.phases.append({"phase": label, "rate_rps": rate, "passes": rate <= limit})

    cold.run_phase = run_phase
    for _ in range(cold.LADDER_RUNGS):
        cold.rung()
    assert limit / cold.LADDER_STEP <= cold.capacity_rps(0.0) <= limit * cold.LADDER_STEP


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
