"""The serving benchmark: one command, three workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload stream-cold --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run; ``--trace 1``
prints the per-layer metrics of a traced run plus the tracing overhead.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a readable
summary.  A run record (host, seed, config, per-phase counts, every metric)
and, for traced runs, the spans are written under ``.perfbench_out/``.

Each run measures in a fresh child process, so the featurizer's memos, the
vectorizer's LRU and the garbage collector start from the same state on every
commit.  The child sets up ``SETUP_REPEATS`` times (``setup_s`` is their
median), then alternates timed slices with the output check of each slice.
See README.md for the workloads, layers and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("stream-cold", "group-matrix", "live-stream")
#: Every run, children included, ends within this many seconds.
RUN_BUDGET_S = 170.0
#: An untraced run sets up this many times in its child; ``setup_s`` is the
#: median of their CPU times.
SETUP_REPEATS = 3


def parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: one measurement in this process (spawned by the parent run).
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setups", type=int, default=SETUP_REPEATS, help=argparse.SUPPRESS)
    parser.add_argument("--no-ladder", action="store_true", help=argparse.SUPPRESS)
    # Test hook: perturb the reference so the output check must fail.
    parser.add_argument("--perturb-reference", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ------------------------------------------------------------------------ child
def child(args: argparse.Namespace) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from layers import per_layer
    from spans import SpanRecorder
    from workloads import WORKLOADS

    work_dir = OUT / "tmp"
    work_dir.mkdir(parents=True, exist_ok=True)
    recorder = SpanRecorder() if args.traced else None
    options = {"ladder": not args.no_ladder} if args.workload == "stream-cold" else {}
    workload = WORKLOADS[args.workload](args.seed, args.seconds, recorder, work_dir, **options)
    if args.perturb_reference:
        workload.perturb_reference = True
    try:
        out = {"setup_s": workload.setup(args.setups)}
        workload.run()
        out.update(
            end_to_end=workload.end_to_end(),
            latency_samples=len(workload.latency_ms),
            cost_per_op=workload.cost_per_op(),
            peak_rss_mb=workload.peak_rss_mb,
            config=workload.config(),
            attempted=workload.attempted,
            failed=workload.failed,
            phases=workload.phases,
        )
        if recorder is not None:
            out["layers"] = per_layer(workload)
            out["spans"] = recorder.write(OUT / f"spans-{args.workload}.jsonl")
    finally:
        workload.close()
    return out


# ----------------------------------------------------------------------- parent
def spawn(args: argparse.Namespace, deadline: float, seconds: float, *flags: str) -> dict:
    """Run one child measurement; its last stdout line is its JSON result."""
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(seconds),
        "--child",
        *flags,
    ]
    if args.perturb_reference:
        command.append("--perturb-reference")
    env = dict(os.environ, PYTHONHASHSEED="0")
    completed = subprocess.run(
        command,
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    sys.stderr.write(completed.stderr)
    if completed.returncode != 0:
        raise RuntimeError(f"measuring child exited with code {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def host() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def untraced(args: argparse.Namespace, deadline: float) -> tuple[dict, dict, dict]:
    measured = spawn(args, deadline, args.seconds)
    metrics = {name: tuple(entry) for name, entry in measured["end_to_end"].items()}
    metrics["setup_s"] = (statistics.median(measured["setup_s"]), "s")
    error_rate = measured["failed"] / max(1, measured["attempted"])
    metrics["success_rate"] = (1.0 - error_rate, "ratio")
    metrics["peak_rss_mb"] = (measured["peak_rss_mb"], "MB")
    record = {
        "setup_s_samples": measured["setup_s"],
        "latency_samples": measured["latency_samples"],
        "error_rate": error_rate,
    }
    return measured, metrics, record


def traced(args: argparse.Namespace, deadline: float) -> tuple[dict, dict, dict]:
    # An untraced twin (half as long: only its cost per operation is used)
    # gives the overhead baseline.  Both set up once and check their slices,
    # so the heap the collector scans is the same in both.
    baseline = spawn(args, deadline, args.seconds / 2, "--setups", "1", "--no-ladder")
    measured = spawn(args, deadline, args.seconds, "--setups", "1", "--traced", "--no-ladder")
    measured["attempted"] += baseline["attempted"]
    measured["failed"] += baseline["failed"]
    metrics = {name: tuple(entry) for name, entry in measured["layers"].items()}
    metrics["trace.overhead_ratio"] = (measured["cost_per_op"] / baseline["cost_per_op"], "ratio")
    record = {
        "untraced_cost_per_op": baseline["cost_per_op"],
        "traced_cost_per_op": measured["cost_per_op"],
        "spans_written": measured["spans"],
        "latency_samples": measured["latency_samples"],
    }
    return measured, metrics, record


def main(argv=None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.child:
        print(json.dumps(child(args)))
        return 0
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        measured, metrics, extra = (traced if args.trace else untraced)(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host(),
        "config": measured["config"],
        "phases": measured["phases"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        **extra,
    }
    (OUT / f"record-{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=2))
    for phase in measured["phases"]:
        print("phase " + " ".join(f"{key}={value}" for key, value in phase.items()))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:32s} {value:14.4f} {unit}")
    print(
        json.dumps(
            {
                "correct": measured["failed"] == 0,
                "attempted": measured["attempted"],
                "failed": measured["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
