"""Benchmark: process-tier (worker pool) serving, parity and lifecycle.

One in-process engine shares one GIL — featurization, the dominant
per-request cost, never runs truly in parallel.
:class:`repro.cluster.WorkerPool` moves each hash slice of the users into its
own *process* (spawned from the fitted judge via the save/load bundle)
behind an asyncio gateway speaking the binary wire protocol, so feature
gathering fans out across cores.

This benchmark fits a small HisRect judge, generates the same seeded
Zipf-skewed request stream as ``bench_batched_serving.py``, and serves it
cold through the sequential engine, engine + micro-batch, and workers +
micro-batch with the same total cache budget.  It asserts the serving
contract everywhere:

* worker-pool ``predict_proba`` matches the single engine **bit-for-bit**
  (save/load restores exactly; the wire gather contributes nothing);
* micro-batched worker results drift only by coalescing noise (<= 1e-12);
* typed serve responses agree across all three transports;
* after ``close()``, no worker process survives (the no-orphans check).

Workers + micro-batch vs. engine + micro-batch — the strongest simple
baseline — is printed as a report-only line: no load is known yet on which
the wire's overhead pays for itself, so it is not enforced.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_worker_serving.py

pass ``--smoke`` (the CI invocation) for a tiny load that checks parity and
orphan hygiene only.  The CLI twin is ``repro-hisrect serve-bench --workers``.
"""

from __future__ import annotations

import multiprocessing
import os
import pathlib
import sys

from repro.cluster.loadgen import (
    LoadConfig,
    compare_serving_paths,
    fit_serving_pipeline,
    generate_requests,
)

NUM_WORKERS = 4


def run(smoke: bool = False) -> str:
    config = (
        LoadConfig(num_users=48, num_requests=48, pairs_per_request=3)
        if smoke
        else LoadConfig(num_users=256, num_requests=384, pairs_per_request=4)
    )
    pipeline, dataset = fit_serving_pipeline(seed=5)
    requests = generate_requests(dataset.registry, dataset.training_corpus(), config)
    num_workers = 2 if smoke else NUM_WORKERS
    report = compare_serving_paths(
        pipeline,
        requests,
        cache_size=4096,
        max_batch=256,
        num_workers=num_workers,
    )
    cores = os.cpu_count() or 1
    lines = [
        f"Benchmark: process-tier serving, "
        f"{num_workers} workers on {cores} cores, zipf s={config.zipf_s}, "
        f"{config.num_requests} requests x {config.pairs_per_request} pairs, "
        f"{config.num_users} users" + (" [smoke]" if smoke else ""),
        "",
        report.format(),
        "",
    ]
    if not report.workers_exact:
        raise AssertionError("worker-pool probabilities diverged from the single engine")
    if report.workers_drift > 1e-12:
        raise AssertionError(
            f"worker-tier coalescing drifted by {report.workers_drift:.2e} "
            "(expected last-mantissa-bit noise only)"
        )
    if not report.serve_exact or not report.workers_serve_exact:
        raise AssertionError("typed serve responses diverged across the three transports")
    # No-orphans check: compare_serving_paths closed the pool on exit; any
    # worker process still alive here escaped the lifecycle.
    orphans = multiprocessing.active_children()
    if orphans:
        raise AssertionError(f"worker processes survived close(): {orphans}")
    lines.append(
        f"engine + micro-batch {report.batched.elapsed_s:.3f}s vs workers + micro-batch "
        f"{report.workers.elapsed_s:.3f}s -> {report.workers_speedup:.2f}x on {cores} cores "
        "(report-only)"
    )
    if smoke:
        lines.append("smoke run: three-transport parity + no-orphans checked")
    return "\n".join(lines)


def test_worker_serving(benchmark):
    from conftest import run_once, save_report

    report = run_once(benchmark, run)
    save_report("worker_serving", report)
    assert "diverged" not in report


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv[1:]
    report = run(smoke=smoke)
    print(report)
    if not smoke:
        results = pathlib.Path(__file__).parent / "results"
        results.mkdir(exist_ok=True)
        (results / "worker_serving.txt").write_text(report + "\n")
