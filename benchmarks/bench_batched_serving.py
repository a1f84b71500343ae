"""Benchmark: sequential engine serving vs. one engine behind a micro-batcher.

The services call one :class:`repro.api.ColocationEngine` synchronously with
caller-sized batches — each request pays the fixed featurize/score
invocation overhead on its own.  :class:`repro.cluster.MicroBatcher`
coalesces concurrent requests into micro-batches over the same engine, so
the PR 2–3 batch kernels amortise across the whole in-flight window and a
skewed user mix is deduplicated per flush.

This benchmark fits a small HisRect judge, generates a seeded Zipf-skewed
request stream (fresh query profile per request — every request carries a
cold featurization, as in a live tweet stream) and serves the *same*
sequence through both paths from a cold cache with the same cache budget.
The batched pass drives a deep copy of the judge taken before the
sequential pass, so featurizer memos warmed by the sequential pass cannot
fake part of the speedup.  Engine + micro-batch must reach >= 2x the
sequential engine's throughput, the batched engine's direct
``predict_proba`` must match the sequential engine bit-for-bit, and the
micro-batched results may drift from it only by last-mantissa-bit
coalescing noise (<= 1e-12).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_batched_serving.py

pass ``--smoke`` (the CI invocation) for a tiny load that only exercises the
bit-for-bit and serve-parity checks, or run through pytest-benchmark like
the other benchmarks.  The CLI twin is ``repro-hisrect serve-bench``.
"""

from __future__ import annotations

import pathlib
import sys

from repro.cluster.loadgen import (
    LoadConfig,
    compare_serving_paths,
    fit_serving_pipeline,
    generate_requests,
)

TARGET_SPEEDUP = 2.0


def run(smoke: bool = False) -> str:
    config = (
        LoadConfig(num_users=48, num_requests=48, pairs_per_request=3)
        if smoke
        else LoadConfig(num_users=256, num_requests=384, pairs_per_request=4)
    )
    pipeline, dataset = fit_serving_pipeline(seed=5)
    requests = generate_requests(dataset.registry, dataset.training_corpus(), config)
    report = compare_serving_paths(pipeline, requests, cache_size=4096, max_batch=256)
    lines = [
        f"Benchmark: sequential engine vs. engine + micro-batch serving, "
        f"zipf s={config.zipf_s}, "
        f"{config.num_requests} requests x {config.pairs_per_request} pairs, "
        f"{config.num_users} users" + (" [smoke]" if smoke else ""),
        "",
        report.format(),
        "",
    ]
    if not report.exact_match:
        raise AssertionError("batched engine probabilities diverged from the single engine")
    if report.coalescing_drift > 1e-12:
        raise AssertionError(
            f"micro-batch coalescing drifted by {report.coalescing_drift:.2e} "
            "(expected last-mantissa-bit noise only)"
        )
    # The serve-path parity suite: sequential engine vs. batched engine
    # (bit-for-bit, decisions and thresholds included) vs. the batcher's
    # submit_serve front door (coalescing drift only).  Any hand-forked
    # serving logic reintroduced in one of the paths fails here, in CI's
    # smoke step.
    if not report.serve_exact:
        raise AssertionError("typed serve responses diverged across the serving paths")
    if report.serve_drift > 1e-12:
        raise AssertionError(
            f"batched serve drifted by {report.serve_drift:.2e} "
            "(expected last-mantissa-bit noise only)"
        )
    if smoke:
        lines.append(
            "smoke run: engine/batcher parity checked (score + serve), "
            "speedup target not enforced"
        )
    else:
        lines.append(
            f"headline (engine + micro-batch, cold cache): {report.speedup:.2f}x "
            f"({'meets' if report.speedup >= TARGET_SPEEDUP else 'MISSES'} the "
            f">= {TARGET_SPEEDUP:.0f}x target)"
        )
    return "\n".join(lines)


def test_batched_serving(benchmark):
    from conftest import run_once, save_report

    report = run_once(benchmark, run)
    save_report("batched_serving", report)
    assert "meets the >= 2x target" in report


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv[1:]
    report = run(smoke=smoke)
    print(report)
    if not smoke:
        results = pathlib.Path(__file__).parent / "results"
        results.mkdir(exist_ok=True)
        (results / "batched_serving.txt").write_text(report + "\n")
