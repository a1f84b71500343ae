"""Skewed serving-load generator and the sequential-vs-batched throughput harness.

The shared core behind ``benchmarks/bench_batched_serving.py``,
``benchmarks/bench_worker_serving.py`` and the CLI's
``serve-bench`` subcommand.  It models the streaming workload every service
produces:

* each request is one user's *fresh* profile (a new tweet — always a cold
  featurization, exactly as in a live stream) scored against a handful of
  resident candidate profiles drawn from a fixed pool;
* users are sampled from a seeded Zipf-like distribution (``p(rank k) ∝
  k^-s``), so a head of hot users dominates the mix the way real traffic
  does — which is precisely what per-flush deduplication exploits.

The serving paths run the *same* request sequence from a cold cache, with
the same *total* cache budget:

* **single** — the synchronous path: one ``predict_proba`` call per request
  on one :class:`repro.api.ColocationEngine` (caller-sized batches);
* **batched** — a :class:`repro.cluster.MicroBatcher` coalescing concurrent
  requests over one engine, the in-process serving stack;
* **workers** (``num_workers`` set) — the same micro-batcher over a
  :class:`repro.cluster.WorkerPool`, so featurization leaves the GIL and runs
  in worker *processes*.

The harness also pins correctness: the batched engine's direct
``predict_proba`` must match the sequential engine bit-for-bit, and the
micro-batched results may differ only by last-mantissa-bit coalescing noise
(one BLAS call of a different shape).
"""

from __future__ import annotations

import copy
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.api import ColocationEngine, JudgeRequest, JudgeResponse
from repro.api.engine import EngineCacheInfo
from repro.cluster.batcher import MicroBatcher
from repro.cluster.gateway import WorkerPool
from repro.cluster.metrics import ClusterMetricsSnapshot
from repro.data.records import Pair, Profile, Tweet, Visit
from repro.errors import ConfigurationError
from repro.obs import format_stage_table, tracing


@dataclass(frozen=True)
class LoadConfig:
    """Shape of the synthetic serving load."""

    num_users: int = 256
    num_requests: int = 384
    pairs_per_request: int = 4
    history_len: int = 12
    #: Zipf exponent of the user mix; larger = more skewed.
    zipf_s: float = 1.1
    seed: int = 23


@dataclass(frozen=True)
class ServingRun:
    """One serving path's measured throughput."""

    label: str
    elapsed_s: float
    requests: int
    pairs: int
    cache: EngineCacheInfo
    #: Per-stage latency table (:func:`repro.obs.format_stage_table`) when
    #: the run was traced; ``None`` on the default untraced fast path, so
    #: the headline throughput numbers never pay the tracing overhead.
    stages: str | None = None

    @property
    def requests_per_s(self) -> float:
        return self.requests / self.elapsed_s if self.elapsed_s > 0 else float("inf")

    @property
    def pairs_per_s(self) -> float:
        return self.pairs / self.elapsed_s if self.elapsed_s > 0 else float("inf")


def fit_serving_pipeline(seed: int = 5):
    """A small fitted HisRect pipeline + its dataset (the bench's judge)."""
    from repro.colocation import CoLocationPipeline, JudgeConfig, PipelineConfig
    from repro.data import build_dataset, tiny_dataset_config
    from repro.features import HisRectConfig
    from repro.ssl import SSLTrainingConfig
    from repro.text.skipgram import SkipGramConfig

    dataset = build_dataset(tiny_dataset_config(seed=seed))
    config = PipelineConfig(
        hisrect=HisRectConfig(content_dim=8, feature_dim=16, embedding_dim=8),
        ssl=SSLTrainingConfig(batch_size=4, max_iterations=20),
        judge=JudgeConfig(epochs=4),
        skipgram=SkipGramConfig(embedding_dim=12, epochs=1),
    )
    pipeline = CoLocationPipeline(config).fit(dataset)
    return pipeline, dataset


def _zipf_probabilities(num_users: int, s: float) -> np.ndarray:
    ranks = np.arange(1, num_users + 1, dtype=float)
    weights = ranks**-s
    return weights / weights.sum()


def _profile(registry, rng, words: list[str], uid: int, ts: float, history_len: int) -> Profile:
    anchor = registry.pois[int(rng.integers(len(registry.pois)))].center
    visits = []
    for _ in range(history_len):
        point = anchor.offset(
            north_m=float(rng.uniform(-400.0, 400.0)),
            east_m=float(rng.uniform(-400.0, 400.0)),
        )
        visits.append(Visit(ts=ts - float(rng.uniform(1.0, 1e5)), lat=point.lat, lon=point.lon))
    content = " ".join(rng.choice(words, size=int(rng.integers(5, 11))))
    tweet = Tweet(uid=uid, ts=ts, content=content)
    return Profile(uid=uid, tweet=tweet, visit_history=tuple(visits))


def generate_requests(registry, corpus: list[str], config: LoadConfig) -> list[list[Pair]]:
    """The request sequence: fresh query profile vs. resident candidates."""
    if config.num_users < 2:
        # Candidates must differ from the query user; one user has none.
        raise ConfigurationError("the load mix needs num_users >= 2")
    if config.num_requests < 1 or config.pairs_per_request < 1:
        raise ConfigurationError("the load mix needs num_requests >= 1 and pairs_per_request >= 1")
    rng = np.random.default_rng(config.seed)
    words = sorted({word for text in corpus for word in text.split()})
    if not words:
        words = ["here", "now"]
    probabilities = _zipf_probabilities(config.num_users, config.zipf_s)
    #: Zipf ranks map to shuffled uids so the hot users spread over workers.
    uids = rng.permutation(config.num_users)
    residents = [
        _profile(registry, rng, words, int(uid), ts=1e6, history_len=config.history_len)
        for uid in range(config.num_users)
    ]
    requests: list[list[Pair]] = []
    for step in range(config.num_requests):
        query_uid = int(uids[rng.choice(config.num_users, p=probabilities)])
        query = _profile(
            registry, rng, words, query_uid, ts=1e6 + step + 1, history_len=config.history_len
        )
        pairs: list[Pair] = []
        while len(pairs) < config.pairs_per_request:
            candidate_uid = int(uids[rng.choice(config.num_users, p=probabilities)])
            if candidate_uid == query_uid:
                continue
            pairs.append(Pair(left=query, right=residents[candidate_uid], co_label=None))
        requests.append(pairs)
    return requests


def run_single(
    engine: ColocationEngine, requests: list[list[Pair]], *, trace: bool = False
) -> tuple[ServingRun, list[np.ndarray]]:
    """The sequential path: one synchronous ``predict_proba`` call per request.

    With ``trace=True`` the run executes under a scoped tracer (fresh
    registry) and the returned :class:`ServingRun` carries the per-stage
    latency table.
    """
    stages = None
    with tracing() if trace else nullcontext() as tracer:
        started = time.perf_counter()
        results = [engine.predict_proba(pairs) for pairs in requests]
        elapsed = time.perf_counter() - started
        if trace:
            stages = format_stage_table(tracer.registry)
    return (
        ServingRun(
            label="single engine",
            elapsed_s=elapsed,
            requests=len(requests),
            pairs=sum(len(r) for r in requests),
            cache=engine.cache_info(),
            stages=stages,
        ),
        results,
    )


def run_batched(
    engine: "ColocationEngine | WorkerPool",
    requests: list[list[Pair]],
    *,
    max_batch: int = 256,
    max_delay_ms: float = 0.0,
    max_queue: int = 512,
    trace: bool = False,
) -> tuple[ServingRun, list[np.ndarray], ClusterMetricsSnapshot]:
    """Concurrent submissions coalesced by a MicroBatcher over ``engine``.

    Requests are submitted as fast as the bounded queue admits them
    (``overflow="block"`` backpressure), so the batcher coalesces whatever
    accumulates while each flush is in flight — the steady state of a busy
    service.  The tracing scope encloses the batcher's whole lifetime so
    the flusher thread's ``queue_wait`` records land in the run's registry;
    over a :class:`WorkerPool` the stage table also merges every worker's
    ``stats`` snapshot (``gather``, ``featurize``) via
    :meth:`WorkerPool.obs_snapshot`.
    """
    pool = engine if isinstance(engine, WorkerPool) else None
    stages = None
    with tracing() if trace else nullcontext() as tracer:
        with MicroBatcher(
            engine,
            max_batch=max_batch,
            max_delay_ms=max_delay_ms,
            max_queue=max_queue,
            overflow="block",
        ) as batcher:
            started = time.perf_counter()
            futures = [batcher.submit_score(pairs) for pairs in requests]
            results = [future.result() for future in futures]
            elapsed = time.perf_counter() - started
        if trace:
            stages = format_stage_table(
                pool.obs_snapshot() if pool is not None else tracer.registry
            )
    # Snapshot after close(): the flusher records a flush's metrics *after*
    # resolving its futures, so a snapshot taken the moment the last result
    # lands can miss the final flush; close() joins the flusher first.
    snapshot = batcher.metrics.snapshot()
    label = "engine" if pool is None else f"workers x{pool.num_workers}"
    return (
        ServingRun(
            label=f"{label} + micro-batch",
            elapsed_s=elapsed,
            requests=len(requests),
            pairs=sum(len(r) for r in requests),
            cache=engine.cache_info(),
            stages=stages,
        ),
        results,
        snapshot,
    )


def _max_drift(expected: list[np.ndarray], got: list[np.ndarray]) -> float:
    return max(
        ((float(np.abs(a - b).max()) if len(a) else 0.0) for a, b in zip(expected, got)),
        default=0.0,
    )


@dataclass(frozen=True)
class ComparisonReport:
    """Sequential vs. micro-batched serving over the same cold-cache requests."""

    single: ServingRun
    batched: ServingRun
    metrics: ClusterMetricsSnapshot
    #: The batched engine's direct ``predict_proba`` — scoring rows its
    #: coalesced flushes featurized and cached — agrees bit-for-bit with
    #: the sequential engine on every request: how a batch was partitioned
    #: never changes a feature row.
    exact_match: bool
    #: Largest |Δ probability| between the micro-batched results and the
    #: sequential engine.  Coalescing flushes many requests as one BLAS call
    #: of a different shape, which may flip the last mantissa bit (~1e-16).
    coalescing_drift: float
    #: The typed ``serve`` path agrees across the engine and the batcher:
    #: the batched engine's direct serve matches the sequential engine
    #: bit-for-bit (probabilities, decisions and thresholds), and decisions
    #: through the micro-batcher's ``submit_serve`` match except where a
    #: probability sits within coalescing drift of an explicit threshold.
    serve_exact: bool
    #: Largest |Δ probability| between ``submit_serve`` responses and the
    #: sequential engine's serve (the serve twin of ``coalescing_drift``).
    serve_drift: float
    #: The process tier's run (``None`` unless ``num_workers`` was set).
    workers: ServingRun | None = None
    #: ``WorkerPool.predict_proba`` agrees bit-for-bit with the single engine
    #: on every request (the wire gather contributes nothing).
    workers_exact: bool | None = None
    #: Largest |Δ probability| between the micro-batched worker results and
    #: the single engine (the process twin of ``coalescing_drift``).
    workers_drift: float | None = None
    #: Direct ``WorkerPool.serve`` matches the single engine bit-for-bit.
    workers_serve_exact: bool | None = None

    @property
    def speedup(self) -> float:
        """Engine + micro-batch throughput over the sequential engine."""
        return _ratio(self.single, self.batched)

    @property
    def workers_speedup(self) -> float | None:
        """Workers + micro-batch throughput over engine + micro-batch."""
        return None if self.workers is None else _ratio(self.batched, self.workers)

    def format(self) -> str:
        lines = [
            f"{'path':<28} {'elapsed s':>10} {'req/s':>10} {'pairs/s':>10} {'hit_rate':>9}",
        ]
        runs = [self.single, self.batched] + ([self.workers] if self.workers else [])
        for run in runs:
            lines.append(
                f"{run.label:<28} {run.elapsed_s:>10.3f} {run.requests_per_s:>10.1f} "
                f"{run.pairs_per_s:>10.1f} {run.cache.hit_rate:>9.3f}"
            )
        lines.append("")
        lines.append(
            f"throughput speedup: {self.speedup:.2f}x  "
            f"(batched engine probabilities bit-for-bit: {'yes' if self.exact_match else 'NO'}, "
            f"micro-batch coalescing drift: {self.coalescing_drift:.1e})"
        )
        lines.append(
            f"serve parity: exact={'yes' if self.serve_exact else 'NO'} "
            f"batched-serve drift: {self.serve_drift:.1e}"
        )
        if self.workers is not None:
            lines.append(
                f"process tier: {self.workers_speedup:.2f}x of engine + micro-batch "
                f"bit-for-bit: {'yes' if self.workers_exact else 'NO'} "
                f"drift: {self.workers_drift:.1e} "
                f"serve exact: {'yes' if self.workers_serve_exact else 'NO'}"
            )
        lines.append(self.metrics.format())
        for run in runs:
            if run.stages is not None:
                lines.append("")
                lines.append(f"stage breakdown — {run.label}:")
                lines.append(run.stages)
        return "\n".join(lines)


def _ratio(baseline: ServingRun, candidate: ServingRun) -> float:
    """How many times faster ``candidate`` served than ``baseline``."""
    return baseline.elapsed_s / candidate.elapsed_s if candidate.elapsed_s > 0 else float("inf")


def compare_serving_paths(
    judge,
    requests: list[list[Pair]],
    *,
    cache_size: int = 4096,
    max_batch: int = 256,
    max_delay_ms: float = 0.0,
    max_queue: int = 512,
    num_workers: int | None = None,
    trace: bool = False,
) -> ComparisonReport:
    """Run the serving paths cold and compare throughput and results.

    ``trace=True`` runs every timed pass under a scoped tracer and attaches
    per-stage latency tables to the report; the default keeps the headline
    numbers untraced (tracing costs a few percent of throughput at most,
    but the benchmark guards compare against historical untraced numbers).

    Two timed passes over the same cache budget: the sequential engine (one
    ``predict_proba`` per request) and one engine behind a
    :class:`MicroBatcher`.  Un-timed direct passes over the batched engine
    then pin the bit-for-bit and serve-parity contracts.  With
    ``num_workers`` set, a third timed pass runs the same micro-batched load
    over a cold :class:`WorkerPool` (the process tier) and pins its parity
    too.

    The batched engine drives a deep copy of the judge taken *before* the
    sequential pass runs: the judge's internal featurizer caches (history
    cache, text-vectorizer LRU) warm up during the sequential pass, and a
    judge shared with it (or copied afterwards) would inherit that warmth
    and fake part of the batcher's speedup.  (Worker processes are immune:
    they rebuild the judge from the saved bundle.)
    """
    single_engine = ColocationEngine(judge, cache_size=cache_size)
    batched_engine = ColocationEngine(copy.deepcopy(judge), cache_size=cache_size)
    try:
        single, single_results = run_single(single_engine, requests, trace=trace)
        batched, batched_results, snapshot = run_batched(
            batched_engine,
            requests,
            max_batch=max_batch,
            max_delay_ms=max_delay_ms,
            max_queue=max_queue,
            trace=trace,
        )
        drift = _max_drift(single_results, batched_results)
        exact = all(
            np.array_equal(single_result, batched_engine.predict_proba(pairs))
            for single_result, pairs in zip(single_results, requests)
        )
        serve_exact, serve_drift = _serve_parity(
            single_engine,
            batched_engine,
            requests,
            max_batch=max_batch,
            max_queue=max_queue,
        )
    finally:
        single_engine.close()
        batched_engine.close()
    workers = workers_exact = workers_drift = workers_serve_exact = None
    if num_workers is not None:
        with WorkerPool(judge, num_workers=num_workers, cache_size=cache_size) as pool:
            workers, worker_results, _ = run_batched(
                pool,
                requests,
                max_batch=max_batch,
                max_delay_ms=max_delay_ms,
                max_queue=max_queue,
                trace=trace,
            )
            workers_drift = _max_drift(single_results, worker_results)
            # Un-timed direct passes (results are cache-state independent):
            # the wire gather must contribute nothing to the probabilities,
            # and the pool's typed serve must match the single engine.
            workers_exact = all(
                np.array_equal(single_result, pool.predict_proba(pairs))
                for single_result, pairs in zip(single_results, requests)
            )
            sample = _serve_sample(requests)
            workers_serve_exact = all(
                got.probabilities == expected.probabilities
                and got.decisions == expected.decisions
                and got.threshold == expected.threshold
                for got, expected in zip(
                    (pool.serve(request) for request in sample),
                    (single_engine.serve(request) for request in sample),
                )
            )
    return ComparisonReport(
        single=single,
        batched=batched,
        metrics=snapshot,
        exact_match=exact,
        coalescing_drift=drift,
        serve_exact=serve_exact,
        serve_drift=serve_drift,
        workers=workers,
        workers_exact=workers_exact,
        workers_drift=workers_drift,
        workers_serve_exact=workers_serve_exact,
    )


def _serve_sample(requests: list[list[Pair]], samples: int = 24) -> list[JudgeRequest]:
    """Every ``len/samples``-th request, alternating default and explicit thresholds."""
    step = max(1, len(requests) // samples)
    return [
        JudgeRequest(pairs=tuple(pairs), threshold=(None if index % 2 == 0 else 0.4))
        for index, pairs in enumerate(requests[::step])
    ]


def _decisions_match_modulo_drift(
    batched: JudgeResponse, expected: JudgeResponse, drift_bound: float = 1e-12
) -> bool:
    """Coalesced decisions must match except at an exact threshold graze.

    Explicit-threshold decisions cut the coalesced probabilities, so a pair
    whose uncoalesced probability sits within the coalescing drift of the
    threshold may legitimately flip (see ``JudgementCore.serve_batch``); a
    flip anywhere else is a real divergence.
    """
    return all(
        batched_decision == expected_decision
        or abs(probability - expected.threshold) <= drift_bound
        for batched_decision, expected_decision, probability in zip(
            batched.decisions, expected.decisions, expected.probabilities
        )
    )


def _serve_parity(
    single_engine: ColocationEngine,
    batched_engine: ColocationEngine,
    requests: list[list[Pair]],
    *,
    max_batch: int,
    max_queue: int,
) -> tuple[bool, float]:
    """The typed-serve twin of the bit-for-bit / drift checks.

    A sample of the request stream (alternating default and explicit
    per-request thresholds) is served three ways: the sequential engine,
    the batched engine directly (must match bit-for-bit — probabilities,
    decisions, threshold), and a micro-batcher's ``submit_serve`` front
    door over the batched engine (decisions must match modulo a threshold
    graze — see :func:`_decisions_match_modulo_drift`; probabilities may
    carry the usual shape-dependent coalescing drift, which is returned for
    the caller to bound).  Results are cache-state independent, so the warm
    engines from the throughput passes serve fine.
    """
    serve_requests = _serve_sample(requests)
    single_responses = [single_engine.serve(request) for request in serve_requests]
    exact = all(
        direct.probabilities == expected.probabilities
        and direct.decisions == expected.decisions
        and direct.threshold == expected.threshold
        for direct, expected in zip(
            (batched_engine.serve(request) for request in serve_requests),
            single_responses,
        )
    )
    with MicroBatcher(
        batched_engine,
        max_batch=max_batch,
        max_delay_ms=0.0,
        max_queue=max_queue,
        overflow="block",
    ) as batcher:
        futures = [batcher.submit_serve(request) for request in serve_requests]
        batched_responses = [future.result() for future in futures]
    exact = exact and all(
        batched.threshold == expected.threshold
        and _decisions_match_modulo_drift(batched, expected)
        for batched, expected in zip(batched_responses, single_responses)
    )
    drift = max(
        (
            max(
                (abs(a - b) for a, b in zip(batched.probabilities, expected.probabilities)),
                default=0.0,
            )
            for batched, expected in zip(batched_responses, single_responses)
        ),
        default=0.0,
    )
    return exact, drift
