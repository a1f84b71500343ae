"""The three serving workloads: set-up, timed slices and the output check.

Every workload serves through the strongest simple stack: one
:class:`repro.api.ColocationEngine`, with a :class:`repro.cluster.MicroBatcher`
in front where there are concurrent callers (``stream-cold``).  A traced run
builds the same stack with the probes of :mod:`spans` in place.

The timed measurement is cut into slices and each slice's outputs are
checked right after it, so the timed work is spread over the whole run.  The
check compares against a cache-free reference engine over a separately
fitted pipeline (fitting is seeded, so the weights are bit-identical), so no
memo warmed by the timed run can leak into it.

Latencies and rates are read off the process's CPU clock: on a shared host
the wall clock also counts the time the host keeps the process off its CPUs,
which comes and goes with other tenants' load.  The closed loops time each
call; the open loop times each request from its due time, so queueing behind
the program's own work still counts (see :func:`open_loop`).
"""

from __future__ import annotations

import functools
import gc
import resource
import shutil
import statistics
import tempfile
import time
from array import array
from collections import Counter
from dataclasses import asdict

import numpy as np

import inputs
from repro.api import ColocationEngine, JudgeResponse
from repro.cluster.batcher import MicroBatcher
from repro.cluster.loadgen import _decisions_match_modulo_drift, fit_serving_pipeline
from repro.errors import EngineOverloadError
from repro.service.pairing import SlidingPairWindow
from repro.service.stream import OnlineProfileBuilder, StreamScorer
from repro.store import ArenaStore, HotStore, TieredStore
from spans import (
    FlushRecorder,
    SpanRecorder,
    TracedJudge,
    TracedStore,
    instrument_engine,
    instrument_featurizer,
    instrument_stream,
)

#: Probabilities coalesced by the batcher may differ from the reference by
#: last-mantissa-bit noise only (one BLAS call of another shape).
COALESCING_DRIFT = 1e-12
#: Latency limit on p99 for a ladder rung to count toward ``capacity_rps``.
CAPACITY_P99_MS = 250.0
PIPELINE_SEED = 5


def quantile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _PerturbedJudge:
    """A reference judge whose scores are off by 1e-6: the check must fail."""

    def __init__(self, judge):
        self._judge = judge

    def score_feature_pairs(self, left, right):
        return self._judge.score_feature_pairs(left, right) + 1e-6

    def __getattr__(self, name):
        return getattr(self._judge, name)


class Workload:
    """Shared plumbing: seeded inputs, the (optionally traced) stack, set-up
    timing, and the slice loop that alternates timed work with its check."""

    name = ""
    #: The batcher's ``metrics=`` recorder, on traced runs that have a batcher.
    metrics = None
    #: The timed ``--seconds`` are cut into this many slices.
    SLICES = 8
    #: Set by the benchmark's own tests to prove the output check can fail.
    perturb_reference = False

    def __init__(self, seed: int, seconds: float, recorder: SpanRecorder | None, work_dir):
        self.seed = seed
        self.seconds = seconds
        self.recorder = recorder
        self.work_dir = work_dir
        self.phases: list[dict] = []
        self.latency_ms = array("d")
        #: Per slice: (operations, pairs, CPU seconds, wall seconds).
        self.slices: list[tuple[int, int, float, float]] = []
        self.attempted = self.failed = 0

    def config(self) -> dict:
        return asdict(self.workload_config)

    def setup(self, repeats: int = 1) -> list[float]:
        """Fit, build and warm ``repeats`` times; the last stack serves.

        Returns the process CPU seconds of each set-up.  Inputs are generated
        once, after the first fit, and are not timed; neither is fitting the
        check's reference pipeline.
        """
        samples = []
        for attempt in range(repeats):
            if attempt:
                self.close()
            started = time.process_time()
            self.pipeline, dataset = fit_serving_pipeline(seed=PIPELINE_SEED)
            fitted = time.process_time() - started
            if attempt == 0:
                self.registry = dataset.registry
                self.words = inputs.vocabulary(dataset.training_corpus())
                self.make_inputs()
            started = time.process_time()
            self.build()
            samples.append(fitted + time.process_time() - started)
        self.reference_judge, _ = fit_serving_pipeline(seed=PIPELINE_SEED)
        if self.perturb_reference:
            self.reference_judge = _PerturbedJudge(self.reference_judge)
        self.prepare_check()
        return samples

    def engine_over(self, store) -> ColocationEngine:
        """One engine over ``store``; with a recorder, every probe in place."""
        judge = self.pipeline
        if self.recorder is not None:
            instrument_featurizer(self.pipeline.featurizer, self.recorder)
            judge = TracedJudge(self.pipeline, self.recorder)
            store = TracedStore(store, self.recorder)
        engine = ColocationEngine(judge, store=store)
        if self.recorder is not None:
            instrument_engine(engine, self.recorder)
        return engine

    def reference(self, **kwargs) -> ColocationEngine:
        """A cache-free reference engine over the reference pipeline."""
        return ColocationEngine(self.reference_judge, cache_size=0, **kwargs)

    def prepare_check(self) -> None:
        """Build whatever state the per-slice check carries between slices."""

    def run(self) -> None:
        """Measure ``SLICES`` slices of ``seconds / SLICES``; check each one.

        Set-up's garbage is collected before the first slice, so a fresh
        process does not spend its first timed seconds promoting set-up's
        survivors through the generations.  In a traced run the collector's
        spans are recorded only while a slice is timed.
        """
        gc.collect()
        if self.recorder is not None:
            self.recorder.reset()
            self.recorder.install_gc()
        if self.metrics is not None:
            self.metrics.reset()
        self.cache_before = self.engine.cache_info()
        for index in range(self.SLICES):
            self.measure_slice(index, self.seconds / self.SLICES)
            self.peak_rss_mb = peak_rss_mb()
            self.check_now()
        self.cache_after = self.engine.cache_info()
        if self.recorder is not None:
            self.recorder.remove_gc()

    def check_now(self) -> None:
        """Check every output produced since the last check (untimed)."""
        if self.recorder is not None:
            self.recorder.remove_gc()
        attempted, failed = self.check()
        self.attempted += attempted
        self.failed += failed
        if self.recorder is not None:
            self.recorder.install_gc()

    def end_to_end(self) -> dict:
        """Latencies pooled over the slices; rates are medians of the slices'."""
        rate = statistics.median(ops / cpu for ops, _, cpu, _ in self.slices)
        pairs_rate = statistics.median(pairs / cpu for _, pairs, cpu, _ in self.slices)
        return {
            "latency_p50_ms": (quantile(self.latency_ms, 50), "ms"),
            "latency_p99_ms": (quantile(self.latency_ms, 99), "ms"),
            "capacity_rps": (self.capacity_rps(rate), "1/s"),
            "throughput_rps": (rate, "1/s"),
            "throughput_pairs_per_s": (pairs_rate, "1/s"),
        }

    def capacity_rps(self, throughput: float) -> float:
        """With one closed-loop caller, the highest sustainable rate is the
        completion rate, so ``capacity_rps`` repeats ``throughput_rps``."""
        return throughput

    def cost_per_op(self) -> float:
        """Process CPU seconds per request, call or tweet."""
        return sum(cpu for _, _, cpu, _ in self.slices) / max(1, sum(ops for ops, *_ in self.slices))

    def wall_s(self) -> float:
        """Wall seconds of the timed slices."""
        return sum(wall for *_, wall in self.slices)

    def close(self) -> None:
        self.engine.close()


# ===================================================================== stream-cold
def _stamp(done: array, done_cpu: array, index: int, _future) -> None:
    done[index] = time.perf_counter()
    done_cpu[index] = time.process_time()


def open_loop(batcher: MicroBatcher, requests: list[inputs.ColdRequest]) -> dict:
    """Submit each request at its due time from one thread; wait for all.

    At each wakeup every request already due is submitted.  Each request is
    timed from its due time to its result on two clocks.  The wall clock
    counts everything, including time the host takes the VM's CPUs away.
    The process's CPU clock counts the CPU seconds both threads spent
    meanwhile: queueing behind the program's own work, collector pauses
    included, but not the host's stalls.  The CPU clock's reading at a due
    time is interpolated from the (wall, CPU) pairs taken at every wakeup
    and every result.  The batcher's queue depth is sampled at each wakeup
    to tell a stable backlog from a growing one.
    """
    n = len(requests)
    done = array("d", bytes(8 * n))
    done_cpu = array("d", bytes(8 * n))
    lag = array("d", bytes(8 * n))
    futures: list = [None] * n
    depth_t, depth, wake_cpu = array("d"), array("q"), array("d")
    rejected = 0
    cpu_started = time.process_time()
    origin = time.perf_counter() + 0.005
    index = 0
    while index < n:
        now = time.perf_counter()
        due = origin + requests[index].due
        if now < due:
            time.sleep(due - now)
            continue
        depth_t.append(now - origin)
        wake_cpu.append(time.process_time())
        depth.append(batcher.queue_depth)
        while index < n and origin + requests[index].due <= now:
            request = requests[index]
            submitted = time.perf_counter()
            lag[index] = submitted - origin - request.due
            try:
                if request.typed is not None:
                    future = batcher.submit_serve(request.typed)
                else:
                    future = batcher.submit_score(request.pairs)
            except EngineOverloadError:
                rejected += 1
            else:
                future.add_done_callback(functools.partial(_stamp, done, done_cpu, index))
                futures[index] = future
            index += 1
    results, errors = [], 0
    for future in futures:
        if future is None:
            results.append(None)
        elif future.exception(timeout=60.0) is not None:
            errors += 1
            results.append(None)
        else:
            results.append(future.result())
    finished = max(done) if n else origin
    served = [i for i in range(n) if results[i] is not None]
    dues = np.array([requests[i].due for i in range(n)])
    # The CPU clock as a function of wall time, from every (wall, CPU) pair.
    walls = np.concatenate([np.asarray(depth_t), np.asarray(done)[served] - origin])
    cpus = np.concatenate([np.asarray(wake_cpu), np.asarray(done_cpu)[served]])
    order = np.argsort(walls, kind="stable")
    cpu_at_due = np.interp(dues, walls[order], np.maximum.accumulate(cpus[order]))
    return {
        "results": results,
        "latencies_ms": [(done_cpu[i] - cpu_at_due[i]) * 1e3 for i in served],
        "wall_latencies_ms": [(done[i] - origin - dues[i]) * 1e3 for i in served],
        "lag_ms": [value * 1e3 for value in lag],
        "depth_t": depth_t,
        "depth": depth,
        "rejected": rejected,
        "errors": errors,
        "wall_s": finished - origin,
        "cpu_s": time.process_time() - cpu_started,
    }


def backlog_growth(run: dict, seconds: float) -> float:
    """Queue growth in requests/s: mean depth over the last quarter of the
    schedule minus mean depth over the second quarter, per second apart."""
    t = np.asarray(run["depth_t"])
    depth = np.asarray(run["depth"], dtype=float)
    second = depth[(t >= seconds / 4) & (t < seconds / 2)]
    last = depth[t >= 3 * seconds / 4]
    if not len(second) or not len(last):
        return 0.0
    return float(last.mean() - second.mean()) / (seconds / 2)


class StreamCold(Workload):
    """Open-loop Poisson arrivals of fresh-tweet requests through the batcher."""

    name = "stream-cold"
    #: Offered rate of the fixed-rate slices.  At this rate the flusher
    #: mostly flushes one request at a time and is busy about a third of the
    #: time on the 2-vCPU reference host, low enough that the host's speed
    #: swings do not turn into queueing; with ``--seconds 10`` it gives 1000
    #: latency samples (README.md).
    FIXED_RATE = 100.0
    #: The rate ladder is a staircase.  It starts at ``LADDER_START`` and
    #: doubles while rungs pass; the first failure sends it back to the
    #: geometric middle of the last doubling, and from there it moves by
    #: ``LADDER_STEP``: up after a rung that passes, down after one that
    #: fails, so it settles around the highest rate that meets the limits.
    #: Its ``LADDER_RUNGS`` rungs run after the fixed-rate slices: the path
    #: a ladder takes follows the host's noise, and run between the slices
    #: it would shift which requests the gen-2 collections land on.
    LADDER_START = 600.0
    LADDER_STEP = 1.1
    LADDER_RUNGS = 16
    LADDER_SECONDS = 1.2
    #: A rung's backlog grows when its queue depth rises faster than this
    #: share of the offered rate.
    GROWTH_SHARE = 0.05
    workload_config = inputs.ColdConfig()

    def __init__(self, *args, ladder: bool = True, **kwargs):
        super().__init__(*args, **kwargs)
        self.ladder = ladder
        self.runs: list[dict] = []
        self.fixed_runs: list[dict] = []
        self.wall_latency_ms = array("d")
        self.checked = 0
        self.rate, self.climbing, self.last_passed = self.LADDER_START, True, None
        #: Rates of the rungs from the staircase's first change of direction on.
        self.settled: list[float] = []

    def make_inputs(self) -> None:
        self.residents = inputs.cold_residents(self.seed, self.registry, self.words, self.workload_config)
        seconds = self.seconds / self.SLICES
        self.fixed = [self.phase_inputs(k, self.FIXED_RATE, seconds) for k in range(self.SLICES)]

    def phase_inputs(self, phase: int, rate: float, seconds: float):
        return inputs.cold_phase(
            self.seed, phase, rate, seconds, self.registry, self.words, self.residents, self.workload_config
        )

    def build(self) -> None:
        self.engine = self.engine_over(TieredStore(HotStore(4096)))
        self.metrics = FlushRecorder(self.engine, self.recorder) if self.recorder else None
        self.batcher = MicroBatcher(
            self.engine, max_batch=256, max_delay_ms=2.0, max_queue=8192, metrics=self.metrics
        )
        self.engine.warm(self.residents)

    def run_phase(self, label: str, rate: float, seconds: float, requests) -> dict:
        run = open_loop(self.batcher, requests)
        p99 = quantile(run["latencies_ms"], 99)
        growth = backlog_growth(run, seconds)
        failed = run["rejected"] + run["errors"]
        run["requests"] = requests
        self.runs.append(run)
        self.phases.append(
            {
                "phase": label,
                "rate_rps": rate,
                "seconds": seconds,
                "sent": len(requests),
                "succeeded": len(requests) - failed,
                "failed": failed,
                "latency_p50_ms": quantile(run["latencies_ms"], 50),
                "latency_p99_ms": p99,
                "wall_latency_p50_ms": quantile(run["wall_latencies_ms"], 50),
                "wall_latency_p99_ms": quantile(run["wall_latencies_ms"], 99),
                "backlog_growth_rps": growth,
                "passes": bool(
                    failed == 0 and p99 <= CAPACITY_P99_MS and growth <= self.GROWTH_SHARE * rate
                ),
            }
        )
        return run

    def measure_slice(self, index: int, seconds: float) -> None:
        """One fixed-rate phase.  An open loop completes what it is offered,
        so its wall-clock rate is the schedule's; the slice's rates are per
        CPU-second the process (generator and flusher) spent on it."""
        run = self.run_phase(f"fixed-{index}", self.FIXED_RATE, seconds, self.fixed[index])
        self.fixed_runs.append(run)
        self.latency_ms.extend(run["latencies_ms"])
        self.wall_latency_ms.extend(run["wall_latencies_ms"])
        done = len(run["latencies_ms"])
        pairs = done * self.workload_config.pairs_per_request
        self.slices.append((done, pairs, run["cpu_s"], run["wall_s"]))

    def run(self) -> None:
        super().run()
        if self.ladder:
            for _ in range(self.LADDER_RUNGS):
                self.rung()

    def rung(self) -> None:
        """Run one rung of the staircase at the current rate and move it.

        Each rung lasts ``LADDER_SECONDS`` (half of ``--seconds`` on short
        runs), gets fresh requests from its own seeded stream, generated
        before the rung is timed, and is checked right after it.
        """
        probe = len(self.phases) - len(self.fixed_runs)
        seconds = min(self.LADDER_SECONDS, self.seconds / 2)
        requests = self.phase_inputs(self.SLICES + probe, self.rate, seconds)
        self.run_phase(f"ladder-{probe}", self.rate, seconds, requests)
        self.check_now()
        rate, passed = self.rate, self.phases[-1]["passes"]
        if self.climbing:
            self.climbing = passed
            self.rate = 2 * rate if passed else rate / 2**0.5
        else:
            if self.settled or passed != self.last_passed:
                self.settled.append(rate)
            self.rate = rate * self.LADDER_STEP if passed else rate / self.LADDER_STEP
        self.last_passed = passed

    def capacity_rps(self, throughput: float) -> float:
        """The median rate of the settled rungs: the rate the staircase
        oscillates around, above which a rung tends to fail the limits and
        below which it tends to meet them.  A ladder too short to settle
        (tiny runs) reports the rate it reached."""
        return statistics.median(self.settled) if self.settled else self.rate

    def check(self) -> tuple[int, int]:
        """Check the phases run since the last check."""
        reference = self.reference()
        thresholded = {}
        attempted = failed = 0
        for run, phase in zip(self.runs[self.checked :], self.phases[self.checked :]):
            requests, results = run["requests"], run["results"]
            attempted += len(requests)
            mismatched = sum(1 for result in results if result is None)
            served = [i for i, result in enumerate(results) if result is not None]
            expected = _chunked(reference.predict_proba, [requests[i].pairs for i in served])
            typed = [i for i in served if requests[i].typed is not None]
            decisions = {}
            for threshold in {requests[i].typed.threshold for i in typed}:
                engine = reference
                if threshold is not None:
                    engine = thresholded.setdefault(threshold, self.reference(threshold=threshold))
                group = [i for i in typed if requests[i].typed.threshold == threshold]
                decisions.update(zip(group, _chunked(engine.predict, [requests[i].pairs for i in group])))
            for i, probabilities in zip(served, expected):
                if not _request_matches(requests[i], results[i], probabilities, decisions.get(i), reference):
                    mismatched += 1
            phase.update(succeeded=len(requests) - mismatched, failed=mismatched)
            failed += mismatched
            # Results are no longer needed; do not carry them into later slices.
            run["results"] = run["requests"] = None
        self.checked = len(self.runs)
        return attempted, failed

    def close(self) -> None:
        self.batcher.close()
        super().close()


def _chunked(fn, pair_lists, chunk: int = 512):
    """``fn`` over many requests' pairs, ``chunk`` requests per call, split back."""
    out = []
    for start in range(0, len(pair_lists), chunk):
        group = pair_lists[start : start + chunk]
        values = fn([pair for pairs in group for pair in pairs])
        offset = 0
        for pairs in group:
            out.append(values[offset : offset + len(pairs)])
            offset += len(pairs)
    return out


def _request_matches(request, result, probabilities, decisions, reference) -> bool:
    if request.typed is None:
        got = np.asarray(result, dtype=float)
        return got.shape == probabilities.shape and bool(
            np.all(np.abs(got - probabilities) <= COALESCING_DRIFT)
        )
    threshold = reference.threshold if request.typed.threshold is None else request.typed.threshold
    expected = JudgeResponse(
        probabilities=tuple(float(p) for p in probabilities),
        decisions=tuple(int(d) for d in decisions),
        threshold=threshold,
    )
    return (
        len(result.probabilities) == len(expected.probabilities)
        and len(result.decisions) == len(expected.decisions)
        and result.threshold == expected.threshold
        and all(
            abs(a - b) <= COALESCING_DRIFT
            for a, b in zip(result.probabilities, expected.probabilities)
        )
        and _decisions_match_modulo_drift(result, expected, COALESCING_DRIFT)
    )


# ==================================================================== group-matrix
class GroupMatrix(Workload):
    """Closed loop, one caller: pairwise matrices over Zipf-drawn groups."""

    name = "group-matrix"
    workload_config = inputs.GroupConfig()

    def make_inputs(self) -> None:
        self.population = inputs.group_population(self.seed, self.registry, self.words, self.workload_config)
        self.groups = inputs.group_calls(self.seed, self.population, self.workload_config)
        self.calls = 0
        #: Each distinct group's first matrix; later calls must reproduce it.
        self.first: dict[int, np.ndarray] = {}
        self.bad_groups: set[int] = set()

    def build(self) -> None:
        self.arena_dir = tempfile.mkdtemp(prefix="arena-", dir=self.work_dir)
        self.engine = self.engine_over(TieredStore(HotStore(512), ArenaStore(self.arena_dir)))
        self.engine.warm(self.population)

    def measure_slice(self, index: int, seconds: float) -> None:
        recorder = self.recorder
        matrix = self.engine.probability_matrix
        clock = time.process_time
        latencies, first, groups = self.latency_ms, self.first, self.groups
        self.new_groups: list[int] = []
        self.calls_of: Counter = Counter()
        self.repeat_mismatches: Counter = Counter()
        calls = self.calls
        pairs = 0
        cpu_started, started = clock(), time.perf_counter()
        deadline = started + seconds
        while time.perf_counter() < deadline:
            slot = calls % len(groups)
            group = groups[slot]
            if recorder is not None:
                recorder.set_request(calls)
            call_started = clock()
            result = matrix(group)
            latencies.append((clock() - call_started) * 1e3)
            pairs += len(group) * (len(group) - 1) // 2
            # Every repeat of a group must reproduce its first matrix exactly;
            # the first is checked against the reference after the slice.
            if slot in first:
                self.repeat_mismatches[slot] += not np.array_equal(result, first[slot])
            else:
                first[slot] = result
                self.new_groups.append(slot)
            self.calls_of[slot] += 1
            calls += 1
        cpu, wall = clock() - cpu_started, time.perf_counter() - started
        done, self.calls = calls - self.calls, calls
        self.slices.append((done, pairs, cpu, wall))
        self.phases.append({"phase": f"slice-{index}", "seconds": wall, "sent": done, "pairs": pairs})

    def check(self) -> tuple[int, int]:
        """A group whose first matrix differs from the reference fails on
        every call; any other call fails if it differs from the first."""
        reference = self.reference()
        for slot in self.new_groups:
            if not np.array_equal(self.first[slot], reference.probability_matrix(self.groups[slot])):
                self.bad_groups.add(slot)
        attempted = sum(self.calls_of.values())
        failed = sum(
            count if slot in self.bad_groups else self.repeat_mismatches[slot]
            for slot, count in self.calls_of.items()
        )
        self.phases[-1].update(succeeded=attempted - failed, failed=failed)
        return attempted, failed

    def close(self) -> None:
        super().close()
        shutil.rmtree(self.arena_dir, ignore_errors=True)


# ===================================================================== live-stream
class LiveStream(Workload):
    """Closed loop, one caller: ``StreamScorer.process`` per tweet."""

    name = "live-stream"
    workload_config = inputs.LiveConfig()
    #: Tweets generated after the warm-up, whatever ``--seconds`` is, so the
    #: heap the garbage collector scans is the same on every run length
    #: (~10x what one 8 s run consumes on the reference host).  The loop
    #: stops early, and the record says so, if a faster commit exhausts them.
    MEASURED_TWEETS = 25_000

    def make_inputs(self) -> None:
        cfg = self.workload_config
        count = cfg.warmup_tweets + self.MEASURED_TWEETS
        self.tweets = inputs.live_tweets(self.seed, count, self.registry, self.words, cfg)
        self.consumed = 0
        self.counts = array("i")
        self.probabilities = array("d")

    def build(self) -> None:
        cfg = self.workload_config
        self.engine = self.engine_over(TieredStore(HotStore(4096)))
        self.scorer = StreamScorer(self.engine, delta_t=cfg.delta_t, max_history=cfg.max_history)
        self.process = self.scorer.process
        if self.recorder is not None:
            self.process = instrument_stream(self.scorer, self.recorder)
        for index, tweet in enumerate(self.tweets[: cfg.warmup_tweets], start=1):
            self.scorer.process(tweet)
            if index % cfg.invalidate_every == 0:
                self.engine.invalidate_stale()

    def measure_slice(self, index: int, seconds: float) -> None:
        cfg = self.workload_config
        recorder = self.recorder
        process = self.process
        clock = time.process_time
        latencies, counts, probabilities = self.latency_ms, self.counts, self.probabilities
        tweets = self.tweets[cfg.warmup_tweets + self.consumed :]
        first, pairs_before = self.consumed, len(probabilities)
        cpu_started, started = clock(), time.perf_counter()
        deadline = started + seconds
        for offset, tweet in enumerate(tweets):
            if time.perf_counter() >= deadline:
                break
            tweet_no = first + offset
            if recorder is not None:
                recorder.set_request(tweet_no)
            call_started = clock()
            scored = process(tweet)
            latencies.append((clock() - call_started) * 1e3)
            counts.append(len(scored))
            probabilities.extend(item.probability for item in scored)
            if (tweet_no + 1) % cfg.invalidate_every == 0:
                self.engine.invalidate_stale()
        cpu, wall = clock() - cpu_started, time.perf_counter() - started
        self.consumed = len(counts)
        done, pairs = self.consumed - first, len(probabilities) - pairs_before
        self.slices.append((done, pairs, cpu, wall))
        self.phases.append(
            {
                "phase": f"slice-{index}",
                "seconds": wall,
                "sent": done,
                "pairs": pairs,
                "inputs_exhausted": self.consumed == self.MEASURED_TWEETS,
            }
        )

    def prepare_check(self) -> None:
        """The check replays the stream through a fresh builder and window."""
        cfg = self.workload_config
        self.check_builder = OnlineProfileBuilder(self.registry, max_history=cfg.max_history)
        self.check_window = SlidingPairWindow(delta_t=cfg.delta_t)
        for tweet in self.tweets[: cfg.warmup_tweets]:
            self.check_window.add(self.check_builder.consume(tweet))
        self.checked = 0
        self.checked_pairs = 0

    def check(self) -> tuple[int, int]:
        """Score each tweet's replayed candidates on the reference engine, one
        call per tweet as the scorer makes them; they must match bit for bit."""
        cfg = self.workload_config
        reference = self.reference()
        failed = 0
        first = self.checked
        offset = self.checked_pairs
        for tweet_no in range(first, self.consumed):
            count = self.counts[tweet_no]
            tweet = self.tweets[cfg.warmup_tweets + tweet_no]
            candidates = self.check_window.add(self.check_builder.consume(tweet))
            got = np.frombuffer(self.probabilities, dtype=float, count=count, offset=8 * offset)
            offset += count
            if len(candidates) != count:
                failed += 1
            elif candidates and not np.array_equal(reference.predict_proba(candidates), got):
                failed += 1
        self.checked, self.checked_pairs = self.consumed, offset
        attempted = self.consumed - first
        self.phases[-1].update(succeeded=attempted - failed, failed=failed)
        return attempted, failed


WORKLOADS = {cls.name: cls for cls in (StreamCold, GroupMatrix, LiveStream)}
