""":class:`JudgementCore` — the one decision/serve path behind every transport.

The library serves judgement through three transports — the single
:class:`repro.api.ColocationEngine`, the process-partitioned
:class:`repro.cluster.WorkerPool`, and the request-coalescing
:class:`repro.cluster.MicroBatcher` — and all three must agree bit-for-bit.
Historically each transport hand-copied the decision logic (threshold rules,
``decide_feature_pairs`` fallbacks, non-feature-space fallbacks, per-call
cache accounting), and the copies diverged in exactly the ways copies do:
one path featurized a shared profile twice, another dropped the judge's own
decision rule.

The core removes the structure that bred those bugs.  It owns the judgement
logic *once* and is parameterized on the only two things that differ between
transports:

* ``gather`` — a feature-gather callable ``profiles -> (rows, stats)``.  The
  single engine passes its LRU-backed ``_resolve_features``; the worker
  pool passes its wire fan-out across worker processes.
* ``scorer`` — a pair-scoring callable ``(left, right) -> probabilities``
  over aligned feature matrices (the engine's chunk-canonical
  ``_score_batched``).

Everything downstream of those two callables — probability computation,
decision rules, typed :class:`JudgeRequest` serving, per-request cache
accounting — lives here and nowhere else.

Pairs resolve both sides in **one** ``gather`` call (lefts then rights,
concatenated), so a profile appearing on both sides of a batch is featurized
once even with caching disabled, on every path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.api.messages import JudgeRequest, JudgeResponse
from repro.core.protocols import (
    pairwise_probability_matrix,
    symmetric_probability_matrix,
    upper_triangle_pairs,
)
from repro.data.records import Pair, Profile
from repro.errors import ConfigurationError
from repro.obs import STAGE_GATHER, STAGE_SCORE, get_tracer


@dataclass(frozen=True)
class CallCacheStats:
    """One call's own cache traffic (never contaminated by concurrent callers).

    ``invalidated`` counts the cache rows dropped by explicit
    ``invalidate``/``invalidate_stale`` calls that this gather observed —
    each engine drains its not-yet-reported invalidation count into the next
    gather's stats, so a request served right after a profile mutation
    carries the invalidation traffic that preceded it (the micro-batcher
    processes invalidations first in a flush; the flush's requests then
    account them).
    """

    hits: int
    misses: int
    featurized: int
    invalidated: int = 0

    def __add__(self, other: "CallCacheStats") -> "CallCacheStats":
        return CallCacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            featurized=self.featurized + other.featurized,
            invalidated=self.invalidated + other.invalidated,
        )


#: The zero-traffic stats of a call that never touched the feature cache.
NO_CACHE_TRAFFIC = CallCacheStats(hits=0, misses=0, featurized=0)

#: ``gather`` contract: feature rows for profiles plus the call's own cache
#: traffic, row ``i`` aligned with profile ``i``.
FeatureGather = Callable[[list], tuple[np.ndarray, CallCacheStats]]

#: ``scorer`` contract: co-location probabilities from two aligned feature
#: matrices, independent of how the workload was chunked or coalesced.
PairScorer = Callable[[np.ndarray, np.ndarray], np.ndarray]


class JudgementCore:
    """The shared decision/serve logic of every serving transport.

    Parameters
    ----------
    judge:
        The judge instance that scores and decides — on the feature-space
        path through ``scorer``, otherwise through its own ``predict_proba``
        / ``predict`` / ``probability_matrix``.
    gather:
        Feature-gather callable ``profiles -> (rows, CallCacheStats)``.
    scorer:
        Pair-scoring callable ``(left, right) -> probabilities``.
    explicit_threshold:
        The transport's explicit decision threshold; ``None`` follows the
        judge's own rule (``decide_feature_pairs`` / ``predict`` when
        available, else a 0.5 probability cut).
    """

    def __init__(
        self,
        judge,
        *,
        gather: FeatureGather,
        scorer: PairScorer,
        explicit_threshold: float | None = None,
    ):
        if explicit_threshold is not None and not 0.0 <= explicit_threshold <= 1.0:
            raise ConfigurationError("threshold must lie in [0, 1]")
        self.judge = judge
        self.explicit_threshold = explicit_threshold
        self._gather = gather
        self._scorer = scorer

    # --------------------------------------------------------------- plumbing
    @property
    def feature_space(self) -> bool:
        """Whether the judge separates featurization from pair scoring."""
        return hasattr(self.judge, "featurize_profiles") and hasattr(
            self.judge, "score_feature_pairs"
        )

    @property
    def threshold(self) -> float:
        """The effective decision threshold for probability cuts."""
        if self.explicit_threshold is not None:
            return self.explicit_threshold
        return float(getattr(self.judge, "decision_threshold", 0.5))

    def resolve_pair_features(
        self, pairs: Sequence[Pair]
    ) -> tuple[np.ndarray, np.ndarray, CallCacheStats]:
        """Both sides' feature rows from **one** gather call.

        Lefts and rights resolve together, so a profile shared between the
        two sides (or between pairs) reaches the featurizer once even with
        caching disabled — and the stats count it once.
        """
        profiles = [p.left for p in pairs] + [p.right for p in pairs]
        rows, stats = self._gather(profiles)
        return rows[: len(pairs)], rows[len(pairs) :], stats

    # -------------------------------------------------------------- judgement
    def predict_proba(self, pairs: list[Pair]) -> np.ndarray:
        """Co-location probability per pair (batched, feature-cached)."""
        if not pairs:
            return np.zeros(0)
        if self.feature_space:
            tracer = get_tracer()
            with tracer.stage(STAGE_GATHER):
                left, right, _ = self.resolve_pair_features(pairs)
            with tracer.stage(STAGE_SCORE):
                return self._scorer(left, right)
        return np.asarray(self.judge.predict_proba(list(pairs)), dtype=float)

    def predict(self, pairs: list[Pair]) -> np.ndarray:
        """Binary co-location decisions per pair.

        Follows the judge's own decision rule — including non-threshold
        rules like Comp2Loc's argmax equality — unless the transport was
        given an explicit threshold, which then cuts the probabilities.
        """
        if not pairs:
            return np.zeros(0, dtype=int)
        if self.explicit_threshold is None:
            if self.feature_space and hasattr(self.judge, "decide_feature_pairs"):
                # Non-threshold decisions still benefit from the feature cache.
                left, right, _ = self.resolve_pair_features(pairs)
                return np.asarray(self.judge.decide_feature_pairs(left, right), dtype=int)
            if not self.feature_space and hasattr(self.judge, "predict"):
                # Keep the wrapped judge's own rule (e.g. a baseline's argmax
                # equality); there is no cache to route through anyway.
                return np.asarray(self.judge.predict(list(pairs)), dtype=int)
        return (self.predict_proba(pairs) >= self.threshold).astype(int)

    def probability_matrix(self, profiles: list[Profile]) -> np.ndarray:
        """The ``N x N`` pairwise probability matrix, featurizing each profile once."""
        n = len(profiles)
        if self.feature_space:
            if n < 2:
                return np.zeros((n, n))
            tracer = get_tracer()
            with tracer.stage(STAGE_GATHER):
                features, _ = self._gather(list(profiles))
            index_pairs = upper_triangle_pairs(n)
            left = features[[i for i, _ in index_pairs]]
            right = features[[j for _, j in index_pairs]]
            with tracer.stage(STAGE_SCORE):
                probabilities = self._scorer(left, right)
            return symmetric_probability_matrix(n, index_pairs, probabilities)
        if hasattr(self.judge, "probability_matrix"):
            return np.asarray(
                self.judge.probability_matrix(list(profiles)), dtype=float
            )
        return pairwise_probability_matrix(self.judge, list(profiles))

    # ----------------------------------------------------------------- serving
    def serve(self, request: JudgeRequest) -> JudgeResponse:
        """Answer one typed judgement request.

        With no explicit threshold (neither on the request nor on the
        transport), decisions follow the judge's own rule — matching
        :meth:`predict`, including non-threshold rules like Comp2Loc's
        argmax equality.  An explicit threshold cuts the probabilities.
        """
        return self.serve_batch([request])[0]

    def serve_batch(self, requests: Iterable[JudgeRequest]) -> list[JudgeResponse]:
        """Answer typed requests together, scoring them as **one** batch.

        The coalescing entry point behind ``MicroBatcher.submit_serve``:
        every feature-space request gathers its own features (one gather per
        request — a deliberate trade-off: cache accounting stays exactly
        attributable per response, and overlap between requests deduplicates
        through the cache rather than within the call, mirroring how warm
        and matrix requests behave in a flush), then all their pairs score
        in a single scorer call — the same shape-dependent BLAS coalescing
        the batcher applies to plain score requests.

        Decisions and thresholds remain per request, so mixed explicit /
        default-rule requests coalesce safely.  Default-rule decisions
        (``decide_feature_pairs``) are computed from the gathered rows and
        are bit-for-bit the uncoalesced ones; explicit-threshold decisions
        cut the *coalesced* probabilities, so a pair whose probability sits
        within the coalescing drift (~1e-16) of the threshold may decide
        differently than an uncoalesced serve would — the only way to avoid
        that would be to score every request twice.

        A single-request batch is exactly :meth:`serve`: one gather, one
        scorer call over that request's pairs.  ``elapsed_ms`` on every
        response measures the whole batch (the requests were served by one
        call).

        With tracing enabled (:func:`repro.obs.tracing`), every feature-space
        request gets its own :class:`repro.obs.Trace`: ``gather`` is timed
        per request, the single coalesced ``score`` measurement is attributed
        to every participating trace, and the report rides back on
        ``JudgeResponse.trace``.  Slow-request hooks fire against the batch's
        ``elapsed_ms`` (the requests were served by one call).
        """
        requests = list(requests)
        for request in requests:
            if request.threshold is not None and not 0.0 <= request.threshold <= 1.0:
                raise ConfigurationError("request threshold must lie in [0, 1]")
        tracer = get_tracer()
        traced = tracer.enabled
        traces = [None] * len(requests)
        started = time.perf_counter()
        thresholds = [
            self.threshold if request.threshold is None else float(request.threshold)
            for request in requests
        ]
        default_rule = [
            request.threshold is None and self.explicit_threshold is None
            for request in requests
        ]
        probabilities: list[np.ndarray] = [np.zeros(0)] * len(requests)
        decisions: list[np.ndarray] = [np.zeros(0, dtype=int)] * len(requests)
        stats: list[CallCacheStats] = [NO_CACHE_TRAFFIC] * len(requests)
        feature_segments: list[tuple[int, list[Pair], np.ndarray, np.ndarray]] = []
        for index, request in enumerate(requests):
            pairs = list(request.pairs)
            if pairs and self.feature_space:
                # Gather features once per request; probabilities and
                # decisions share them, and the per-call stats keep the
                # response's cache traffic attributable to this request even
                # with concurrent callers on the transport.
                if traced:
                    traces[index] = tracer.start_trace()
                    with tracer.activate(traces[index]), tracer.stage(STAGE_GATHER):
                        left, right, request_stats = self.resolve_pair_features(pairs)
                else:
                    left, right, request_stats = self.resolve_pair_features(pairs)
                stats[index] = request_stats
                feature_segments.append((index, pairs, left, right))
            else:
                probabilities[index] = self.predict_proba(pairs)
                if pairs and default_rule[index] and hasattr(self.judge, "predict"):
                    decisions[index] = np.asarray(
                        self.judge.predict(pairs), dtype=int
                    )
                else:
                    decisions[index] = (probabilities[index] >= thresholds[index]).astype(int)
        if feature_segments:
            score_started = tracer.clock() if traced else 0.0
            scored = self._scorer(
                np.concatenate([left for _, _, left, _ in feature_segments]),
                np.concatenate([right for _, _, _, right in feature_segments]),
            )
            if traced:
                # One scorer call covers every segment: the measurement goes
                # to the registry once and to each participating trace.
                tracer.record_stage(
                    STAGE_SCORE,
                    (tracer.clock() - score_started) * 1e3,
                    traces=[traces[index] for index, _, _, _ in feature_segments],
                )
            offset = 0
            for index, pairs, left, right in feature_segments:
                stop = offset + len(pairs)
                probabilities[index] = scored[offset:stop]
                offset = stop
                if default_rule[index] and hasattr(self.judge, "decide_feature_pairs"):
                    decisions[index] = np.asarray(
                        self.judge.decide_feature_pairs(left, right), dtype=int
                    )
                else:
                    decisions[index] = (probabilities[index] >= thresholds[index]).astype(int)
        elapsed_ms = (time.perf_counter() - started) * 1e3
        if traced:
            for trace in traces:
                if trace is not None:
                    tracer.finish(trace, total_ms=elapsed_ms)
        return [
            JudgeResponse(
                probabilities=tuple(float(p) for p in probabilities[index]),
                decisions=tuple(int(d) for d in decisions[index]),
                threshold=thresholds[index],
                cache_hits=stats[index].hits,
                cache_misses=stats[index].misses,
                cache_invalidated=stats[index].invalidated,
                elapsed_ms=elapsed_ms,
                trace=traces[index].report() if traces[index] is not None else None,
            )
            for index in range(len(requests))
        ]
