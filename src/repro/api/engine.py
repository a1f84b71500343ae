""":class:`ColocationEngine` — a fitted judge behind a batched, cached facade.

The engine exists because every online application asks the same two
questions (score these pairs / score this group) and pays the same hidden
cost: featurizing profiles.  The judges that separate featurization from pair
scoring (:class:`repro.core.FeatureSpaceJudge`) let the engine keep one
bounded feature store of per-profile rows shared by *all* entry points —
``predict_proba``, ``probability_matrix``, the sliding-window services — so a
profile seen by several services in the same Δt window is featurized once.
The store itself is pluggable (:class:`repro.store.FeatureStore`): by default
an in-RAM LRU, optionally tiered over a memmap arena (``arena_dir=``) so the
warm set survives restarts and outgrows RAM.

Judges without the feature-level interface (the social judge, duck-typed test
stubs) still work: the engine falls back to their ``predict_proba`` and the
generic pairwise matrix.

Decision and serving logic itself lives in :class:`repro.api.JudgementCore`
— shared verbatim with :class:`repro.cluster.WorkerPool` and flushed through
by :class:`repro.cluster.MicroBatcher`, so the transports cannot diverge.
The engine contributes the feature cache (its ``_resolve_features`` is the
core's ``gather``) and the chunk-canonical ``_score_batched`` scorer.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.api.core import CallCacheStats, JudgementCore
from repro.api.messages import JudgeRequest, JudgeResponse
from repro.core.protocols import ProfileKey, featurizer_dim, profile_key
from repro.data.records import Pair, Profile
from repro.errors import ConfigurationError
from repro.obs import STAGE_FEATURIZE, get_tracer
from repro.store import ArenaStore, FeatureStore, HotStore, TieredStore


@dataclass(frozen=True)
class EngineCacheInfo:
    """Snapshot of the engine's feature-cache statistics."""

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int
    #: Total profile rows pushed through the featurizer so far.
    featurized: int
    #: Rows dropped by explicit ``invalidate``/``invalidate_stale`` calls.
    invalidated: int = 0
    #: Per-tier traffic (``hits`` = ``hot_hits`` + ``cold_hits``): lookups
    #: answered from RAM vs. the memmap arena, cold rows copied back into
    #: RAM, and hot-tier evictions that stayed reachable in the arena.
    hot_hits: int = 0
    cold_hits: int = 0
    promotions: int = 0
    demotions: int = 0
    #: Live rows in the cold arena tier (0 without one).
    cold_size: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of feature lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @classmethod
    def merge(cls, infos: Iterable["EngineCacheInfo"]) -> "EngineCacheInfo":
        """Aggregate per-worker snapshots into one cluster-level snapshot.

        Counters, sizes and capacities sum; ``hit_rate`` derives from the
        summed counters.  An empty iterable merges to the all-zero snapshot
        (whose ``hit_rate`` is 0.0, matching a cache that saw no lookups).
        """
        hits = misses = evictions = size = maxsize = featurized = invalidated = 0
        hot_hits = cold_hits = promotions = demotions = cold_size = 0
        for info in infos:
            hits += info.hits
            misses += info.misses
            evictions += info.evictions
            size += info.size
            maxsize += info.maxsize
            featurized += info.featurized
            invalidated += info.invalidated
            hot_hits += info.hot_hits
            cold_hits += info.cold_hits
            promotions += info.promotions
            demotions += info.demotions
            cold_size += info.cold_size
        return cls(
            hits=hits,
            misses=misses,
            evictions=evictions,
            size=size,
            maxsize=maxsize,
            featurized=featurized,
            invalidated=invalidated,
            hot_hits=hot_hits,
            cold_hits=cold_hits,
            promotions=promotions,
            demotions=demotions,
            cold_size=cold_size,
        )


class ColocationEngine:
    """Serve a fitted co-location judge to online applications.

    Parameters
    ----------
    judge:
        Any fitted judge satisfying :class:`repro.core.CoLocationJudge` (or
        at minimum exposing ``predict_proba``): a pipeline, the HisRect
        judge, the One-phase model, Comp2Loc, the social judge, a baseline.
    cache_size:
        Maximum number of per-profile feature rows kept in the hot (in-RAM)
        tier of the feature store.  ``0`` disables the hot tier (every call
        featurizes from scratch unless a cold arena answers).
    threshold:
        Decision threshold for :meth:`predict` / :meth:`serve`.  ``None``
        adopts the judge's own ``decision_threshold`` (default 0.5).
    batch_size:
        Pairs scored per network invocation, bounding autograd graph size.
    registry:
        Optional explicit POI registry; by default it is taken from the
        judge's featurizer, so services can derive it from the engine.
    store:
        An explicit :class:`repro.store.FeatureStore` to serve rows from
        (``cache_size`` is then ignored in favour of the store's capacity).
    arena_dir:
        Convenience for the common tiering: build a
        :class:`repro.store.TieredStore` whose cold tier is a memmap
        :class:`repro.store.ArenaStore` in this directory.  Mutually
        exclusive with ``store``.
    """

    def __init__(
        self,
        judge,
        *,
        cache_size: int = 4096,
        threshold: float | None = None,
        batch_size: int = 1024,
        registry=None,
        store: FeatureStore | None = None,
        arena_dir: str | os.PathLike | None = None,
    ):
        if not hasattr(judge, "predict_proba"):
            raise ConfigurationError("judge must expose predict_proba(pairs)")
        if cache_size < 0:
            raise ConfigurationError("cache_size must be >= 0")
        if batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if store is not None and arena_dir is not None:
            raise ConfigurationError("pass either store= or arena_dir=, not both")
        if store is None:
            cold = ArenaStore(arena_dir) if arena_dir is not None else None
            store = TieredStore(HotStore(cache_size), cold)
        #: The feature store serving ``_resolve_features`` — by default a
        #: :class:`repro.store.TieredStore` (hot LRU only, plus a memmap
        #: arena cold tier when ``arena_dir`` is given).
        self.store = store
        self.judge = judge
        self.cache_size = store.capacity
        self.batch_size = batch_size
        self._registry = registry
        #: The shared decision/serve logic (one path for engine, workers and
        #: batcher), parameterized on this engine's cache-backed gather and
        #: chunk-canonical scorer.  Validates ``threshold``.
        self._core = JudgementCore(
            judge,
            gather=self._resolve_features,
            scorer=self._score_batched,
            explicit_threshold=threshold,
        )
        #: Guards the engine's own counters.  Row storage is the store's
        #: problem (stores carry their own lock); featurization runs outside
        #: any lock so concurrent callers only serialise on bookkeeping.
        self._lock = threading.Lock()
        self._hits = 0  # guarded-by: _lock
        self._misses = 0  # guarded-by: _lock
        self._featurized = 0  # guarded-by: _lock
        self._invalidations = 0  # guarded-by: _lock
        #: Invalidated-row count not yet reported by a gather call: drained
        #: into the next call's :class:`CallCacheStats`, so typed responses
        #: surface the invalidation traffic that preceded them (the batcher
        #: processes invalidations first in a flush; the flush's serves then
        #: account them).
        self._pending_invalidated = 0  # guarded-by: _lock

    # --------------------------------------------------------------- plumbing
    @classmethod
    def ensure(cls, judge_or_engine, **kwargs) -> "ColocationEngine":
        """Pass an engine through unchanged; wrap a raw judge."""
        if isinstance(judge_or_engine, ColocationEngine):
            return judge_or_engine
        return cls(judge_or_engine, **kwargs)

    @property
    def threshold(self) -> float:
        """The decision threshold applied by :meth:`predict` and :meth:`serve`."""
        return self._core.threshold

    @property
    def registry(self):
        """The POI registry behind the judge's featurizer (or the explicit one)."""
        if self._registry is not None:
            return self._registry
        featurizer = getattr(self.judge, "featurizer", None)
        registry = getattr(featurizer, "registry", None)
        if registry is None:
            raise ConfigurationError(
                "the wrapped judge exposes no POI registry; pass registry= explicitly"
            )
        return registry

    @property
    def _feature_space(self) -> bool:
        return self._core.feature_space

    # ----------------------------------------------------------- feature cache
    def _features_for(self, profiles: list[Profile]) -> np.ndarray:
        """Feature rows for profiles through the store; featurizes misses once.

        Duplicate profiles within one call are deduplicated before touching
        the featurizer, so each distinct profile is featurized exactly once
        even with a disabled cache.

        Thread-safe: the store carries its own lock and the engine lock only
        guards counters; featurization of the misses runs outside both so
        concurrent callers overlap on the expensive part.  Two threads missing the same
        profile simultaneously both featurize it (both misses are counted,
        last insert wins) — wasted work, never corruption of *this* cache.
        The wrapped judge's ``featurize_profiles`` must itself tolerate the
        resulting concurrency; judges with unsynchronised internal caches
        (the HisRect featurizer) should be driven by one thread at a time,
        which is how :class:`repro.cluster.MicroBatcher` drives them (one
        flusher thread per engine).
        """
        rows, _ = self._resolve_features(profiles)
        return rows

    def _resolve_features(self, profiles: list[Profile]) -> tuple[np.ndarray, "CallCacheStats"]:
        """:meth:`_features_for` plus this call's own cache statistics.

        The stats are local to the call (its hits, misses and the ``len`` of
        the miss batch it featurized), so concurrent callers never leak into
        each other's accounting the way a before/after read of the global
        counters would.
        """
        keys = [profile_key(p) for p in profiles]
        missing: dict[ProfileKey, Profile] = {}
        resolved: dict[ProfileKey, np.ndarray] = {}
        call_hits = 0
        for key, profile in zip(keys, profiles):
            if key in resolved or key in missing:
                continue
            row = self.store.get(key)
            if row is not None:
                call_hits += 1
                resolved[key] = row
            else:
                missing[key] = profile
        with self._lock:
            self._hits += call_hits
            self._misses += len(missing)
        if missing:
            batch = list(missing.values())
            with get_tracer().stage(STAGE_FEATURIZE):
                rows = self.judge.featurize_profiles(batch)
            with self._lock:
                self._featurized += len(batch)
            for profile, row in zip(batch, rows):
                key = profile_key(profile)
                resolved[key] = row
                # Each row is a view into the featurized (B, D) batch; the
                # hot tier copies views on insert so one resident row never
                # pins the whole batch in RAM.
                self.store.put(key, row)
        with self._lock:
            call_invalidated = self._pending_invalidated
            self._pending_invalidated = 0
        stats = CallCacheStats(
            hits=call_hits,
            misses=len(missing),
            featurized=len(missing),
            invalidated=call_invalidated,
        )
        return np.stack([resolved[key] for key in keys]), stats

    # ------------------------------------------------------------ invalidation
    def invalidate(self, uids: Iterable[int]) -> int:
        """Drop every cached feature row of the given users; returns rows dropped.

        The live-mutation hook: a user whose visit history changed outside
        the revision-stamped path (or whose old rows should be reclaimed
        eagerly) gets all resident rows — any timestamp, any revision, any
        tier — removed, so the next lookup re-featurizes.  Revision-exact
        keys already prevent *serving* a stale row; invalidation reclaims
        the space and keeps ``cache_info`` honest about live users.
        """
        dropped = self.store.invalidate(uids)
        with self._lock:
            self._invalidations += dropped
            self._pending_invalidated += dropped
        return dropped

    def invalidate_stale(self) -> int:
        """Drop resident rows superseded by a higher observed revision.

        Unrevisioned rows (profiles built outside the builders) are never
        dropped — they carry no ordering to judge staleness by.
        Returns the rows dropped.
        """
        dropped = self.store.invalidate_stale()
        with self._lock:
            self._invalidations += dropped
            self._pending_invalidated += dropped
        return dropped

    def warm(self, profiles: list[Profile]) -> int:
        """Pre-featurize profiles into the cache; returns rows featurized.

        The count covers this call only — concurrent callers featurizing at
        the same time do not inflate it.
        """
        if not profiles or not self._feature_space:
            return 0
        _, stats = self._resolve_features(profiles)
        return stats.featurized

    def cache_info(self) -> EngineCacheInfo:
        """Current feature-store statistics (a consistent snapshot)."""
        stats = self.store.stats()
        with self._lock:
            return EngineCacheInfo(
                hits=self._hits,
                misses=self._misses,
                evictions=stats.evictions,
                size=stats.size,
                maxsize=stats.maxsize,
                featurized=self._featurized,
                invalidated=self._invalidations,
                hot_hits=stats.hot_hits,
                cold_hits=stats.cold_hits,
                promotions=stats.promotions,
                demotions=stats.demotions,
                cold_size=stats.cold_size,
            )

    def clear_cache(self) -> None:
        """Drop every cached feature row, all tiers (keeps the counters)."""
        self.store.clear()

    def close(self) -> None:
        """Flush and release the store's cold tier, if any (idempotent)."""
        close = getattr(self.store, "close", None)
        if close is not None:
            close()

    # -------------------------------------------------------------- judgement
    def _score_batched(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        # A single-pair chunk is padded with a duplicate row and the extra
        # score dropped, for the same reason as featurize_in_chunks: the
        # B=1 BLAS path drifts ~1e-16 from the batched kernel, and scores
        # must not depend on how a workload was chunked or coalesced.
        chunks = []
        for start in range(0, len(left), self.batch_size):
            stop = start + self.batch_size
            chunk_left, chunk_right = left[start:stop], right[start:stop]
            if len(chunk_left) == 1:
                doubled = self.judge.score_feature_pairs(
                    np.concatenate([chunk_left, chunk_left]),
                    np.concatenate([chunk_right, chunk_right]),
                )
                chunks.append(np.asarray(doubled)[:1])
            else:
                chunks.append(self.judge.score_feature_pairs(chunk_left, chunk_right))
        return np.concatenate(chunks) if chunks else np.zeros(0)

    def predict_proba(self, pairs: list[Pair]) -> np.ndarray:
        """Co-location probability per pair (batched, feature-cached).

        Both sides resolve in one gather, so a profile appearing on both
        sides of the batch featurizes once even with ``cache_size=0``.
        """
        return self._core.predict_proba(pairs)

    def predict(self, pairs: list[Pair]) -> np.ndarray:
        """Binary co-location decisions per pair.

        Follows the judge's own decision rule — including non-threshold
        rules like Comp2Loc's argmax equality — unless the engine was given
        an explicit ``threshold``, which then cuts the probabilities.
        """
        return self._core.predict(pairs)

    def probability_matrix(self, profiles: list[Profile]) -> np.ndarray:
        """The ``N x N`` pairwise probability matrix, featurizing each profile once."""
        return self._core.probability_matrix(profiles)

    def features(self, profiles: list[Profile]) -> np.ndarray:
        """Cached frozen feature rows for profiles (t-SNE, diagnostics)."""
        if not self._feature_space:
            raise ConfigurationError(
                "the wrapped judge has no feature-level interface (FeatureSpaceJudge)"
            )
        if not profiles:
            featurizer = getattr(self.judge, "featurizer", None)
            return np.zeros((0, featurizer_dim(featurizer)))
        return self._features_for(profiles)

    # ---------------------------------------------------------- POI inference
    def infer_poi_proba(self, profiles: list[Profile]) -> np.ndarray:
        """POI probability distributions per profile (two-phase judges only)."""
        if not hasattr(self.judge, "infer_poi_proba"):
            raise ConfigurationError("the wrapped judge does not support POI inference")
        return self.judge.infer_poi_proba(profiles)

    def infer_poi(self, profiles: list[Profile]) -> list[int]:
        """Hard POI (pid) predictions per profile (two-phase judges only)."""
        if not hasattr(self.judge, "infer_poi"):
            raise ConfigurationError("the wrapped judge does not support POI inference")
        return self.judge.infer_poi(profiles)

    # ----------------------------------------------------------------- serving
    def serve(self, request: JudgeRequest) -> JudgeResponse:
        """Answer one typed judgement request.

        With no explicit threshold (neither on the request nor on the
        engine), decisions follow the judge's own rule — matching
        :meth:`predict`, including non-threshold rules like Comp2Loc's
        argmax equality.  An explicit threshold cuts the probabilities.
        """
        return self._core.serve(request)

    def serve_batch(self, requests: Iterable[JudgeRequest]) -> list[JudgeResponse]:
        """Answer typed requests together, scoring them as one coalesced batch.

        See :meth:`repro.api.JudgementCore.serve_batch` — this is the entry
        point ``MicroBatcher.submit_serve`` flushes through.
        """
        return self._core.serve_batch(requests)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        info = self.cache_info()
        return (
            f"ColocationEngine(judge={type(self.judge).__name__}, "
            f"cache={info.size}/{info.maxsize}, hit_rate={info.hit_rate:.2f})"
        )
