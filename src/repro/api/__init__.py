"""The serving facade: one entry point for online co-location judgement.

The paper's Section 6.4.4 argues the fitted judge "can work in online
scenarios" (~1 ms per pair).  :class:`ColocationEngine` is the production face
of that claim: it wraps any fitted judge — a
:class:`repro.colocation.CoLocationPipeline`, a raw HisRect judge, the
One-phase model, Comp2Loc, the social judge or a baseline — behind one batched,
cached API that every :mod:`repro.service` application consumes.

* :class:`ColocationEngine` — batched ``predict_proba`` / ``predict``, an LRU
  cache over per-profile HisRect features, a ``probability_matrix`` that
  featurizes each profile exactly once, and cache telemetry.
* :class:`JudgementCore` — the one decision/serve path shared by the engine,
  :class:`repro.cluster.WorkerPool` and
  :class:`repro.cluster.MicroBatcher`, parameterized on a feature-gather
  callable and a pair scorer.
* :class:`JudgeRequest` / :class:`JudgeResponse` — typed request/response
  dataclasses for the serving boundary.
* :class:`EngineCacheInfo` — snapshot of the feature cache's hit statistics.
"""

from repro.api.core import CallCacheStats, JudgementCore
from repro.api.engine import ColocationEngine, EngineCacheInfo
from repro.api.messages import JudgeRequest, JudgeResponse

__all__ = [
    "CallCacheStats",
    "ColocationEngine",
    "EngineCacheInfo",
    "JudgementCore",
    "JudgeRequest",
    "JudgeResponse",
]
