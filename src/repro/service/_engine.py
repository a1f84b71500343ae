"""Shared engine plumbing of the service layer.

Every application takes a :class:`repro.api.ColocationEngine` — or a
:class:`repro.cluster.MicroBatcher` / :class:`repro.cluster.WorkerPool`,
which expose the same serving surface — as its first argument; raw fitted
judges are still accepted (and wrapped on the fly) so pre-engine call sites
keep working.
"""

from __future__ import annotations

from repro.api import ColocationEngine
from repro.errors import ConfigurationError


def resolve_engine(engine):
    """Normalise a service's ``engine`` argument to an engine.

    A :class:`repro.cluster.MicroBatcher` or :class:`repro.cluster.WorkerPool`
    passes through unchanged — both speak the full engine surface
    (``predict_proba`` / ``probability_matrix`` / ``warm`` / ``serve`` /
    ``cache_info`` / ``registry``) — so every service gains the micro-batched
    and process-worker paths by construction.
    """
    if engine is None:
        raise ConfigurationError("an engine (or fitted judge) is required")
    from repro.cluster.batcher import MicroBatcher
    from repro.cluster.gateway import WorkerPool

    if isinstance(engine, (MicroBatcher, WorkerPool)):
        return engine
    return ColocationEngine.ensure(engine)
