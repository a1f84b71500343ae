"""repro — a reproduction of HisRect co-location judgement (Li et al., TKDE 2019).

The package is organised as:

* :mod:`repro.geo` — geospatial substrate (points, polygons, POIs).
* :mod:`repro.data` — synthetic Twitter substrate (cities, mobility, tweets,
  profiles, pairs, datasets); dataset presets self-register in the registry.
* :mod:`repro.text` — tokenisation and skip-gram word vectors.
* :mod:`repro.nn` — from-scratch autodiff, layers, LSTMs, losses, optimisers.
* :mod:`repro.core` — the judge protocols (:class:`repro.core.CoLocationJudge`,
  :class:`repro.core.FeatureSpaceJudge`) and the
  :class:`repro.core.TrainingStrategy` abstraction every judge and pipeline
  mode implements.
* :mod:`repro.registry` — the string-keyed component registry: judges,
  baselines, featurizer variants, dataset presets and training strategies are
  built by name from plain configuration dictionaries.
* :mod:`repro.features` — the HisRect featurizer (historical-visit feature,
  content encoders, combiner, POI classifier); variants self-register.
* :mod:`repro.ssl` — affinity graph and semi-supervised training (Algorithm 1).
* :mod:`repro.colocation` — the co-location judge, naive judges, clustering,
  the training strategies and the high-level
  :class:`repro.colocation.pipeline.CoLocationPipeline`.
* :mod:`repro.baselines` — TG-TI-C and N-Gram-Gauss location-inference baselines.
* :mod:`repro.social` — the Section 7 extension: friendship graphs, social and
  frequent-pattern pair features, the stacked social co-location judge.
* :mod:`repro.api` — the serving facade: :class:`repro.api.ColocationEngine`
  wraps any fitted judge behind batched prediction, a thread-safe LRU feature
  cache and typed :class:`repro.api.JudgeRequest` /
  :class:`repro.api.JudgeResponse` messages.
* :mod:`repro.cluster` — serving at scale: the request-coalescing
  :class:`repro.cluster.MicroBatcher`, the process-worker
  :class:`repro.cluster.WorkerPool` and :class:`repro.cluster.ClusterMetrics`
  telemetry.
* :mod:`repro.eval` — metrics, ROC/AUC, Acc@K, ranking and clustering metrics,
  t-SNE, group-pattern case study.
* :mod:`repro.service` — friends notification, local people recommendation,
  community detection and followship measurement on top of an engine.
* :mod:`repro.io` — persistence for datasets, fitted pipelines (and
  :func:`repro.io.load_engine`) and friendship graphs.
* :mod:`repro.experiments` — one runner per table/figure of the paper plus the
  extension studies; approaches are built through the registry.

The serving entry point is importable from the top level::

    from repro import ColocationEngine
"""

from repro.version import __version__

__all__ = [
    "__version__",
    "ColocationEngine",
    "JudgeRequest",
    "JudgeResponse",
    "MicroBatcher",
]

#: Top-level conveniences, resolved lazily to keep ``import repro`` light.
_LAZY_EXPORTS = {
    "ColocationEngine": "repro.api",
    "JudgeRequest": "repro.api",
    "JudgeResponse": "repro.api",
    "MicroBatcher": "repro.cluster",
}


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        import importlib

        module = importlib.import_module(_LAZY_EXPORTS[name])
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
