"""``repro.cluster`` — micro-batched and process-partitioned serving.

PRs 2–3 made every per-profile cost batch-capable; this subsystem turns those
batch kernels into *concurrent throughput*.  The in-process serving stack is
one :class:`repro.api.ColocationEngine`, optionally behind a
:class:`MicroBatcher`; :class:`WorkerPool` is the one partitioned tier:

* :class:`WorkerPool` — the process tier: ``num_workers`` worker *processes*
  (:mod:`repro.cluster.worker`), each rebuilt from the fitted judge via the
  save/load bundle and owning a hash slice of the user population, behind an
  asyncio gateway speaking the length-prefixed binary protocol of
  :mod:`repro.cluster.wire` (JSON bodies + raw numpy payloads — no pickle on
  the hot path).  Users route to workers by the stable :func:`shard_index`
  hash; feature gathers fan out across worker sockets concurrently, so
  featurization escapes the GIL; worker death fails pending calls fast with
  :class:`repro.errors.WorkerCrashError` and can respawn-with-restore.
* :class:`MicroBatcher` — an async request coalescer: concurrent ``score`` /
  ``probability_matrix`` / ``warm`` / typed ``serve`` requests accumulate up
  to ``max_batch``/``max_delay_ms`` and flush as one featurize+score call
  (serves via the shared core's ``serve_batch``), with a bounded queue and
  explicit backpressure (:class:`repro.errors.EngineOverloadError` vs.
  blocking).  The batcher speaks the full engine surface, so services can be
  fronted by one — and it stacks on a :class:`WorkerPool` as readily as on a
  single engine.
* :class:`ClusterMetrics` — merged per-worker cache statistics, flush/batch
  counters, worker death/respawn incidents and latency percentiles in one
  thread-safe snapshot.

All three transports delegate their decision/serve logic to one
:class:`repro.api.JudgementCore`, so threshold rules, fallbacks and cache
accounting exist exactly once; parity is pinned by
``tests/cluster/test_serving_parity.py``.

:mod:`repro.cluster.loadgen` carries the skewed load generator behind
``benchmarks/bench_batched_serving.py`` and the CLI's ``serve-bench``.
"""

from repro.cluster.batcher import MicroBatcher
from repro.cluster.gateway import WorkerPool, shard_index
from repro.cluster.metrics import ClusterMetrics, ClusterMetricsSnapshot

__all__ = [
    "ClusterMetrics",
    "ClusterMetricsSnapshot",
    "MicroBatcher",
    "WorkerPool",
    "shard_index",
]
