"""Invalidation across the distributed transports.

The engine-level lifecycle is pinned in ``tests/api/test_invalidation.py``;
this file pins what each transport adds on top:

* :class:`MicroBatcher` processes invalidations **first** within a flush, so a
  mutation queued alongside requests cannot lose the race, and a request
  carrying a superseded revision re-gathers instead of reading dropped rows;
* :class:`WorkerPool` routes ``invalidate(uids)`` over the wire's
  ``INVALIDATE`` frame to each uid's stable-hash owner worker only,
  ``invalidate_stale`` sweeps every worker, and the pool purges its
  gateway-retained snapshot rows, so a worker respawned after an
  invalidation cannot resurrect dead rows.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import time

import numpy as np
import pytest

from repro.api import ColocationEngine, JudgeRequest
from repro.cluster import MicroBatcher, WorkerPool, shard_index


@pytest.fixture(scope="module")
def serving_pairs(tiny_dataset):
    pairs = list(tiny_dataset.test.labeled_pairs) + list(tiny_dataset.train.labeled_pairs)
    return pairs[:12]


@pytest.fixture(scope="module")
def serving_profiles(serving_pairs):
    seen, out = set(), []
    for pair in serving_pairs:
        for profile in (pair.left, pair.right):
            if id(profile) not in seen:
                seen.add(id(profile))
                out.append(profile)
    return out


@pytest.fixture(scope="module")
def latest_profiles(serving_profiles):
    """One profile per uid — the highest revision the dataset produced.

    The tiny dataset's users carry several revisions each (one per timeline
    position), which is exactly what makes raw ``invalidate_stale`` counts
    data-dependent; the stale-sweep tests want one deterministic generation
    per user instead.
    """
    best = {}
    for profile in serving_profiles:
        current = best.get(profile.uid)
        if current is None or (profile.revision or 0) > (current.revision or 0):
            best[profile.uid] = profile
    return list(best.values())


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


class TestBatcherOrdering:
    def test_invalidation_queued_with_requests_wins_the_flush(
        self, fitted_pipeline, serving_pairs
    ):
        """An invalidate submitted before scores in the same flush is applied
        before any of those scores gather — their responses observe it."""
        engine = ColocationEngine(fitted_pipeline, cache_size=1024)
        profiles = [p.left for p in serving_pairs] + [p.right for p in serving_pairs]
        engine.warm(profiles)
        victim_uids = [serving_pairs[0].left.uid]
        with MicroBatcher(engine, max_delay_ms=50.0, overflow="block") as batcher:
            invalidation = batcher.submit_invalidate(victim_uids)
            serve = batcher.submit_serve(JudgeRequest(pairs=tuple(serving_pairs)))
            dropped = invalidation.result(timeout=30)
            response = serve.result(timeout=30)
        assert dropped >= 1
        # the serve in the same flush drained the invalidation bucket
        assert response.cache_invalidated == dropped
        # and re-featurized the dropped rows rather than serving them stale
        assert response.cache_misses >= dropped

    def test_superseded_revision_requests_refeaturize_after_invalidate(
        self, fitted_pipeline, serving_pairs
    ):
        """A request whose profiles carry bumped revisions, queued behind the
        old generation's invalidation, scores exactly like a fresh engine."""
        engine = ColocationEngine(fitted_pipeline, cache_size=1024)
        old_pair = serving_pairs[0]
        new_pair = dataclasses.replace(
            old_pair,
            left=dataclasses.replace(old_pair.left, revision=(old_pair.left.revision or 0) + 1),
            right=dataclasses.replace(old_pair.right, revision=(old_pair.right.revision or 0) + 1),
        )
        engine.predict_proba([old_pair])
        with MicroBatcher(engine, max_delay_ms=50.0, overflow="block") as batcher:
            invalidation = batcher.submit_invalidate([old_pair.left.uid, old_pair.right.uid])
            scored = batcher.submit_score([new_pair])
            dropped = invalidation.result(timeout=30)
            got = scored.result(timeout=30)
        assert dropped >= 2
        fresh = ColocationEngine(fitted_pipeline, cache_size=0)
        np.testing.assert_allclose(got, fresh.predict_proba([new_pair]), atol=1e-12)
        # the superseded rows are gone; only the new generation is resident
        assert engine.invalidate([old_pair.left.uid, old_pair.right.uid]) == 2

    def test_sync_wrappers(self, fitted_pipeline, latest_profiles):
        engine = ColocationEngine(fitted_pipeline, cache_size=1024)
        engine.warm(latest_profiles)
        successors = [
            dataclasses.replace(p, revision=(p.revision or 0) + 1)
            for p in latest_profiles[:3]
        ]
        engine.warm(successors)
        with MicroBatcher(engine, max_delay_ms=2.0, overflow="block") as batcher:
            assert batcher.invalidate([]) == 0  # empty: resolved without a flush
            assert batcher.invalidate_stale() == 3
            dropped = batcher.invalidate([p.uid for p in latest_profiles])
        assert dropped == engine.cache_info().invalidated - 3

    def test_requires_an_invalidatable_engine(self, fitted_pipeline):
        from repro.errors import ConfigurationError

        class Bare:
            def predict_proba(self, pairs):
                return np.zeros(len(pairs))

        with MicroBatcher(Bare(), max_delay_ms=1.0) as batcher:
            with pytest.raises(ConfigurationError, match="invalidate"):
                batcher.submit_invalidate([1])
            with pytest.raises(ConfigurationError, match="invalidate_stale"):
                batcher.submit_invalidate_stale()


class TestWorkerPoolPropagation:
    def test_invalidate_crosses_the_wire(self, fitted_pipeline, serving_profiles):
        with WorkerPool(fitted_pipeline, num_workers=2, cache_size=1024) as pool:
            pool.warm(serving_profiles)
            reference = ColocationEngine(fitted_pipeline, cache_size=1024)
            reference.warm(serving_profiles)
            victim = serving_profiles[0].uid
            dropped = pool.invalidate([victim])
            assert dropped == reference.invalidate([victim])
            assert pool.cache_info().size == reference.cache_info().size
            # re-warm featurizes exactly the dropped rows, on the owner worker
            assert pool.warm(serving_profiles) == dropped

    def test_invalidate_touches_only_the_owner_worker(
        self, fitted_pipeline, serving_profiles
    ):
        with WorkerPool(fitted_pipeline, num_workers=3, cache_size=1024) as pool:
            pool.warm(serving_profiles)
            victim = serving_profiles[0].uid
            owner = shard_index(victim, pool.num_workers)
            before = pool.worker_cache_infos()
            dropped = pool.invalidate([victim])
            assert dropped >= 1
            after = pool.worker_cache_infos()
            for index, (pre, post) in enumerate(zip(before, after)):
                if index == owner:
                    assert post.size == pre.size - dropped
                    assert post.invalidated == dropped
                else:
                    assert post.size == pre.size
                    assert post.invalidated == 0

    def test_matches_single_engine_drop_counts(self, fitted_pipeline, serving_profiles):
        reference = ColocationEngine(fitted_pipeline, cache_size=1024)
        reference.warm(serving_profiles)
        uids = sorted({p.uid for p in serving_profiles})
        with WorkerPool(fitted_pipeline, num_workers=2, cache_size=1024) as pool:
            pool.warm(serving_profiles)
            assert pool.invalidate(uids) == reference.invalidate(uids)

    def test_invalidate_stale_sweeps_every_worker(self, fitted_pipeline, latest_profiles):
        with WorkerPool(fitted_pipeline, num_workers=2, cache_size=1024) as pool:
            pool.warm(latest_profiles)
            successors = [
                dataclasses.replace(p, revision=(p.revision or 0) + 1)
                for p in latest_profiles
            ]
            pool.warm(successors)
            assert pool.invalidate_stale() == len(latest_profiles)
            assert pool.warm(successors) == 0

    def test_stale_sweep_leaves_only_successors(self, fitted_pipeline, latest_profiles):
        with WorkerPool(fitted_pipeline, num_workers=3, cache_size=1024) as pool:
            pool.warm(latest_profiles)
            successors = [
                dataclasses.replace(p, revision=(p.revision or 0) + 1)
                for p in latest_profiles
            ]
            pool.warm(successors)
            assert pool.invalidate_stale() == len(latest_profiles)
            # only the successors remain resident
            assert pool.warm(successors) == 0
            assert pool.cache_info().invalidated == len(latest_profiles)

    def test_serve_after_invalidate_reports_the_drops(self, fitted_pipeline, serving_pairs):
        with WorkerPool(fitted_pipeline, num_workers=2, cache_size=1024) as pool:
            request = JudgeRequest(pairs=tuple(serving_pairs))
            pool.serve(request)
            dropped = pool.invalidate([serving_pairs[0].left.uid])
            assert dropped >= 1
            response = pool.serve(request)
            assert response.cache_invalidated == dropped
            assert pool.serve(request).cache_invalidated == 0

    def test_metrics_count_invalidated_rows(self, fitted_pipeline, serving_profiles):
        from repro.cluster import ClusterMetrics

        metrics = ClusterMetrics()
        with WorkerPool(
            fitted_pipeline, num_workers=2, cache_size=1024, metrics=metrics
        ) as pool:
            pool.warm(serving_profiles)
            dropped = pool.invalidate([p.uid for p in serving_profiles])
        snapshot = metrics.snapshot()
        assert snapshot.invalidated_rows == dropped
        assert f"invalidated_rows={dropped}" in snapshot.format()

    def test_respawned_worker_cannot_resurrect_invalidated_rows(
        self, fitted_pipeline, serving_profiles
    ):
        """The retained warm-start rows are purged on invalidate: after a
        worker dies and respawns, the invalidated user's rows stay gone."""
        with WorkerPool(
            fitted_pipeline, num_workers=2, cache_size=1024, respawn=True
        ) as pool:
            pool.warm(serving_profiles)
            pool.snapshot()  # retains rows for warm-starting respawns
            victim_uid = serving_profiles[0].uid
            owner = shard_index(victim_uid, pool.num_workers)
            dropped = pool.invalidate([victim_uid])
            assert dropped >= 1
            survivor_size = pool.worker_cache_infos()[owner].size

            os.kill(pool.worker_pids()[owner], signal.SIGKILL)
            _wait_until(lambda: not pool._handles[owner].process.is_alive())
            from repro.errors import WorkerCrashError

            with pytest.raises(WorkerCrashError):
                pool.ping(owner)
            assert pool.ping(owner)  # respawn, warm-started from retained rows
            assert pool.worker_cache_infos()[owner].size == survivor_size
            # re-warming really featurizes the victim again: the rows are gone
            assert pool.warm(serving_profiles) == dropped

    def test_invalidating_a_dead_worker_does_not_raise(
        self, fitted_pipeline, serving_profiles
    ):
        """Invalidation is hygiene — a dead worker holds no servable rows, so
        its share resolves to 0 instead of failing the whole call."""
        with WorkerPool(fitted_pipeline, num_workers=2, cache_size=1024) as pool:
            pool.warm(serving_profiles)
            victim_uid = serving_profiles[0].uid
            owner = shard_index(victim_uid, pool.num_workers)
            os.kill(pool.worker_pids()[owner], signal.SIGKILL)
            _wait_until(lambda: not pool._handles[owner].process.is_alive())
            assert pool.invalidate([victim_uid]) == 0
