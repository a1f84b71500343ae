"""Live profiles end to end: stream ingestion, mutation, invalidation.

Serving co-location judgements to live traffic means profiles *change* under
the caches: every geo-tagged tweet appends a visit, capped histories slide,
and yesterday's feature rows are stale.  This script walks the live-profile
machinery end to end:

1. fit a small HisRect judge and replay held-out timelines through a
   :class:`repro.service.StreamScorer` — the incremental path seeds the
   featurizer with delta-updated Eq. (1)–(2) rows (O(1 visit) of kernel work
   per ingest instead of O(history)) without changing a single score;
2. mutate a served user's profile (append a visit, bump the revision) and
   show that the revisioned cache key alone keeps the engine from serving
   the stale row — then reclaim the dead rows with ``invalidate`` /
   ``invalidate_stale`` and read the accounting;
3. run the same mutate-invalidate-rescore loop against the process-worker
   pool: invalidation crosses the wire to the owning worker process, and
   the pool keeps matching a freshly built engine that never cached
   anything.

Run it with::

    python examples/live_stream.py

It finishes in well under a minute.  For the speedup measurement see
``benchmarks/bench_live_profiles.py``.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.api import ColocationEngine
from repro.cluster import WorkerPool
from repro.cluster.loadgen import fit_serving_pipeline
from repro.data.records import Pair, Visit
from repro.service import StreamScorer


def mutate(profile, step: int):
    """One live mutation: append a visit (capped window) and bump the revision."""
    last = profile.visit_history[-1] if profile.visit_history else Visit(
        ts=profile.ts, lat=40.75, lon=-73.99
    )
    new_visit = Visit(ts=profile.ts + 30.0 * (step + 1), lat=last.lat, lon=last.lon)
    return dataclasses.replace(
        profile,
        tweet=dataclasses.replace(profile.tweet, ts=profile.ts + 60.0 * (step + 1)),
        visit_history=(profile.visit_history + (new_visit,))[-8:],
        revision=(profile.revision or 0) + 1,
    )


def main() -> None:
    started = time.perf_counter()

    print("Fitting a small HisRect judge ...")
    pipeline, dataset = fit_serving_pipeline(seed=5)

    # ------------------------------------------------ 1. streaming ingestion
    engine = ColocationEngine(pipeline, cache_size=2048)
    scorer = StreamScorer(engine, delta_t=dataset.delta_t, max_history=16)
    print(f"incremental Eq. (1)-(2) seeding active: {scorer.incremental}")

    tweets = sorted((p.tweet for p in dataset.test.labeled_profiles), key=lambda t: t.ts)
    scored = scorer.process_many(tweets)
    positives = sum(1 for s in scored if s.probability >= 0.5)
    print(
        f"replayed {len(tweets)} geo-tagged tweets -> {len(scored)} candidate "
        f"pairs scored, {positives} above 0.5"
    )

    # --------------------------------- 2. mutation, revisions, invalidation
    profiles = {p.uid: p for p in dataset.train.labeled_profiles[:8]}
    uids = sorted(profiles)
    pairs = [
        Pair(profiles[uids[i]], profiles[uids[(i + 1) % len(uids)]])
        for i in range(len(uids))
    ]
    engine.predict_proba(pairs)  # warm the current generation into the cache

    victim = uids[0]
    profiles[victim] = mutate(profiles[victim], step=0)
    fresh = ColocationEngine(pipeline, cache_size=0)
    mutated_pairs = [
        Pair(profiles[uids[i]], profiles[uids[(i + 1) % len(uids)]])
        for i in range(len(uids))
    ]
    # Nobody has invalidated anything yet — the revisioned key alone keeps
    # the stale row out of the answer.
    exact = np.array_equal(
        engine.predict_proba(mutated_pairs), fresh.predict_proba(mutated_pairs)
    )
    print(f"mutated user served fresh *without* any invalidate call: {exact}")

    # The old-generation rows are now dead weight; reclaim them explicitly.
    dropped = engine.invalidate([victim])
    swept = engine.invalidate_stale()
    info = engine.cache_info()
    print(
        f"invalidate({victim}) dropped {dropped} rows, invalidate_stale() swept "
        f"{swept} superseded revisions; cumulative invalidated = {info.invalidated}"
    )

    # ----------------------- 3. the same loop across the worker processes
    print("\nMutate-invalidate-rescore across the worker pool:")
    with WorkerPool(pipeline, num_workers=2, cache_size=2048) as pool:
        live = dict(profiles)
        for step in range(1, 3):
            for uid in uids[: 1 + step]:
                live[uid] = mutate(live[uid], step)
            # Pushed over the wire to the owning worker process; the
            # response's cache accounting reports the drops.
            pool.invalidate(uids[: 1 + step])
            current = [
                Pair(live[uids[i]], live[uids[(i + 1 + step) % len(uids)]])
                for i in range(len(uids))
            ]
            exact = np.array_equal(pool.predict_proba(current), fresh.predict_proba(current))
            print(
                f"  workers: step {step} ({1 + step} users mutated) "
                f"matches the fresh engine bit-for-bit: {exact}"
            )
        pool.invalidate_stale()

    print(f"\nDone in {time.perf_counter() - started:.1f}s")


if __name__ == "__main__":
    main()
