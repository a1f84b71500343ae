"""Friends notification over a simulated live tweet stream (paper Section 1).

The paper's first motivating application: "notify a user that one of his/her
friends is also present at the same POI in the same time."  This example

1. trains a HisRect pipeline on a small synthetic city (the offline part),
2. builds a :class:`repro.service.FriendsNotificationService` around the
   fitted judge and a friendship graph, and
3. replays the held-out test timelines as a live stream, printing a
   notification whenever two friends are judged co-located within Δt.

This example deliberately stays on the *legacy* entry point — it passes the
fitted pipeline straight into the service instead of wrapping it in a
:class:`repro.api.ColocationEngine` — proving the pre-engine call sites keep
working (the service wraps raw judges automatically).  See
``examples/local_services.py`` for the engine-first style.

Run it with::

    python examples/friends_notification.py
"""

from __future__ import annotations

import itertools
from collections import defaultdict

import numpy as np

from repro.colocation import CoLocationPipeline, JudgeConfig, PipelineConfig
from repro.data import build_dataset, nyc_like_dataset_config
from repro.features import HisRectConfig
from repro.service import FriendsNotificationService
from repro.ssl import SSLTrainingConfig
from repro.text import SkipGramConfig


def build_friendships(dataset, max_edges: int = 40) -> list[tuple[int, int]]:
    """Invent a plausible friendship graph: users who share a favourite POI."""
    visitors = defaultdict(set)
    for profile in dataset.test.labeled_profiles:
        visitors[profile.pid].add(profile.uid)
    edges = set()
    for users in visitors.values():
        for a, b in itertools.combinations(sorted(users), 2):
            edges.add((a, b))
            if len(edges) >= max_edges:
                return sorted(edges)
    return sorted(edges)


def main() -> None:
    print("Training the HisRect pipeline (offline phase) ...")
    dataset = build_dataset(nyc_like_dataset_config(scale=0.4, seed=41))
    config = PipelineConfig(
        hisrect=HisRectConfig(content_dim=8, feature_dim=16, embedding_dim=8),
        ssl=SSLTrainingConfig(max_iterations=80),
        judge=JudgeConfig(embedding_dim=8, classifier_dim=8, epochs=15),
        skipgram=SkipGramConfig(embedding_dim=16, epochs=1),
    )
    pipeline = CoLocationPipeline(config).fit(dataset)

    friendships = build_friendships(dataset)
    print(f"Friendship graph: {len(friendships)} edges among test users")

    service = FriendsNotificationService(
        pipeline,
        registry=dataset.registry,
        friendships=friendships,
        delta_t=dataset.delta_t,
        threshold=0.6,
        max_distance_m=5_000.0,
    )

    # Replay the test timelines as a live stream, in timestamp order.
    stream = sorted(
        (tweet for timeline in dataset.test.store for tweet in timeline.tweets),
        key=lambda t: t.ts,
    )
    print(f"Replaying {len(stream)} tweets through the notification service ...")
    print()

    shown = 0
    for tweet in stream:
        for notification in service.process(tweet):
            shown += 1
            if shown <= 10:
                print(
                    f"  [t={notification.ts:>9.0f}s] notify user {notification.uid_a}: "
                    f"friend {notification.uid_b} seems to be at the same place "
                    f"(p={notification.probability:.2f})"
                )

    print()
    print(f"Stream finished: {service.builder.profiles_built} profiles built, "
          f"{service.notifications_sent} notifications sent "
          f"({max(0, service.notifications_sent - 10)} not shown).")


if __name__ == "__main__":
    np.seterr(all="ignore")
    main()
