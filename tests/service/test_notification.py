"""Tests for the friends-notification service."""

import numpy as np
import pytest

from repro.data.records import Tweet
from repro.errors import ConfigurationError
from repro.service import FriendsNotificationService


class SamePOIJudge:
    """Deterministic stand-in judge: probability 0.9 when both profiles share a pid."""

    def predict_proba(self, pairs):
        return np.array(
            [0.9 if (p.left.pid is not None and p.left.pid == p.right.pid) else 0.1 for p in pairs]
        )


def poi_tweet(registry, uid, ts, poi_index=0):
    poi = registry.pois[poi_index]
    return Tweet(uid=uid, ts=ts, content="here now", lat=poi.center.lat, lon=poi.center.lon)


@pytest.fixture
def service(small_registry):
    return FriendsNotificationService(
        SamePOIJudge(),
        registry=small_registry,
        friendships=[(1, 2), (1, 3)],
        delta_t=3600.0,
        threshold=0.5,
    )


class TestFriendsNotificationService:
    def test_notifies_co_located_friends(self, service, small_registry):
        service.process(poi_tweet(small_registry, uid=1, ts=0.0, poi_index=0))
        notifications = service.process(poi_tweet(small_registry, uid=2, ts=600.0, poi_index=0))
        assert len(notifications) == 1
        notification = notifications[0]
        assert {notification.uid_a, notification.uid_b} == {1, 2}
        assert notification.probability == pytest.approx(0.9)
        assert service.notifications_sent == 1

    def test_no_notification_for_non_friends(self, service, small_registry):
        service.process(poi_tweet(small_registry, uid=4, ts=0.0, poi_index=0))
        assert service.process(poi_tweet(small_registry, uid=5, ts=60.0, poi_index=0)) == []

    def test_no_notification_for_different_pois(self, service, small_registry):
        service.process(poi_tweet(small_registry, uid=1, ts=0.0, poi_index=0))
        assert service.process(poi_tweet(small_registry, uid=2, ts=60.0, poi_index=3)) == []

    def test_no_notification_outside_delta_t(self, service, small_registry):
        service.process(poi_tweet(small_registry, uid=1, ts=0.0, poi_index=0))
        assert service.process(poi_tweet(small_registry, uid=2, ts=7200.0, poi_index=0)) == []

    def test_threshold_is_respected(self, small_registry):
        strict = FriendsNotificationService(
            SamePOIJudge(),
            registry=small_registry,
            friendships=[(1, 2)],
            threshold=0.95,
        )
        strict.process(poi_tweet(small_registry, uid=1, ts=0.0))
        assert strict.process(poi_tweet(small_registry, uid=2, ts=10.0)) == []

    def test_process_many_collects_notifications(self, service, small_registry):
        tweets = [
            poi_tweet(small_registry, uid=2, ts=30.0, poi_index=1),
            poi_tweet(small_registry, uid=1, ts=0.0, poi_index=1),
            poi_tweet(small_registry, uid=3, ts=60.0, poi_index=1),
        ]
        notifications = service.process_many(tweets)
        pairs = {frozenset((n.uid_a, n.uid_b)) for n in notifications}
        assert pairs == {frozenset((1, 2)), frozenset((1, 3))}

    def test_co_located_profiles_batch_api(self, service, small_registry):
        builder_tweets = [
            poi_tweet(small_registry, uid=1, ts=0.0, poi_index=2),
            poi_tweet(small_registry, uid=2, ts=30.0, poi_index=2),
            poi_tweet(small_registry, uid=4, ts=45.0, poi_index=2),
        ]
        profiles = [service.builder.consume(t) for t in sorted(builder_tweets, key=lambda t: t.ts)]
        matches = service.co_located_profiles(profiles)
        assert len(matches) == 1
        left, right, probability = matches[0]
        assert {left.uid, right.uid} == {1, 2}
        assert probability == pytest.approx(0.9)

    def test_friendship_management(self, service):
        assert service.are_friends(1, 2)
        assert not service.are_friends(2, 3)
        service.add_friendship(2, 3)
        assert service.are_friends(3, 2)
        assert service.num_friendships == 3

    def test_invalid_configuration(self, small_registry):
        with pytest.raises(ConfigurationError):
            FriendsNotificationService(object(), small_registry, friendships=[])
        with pytest.raises(ConfigurationError):
            FriendsNotificationService(SamePOIJudge(), small_registry, friendships=[], threshold=2.0)
        with pytest.raises(ConfigurationError):
            FriendsNotificationService(SamePOIJudge(), small_registry, friendships=[(1, 1)])
