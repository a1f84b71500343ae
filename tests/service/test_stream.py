"""Tests for the online profile builder and the stream scorer's live paths."""

import pytest

from repro.data.records import Tweet
from repro.errors import DataGenerationError
from repro.service import OnlineProfileBuilder


def poi_tweet(registry, uid, ts, poi_index=0, content="espresso and a view"):
    poi = registry.pois[poi_index]
    return Tweet(uid=uid, ts=ts, content=content, lat=poi.center.lat, lon=poi.center.lon)


def plain_tweet(uid, ts, content="nothing much"):
    return Tweet(uid=uid, ts=ts, content=content)


class TestOnlineProfileBuilder:
    def test_first_profile_has_empty_history(self, small_registry):
        builder = OnlineProfileBuilder(small_registry)
        profile = builder.consume(poi_tweet(small_registry, uid=1, ts=100.0))
        assert profile.visit_history == ()

    def test_history_excludes_current_tweet(self, small_registry):
        builder = OnlineProfileBuilder(small_registry)
        builder.consume(poi_tweet(small_registry, uid=1, ts=100.0))
        profile = builder.consume(poi_tweet(small_registry, uid=1, ts=200.0, poi_index=1))
        assert len(profile.visit_history) == 1
        assert profile.visit_history[0].ts == 100.0

    def test_geotagged_poi_tweet_is_labeled(self, small_registry):
        builder = OnlineProfileBuilder(small_registry)
        profile = builder.consume(poi_tweet(small_registry, uid=1, ts=1.0, poi_index=2))
        assert profile.pid == small_registry.pois[2].pid

    def test_non_geotagged_tweet_is_unlabeled_and_adds_no_history(self, small_registry):
        builder = OnlineProfileBuilder(small_registry)
        profile = builder.consume(plain_tweet(uid=1, ts=1.0))
        assert profile.pid is None
        assert builder.history(1) == ()

    def test_out_of_order_tweet_raises(self, small_registry):
        builder = OnlineProfileBuilder(small_registry)
        builder.consume(plain_tweet(uid=1, ts=100.0))
        with pytest.raises(DataGenerationError):
            builder.consume(plain_tweet(uid=1, ts=50.0))

    def test_out_of_order_allowed_when_not_enforced(self, small_registry):
        builder = OnlineProfileBuilder(small_registry, enforce_order=False)
        builder.consume(plain_tweet(uid=1, ts=100.0))
        profile = builder.consume(plain_tweet(uid=1, ts=50.0))
        assert profile.uid == 1

    def test_max_history_is_enforced(self, small_registry):
        builder = OnlineProfileBuilder(small_registry, max_history=3)
        for step in range(6):
            builder.consume(poi_tweet(small_registry, uid=1, ts=float(step)))
        assert len(builder.history(1)) == 3
        assert builder.history(1)[0].ts == 3.0

    def test_histories_are_per_user(self, small_registry):
        builder = OnlineProfileBuilder(small_registry)
        builder.consume(poi_tweet(small_registry, uid=1, ts=1.0))
        profile = builder.consume(poi_tweet(small_registry, uid=2, ts=2.0))
        assert profile.visit_history == ()
        assert builder.num_users == 2

    def test_consume_many_sorts_by_timestamp(self, small_registry):
        builder = OnlineProfileBuilder(small_registry)
        tweets = [plain_tweet(1, 30.0), plain_tweet(2, 10.0), plain_tweet(1, 20.0)]
        profiles = builder.consume_many(tweets)
        assert [p.ts for p in profiles] == [10.0, 20.0, 30.0]
        assert builder.profiles_built == 3

    def test_negative_max_history_raises(self, small_registry):
        with pytest.raises(DataGenerationError):
            OnlineProfileBuilder(small_registry, max_history=-1)

    def test_zero_max_history_keeps_no_visits(self, small_registry):
        # Regression: deque(maxlen=0 or None) silently meant *unbounded*;
        # max_history=0 must mean "emit profiles with no history at all".
        builder = OnlineProfileBuilder(small_registry, max_history=0)
        for step in range(4):
            profile = builder.consume(poi_tweet(small_registry, uid=1, ts=float(step)))
            assert profile.visit_history == ()
        assert builder.history(1) == ()

    def test_none_max_history_is_unbounded(self, small_registry):
        builder = OnlineProfileBuilder(small_registry, max_history=None)
        for step in range(100):
            builder.consume(poi_tweet(small_registry, uid=1, ts=float(step)))
        assert len(builder.history(1)) == 100


class _StubJudge:
    """Minimal judge for exercising the scorer plumbing without a model."""

    def predict_proba(self, pairs):
        return [0.5] * len(pairs)


class TestStreamScorerOrdering:
    def test_default_is_strict(self, small_registry):
        from repro.service import StreamScorer

        scorer = StreamScorer(_StubJudge(), registry=small_registry)
        scorer.process(plain_tweet(uid=1, ts=100.0))
        with pytest.raises(DataGenerationError):
            scorer.process(plain_tweet(uid=1, ts=50.0))

    def test_enforce_order_false_reaches_the_builder(self, small_registry):
        from repro.service import StreamScorer

        scorer = StreamScorer(_StubJudge(), registry=small_registry, enforce_order=False)
        scorer.process(plain_tweet(uid=1, ts=100.0))
        scored = scorer.process(plain_tweet(uid=1, ts=50.0))  # tolerated, same user: no pairs
        assert scored == []
        assert scorer.builder.enforce_order is False

    def test_max_history_none_reaches_the_builder(self, small_registry):
        from repro.service import StreamScorer

        scorer = StreamScorer(_StubJudge(), registry=small_registry, max_history=None)
        assert scorer.builder.max_history is None


class TestStreamScorerServingStacks:
    def test_micro_batcher_passes_through_and_scores(self, fitted_pipeline):
        """A MicroBatcher speaks the engine surface, so a service can sit
        behind the coalescing front door instead of around it."""
        from repro.api import ColocationEngine
        from repro.cluster import MicroBatcher
        from repro.service import StreamScorer

        engine = ColocationEngine(fitted_pipeline, cache_size=128)
        with MicroBatcher(engine) as batcher:
            scorer = StreamScorer(batcher, delta_t=3600.0)
            assert scorer.engine is batcher  # resolve_engine must not re-wrap it
            registry = batcher.registry
            tweets = [
                poi_tweet(registry, uid=uid, ts=100.0 + uid, poi_index=uid % 2)
                for uid in range(4)
            ]
            scored = scorer.process_many(tweets)
            assert scored
            assert all(0.0 <= s.probability <= 1.0 for s in scored)
        assert batcher.metrics.snapshot().requests > 0  # went through the flusher

    def test_raw_judge_still_wraps_to_a_single_engine(self, small_registry):
        from repro.api import ColocationEngine
        from repro.service import StreamScorer

        scorer = StreamScorer(_StubJudge(), registry=small_registry)
        assert isinstance(scorer.engine, ColocationEngine)


def stream_tweets(registry, n=24, users=5):
    """A deterministic mixed stream: geo-tagged POI tweets, plain tweets, and
    bursts of tweets sharing one timestamp (to exercise coalescing)."""
    tweets = []
    for step in range(n):
        uid = step % users
        ts = 100.0 + 40.0 * (step // 2)  # pairs of tweets share a timestamp
        if step % 4 == 3:
            tweets.append(plain_tweet(uid=uid, ts=ts, content=f"plain {step}"))
        else:
            tweets.append(
                poi_tweet(
                    registry, uid=uid, ts=ts, poi_index=step % len(registry.pois),
                    content=f"visit {step}",
                )
            )
    return tweets


def assert_scored_equal(got, expected):
    assert len(got) == len(expected)
    for left, right in zip(got, expected):
        assert left.pair.left.uid == right.pair.left.uid
        assert left.pair.right.uid == right.pair.right.uid
        assert left.pair.left.ts == right.pair.left.ts
        assert left.probability == right.probability  # bit-for-bit


class TestStreamScorerIncremental:
    def test_seeded_scores_are_bit_identical_to_scratch(self, fitted_pipeline):
        from repro.api import ColocationEngine
        from repro.service import StreamScorer

        incremental = StreamScorer(
            ColocationEngine(fitted_pipeline, cache_size=512), delta_t=3600.0
        )
        scratch = StreamScorer(
            ColocationEngine(fitted_pipeline, cache_size=512),
            delta_t=3600.0,
            incremental=False,
        )
        assert incremental.incremental and not scratch.incremental
        tweets = stream_tweets(incremental.engine.registry)
        got = [s for tweet in tweets for s in incremental.process(tweet)]
        expected = [s for tweet in tweets for s in scratch.process(tweet)]
        assert got  # the stream produced judged pairs
        assert_scored_equal(got, expected)

    def test_seeded_batcher_scores_are_bit_identical(self, fitted_pipeline):
        from repro.api import ColocationEngine
        from repro.cluster import MicroBatcher
        from repro.service import StreamScorer

        engine = ColocationEngine(fitted_pipeline, cache_size=512)
        with MicroBatcher(engine, max_delay_ms=1.0) as batcher:
            scorer = StreamScorer(batcher, delta_t=3600.0)
            assert scorer.incremental  # the batcher's engine is seedable
            tweets = stream_tweets(batcher.registry)
            got = [s for tweet in tweets for s in scorer.process(tweet)]
        reference = StreamScorer(
            ColocationEngine(fitted_pipeline, cache_size=512),
            delta_t=3600.0,
            incremental=False,
        )
        expected = [s for tweet in stream_tweets(reference.engine.registry) for s in reference.process(tweet)]
        assert got
        assert_scored_equal(got, expected)

    def test_process_many_coalesces_to_batcher_precision(self, fitted_pipeline):
        """Coalesced per-timestamp groups agree with per-tweet calls to the
        MicroBatcher's coalescing tolerance (the BLAS batch shape changes)."""
        from repro.api import ColocationEngine
        from repro.service import StreamScorer

        batched = StreamScorer(
            ColocationEngine(fitted_pipeline, cache_size=512), delta_t=3600.0
        )
        one_by_one = StreamScorer(
            ColocationEngine(fitted_pipeline, cache_size=512), delta_t=3600.0
        )
        tweets = stream_tweets(batched.engine.registry)
        got = batched.process_many(tweets)
        expected = [s for tweet in sorted(tweets, key=lambda t: t.ts) for s in one_by_one.process(tweet)]
        assert got
        assert len(got) == len(expected)
        for left, right in zip(got, expected):
            assert left.pair.left.uid == right.pair.left.uid
            assert left.pair.right.uid == right.pair.right.uid
            assert left.probability == pytest.approx(right.probability, abs=1e-12)
        # the groups really coalesced: fewer engine calls than scoring tweets
        ts_groups = {t.ts for t in tweets}
        assert len(ts_groups) < len(tweets)

    def test_incremental_flag_by_engine_type(self, fitted_pipeline, small_registry):
        from repro.api import ColocationEngine
        from repro.cluster import MicroBatcher
        from repro.service import StreamScorer

        engine = ColocationEngine(fitted_pipeline, cache_size=64)
        assert StreamScorer(engine).incremental
        assert not StreamScorer(engine, incremental=False).incremental
        # a batcher front walks down to its seedable engine
        with MicroBatcher(engine, max_delay_ms=1.0) as batcher:
            assert StreamScorer(batcher).incremental
        # a judge with no feature-level surface cannot be seeded
        assert not StreamScorer(_StubJudge(), registry=small_registry).incremental

    def test_worker_pool_falls_back_to_scratch(self, fitted_pipeline):
        """The pool's featurizers live in worker processes: no seeding, same
        scores."""
        from repro.cluster import WorkerPool
        from repro.service import StreamScorer

        with WorkerPool(fitted_pipeline, num_workers=1, cache_size=512) as pool:
            scorer = StreamScorer(pool, delta_t=3600.0)
            assert scorer.engine is pool  # resolve_engine must not re-wrap it
            assert not scorer.incremental
            tweets = stream_tweets(pool.registry, n=12)
            got = [s for tweet in tweets for s in scorer.process(tweet)]
        from repro.api import ColocationEngine

        reference = StreamScorer(
            ColocationEngine(fitted_pipeline, cache_size=512),
            delta_t=3600.0,
            incremental=False,
        )
        expected = [
            s
            for tweet in stream_tweets(reference.engine.registry, n=12)
            for s in reference.process(tweet)
        ]
        assert_scored_equal(got, expected)

    def test_seeding_skips_the_history_kernel(self, fitted_pipeline, monkeypatch):
        """The seeded featurizer serves its history rows from the warm memo —
        the engine's gather never runs the scratch Eq. (1)-(2) kernel."""
        from repro.api import ColocationEngine
        from repro.service import StreamScorer

        engine = ColocationEngine(fitted_pipeline, cache_size=512)
        scorer = StreamScorer(engine, delta_t=3600.0)
        assert scorer.incremental
        history = fitted_pipeline.judge.featurizer.history_featurizer
        calls = []
        original = history.featurize_batch
        monkeypatch.setattr(
            history,
            "featurize_batch",
            lambda profiles: calls.append(len(profiles)) or original(profiles),
        )
        for tweet in stream_tweets(engine.registry, n=10):
            scorer.process(tweet)
        # every history row came from the delta tracker's seeded memo; the
        # scratch batch kernel never ran (visit_rows is the delta's own path)
        assert calls == []
