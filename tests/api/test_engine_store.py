"""Engine-level tests for the pluggable feature store and the arena cold tier."""

import numpy as np
import pytest

from repro.api import ColocationEngine
from repro.errors import ConfigurationError
from repro.store import HotStore, TieredStore


class CountingFeaturizer:
    """Temporarily counts profile rows through ``featurizer.featurize``."""

    def __init__(self, featurizer):
        self.featurizer = featurizer
        self.rows = 0
        self._original = featurizer.featurize

    def __enter__(self):
        def counting(profiles):
            self.rows += len(profiles)
            return self._original(profiles)

        self.featurizer.featurize = counting
        return self

    def __exit__(self, *exc):
        self.featurizer.featurize = self._original
        return False


@pytest.fixture()
def profiles(tiny_dataset):
    return tiny_dataset.train.labeled_profiles[:12]


class TestStoreWiring:
    def test_engine_defaults_to_a_tiered_store_without_cold_tier(self, fitted_pipeline):
        engine = ColocationEngine(fitted_pipeline, cache_size=8)
        assert isinstance(engine.store, TieredStore)
        assert engine.store.cold is None
        assert engine.cache_size == 8

    def test_explicit_store_wins_over_cache_size(self, fitted_pipeline):
        store = TieredStore(HotStore(3))
        engine = ColocationEngine(fitted_pipeline, cache_size=999, store=store)
        assert engine.store is store
        assert engine.cache_size == 3

    def test_store_and_arena_dir_are_mutually_exclusive(self, fitted_pipeline, tmp_path):
        with pytest.raises(ConfigurationError):
            ColocationEngine(
                fitted_pipeline, store=TieredStore(HotStore(3)), arena_dir=tmp_path
            )

    def test_store_export_import_round_trip(self, fitted_pipeline, profiles):
        source = ColocationEngine(fitted_pipeline, cache_size=64)
        source.warm(profiles)
        exported = source.store.export()
        assert len(exported) == source.cache_info().size
        target = ColocationEngine(fitted_pipeline, cache_size=64)
        assert target.store.import_rows(exported) == len(exported)
        assert target.cache_info().misses == 0


class TestArenaTiering:
    def test_tier_traffic_reaches_cache_info(self, fitted_pipeline, profiles, tmp_path):
        engine = ColocationEngine(fitted_pipeline, cache_size=4, arena_dir=tmp_path)
        featurized = engine.warm(profiles)
        assert featurized == len(profiles)
        info = engine.cache_info()
        # The hot tier overflowed, but nothing was lost: every spill demoted.
        assert info.size == 4
        assert info.cold_size == len(profiles)
        assert info.evictions == info.demotions == len(profiles) - 4
        # Rows that fell out of RAM come back from the arena, not the judge.
        with CountingFeaturizer(fitted_pipeline.featurizer) as counter:
            engine.features(profiles)
        assert counter.rows == 0
        info = engine.cache_info()
        assert info.cold_hits > 0 and info.promotions > 0
        assert info.hits == info.hot_hits + info.cold_hits

    def test_restarted_engine_serves_from_the_arena_without_featurizing(
        self, fitted_pipeline, profiles, tmp_path
    ):
        first = ColocationEngine(fitted_pipeline, cache_size=64, arena_dir=tmp_path)
        reference = first.features(profiles)
        first.close()

        restarted = ColocationEngine(fitted_pipeline, cache_size=64, arena_dir=tmp_path)
        with CountingFeaturizer(fitted_pipeline.featurizer) as counter:
            rows = restarted.features(profiles)
        assert counter.rows == 0  # the whole warm set came off disk
        assert np.array_equal(rows, reference)
        info = restarted.cache_info()
        assert info.misses == 0
        assert info.hit_rate == 1.0
        assert info.cold_hits == len(profiles)

    def test_invalidation_reaches_the_arena(self, fitted_pipeline, profiles, tmp_path):
        engine = ColocationEngine(fitted_pipeline, cache_size=64, arena_dir=tmp_path)
        engine.warm(profiles)
        victim = profiles[0].uid
        assert engine.invalidate([victim]) >= 1
        engine.close()
        # A restart cannot resurrect the invalidated user's rows.
        restarted = ColocationEngine(fitted_pipeline, cache_size=64, arena_dir=tmp_path)
        restarted.features(profiles)
        # Only the invalidated user's profiles re-featurize (logical count —
        # the physical featurizer may pad tiny chunks).
        refeaturized = sum(1 for p in profiles if p.uid == victim)
        assert restarted.cache_info().featurized == refeaturized

    def test_merge_carries_tier_counters(self, fitted_pipeline, profiles, tmp_path):
        from repro.api.engine import EngineCacheInfo

        engine = ColocationEngine(fitted_pipeline, cache_size=2, arena_dir=tmp_path)
        engine.warm(profiles)
        engine.features(profiles)
        merged = EngineCacheInfo.merge([engine.cache_info(), engine.cache_info()])
        info = engine.cache_info()
        assert merged.cold_hits == 2 * info.cold_hits
        assert merged.demotions == 2 * info.demotions
        assert merged.cold_size == 2 * info.cold_size
