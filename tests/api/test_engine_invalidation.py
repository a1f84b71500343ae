"""Engine-level cache invalidation lifecycle.

Revision-exact keys already guarantee a stale row can never be *served* —
invalidation is the explicit hygiene/accounting surface on top: ``invalidate``
reclaims a mutated user's resident rows, ``invalidate_stale`` sweeps
superseded revisions, and every drop is visible both cumulatively
(``cache_info().invalidated``) and per call (the next gather's
``CallCacheStats.invalidated`` drains the pending bucket into the
:class:`repro.api.JudgeResponse`).
"""

import dataclasses

import pytest

from repro.api import ColocationEngine, JudgeRequest


@pytest.fixture()
def engine(fitted_pipeline):
    return ColocationEngine(fitted_pipeline, cache_size=1024)


@pytest.fixture(scope="module")
def pairs(tiny_dataset):
    pairs = list(tiny_dataset.test.labeled_pairs) + list(tiny_dataset.train.labeled_pairs)
    return pairs[:12]


@pytest.fixture(scope="module")
def profiles(pairs):
    seen, out = set(), []
    for pair in pairs:
        for profile in (pair.left, pair.right):
            if id(profile) not in seen:
                seen.add(id(profile))
                out.append(profile)
    return out


class TestInvalidate:
    def test_cold_cache_drops_nothing(self, engine, profiles):
        assert engine.invalidate([p.uid for p in profiles]) == 0
        assert engine.cache_info().invalidated == 0

    def test_drops_exactly_the_users_rows(self, engine, profiles):
        engine.warm(profiles)
        before = engine.cache_info()
        victim = profiles[0].uid
        dropped = engine.invalidate([victim])
        assert dropped >= 1
        info = engine.cache_info()
        assert info.size == before.size - dropped
        assert info.invalidated == dropped
        # other users' rows are untouched: re-warming only re-featurizes the victim
        assert engine.warm(profiles) == dropped

    def test_unknown_uid_is_a_noop(self, engine, profiles):
        engine.warm(profiles)
        size = engine.cache_info().size
        assert engine.invalidate([10**9]) == 0
        assert engine.cache_info().size == size

    def test_next_lookup_refeaturizes(self, engine, pairs, profiles):
        engine.predict_proba(pairs)
        victim = pairs[0].left.uid
        dropped = engine.invalidate([victim])
        assert dropped >= 1
        info_before = engine.cache_info()
        engine.predict_proba(pairs)
        info_after = engine.cache_info()
        assert info_after.featurized == info_before.featurized + dropped

    def test_clear_cache_clears_the_index_too(self, engine, profiles):
        engine.warm(profiles)
        engine.clear_cache()
        # nothing resident, so nothing to invalidate — the index must agree
        assert engine.invalidate([p.uid for p in profiles]) == 0


class TestInvalidateStale:
    def test_superseded_revision_is_swept(self, engine, profiles):
        profile = profiles[0]
        successor = dataclasses.replace(profile, revision=(profile.revision or 0) + 7)
        engine.warm([profile])
        assert engine.invalidate_stale() == 0  # single revision: nothing stale
        engine.warm([successor])
        assert engine.invalidate_stale() == 1  # the older generation goes
        # the survivor is the successor: re-warming it featurizes nothing
        assert engine.warm([successor]) == 0
        assert engine.warm([profile]) == 1  # the old row is really gone

    def test_unrevisioned_rows_are_never_stale(self, engine, profiles):
        unrevisioned = dataclasses.replace(profiles[0], revision=None)
        revised = dataclasses.replace(profiles[0], revision=99)
        engine.warm([unrevisioned, revised])
        assert engine.invalidate_stale() == 0
        assert engine.cache_info().size == 2


class TestPerCallAccounting:
    def test_serve_after_invalidate_reports_the_drops(self, engine, pairs):
        request = JudgeRequest(pairs=tuple(pairs))
        engine.serve(request)
        dropped = engine.invalidate([pairs[0].left.uid, pairs[0].right.uid])
        assert dropped >= 1
        response = engine.serve(request)
        assert response.cache_invalidated == dropped
        # the bucket drains: the following call observed no invalidation
        assert engine.serve(request).cache_invalidated == 0

    def test_multiple_invalidations_accumulate_until_drained(self, engine, pairs):
        request = JudgeRequest(pairs=tuple(pairs))
        engine.serve(request)
        first = engine.invalidate([pairs[0].left.uid])
        second = engine.invalidate([pairs[1].left.uid])
        total = first + second
        assert total >= 2
        assert engine.serve(request).cache_invalidated == total

    def test_cumulative_counter_survives_the_drain(self, engine, pairs):
        request = JudgeRequest(pairs=tuple(pairs))
        engine.serve(request)
        dropped = engine.invalidate([pairs[0].left.uid])
        engine.serve(request)
        engine.serve(request)
        assert engine.cache_info().invalidated == dropped


class TestImportedRowsAreInvalidatable:
    def test_import_registers_keys_with_the_index(self, fitted_pipeline, profiles):
        source = ColocationEngine(fitted_pipeline, cache_size=1024)
        source.warm(profiles)
        target = ColocationEngine(fitted_pipeline, cache_size=1024)
        imported = target.store.import_rows(source.store.export())
        assert imported == source.cache_info().size
        victim = profiles[0].uid
        assert target.invalidate([victim]) == source.invalidate([victim])
