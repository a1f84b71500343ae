"""One decision path, three transports — the shared serving parity suite.

Every judgement surface is served by a single :class:`repro.api.JudgementCore`
behind three transports: the single :class:`ColocationEngine`, the
request-coalescing :class:`MicroBatcher` in front of one, and the process-tier
:class:`WorkerPool` (worker processes rebuilt from the judge's save/load
bundle, gathered over the binary wire protocol).  This suite parametrizes over
the transports and pins the correctness contract once, instead of
hand-mirroring it per path:

* engine and workers agree **bit-for-bit** (their gathers produce
  identical rows — save/load restores exactly, the wire moves raw float64
  bytes — and they share the scorer's exact chunking);
* the batcher may drift by last-mantissa-bit coalescing noise only
  (<= 1e-12) because a flush scores many requests as one BLAS call of a
  different shape — decisions and thresholds still match exactly.
"""

import dataclasses

import numpy as np
import pytest

from repro.api import ColocationEngine, JudgeRequest
from repro.cluster import MicroBatcher, WorkerPool
from repro.data.records import Pair, Visit
from repro.obs import (
    STAGE_GATHER,
    STAGE_QUEUE_WAIT,
    STAGE_SCORE,
    STAGE_WIRE_RTT,
    STAGE_WIRE_SERIALIZE,
    STAGES,
    tracing,
)

#: Transports whose probabilities must match the reference bit-for-bit.
EXACT = {"engine", "workers"}
#: Largest |Δ probability| the batcher's shape-dependent coalescing may add.
COALESCE_ATOL = 1e-12


@pytest.fixture(scope="module")
def reference(fitted_pipeline):
    """The plain single engine every path is compared against."""
    return ColocationEngine(fitted_pipeline, cache_size=1024)


@pytest.fixture(scope="module", params=["engine", "batcher", "workers"])
def serving_path(request, fitted_pipeline):
    """(name, transport) for each of the three serving paths."""
    if request.param == "engine":
        yield request.param, ColocationEngine(fitted_pipeline, cache_size=1024)
    elif request.param == "workers":
        with WorkerPool(fitted_pipeline, num_workers=2, cache_size=1024) as pool:
            yield request.param, pool
    else:
        engine = ColocationEngine(fitted_pipeline, cache_size=1024)
        with MicroBatcher(engine, max_delay_ms=2.0, overflow="block") as batcher:
            yield request.param, batcher


@pytest.fixture(scope="module")
def test_pairs(tiny_dataset):
    pairs = tiny_dataset.test.labeled_pairs or tiny_dataset.train.labeled_pairs
    return pairs[:20]


def assert_probabilities_agree(name, actual, expected):
    if name in EXACT:
        np.testing.assert_array_equal(np.asarray(actual), np.asarray(expected))
    else:
        np.testing.assert_allclose(
            np.asarray(actual), np.asarray(expected), atol=COALESCE_ATOL
        )


class TestParity:
    def test_predict_proba(self, serving_path, reference, test_pairs):
        name, path = serving_path
        assert_probabilities_agree(
            name, path.predict_proba(test_pairs), reference.predict_proba(test_pairs)
        )

    def test_predict(self, serving_path, reference, test_pairs):
        name, path = serving_path
        if name == "batcher":
            pytest.skip("the batcher's decision front door is serve()")
        np.testing.assert_array_equal(path.predict(test_pairs), reference.predict(test_pairs))

    def test_probability_matrix(self, serving_path, reference, tiny_dataset):
        name, path = serving_path
        profiles = tiny_dataset.train.labeled_profiles[:9]
        assert_probabilities_agree(
            name, path.probability_matrix(profiles), reference.probability_matrix(profiles)
        )

    @pytest.mark.parametrize("threshold", [None, 0.25, 0.9])
    def test_serve(self, serving_path, reference, test_pairs, threshold):
        name, path = serving_path
        request = JudgeRequest(pairs=tuple(test_pairs), threshold=threshold)
        response = path.serve(request)
        expected = reference.serve(request)
        assert_probabilities_agree(name, response.probabilities, expected.probabilities)
        assert response.decisions == expected.decisions
        assert response.threshold == expected.threshold

    def test_serve_empty_request(self, serving_path, reference):
        name, path = serving_path
        response = path.serve(JudgeRequest(pairs=()))
        assert response.probabilities == ()
        assert response.decisions == ()
        assert response.threshold == reference.threshold

    def test_empty_inputs(self, serving_path):
        name, path = serving_path
        assert path.predict_proba([]).shape == (0,)
        assert path.probability_matrix([]).shape == (0, 0)


class TestMutationParity:
    """Live-mutation parity: transports serve mutated users like a fresh engine.

    A seeded sequence of profile mutations — visits appended, capped histories
    sliding, revisions bumping, explicit invalidations interleaved — must
    leave every transport answering exactly like a freshly-built single
    engine that never cached anything.  This is the contract that makes the
    revisioned key + invalidation machinery safe to run under live traffic.
    """

    MAX_HISTORY = 4

    @staticmethod
    def _mutate(profile, visit_pool, rng, step):
        """One live mutation: append a visit (capped) and bump the revision."""
        template = visit_pool[int(rng.integers(len(visit_pool)))]
        new_visit = Visit(ts=profile.ts + 30.0 * (step + 1), lat=template.lat, lon=template.lon)
        history = (profile.visit_history + (new_visit,))[-TestMutationParity.MAX_HISTORY:]
        tweet = dataclasses.replace(profile.tweet, ts=profile.ts + 60.0 * (step + 1))
        return dataclasses.replace(
            profile,
            tweet=tweet,
            visit_history=history,
            revision=(profile.revision or 0) + 1,
        )

    def test_seeded_mutation_sequence_matches_a_fresh_engine(
        self, serving_path, fitted_pipeline, tiny_dataset
    ):
        name, path = serving_path
        fresh = ColocationEngine(fitted_pipeline, cache_size=0)
        profiles = {p.uid: p for p in tiny_dataset.train.labeled_profiles[:12]}
        visit_pool = [
            visit
            for p in tiny_dataset.train.labeled_profiles
            for visit in p.visit_history
        ]
        rng = np.random.default_rng(42)
        uids = sorted(profiles)
        for step in range(4):
            mutated_uids = rng.choice(uids, size=4, replace=False)
            for uid in mutated_uids:
                profiles[uid] = self._mutate(profiles[uid], visit_pool, rng, step)
            # the mutation traffic a live deployment would send alongside
            path.invalidate([int(uid) for uid in mutated_uids])
            if step % 2:
                path.invalidate_stale()
            current = [profiles[uid] for uid in uids]
            pairs = [
                Pair(current[i], current[(i + 1 + step) % len(current)])
                for i in range(len(current))
            ]
            assert_probabilities_agree(
                name, path.predict_proba(pairs), fresh.predict_proba(pairs)
            )

    def test_mutated_user_is_served_fresh_without_invalidation(
        self, serving_path, fitted_pipeline, tiny_dataset
    ):
        """Revision-exact keys alone prevent stale serving — even when nobody
        calls invalidate, the bumped-revision profile misses the cache."""
        name, path = serving_path
        fresh = ColocationEngine(fitted_pipeline, cache_size=0)
        profiles = tiny_dataset.train.labeled_profiles[:6]
        visit_pool = [v for p in tiny_dataset.train.labeled_profiles for v in p.visit_history]
        rng = np.random.default_rng(7)
        pairs = [Pair(profiles[i], profiles[(i + 1) % 6]) for i in range(6)]
        path.predict_proba(pairs)  # warm the old generation into the caches
        mutated = [self._mutate(p, visit_pool, rng, 0) for p in profiles]
        mutated_pairs = [Pair(mutated[i], mutated[(i + 1) % 6]) for i in range(6)]
        assert_probabilities_agree(
            name, path.predict_proba(mutated_pairs), fresh.predict_proba(mutated_pairs)
        )


class TestCoalescedServes:
    def test_concurrent_serve_requests_match_the_reference(
        self, reference, fitted_pipeline, test_pairs
    ):
        """A burst of mixed-threshold serves through one batcher flush agrees
        with per-request reference serving to coalescing precision."""
        requests = [
            JudgeRequest(
                pairs=tuple(
                    test_pairs[(i + offset) % len(test_pairs)] for offset in range(4)
                ),
                threshold=[None, 0.3, 0.7][i % 3],
            )
            for i in range(8)
        ]
        engine = ColocationEngine(fitted_pipeline, cache_size=1024)
        with MicroBatcher(engine, max_delay_ms=25.0, overflow="block") as batcher:
            futures = [batcher.submit_serve(request) for request in requests]
            responses = [future.result(timeout=30) for future in futures]
        for request, response in zip(requests, responses):
            expected = reference.serve(request)
            np.testing.assert_allclose(
                np.asarray(response.probabilities),
                np.asarray(expected.probabilities),
                atol=COALESCE_ATOL,
            )
            assert response.threshold == expected.threshold
            # Explicit-threshold decisions cut coalesced probabilities, so a
            # flip is legitimate only at an exact threshold graze (see
            # JudgementCore.serve_batch); anywhere else it is a divergence.
            for decision, expected_decision, probability in zip(
                response.decisions, expected.decisions, expected.probabilities
            ):
                assert (
                    decision == expected_decision
                    or abs(probability - expected.threshold) <= COALESCE_ATOL
                )


class TestTraceParity:
    """Trace propagation: one stage taxonomy across all three transports.

    With tracing enabled, every transport's ``serve`` attaches a trace whose
    stages are drawn from the single canonical taxonomy — no transport
    invents private stage names, and each reports at least the stages its
    architecture implies.  Untraced serving attaches nothing (and pays
    nothing).
    """

    #: Stages each transport must report on a cold-ish serve.
    REQUIRED = {
        "engine": {STAGE_GATHER, STAGE_SCORE},
        "batcher": {STAGE_QUEUE_WAIT, STAGE_GATHER, STAGE_SCORE},
        "workers": {STAGE_WIRE_SERIALIZE, STAGE_WIRE_RTT, STAGE_GATHER, STAGE_SCORE},
    }

    def test_serve_reports_the_shared_stage_taxonomy(self, serving_path, test_pairs):
        name, path = serving_path
        with tracing():
            response = path.serve(JudgeRequest(pairs=tuple(test_pairs)))
        trace = response.trace
        assert trace is not None
        assert isinstance(trace["trace_id"], str) and trace["trace_id"]
        stages = {stage for stage, _ in trace["stages"]}
        assert stages <= STAGES, f"{name} invented stages {stages - STAGES}"
        assert self.REQUIRED[name] <= stages
        assert all(duration >= 0.0 for _, duration in trace["stages"])

    def test_traced_probabilities_still_agree(self, serving_path, reference, test_pairs):
        """Instrumentation is timing-only: traced results match untraced."""
        name, path = serving_path
        request = JudgeRequest(pairs=tuple(test_pairs))
        expected = reference.serve(request)
        with tracing():
            response = path.serve(request)
        assert_probabilities_agree(name, response.probabilities, expected.probabilities)
        assert response.decisions == expected.decisions

    def test_untraced_serving_attaches_no_trace(self, serving_path, test_pairs):
        _, path = serving_path
        response = path.serve(JudgeRequest(pairs=tuple(test_pairs)))
        assert response.trace is None

    def test_trace_round_trips_the_response_payload(self, serving_path, test_pairs):
        from repro.api import JudgeResponse

        _, path = serving_path
        with tracing():
            response = path.serve(JudgeRequest(pairs=tuple(test_pairs)))
        decoded = JudgeResponse.from_dict(response.to_dict())
        assert decoded.trace == response.trace
        untraced = path.serve(JudgeRequest(pairs=tuple(test_pairs)))
        assert "trace" not in untraced.to_dict()  # old payloads stay byte-identical
