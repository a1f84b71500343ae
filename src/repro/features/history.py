"""Historical-visit features (paper Section 4.1).

``HistoricalVisitFeaturizer`` implements Eq. (1)-(2): each visit ``v`` in a
profile's history contributes a spatial-relevance vector
``w(v)_i = eps_d / (eps_d + d(v, p_i))`` over all POIs, weighted by the
temporal-decay coefficient ``eps_t / (eps_t + r.ts - v.ts)``; the weighted sum
is L2-normalised.  Profiles with no history get the uniform vector, so the
model copes with timelines that contain no POI tweet.

``OneHotHistoryFeaturizer`` is the alternative the paper compares against
(the *One-hot* approach): a normalised visit-count vector over POI identities
that ignores visit recency and discards visits falling outside every POI.

Batch featurization contract
----------------------------
Each featurizer exposes two entry points with one semantics:

* ``featurize(profile)`` — the per-profile **reference implementation**, a
  plain Python loop over the visit history.  It defines what the feature *is*.
* ``featurize_batch(profiles)`` — the vectorised fast path used by every
  serving/training layer.  It flattens all visits of the batch into coordinate
  and timestamp arrays, runs one broadcast distance (or containment) pass over
  the whole batch, and segment-sums per profile.

``featurize_batch`` must agree with stacking ``featurize`` per profile
bitwise-or-epsilon (within a few float64 ulps; the equivalence tests in
``tests/features/test_history_batch.py`` pin this to ``1e-9``).  Any change to
one path must be mirrored in the other — the scalar loop is the spec, the
batch path is the optimisation.

Delta featurization contract
----------------------------
Live serving mutates one visit at a time, and recomputing a whole capped
history per mutation wastes exactly the work the mutation did *not* change.
The delta path splits Eq. (1)-(2) at the only seam the temporal decay allows:
the **spatial** relevance row of a visit (``eps_d / (eps_d + d(v, p_i))``, or
the one-hot indicator row) never changes once the visit exists, while the
**temporal** weight ``eps_t / (eps_t + r.ts - v.ts)`` changes with every new
reference timestamp.  The incremental state is therefore the per-visit
relevance matrix, not the summed feature row:

* ``visit_rows(visits)`` — the spatial relevance rows of a list of visits,
  one kernel call, independent of any reference timestamp;
* ``update_delta(prev, added, removed)`` — append the ``added`` visits' rows
  and drop the ``removed`` oldest (a capped history evicting), touching only
  the changed visits;
* ``delta_row(state, ref_ts)`` — re-weight the retained rows by temporal
  decay at ``ref_ts``, segment-sum and L2-normalise: O(|history|) cheap ops,
  no distance/containment kernel;
* ``featurize_delta(prev, added, removed, ref_ts=...)`` — the two above in
  one call, returning ``(feature_row, new_state)``.

Because ``visit_rows`` runs the *same* elementwise kernels as
``featurize_batch`` (each visit's row is independent of its batch companions)
and ``delta_row`` sums with the same ``np.add.reduceat``, the delta row is
**bit-identical** to the scratch batch row for the same history — the tests
pin ``<= 1e-9`` but the paths agree exactly, which is what lets
:class:`repro.service.stream.StreamScorer` seed serving caches with delta
rows without breaking the serving transports' bit-for-bit parity contract.
The **batched** read path (``delta_rows``, ``HistoryDeltaTracker.rows_for``)
is the one deliberate exception: equal-length batches sum via one batched
matmul instead of ``reduceat`` — an order of magnitude faster per tick — so
batch rows may differ from scratch in summation order only (``<= 1e-9``
pinned, ~1e-16 observed); callers that need bit-identity read per row.
``HistoryDeltaTracker`` maintains the per-user states mirroring an
:class:`repro.service.stream.OnlineProfileBuilder`'s capped deques.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.records import Profile, Visit
from repro.geo.poi import POIRegistry


@dataclass
class HistoryFeatureConfig:
    """Smoothing factors of Eq. (1)-(2).

    ``eps_d`` is in metres (paper: 1000 m); ``eps_t`` is in seconds (the paper
    does not report its value; one day keeps same-day visits influential while
    discounting older ones).
    """

    eps_d: float = 1000.0
    eps_t: float = 86_400.0


def _uniform_row(dimension: int) -> np.ndarray:
    """The unit-norm uniform fallback row shared by both featurizers."""
    uniform = np.ones(dimension)
    return uniform / np.linalg.norm(uniform)


def _flatten_histories(
    profiles: list[Profile],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flatten the visit histories of a batch into aligned coordinate arrays.

    Returns ``(counts, lats, lons, ts, ref_ts)`` where ``counts[b]`` is the
    number of visits of profile ``b`` and the other arrays hold one entry per
    visit, in batch order (all visits of profile 0, then profile 1, ...).
    ``ref_ts`` repeats each profile's own timestamp per visit, ready for the
    temporal-decay computation.
    """
    counts = np.array([len(p.visit_history) for p in profiles], dtype=np.int64)
    visits = [visit for profile in profiles for visit in profile.visit_history]
    ts = np.array([v.ts for v in visits], dtype=np.float64)
    lats = np.array([v.lat for v in visits], dtype=np.float64)
    lons = np.array([v.lon for v in visits], dtype=np.float64)
    ref_ts = np.repeat(np.array([p.ts for p in profiles], dtype=np.float64), counts)
    return counts, lats, lons, ts, ref_ts


def _normalize_rows(rows: np.ndarray, uniform: np.ndarray) -> np.ndarray:
    """L2-normalise each row in place; zero-norm rows become the uniform vector."""
    norms = np.linalg.norm(rows, axis=1)
    zero = norms == 0.0
    norms[zero] = 1.0
    rows /= norms[:, None]
    rows[zero] = uniform
    return rows


@dataclass
class HistoryDeltaState:
    """The incremental Eq. (1)-(2) state of one visit history.

    ``ts[i]`` and ``rows[i]`` are the timestamp and spatial relevance row of
    the ``i``-th retained visit, oldest first — exactly the order the batch
    path sums in.  The state is reference-timestamp-free: temporal decay is
    applied by :meth:`delta_row` at query time, which is what makes the state
    reusable as the profile's recent tweet advances.
    """

    ts: np.ndarray
    rows: np.ndarray

    def __len__(self) -> int:
        return len(self.ts)


def _delta_update(
    prev: HistoryDeltaState | None,
    added_ts: np.ndarray,
    added_rows: np.ndarray,
    removed: int,
    dimension: int,
) -> HistoryDeltaState:
    """Shared ``update_delta`` body: drop the ``removed`` oldest, append the new."""
    if removed < 0:
        raise ValueError("removed must be non-negative")
    if prev is None:
        ts = np.empty(0, dtype=np.float64)
        rows = np.empty((0, dimension))
    else:
        ts, rows = prev.ts, prev.rows
    if removed > len(ts):
        raise ValueError(f"cannot remove {removed} visits from a history of {len(ts)}")
    if removed:
        ts, rows = ts[removed:], rows[removed:]
    if len(added_ts):
        ts = np.concatenate([ts, added_ts])
        rows = np.concatenate([rows, added_rows])
    # Slices/concatenations may share memory with ``prev`` — states are never
    # mutated in place, so views are safe and keep eviction O(1) in copies.
    return HistoryDeltaState(ts=ts, rows=rows)


class HistoricalVisitFeaturizer:
    """The paper's temporal-spatial history feature ``Fv(r)`` (Eq. 1-2)."""

    def __init__(self, registry: POIRegistry, config: HistoryFeatureConfig | None = None):
        self.registry = registry
        self.config = config or HistoryFeatureConfig()
        if self.config.eps_d <= 0 or self.config.eps_t <= 0:
            raise ValueError("smoothing factors must be positive")

    @property
    def feature_dim(self) -> int:
        """Feature dimensionality — one entry per POI."""
        return len(self.registry)

    @property
    def dimension(self) -> int:
        """Alias of :attr:`feature_dim` (kept for backwards compatibility)."""
        return self.feature_dim

    def visit_relevance(self, lat: float, lon: float) -> np.ndarray:
        """The spatial-relevance vector ``w(v)`` of Eq. (1) for one visit."""
        distances = self.registry.distances_from(lat, lon)
        return self.config.eps_d / (self.config.eps_d + distances)

    def featurize(self, profile: Profile) -> np.ndarray:
        """``Fv(r)`` for one profile — the batch path's reference semantics."""
        if not profile.visit_history:
            return _uniform_row(self.feature_dim)
        accumulated = np.zeros(self.feature_dim)
        for visit in profile.visit_history:
            age = max(0.0, profile.ts - visit.ts)
            temporal_weight = self.config.eps_t / (self.config.eps_t + age)
            accumulated += temporal_weight * self.visit_relevance(visit.lat, visit.lon)
        norm = np.linalg.norm(accumulated)
        if norm == 0.0:
            return _uniform_row(self.feature_dim)
        return accumulated / norm

    def featurize_batch(self, profiles: list[Profile]) -> np.ndarray:
        """``Fv`` for a batch of profiles as one broadcast computation, ``(B, |P|)``.

        All visits of the batch are scored against every POI in a single
        ``(total_visits, |P|)`` relevance matrix, temporal-decay weights are
        applied vectorially and per-profile rows come out of one segment sum
        (``np.add.reduceat`` over the profile offsets) — no per-visit Python
        round-trips.  Matches the scalar :meth:`featurize` loop per the module
        contract.
        """
        out = np.empty((len(profiles), self.feature_dim))
        if not profiles:
            return out
        uniform = _uniform_row(self.feature_dim)
        counts, lats, lons, ts, ref_ts = _flatten_histories(profiles)
        if len(lats) == 0:
            out[:] = uniform
            return out
        ages = np.maximum(0.0, ref_ts - ts)
        temporal_weights = self.config.eps_t / (self.config.eps_t + ages)
        # In-place on the big (total_visits, |P|) buffer: relevance
        # eps_d / (eps_d + d), then the temporal weight per visit row.
        weighted = self.registry.distances_from_many(lats, lons)
        weighted += self.config.eps_d
        np.divide(self.config.eps_d, weighted, out=weighted)
        weighted *= temporal_weights[:, None]
        # reduceat cannot express zero-length segments (it would return the
        # next row instead of zero), so sum only the non-empty profiles and
        # give the empty ones the uniform fallback directly.
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        nonempty = counts > 0
        sums = np.add.reduceat(weighted, offsets[nonempty], axis=0)
        out[nonempty] = _normalize_rows(sums, uniform)
        out[~nonempty] = uniform
        return out

    # ------------------------------------------------------------- delta path
    def visit_rows(self, visits: "list[Visit]") -> np.ndarray:
        """Spatial relevance rows ``w(v)`` for a list of visits, ``(V, |P|)``.

        Runs the same elementwise kernel as :meth:`featurize_batch` before its
        temporal re-weighting, so each row is bit-identical to the one the
        scratch batch would compute for the same visit.
        """
        if not visits:
            return np.empty((0, self.feature_dim))
        lats = np.array([v.lat for v in visits], dtype=np.float64)
        lons = np.array([v.lon for v in visits], dtype=np.float64)
        rows = self.registry.distances_from_many(lats, lons)
        rows += self.config.eps_d
        np.divide(self.config.eps_d, rows, out=rows)
        return rows

    def empty_delta(self) -> HistoryDeltaState:
        """The delta state of an empty visit history."""
        return HistoryDeltaState(
            ts=np.empty(0, dtype=np.float64), rows=np.empty((0, self.feature_dim))
        )

    def update_delta(
        self,
        prev: HistoryDeltaState | None,
        added: "list[Visit]" = (),
        removed: int = 0,
    ) -> HistoryDeltaState:
        """Apply a history mutation to the delta state, touching only the delta.

        ``added`` visits are appended (one :meth:`visit_rows` kernel call for
        just those visits); the ``removed`` oldest retained visits are dropped
        (a capped history evicting).  ``prev=None`` starts from an empty
        history.
        """
        added = list(added)
        added_ts = np.array([v.ts for v in added], dtype=np.float64)
        return _delta_update(prev, added_ts, self.visit_rows(added), removed, self.feature_dim)

    def delta_row(self, state: HistoryDeltaState, ref_ts: float) -> np.ndarray:
        """``Fv`` at reference timestamp ``ref_ts`` from the delta state.

        Temporal decay, segment sum and normalisation only — no distance
        kernel.  Bit-identical to :meth:`featurize_batch` on the equivalent
        profile (same elementwise weighting, same ``np.add.reduceat`` sum).
        """
        uniform = _uniform_row(self.feature_dim)
        if len(state) == 0:
            return uniform
        ages = np.maximum(0.0, ref_ts - state.ts)
        temporal_weights = self.config.eps_t / (self.config.eps_t + ages)
        weighted = state.rows * temporal_weights[:, None]
        sums = np.add.reduceat(weighted, np.array([0]), axis=0)
        return _normalize_rows(sums, uniform)[0]

    def featurize_delta(
        self,
        prev: HistoryDeltaState | None,
        added: "list[Visit]" = (),
        removed: int = 0,
        *,
        ref_ts: float = 0.0,
    ) -> tuple[np.ndarray, HistoryDeltaState]:
        """Incrementally updated ``(feature_row, new_state)`` after a mutation.

        Equivalent to rebuilding the profile and calling :meth:`featurize` /
        :meth:`featurize_batch` from scratch (the scalar loop remains the
        pinned reference), at the cost of the mutation instead of the history.
        """
        state = self.update_delta(prev, added, removed)
        return self.delta_row(state, ref_ts), state

    def delta_rows(
        self, states: "list[HistoryDeltaState]", ref_ts: np.ndarray
    ) -> np.ndarray:
        """``Fv`` rows for a batch of delta states at per-state timestamps.

        The batched :meth:`delta_row`: all retained relevance rows concatenate
        into one matrix, temporal weights apply vectorially and the per-state
        rows come out of one segment sum — the same shape of computation as
        :meth:`featurize_batch` minus the distance kernel.  When every state
        holds the same number of visits (the steady state of a capped live
        workload) the segment sum becomes one batched matmul, an order of
        magnitude faster than ``np.add.reduceat``; the matmul reassociates
        the additions, so batch rows may differ from scratch in summation
        order only — well inside the ``1e-9`` row tolerance the live-profile
        bench pins (``delta_row`` / ``featurize_delta`` remain bit-identical).
        """
        out = np.empty((len(states), self.feature_dim))
        if not states:
            return out
        uniform = _uniform_row(self.feature_dim)
        counts = np.array([len(state) for state in states], dtype=np.int64)
        if counts.sum() == 0:
            out[:] = uniform
            return out
        ts = np.concatenate([state.ts for state in states])
        rows = np.concatenate([state.rows for state in states])
        ages = np.maximum(0.0, np.repeat(np.asarray(ref_ts, dtype=np.float64), counts) - ts)
        temporal_weights = self.config.eps_t / (self.config.eps_t + ages)
        if counts.min() == counts.max():
            length = int(counts[0])
            stacked = rows.reshape(len(states), length, self.feature_dim)
            weights = temporal_weights.reshape(len(states), 1, length)
            sums = (weights @ stacked)[:, 0, :]
            return _normalize_rows(sums, uniform)
        weighted = rows * temporal_weights[:, None]
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        nonempty = counts > 0
        sums = np.add.reduceat(weighted, offsets[nonempty], axis=0)
        out[nonempty] = _normalize_rows(sums, uniform)
        out[~nonempty] = uniform
        return out


class OneHotHistoryFeaturizer:
    """One-hot (visit-count) history encoding — the *One-hot* baseline feature."""

    def __init__(self, registry: POIRegistry):
        self.registry = registry

    @property
    def feature_dim(self) -> int:
        """Feature dimensionality — one entry per POI."""
        return len(self.registry)

    @property
    def dimension(self) -> int:
        """Alias of :attr:`feature_dim` (kept for backwards compatibility)."""
        return self.feature_dim

    def featurize(self, profile: Profile) -> np.ndarray:
        """Normalised visit counts for one profile — the batch path's reference."""
        counts = np.zeros(self.feature_dim)
        for visit in profile.visit_history:
            poi = self.registry.locate(visit.lat, visit.lon)
            if poi is not None:
                counts[self.registry.index_of(poi.pid)] += 1.0
        norm = np.linalg.norm(counts)
        if norm == 0.0:
            return _uniform_row(self.feature_dim)
        return counts / norm

    def featurize_batch(self, profiles: list[Profile]) -> np.ndarray:
        """Visit-count rows for a batch via one ``locate_batch`` pass, ``(B, |P|)``.

        Every visit of the batch is resolved to its containing POI with the
        grid-indexed :meth:`repro.geo.poi.POIRegistry.locate_batch`, then the
        count matrix is built with one scatter-add.  Matches the scalar
        :meth:`featurize` loop per the module contract.
        """
        if not profiles:
            return np.empty((0, self.feature_dim))
        uniform = _uniform_row(self.feature_dim)
        counts, lats, lons, _, _ = _flatten_histories(profiles)
        rows = np.zeros((len(profiles), self.feature_dim))
        if len(lats) > 0:
            located = self.registry.locate_batch(lats, lons)
            hit = located >= 0
            profile_of_visit = np.repeat(np.arange(len(profiles)), counts)
            np.add.at(rows, (profile_of_visit[hit], located[hit]), 1.0)
        return _normalize_rows(rows, uniform)

    # ------------------------------------------------------------- delta path
    def visit_rows(self, visits: list[Visit]) -> np.ndarray:
        """One-hot POI indicator rows for a list of visits, ``(V, |P|)``.

        A visit outside every POI polygon contributes an all-zero row, exactly
        as it contributes nothing to the batch path's scatter-add.
        """
        rows = np.zeros((len(visits), self.feature_dim))
        if visits:
            lats = np.array([v.lat for v in visits], dtype=np.float64)
            lons = np.array([v.lon for v in visits], dtype=np.float64)
            located = self.registry.locate_batch(lats, lons)
            hit = located >= 0
            rows[np.nonzero(hit)[0], located[hit]] = 1.0
        return rows

    def empty_delta(self) -> HistoryDeltaState:
        """The delta state of an empty visit history."""
        return HistoryDeltaState(
            ts=np.empty(0, dtype=np.float64), rows=np.empty((0, self.feature_dim))
        )

    def update_delta(
        self,
        prev: HistoryDeltaState | None,
        added: list[Visit] = (),
        removed: int = 0,
    ) -> HistoryDeltaState:
        """Apply a history mutation to the delta state (see the module contract)."""
        added = list(added)
        added_ts = np.array([v.ts for v in added], dtype=np.float64)
        return _delta_update(prev, added_ts, self.visit_rows(added), removed, self.feature_dim)

    def delta_row(self, state: HistoryDeltaState, ref_ts: float = 0.0) -> np.ndarray:
        """Normalised visit counts from the delta state (``ref_ts`` is unused —
        one-hot counts carry no temporal decay, the signature just mirrors the
        temporal featurizer's)."""
        uniform = _uniform_row(self.feature_dim)
        if len(state) == 0:
            return uniform
        sums = np.add.reduceat(state.rows, np.array([0]), axis=0)
        return _normalize_rows(sums, uniform)[0]

    def featurize_delta(
        self,
        prev: HistoryDeltaState | None,
        added: list[Visit] = (),
        removed: int = 0,
        *,
        ref_ts: float = 0.0,
    ) -> tuple[np.ndarray, HistoryDeltaState]:
        """Incrementally updated ``(feature_row, new_state)`` after a mutation."""
        state = self.update_delta(prev, added, removed)
        return self.delta_row(state, ref_ts), state

    def delta_rows(
        self, states: "list[HistoryDeltaState]", ref_ts: np.ndarray | None = None
    ) -> np.ndarray:
        """Batched :meth:`delta_row` (``ref_ts`` is accepted for signature
        parity with the temporal featurizer and ignored — counts don't decay)."""
        out = np.empty((len(states), self.feature_dim))
        if not states:
            return out
        uniform = _uniform_row(self.feature_dim)
        counts = np.array([len(state) for state in states], dtype=np.int64)
        if counts.sum() == 0:
            out[:] = uniform
            return out
        rows = np.concatenate([state.rows for state in states])
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        nonempty = counts > 0
        sums = np.add.reduceat(rows, offsets[nonempty], axis=0)
        out[nonempty] = _normalize_rows(sums, uniform)
        out[~nonempty] = uniform
        return out


class HistoryDeltaTracker:
    """Per-user delta states mirroring an online builder's capped histories.

    The tracker holds one :class:`HistoryDeltaState` per user and applies the
    same ``maxlen`` eviction rule as
    :class:`repro.service.stream.OnlineProfileBuilder`'s deques, so the state
    for a user always mirrors the visit history their next emitted profile
    will carry.  :meth:`row_for` returns the profile's Eq. (1)-(2) row from
    the state (rebuilding it transparently if the tracker was never shown the
    profile's history — e.g. a tracker attached mid-stream).

    ``append_batch`` exists because live workloads mutate many users per
    tick: it featurizes *all* appended visits in one :meth:`visit_rows`
    kernel call and then distributes the rows, which is where the
    incremental-over-scratch speedup pinned by ``bench_live_profiles.py``
    comes from.
    """

    def __init__(self, featurizer, max_history: int | None = 64):
        if max_history is not None and max_history < 0:
            raise ValueError("max_history must be non-negative")
        self.featurizer = featurizer
        self.max_history = max_history
        self._states: dict[int, HistoryDeltaState] = {}

    def __len__(self) -> int:
        return len(self._states)

    def state_of(self, uid: int) -> HistoryDeltaState | None:
        """The tracked state of a user (None when never seen)."""
        return self._states.get(uid)

    def append(self, uid: int, visit: Visit) -> None:
        """Record one visit for one user, evicting the oldest when capped."""
        self.append_batch([uid], [visit])

    def append_batch(self, uids: "list[int]", visits: list[Visit]) -> None:
        """Record aligned ``(uid, visit)`` entries with one featurizer kernel call."""
        if len(uids) != len(visits):
            raise ValueError("uids and visits must be aligned")
        if not uids or self.max_history == 0:
            return
        rows = self.featurizer.visit_rows(list(visits))
        ts = np.array([v.ts for v in visits], dtype=np.float64)
        for index, uid in enumerate(uids):
            prev = self._states.get(uid)
            length = 0 if prev is None else len(prev)
            removed = 0
            if self.max_history is not None and length + 1 > self.max_history:
                removed = length + 1 - self.max_history
            self._states[int(uid)] = _delta_update(
                prev, ts[index : index + 1], rows[index : index + 1], removed,
                self.featurizer.feature_dim,
            )

    def row_for(self, profile: Profile) -> np.ndarray:
        """The profile's history feature row from the tracked state.

        If the tracked state does not mirror ``profile.visit_history`` (the
        tracker joined mid-stream, or the profile came from elsewhere), the
        state is rebuilt from the profile's history first — a one-off scratch
        cost, after which updates are incremental again.
        """
        state = self._states.get(profile.uid)
        if state is None or not self._mirrors(state, profile.visit_history):
            state = self.featurizer.update_delta(None, list(profile.visit_history))
            if self.max_history != 0:
                self._states[profile.uid] = state
        return self.featurizer.delta_row(state, profile.ts)

    def rows_for(self, profiles: "list[Profile]") -> np.ndarray:
        """Batched :meth:`row_for`: one re-weight + segment sum for the batch.

        This is the live read path at scale — after an ``append_batch`` tick,
        every mutated user's current row comes out of a single
        :meth:`delta_rows` call instead of per-profile numpy round-trips.
        Batch rows agree with per-profile :meth:`row_for` within float64
        summation tolerance (``<= 1e-9``; the equal-length fast path sums by
        matmul) — serving caches that need bit-identity seed via
        :meth:`row_for`.
        """
        states = []
        for profile in profiles:
            state = self._states.get(profile.uid)
            if state is None or not self._mirrors(state, profile.visit_history):
                state = self.featurizer.update_delta(None, list(profile.visit_history))
                if self.max_history != 0:
                    self._states[profile.uid] = state
            states.append(state)
        ref_ts = np.array([profile.ts for profile in profiles], dtype=np.float64)
        return self.featurizer.delta_rows(states, ref_ts)

    @staticmethod
    def _mirrors(state: HistoryDeltaState, history: tuple[Visit, ...]) -> bool:
        if len(state) != len(history):
            return False
        if not history:
            return True
        return bool(state.ts[0] == history[0].ts and state.ts[-1] == history[-1].ts)

    def reset(self, uid: int) -> None:
        """Forget one user's state."""
        self._states.pop(uid, None)

    def clear(self) -> None:
        """Forget every user's state."""
        self._states.clear()
