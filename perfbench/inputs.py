"""Seeded input generation for the serving benchmark's three workloads.

Everything here is a pure function of ``(seed, registry, words)``: the same
seed gives the same profiles, requests, groups and tweets on every commit.
The program under test only ever sees the generated objects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api import JudgeRequest
from repro.cluster.loadgen import _profile, _zipf_probabilities
from repro.data.records import Pair, Profile, Tweet

#: Stream salts keep each workload's random streams independent of the others
#: (and of the phase structure), so adding a phase never shifts another's inputs.
_RESIDENTS, _QUERIES, _ARRIVALS, _GROUPS, _POPULATION, _TWEETS = range(6)


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """One independent generator per ``(seed, stream...)`` tuple."""
    return np.random.default_rng([seed, *stream])


def vocabulary(corpus: list[str]) -> list[str]:
    """The sorted word list tweets are drawn from, as ``loadgen`` builds it."""
    words = sorted({word for text in corpus for word in text.split()})
    return words or ["here", "now"]


# ------------------------------------------------------------------ stream-cold
@dataclass(frozen=True)
class ColdConfig:
    num_users: int = 256
    pairs_per_request: int = 4
    history_len: int = 12
    zipf_s: float = 1.1
    #: Share of requests sent through the typed ``submit_serve`` front door.
    serve_share: float = 0.25
    #: Share of typed requests that carry an explicit threshold.
    threshold_share: float = 0.5
    threshold: float = 0.4


@dataclass(frozen=True)
class ColdRequest:
    """One open-loop request: due offset (s from phase start) and payload."""

    due: float
    pairs: list[Pair]
    #: ``None`` for a plain ``submit_score``; a :class:`JudgeRequest` for ``submit_serve``.
    typed: JudgeRequest | None


def cold_residents(seed: int, registry, words, config: ColdConfig) -> list[Profile]:
    """The resident candidate profiles, one per user, warmed during set-up."""
    rng = rng_for(seed, _RESIDENTS)
    return [
        _profile(registry, rng, words, uid, ts=1e6, history_len=config.history_len)
        for uid in range(config.num_users)
    ]


def cold_phase(
    seed: int,
    phase: int,
    rate: float,
    seconds: float,
    registry,
    words,
    residents: list[Profile],
    config: ColdConfig,
) -> list[ColdRequest]:
    """Poisson arrivals at ``rate`` req/s for ``seconds``; one fresh query each.

    The arrival count is fixed at ``rate * seconds`` and the due times are
    sorted uniform draws over the phase: a Poisson process conditioned on
    its count, so every seed offers exactly the same load.  Query timestamps
    are unique across phases, so every query profile is a feature-store miss
    (a new tweet), while candidates are resident.
    """
    dues = np.sort(rng_for(seed, _ARRIVALS, phase).uniform(0.0, seconds, size=int(rate * seconds)))
    rng = rng_for(seed, _QUERIES, phase)
    n, k = len(dues), config.pairs_per_request
    probabilities = _zipf_probabilities(config.num_users, config.zipf_s)
    # Zipf ranks map to shuffled uids so the hot users are not the low uids.
    uids = rng_for(seed, _RESIDENTS, 1).permutation(config.num_users)
    queries = uids[rng.choice(config.num_users, size=n, p=probabilities)]
    candidates = uids[rng.choice(config.num_users, size=(n, k), p=probabilities)]
    clash = candidates == queries[:, None]
    while clash.any():
        candidates[clash] = uids[rng.choice(config.num_users, size=int(clash.sum()), p=probabilities)]
        clash = candidates == queries[:, None]
    # Exact shares (a shuffled fixed mix), so every seed offers the same mix:
    # kind 0 = typed with explicit threshold, 1 = typed default rule, 2 = score.
    typed_count = int(round(n * config.serve_share))
    explicit_count = int(round(typed_count * config.threshold_share))
    kinds = rng.permutation(
        np.repeat([0, 1, 2], [explicit_count, typed_count - explicit_count, n - typed_count])
    )
    base_ts = 2e6 + phase * 1e6
    requests = []
    for index in range(n):
        query = _profile(registry, rng, words, int(queries[index]), base_ts + index, config.history_len)
        pairs = [Pair(left=query, right=residents[int(uid)]) for uid in candidates[index]]
        typed = None
        if kinds[index] < 2:
            typed = JudgeRequest(
                pairs=tuple(pairs), threshold=config.threshold if kinds[index] == 0 else None
            )
        requests.append(ColdRequest(due=float(dues[index]), pairs=pairs, typed=typed))
    return requests


# ---------------------------------------------------------------- group-matrix
@dataclass(frozen=True)
class GroupConfig:
    population: int = 2048
    history_len: int = 12
    min_group: int = 8
    max_group: int = 64
    zipf_s: float = 0.8
    #: Distinct groups the closed loop cycles through.  Cycling keeps the
    #: cache-free reference check affordable; the cycle is long enough
    #: (~9k profile lookups) that the hot tier (512 rows) sees the same Zipf
    #: traffic as fresh draws would give it.
    distinct_groups: int = 256


def group_population(seed: int, registry, words, config: GroupConfig) -> list[Profile]:
    rng = rng_for(seed, _POPULATION)
    return [
        _profile(registry, rng, words, uid, ts=1e6 + uid, history_len=config.history_len)
        for uid in range(config.population)
    ]


def group_calls(seed: int, population: list[Profile], config: GroupConfig) -> list[list[Profile]]:
    """Group member lists: G ~ U[min, max], members distinct and Zipf-drawn.

    Sizes are stratified (every size in [min, max] equally often, shuffled)
    so the pairs per cycle, and with them the work per call, do not vary by
    seed; the members do.
    """
    rng = rng_for(seed, _GROUPS)
    probabilities = _zipf_probabilities(len(population), config.zipf_s)
    order = rng.permutation(len(population))
    span = np.arange(config.min_group, config.max_group + 1)
    sizes = rng.permutation(np.resize(span, config.distinct_groups))
    groups = []
    for size in sizes:
        members = rng.choice(len(population), size=int(size), replace=False, p=probabilities)
        groups.append([population[int(order[m])] for m in members])
    return groups


# ----------------------------------------------------------------- live-stream
@dataclass(frozen=True)
class LiveConfig:
    num_users: int = 256
    zipf_s: float = 1.1
    #: Mean gap between consecutive tweets of the stream, in tweet time (s).
    mean_gap_s: float = 2.0
    geotag_share: float = 0.7
    delta_t: float = 30.0
    max_history: int = 32
    #: Tweets consumed during set-up, so timing starts with full windows and
    #: histories rather than an empty stream.
    warmup_tweets: int = 512
    invalidate_every: int = 64


def live_tweets(seed: int, count: int, registry, words, config: LiveConfig) -> list[Tweet]:
    """A timestamp-ordered tweet stream of ``count`` tweets."""
    rng = rng_for(seed, _TWEETS)
    probabilities = _zipf_probabilities(config.num_users, config.zipf_s)
    uids = rng.permutation(config.num_users)
    users = uids[rng.choice(config.num_users, size=count, p=probabilities)]
    ts = 1e6 + np.cumsum(rng.exponential(config.mean_gap_s, size=count))
    geotagged = rng.random(count) < config.geotag_share
    tweets = []
    for index in range(count):
        lat = lon = None
        if geotagged[index]:
            center = registry.pois[int(rng.integers(len(registry.pois)))].center
            north, east = rng.uniform(-60.0, 60.0, size=2)
            lat, lon = center.offset(north_m=float(north), east_m=float(east)).as_tuple()
        content = " ".join(rng.choice(words, size=int(rng.integers(5, 11))))
        tweets.append(Tweet(uid=int(users[index]), ts=float(ts[index]), content=content, lat=lat, lon=lon))
    return tweets
