"""Community detection over co-location relationships (paper Section 1).

"Community detection and group analysis ... aim to find users sharing
interests and appear in the same place at the same time."  The detector builds
a weighted user graph whose edges are co-location probabilities produced by a
fitted judge (aggregated over the users' profile pairs) and extracts
communities with modularity maximisation; connected components remain
available as the cheap alternative the paper's own clustering case study uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx
import numpy as np

from repro.data.records import Pair, Profile
from repro.errors import ConfigurationError
from repro.service._engine import resolve_engine


@dataclass
class CommunityResult:
    """Detected communities plus the user graph they were extracted from."""

    #: Communities as sets of user ids, largest first.
    communities: list[set[int]]
    #: The weighted co-location graph between users.
    graph: nx.Graph = field(repr=False)
    #: Modularity of the reported partition (0 when it cannot be computed).
    modularity: float = 0.0

    @property
    def num_communities(self) -> int:
        return len(self.communities)

    def community_of(self, uid: int) -> set[int] | None:
        """The community containing ``uid`` (None for unknown users)."""
        for community in self.communities:
            if uid in community:
                return community
        return None


class CommunityDetector:
    """Detect user communities from pairwise co-location probabilities.

    Parameters
    ----------
    engine:
        A :class:`repro.api.ColocationEngine`, or any fitted judge exposing
        ``predict_proba(pairs)`` (wrapped into an engine automatically).
    delta_t:
        Pairing window: profiles of two users are only compared when their
        timestamps are within ``delta_t`` seconds.
    edge_threshold:
        Minimum aggregated co-location probability for a user-user edge.
    method:
        ``"modularity"`` (greedy modularity maximisation, the default) or
        ``"components"`` (plain connected components, as in Table 8).
    """

    def __init__(
        self,
        engine,
        delta_t: float = 3600.0,
        edge_threshold: float = 0.5,
        method: str = "modularity",
    ):
        if delta_t <= 0:
            raise ConfigurationError("delta_t must be positive")
        if not 0.0 <= edge_threshold <= 1.0:
            raise ConfigurationError("edge_threshold must lie in [0, 1]")
        if method not in ("modularity", "components"):
            raise ConfigurationError("method must be 'modularity' or 'components'")
        self.engine = resolve_engine(engine)
        self.delta_t = delta_t
        self.edge_threshold = edge_threshold
        self.method = method

    @property
    def judge(self):
        """The raw judge behind the engine (legacy accessor)."""
        return self.engine.judge

    # -------------------------------------------------------------- the graph
    def build_user_graph(self, profiles: list[Profile]) -> nx.Graph:
        """Weighted user graph from the judge's pairwise probabilities.

        When two users have several profile pairs inside the window, the edge
        weight is the maximum probability over those pairs — one strong
        co-location is enough to tie the users together.
        """
        graph = nx.Graph()
        graph.add_nodes_from({profile.uid for profile in profiles})
        candidate_pairs: list[Pair] = []
        for i, left in enumerate(profiles):
            for right in profiles[i + 1 :]:
                if left.uid == right.uid:
                    continue
                if abs(left.ts - right.ts) >= self.delta_t:
                    continue
                candidate_pairs.append(Pair(left=left, right=right, co_label=None))
        if not candidate_pairs:
            return graph
        probabilities = np.asarray(self.engine.predict_proba(candidate_pairs), dtype=float)
        for pair, probability in zip(candidate_pairs, probabilities):
            if probability < self.edge_threshold:
                continue
            uid_a, uid_b = pair.left.uid, pair.right.uid
            if graph.has_edge(uid_a, uid_b):
                graph[uid_a][uid_b]["weight"] = max(graph[uid_a][uid_b]["weight"], float(probability))
            else:
                graph.add_edge(uid_a, uid_b, weight=float(probability))
        return graph

    # -------------------------------------------------------------- detection
    def detect(self, profiles: list[Profile]) -> CommunityResult:
        """Detect communities among the users behind ``profiles``."""
        graph = self.build_user_graph(profiles)
        if graph.number_of_nodes() == 0:
            return CommunityResult(communities=[], graph=graph, modularity=0.0)
        if self.method == "components" or graph.number_of_edges() == 0:
            communities = [set(c) for c in nx.connected_components(graph)]
        else:
            communities = [
                set(c)
                for c in nx.algorithms.community.greedy_modularity_communities(graph, weight="weight")
            ]
        communities.sort(key=lambda c: (-len(c), min(c)))
        modularity = 0.0
        if graph.number_of_edges() > 0 and len(communities) > 0:
            modularity = float(
                nx.algorithms.community.modularity(graph, communities, weight="weight")
            )
        return CommunityResult(communities=communities, graph=graph, modularity=modularity)

    def detect_from_matrix(self, profiles: list[Profile], matrix: np.ndarray) -> CommunityResult:
        """Detect communities from an externally computed probability matrix.

        ``matrix[i, j]`` is the co-location probability of ``profiles[i]`` and
        ``profiles[j]``; useful when the matrix is already available from the
        clustering case study.
        """
        if matrix.shape != (len(profiles), len(profiles)):
            raise ConfigurationError("matrix shape must be (len(profiles), len(profiles))")
        graph = nx.Graph()
        graph.add_nodes_from({p.uid for p in profiles})
        for i, left in enumerate(profiles):
            for j in range(i + 1, len(profiles)):
                right = profiles[j]
                if left.uid == right.uid:
                    continue
                probability = float(matrix[i, j])
                if probability < self.edge_threshold:
                    continue
                if graph.has_edge(left.uid, right.uid):
                    graph[left.uid][right.uid]["weight"] = max(
                        graph[left.uid][right.uid]["weight"], probability
                    )
                else:
                    graph.add_edge(left.uid, right.uid, weight=probability)
        communities = [set(c) for c in nx.connected_components(graph)]
        communities.sort(key=lambda c: (-len(c), min(c)))
        modularity = 0.0
        if graph.number_of_edges() > 0:
            modularity = float(nx.algorithms.community.modularity(graph, communities, weight="weight"))
        return CommunityResult(communities=communities, graph=graph, modularity=modularity)
