"""Comp2Loc: the naive "infer both POIs and compare" judge (paper Section 5).

Comp2Loc reuses the POI classifier ``P`` trained alongside the HisRect
featurizer: it infers a POI for each profile independently and declares the
pair co-located only when the two inferred POIs coincide.  The paper uses it to
show that a pairwise judge on the feature *difference* beats independent
location inference; we additionally expose a soft score (the probability that
both users are at the same POI, ``sum_k p_i[k] * p_j[k]``) so the approach can
participate in threshold sweeps even though the paper leaves it out of the ROC
comparison.
"""

from __future__ import annotations

import numpy as np

from repro.colocation.judge import HisRectCoLocationJudge
from repro.core.protocols import (
    ProfileKey,
    profile_key,
    shared_poi_probability_matrix,
)
from repro.data.records import Pair, Profile
from repro.errors import NotFittedError
from repro.features.hisrect import HisRectFeaturizer, POIClassifier
from repro.store import HotStore


class Comp2LocJudge:
    """Judge a pair co-located iff the classifier assigns both profiles the same POI."""

    def __init__(self, featurizer: HisRectFeaturizer, classifier: POIClassifier):
        self.featurizer = featurizer
        self.classifier = classifier
        #: Bounded LRU memo of feature rows (``put`` copies view rows, so a
        #: cached row never pins its whole featurized batch).
        self._feature_cache = HotStore(HisRectCoLocationJudge.FEATURE_CACHE_SIZE)

    def featurize_profiles(self, profiles: list[Profile]) -> np.ndarray:
        """Frozen HisRect feature rows for profiles (uncached, chunked).

        Delegates to the featurizer's own batch path, so each chunk computes
        its history features in one vectorised pass.
        """
        return self.featurizer.featurize_profiles(profiles)

    def _features(self, profiles: list[Profile]) -> np.ndarray:
        keys = [profile_key(p) for p in profiles]
        rows: dict[ProfileKey, np.ndarray] = {}
        missing: dict[ProfileKey, Profile] = {}
        for key, profile in zip(keys, profiles):
            if key in rows or key in missing:
                continue
            row = self._feature_cache.get(key)
            if row is None:
                missing[key] = profile
            else:
                rows[key] = row
        if missing:
            # Rows are read back from this call's batch, not the memo: a
            # call with more distinct profiles than the bound evicts its own
            # early rows before the stack below.
            for key, row in zip(missing, self.featurize_profiles(list(missing.values()))):
                self._feature_cache.put(key, row)
                rows[key] = row
        return np.stack([rows[key] for key in keys])

    def infer_poi_indices(self, profiles: list[Profile]) -> np.ndarray:
        """Dense POI-index predictions for profiles."""
        if not profiles:
            return np.zeros(0, dtype=int)
        return self.classifier.predict(self._features(profiles))

    def infer_poi(self, profiles: list[Profile]) -> list[int]:
        """POI id (pid) predictions for profiles."""
        indices = self.infer_poi_indices(profiles)
        return [self.featurizer.registry.pid_at(int(i)) for i in indices]

    def predict(self, pairs: list[Pair]) -> np.ndarray:
        """1 when both profiles are classified into the same POI, else 0."""
        if not pairs:
            return np.zeros(0, dtype=int)
        left = self.infer_poi_indices([p.left for p in pairs])
        right = self.infer_poi_indices([p.right for p in pairs])
        return (left == right).astype(int)

    def predict_proba(self, pairs: list[Pair]) -> np.ndarray:
        """Soft score: probability the two profiles share a POI under ``P``."""
        if not pairs:
            return np.zeros(0)
        left = self._features([p.left for p in pairs])
        right = self._features([p.right for p in pairs])
        return self.score_feature_pairs(left, right)

    def score_feature_pairs(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Shared-POI probability from two aligned feature matrices."""
        if len(left) == 0:
            return np.zeros(0)
        left_proba = self.classifier.predict_proba(left)
        right_proba = self.classifier.predict_proba(right)
        return np.sum(left_proba * right_proba, axis=1)

    def decide_feature_pairs(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Same-POI decisions (argmax equality) from two aligned feature matrices."""
        if len(left) == 0:
            return np.zeros(0, dtype=int)
        return (self.classifier.predict(left) == self.classifier.predict(right)).astype(int)

    def probability_matrix(self, profiles: list[Profile]) -> np.ndarray:
        """Pairwise shared-POI probability matrix (clustering input).

        With the POI distributions ``p_i`` already computed per profile the
        matrix is just ``P P^T``; each profile is featurized once.
        """
        if len(profiles) < 2:
            return np.zeros((len(profiles), len(profiles)))
        proba = self.classifier.predict_proba(self._features(profiles))
        return shared_poi_probability_matrix(proba)

    def predict_proba_profiles(self, profiles: list[Profile]) -> np.ndarray:
        """POI probability distributions for profiles (POI-inference experiments)."""
        if not profiles:
            raise NotFittedError("no profiles given")
        return self.classifier.predict_proba(self._features(profiles))
