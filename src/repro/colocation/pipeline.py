"""The end-to-end co-location pipeline — the library's main public API.

:class:`CoLocationPipeline` wires every stage of the paper together:

1. build a vocabulary from the training tweets and train skip-gram word
   vectors (Section 4.2);
2. build the HisRect featurizer ``F`` with the configured feature variant;
3. dispatch to the configured :class:`repro.core.TrainingStrategy` —
   ``"two-phase"`` trains ``F`` with the semi-supervised framework
   (Section 4.4) and then the judge ``E'`` + ``C`` on labelled pairs
   (Section 5); ``"one-phase"`` trains everything end-to-end on the pair loss.

The fitted pipeline answers every question the evaluation needs: pair
co-location probabilities and decisions, POI inference distributions (Acc@K),
HisRect feature vectors (t-SNE), pairwise probability matrices (clustering) and
a Comp2Loc judge sharing its featurizer and classifier.  It satisfies the
:class:`repro.core.CoLocationJudge` and :class:`repro.core.FeatureSpaceJudge`
protocols, so it can be served directly through
:class:`repro.api.ColocationEngine`.

Typical use::

    from repro.api import ColocationEngine
    from repro.data import build_dataset, nyc_like_dataset_config
    from repro.colocation import CoLocationPipeline, PipelineConfig

    dataset = build_dataset(nyc_like_dataset_config(scale=0.5))
    pipeline = CoLocationPipeline(PipelineConfig()).fit(dataset)
    engine = ColocationEngine(pipeline)
    probabilities = engine.predict_proba(dataset.test.labeled_pairs)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

import repro.registry as registry_mod
from repro.colocation.comp2loc import Comp2LocJudge
from repro.colocation.judge import HisRectCoLocationJudge, JudgeConfig
from repro.colocation.onephase import OnePhaseConfig, OnePhaseModel
from repro.core.strategy import COMP2LOC, POI_INFERENCE, PROBABILITY_MATRIX, TrainingStrategy
from repro.data.dataset import ColocationDataset
from repro.data.records import Pair, Profile
from repro.errors import ConfigurationError, NotFittedError
from repro.features.content import TextVectorizer
from repro.features.hisrect import EmbeddingNetwork, HisRectConfig, HisRectFeaturizer, POIClassifier
from repro.ssl.affinity import AffinityConfig
from repro.ssl.trainer import SSLTrainingConfig, TrainingHistory
from repro.text.skipgram import SkipGramConfig, SkipGramModel
from repro.text.tokenize import Tokenizer, Vocabulary

def training_modes() -> tuple[str, ...]:
    """The registered pipeline training modes (``"strategy"`` registry kind)."""
    return registry_mod.names("strategy")


@dataclass
class PipelineConfig:
    """Every stage's configuration in one object."""

    hisrect: HisRectConfig = field(default_factory=HisRectConfig)
    ssl: SSLTrainingConfig = field(default_factory=SSLTrainingConfig)
    judge: JudgeConfig = field(default_factory=JudgeConfig)
    affinity: AffinityConfig = field(default_factory=AffinityConfig)
    skipgram: SkipGramConfig = field(default_factory=SkipGramConfig)
    onephase: OnePhaseConfig = field(default_factory=OnePhaseConfig)
    #: Training strategy name: ``"two-phase"`` (HisRect) or ``"one-phase"``.
    mode: str = "two-phase"
    #: Minimum word frequency for the vocabulary (the paper uses 10 at full scale).
    min_word_count: int = 2
    #: Cap on the number of POI-classifier layers.
    classifier_layers: int = 2
    seed: int = 97

    def __post_init__(self) -> None:
        modes = training_modes()
        if self.mode not in modes:
            raise ConfigurationError(f"mode must be one of {modes}, got {self.mode!r}")


class CoLocationPipeline:
    """Build, train and apply a complete co-location judgement model."""

    def __init__(self, config: PipelineConfig | None = None):
        self.config = config or PipelineConfig()
        self.vocabulary: Vocabulary | None = None
        self.skipgram: SkipGramModel | None = None
        self.vectorizer: TextVectorizer | None = None
        self.featurizer: HisRectFeaturizer | None = None
        self.classifier: POIClassifier | None = None
        self.embedding: EmbeddingNetwork | None = None
        self.judge: HisRectCoLocationJudge | None = None
        self.onephase: OnePhaseModel | None = None
        self.ssl_history: TrainingHistory | None = None
        self._dataset: ColocationDataset | None = None
        self._strategy: TrainingStrategy | None = None
        self._fitted = False

    # ------------------------------------------------------------------ config
    @classmethod
    def from_config(cls, config: dict[str, Any] | None = None) -> "CoLocationPipeline":
        """Build an unfitted pipeline from a plain configuration dictionary."""
        from repro.io.configs import config_from_dict

        return cls(config_from_dict(PipelineConfig, config or {}))

    def to_config(self) -> dict[str, Any]:
        """This pipeline's configuration as a plain dictionary."""
        from repro.io.configs import config_to_dict

        return config_to_dict(self.config)

    @property
    def strategy(self) -> TrainingStrategy:
        """The training strategy implementing ``config.mode`` (lazily resolved)."""
        if self._strategy is None or self._strategy.name != self.config.mode:
            self._strategy = registry_mod.build("strategy", self.config.mode)
        return self._strategy

    # ------------------------------------------------------------------ stages
    def _build_text_stack(self, dataset: ColocationDataset) -> None:
        tokenizer = Tokenizer()
        corpus = dataset.training_corpus()
        token_sequences = [tokenizer.tokenize(text) for text in corpus]
        self.vocabulary = Vocabulary.build(token_sequences, min_count=self.config.min_word_count)
        self.skipgram = SkipGramModel(self.vocabulary, self.config.skipgram)
        encoded = [self.vocabulary.encode(tokens) for tokens in token_sequences if tokens]
        self.skipgram.train(encoded)
        self.vectorizer = TextVectorizer(
            self.vocabulary,
            self.skipgram,
            tokenizer=tokenizer,
            max_tokens=16,
            min_tokens=4,
            # Epoch scans revisit every training tweet; keep them all resident
            # so the LRU never thrashes during training.
            cache_size=max(4096, 2 * len(corpus)),
        )

    def _build_featurizer(self, dataset: ColocationDataset) -> HisRectFeaturizer:
        cfg = self.config
        vectorizer = self.vectorizer if cfg.hisrect.use_content else None
        self.featurizer = HisRectFeaturizer(dataset.registry, vectorizer, cfg.hisrect)
        # Like the vectorizer cache: keep every training profile's Fv(r) row
        # resident so epoch scans never thrash the LRU.
        num_profiles = len(dataset.train.labeled_profiles) + len(dataset.train.unlabeled_profiles)
        self.featurizer.history_cache_size = max(
            HisRectFeaturizer.HISTORY_CACHE_SIZE, 2 * num_profiles
        )
        return self.featurizer

    # --------------------------------------------------------------------- fit
    def fit(self, dataset: ColocationDataset) -> "CoLocationPipeline":
        """Train the full pipeline on a dataset's training split."""
        self._dataset = dataset
        if self.config.hisrect.use_content:
            self._build_text_stack(dataset)
        self._build_featurizer(dataset)
        self.strategy.fit(self, dataset)
        self._fitted = True
        return self

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError("CoLocationPipeline.fit() has not been called")

    def _require_featurizer(self) -> HisRectFeaturizer:
        self._require_fitted()
        if self.featurizer is None:
            raise NotFittedError("the pipeline has no trained featurizer")
        return self.featurizer

    def _require_capability(self, capability: str, question: str) -> None:
        if not self.strategy.supports(capability):
            raise ConfigurationError(
                f"{question} requires the two-phase pipeline (mode is {self.config.mode!r})"
            )

    def _judge_model(self):
        """The fitted judge-like model behind this pipeline's strategy."""
        self._require_fitted()
        return self.strategy.fitted_judge(self)

    # ------------------------------------------------------------- co-location
    def predict_proba(self, pairs: list[Pair]) -> np.ndarray:
        """Co-location probability per pair."""
        return self._judge_model().predict_proba(pairs)

    def predict(self, pairs: list[Pair]) -> np.ndarray:
        """Binary co-location decisions (1 = same POI within Δt)."""
        return self._judge_model().predict(pairs)

    def probability_matrix(self, profiles: list[Profile]) -> np.ndarray:
        """Pairwise co-location probability matrix for a group of profiles."""
        self._require_fitted()
        self._require_capability(PROBABILITY_MATRIX, "probability_matrix")
        return self._judge_model().probability_matrix(profiles)

    # --------------------------------------------------------- feature scoring
    def featurize_profiles(self, profiles: list[Profile]) -> np.ndarray:
        """Frozen HisRect feature rows for profiles (uncached, chunked)."""
        return self._judge_model().featurize_profiles(profiles)

    def score_feature_pairs(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Co-location probabilities from two aligned feature matrices."""
        return self._judge_model().score_feature_pairs(left, right)

    @property
    def decision_threshold(self) -> float:
        """The probability threshold behind :meth:`predict`."""
        model = self._judge_model()
        return float(getattr(model, "decision_threshold", 0.5))

    # ------------------------------------------------------------ POI inference
    def infer_poi_proba(self, profiles: list[Profile]) -> np.ndarray:
        """POI probability distributions (dense registry order) per profile."""
        self._require_fitted()
        self._require_capability(POI_INFERENCE, "POI inference")
        if self.classifier is None:
            raise NotFittedError("the pipeline has no trained POI classifier")
        features = self._require_featurizer().featurize_profiles(profiles)
        return self.classifier.predict_proba(features)

    def infer_poi(self, profiles: list[Profile]) -> list[int]:
        """Hard POI (pid) predictions per profile."""
        proba = self.infer_poi_proba(profiles)
        registry = self._require_featurizer().registry
        return [registry.pid_at(int(i)) for i in proba.argmax(axis=1)]

    # ----------------------------------------------------------------- features
    def features(self, profiles: list[Profile]) -> np.ndarray:
        """Frozen HisRect feature vectors (e.g. for the t-SNE visualisation)."""
        return self._require_featurizer().featurize_profiles(profiles)

    def comp2loc(self) -> Comp2LocJudge:
        """A Comp2Loc judge sharing this pipeline's featurizer and classifier."""
        self._require_fitted()
        self._require_capability(COMP2LOC, "Comp2Loc")
        if self.classifier is None:
            raise NotFittedError("the pipeline has no trained POI classifier")
        return Comp2LocJudge(self._require_featurizer(), self.classifier)

