"""Tests for the co-location judge, Comp2Loc, One-phase, clustering and pipeline."""

import numpy as np
import pytest

from repro.colocation import (
    CoLocationPipeline,
    HisRectCoLocationJudge,
    JudgeConfig,
    OnePhaseConfig,
    OnePhaseModel,
    PipelineConfig,
    ProfileClusterer,
    partition_from_labels,
    partitions_equal,
)
from repro.core import profile_key
from repro.errors import ConfigurationError, NotFittedError, TrainingError
from repro.eval import pair_labels


class TestHisRectCoLocationJudge:
    def test_fit_and_predict_shapes(self, tiny_dataset, fitted_pipeline):
        judge = fitted_pipeline.judge
        pairs = tiny_dataset.train.labeled_pairs[:10]
        proba = judge.predict_proba(pairs)
        preds = judge.predict(pairs)
        assert proba.shape == (len(pairs),)
        assert set(np.unique(preds)).issubset({0, 1})
        assert np.all((proba >= 0) & (proba <= 1))

    def test_unfitted_judge_raises(self, fitted_pipeline, tiny_dataset):
        judge = HisRectCoLocationJudge(fitted_pipeline.featurizer, JudgeConfig(epochs=1))
        with pytest.raises(NotFittedError):
            judge.predict(tiny_dataset.train.labeled_pairs[:2])

    def test_fit_requires_both_classes(self, fitted_pipeline, tiny_dataset):
        judge = HisRectCoLocationJudge(fitted_pipeline.featurizer, JudgeConfig(epochs=1))
        positives = [p for p in tiny_dataset.train.labeled_pairs if p.is_positive]
        with pytest.raises(TrainingError):
            judge.fit(positives)

    def test_probability_matrix_symmetric(self, fitted_pipeline, tiny_dataset):
        profiles = tiny_dataset.train.labeled_profiles[:6]
        matrix = fitted_pipeline.judge.probability_matrix(profiles)
        assert matrix.shape == (6, 6)
        np.testing.assert_allclose(matrix, matrix.T)
        np.testing.assert_allclose(np.diag(matrix), np.ones(6))

    def test_empty_pair_list(self, fitted_pipeline):
        assert fitted_pipeline.judge.predict_proba([]).shape == (0,)


class TestComp2Loc:
    def test_predictions_consistent_with_poi_inference(self, fitted_pipeline, tiny_dataset):
        comp2loc = fitted_pipeline.comp2loc()
        pairs = tiny_dataset.train.labeled_pairs[:10]
        preds = comp2loc.predict(pairs)
        left = comp2loc.infer_poi_indices([p.left for p in pairs])
        right = comp2loc.infer_poi_indices([p.right for p in pairs])
        np.testing.assert_array_equal(preds, (left == right).astype(int))

    def test_proba_in_unit_interval(self, fitted_pipeline, tiny_dataset):
        comp2loc = fitted_pipeline.comp2loc()
        proba = comp2loc.predict_proba(tiny_dataset.train.labeled_pairs[:10])
        assert np.all((proba >= 0) & (proba <= 1))

    def test_infer_poi_returns_valid_pids(self, fitted_pipeline, tiny_dataset):
        comp2loc = fitted_pipeline.comp2loc()
        pids = comp2loc.infer_poi(tiny_dataset.test.labeled_profiles[:5])
        assert all(pid in tiny_dataset.registry for pid in pids)

    def test_feature_memo_is_bounded_and_owns_its_rows(
        self, fitted_pipeline, tiny_dataset, monkeypatch
    ):
        pairs = tiny_dataset.train.labeled_pairs[:12]
        expected = fitted_pipeline.comp2loc().predict_proba(pairs)
        cap = 4
        monkeypatch.setattr(HisRectCoLocationJudge, "FEATURE_CACHE_SIZE", cap)
        comp2loc = fitted_pipeline.comp2loc()
        distinct = {profile_key(p) for pair in pairs for p in (pair.left, pair.right)}
        assert len(distinct) > cap
        np.testing.assert_array_equal(comp2loc.predict_proba(pairs), expected)
        memo = comp2loc._feature_cache
        assert len(memo) <= cap
        assert all(row.base is None for row in memo._rows.values())
        # Scoring again through the evicted memo still gives the same answer.
        np.testing.assert_array_equal(comp2loc.predict_proba(pairs), expected)


class TestOnePhase:
    def test_fit_predict(self, tiny_dataset, fitted_pipeline):
        from repro.features.hisrect import HisRectFeaturizer

        # One-phase training mutates the featurizer (joint end-to-end fit), so
        # build a fresh one instead of corrupting the shared fitted_pipeline's.
        featurizer = HisRectFeaturizer(
            tiny_dataset.registry, fitted_pipeline.vectorizer, fitted_pipeline.config.hisrect
        )
        model = OnePhaseModel(featurizer, OnePhaseConfig(max_iterations=10, batch_size=4))
        losses = model.fit(tiny_dataset.train.labeled_pairs)
        assert len(losses) == 10
        preds = model.predict(tiny_dataset.train.labeled_pairs[:5])
        assert preds.shape == (5,)

    def test_unfitted_raises(self, fitted_pipeline, tiny_dataset):
        model = OnePhaseModel(fitted_pipeline.featurizer, OnePhaseConfig(max_iterations=1))
        with pytest.raises(NotFittedError):
            model.predict(tiny_dataset.train.labeled_pairs[:2])


class TestClustering:
    def test_partition_helpers(self):
        partition = partition_from_labels([0, 0, 1, 1, 2])
        assert frozenset({0, 1}) in partition
        assert partitions_equal(partition, partition_from_labels([5, 5, 9, 9, 7]))
        assert not partitions_equal(partition, partition_from_labels([0, 1, 1, 1, 2]))

    def test_cluster_matrix_threshold(self):
        class FakeJudge:
            def probability_matrix(self, profiles):
                return np.array([[1.0, 0.9, 0.1], [0.9, 1.0, 0.2], [0.1, 0.2, 1.0]])

        clusterer = ProfileClusterer(FakeJudge(), threshold=0.5)
        result = clusterer.cluster([object(), object(), object()])
        assert partitions_equal(result.as_partition(), partition_from_labels([0, 0, 1]))

    def test_cluster_with_fitted_judge(self, fitted_pipeline, tiny_dataset):
        clusterer = ProfileClusterer(fitted_pipeline.judge)
        result = clusterer.cluster(tiny_dataset.train.labeled_profiles[:5])
        covered = set().union(*result.clusters)
        assert covered == set(range(5))


class TestPipeline:
    def test_unfitted_pipeline_raises(self, tiny_pipeline_config, tiny_dataset):
        pipeline = CoLocationPipeline(tiny_pipeline_config)
        with pytest.raises(NotFittedError):
            pipeline.predict(tiny_dataset.test.labeled_pairs[:1])

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(mode="three-phase")

    def test_predict_and_labels_align(self, fitted_pipeline, tiny_dataset):
        pairs = tiny_dataset.train.labeled_pairs[:20]
        preds = fitted_pipeline.predict(pairs)
        assert preds.shape == pair_labels(pairs).shape

    def test_poi_inference_distribution(self, fitted_pipeline, tiny_dataset):
        proba = fitted_pipeline.infer_poi_proba(tiny_dataset.test.labeled_profiles[:4])
        assert proba.shape == (4, len(tiny_dataset.registry))
        np.testing.assert_allclose(proba.sum(axis=1), np.ones(4), atol=1e-8)

    def test_infer_poi_valid_pids(self, fitted_pipeline, tiny_dataset):
        pids = fitted_pipeline.infer_poi(tiny_dataset.test.labeled_profiles[:4])
        assert all(pid in tiny_dataset.registry for pid in pids)

    def test_features_shape(self, fitted_pipeline, tiny_dataset):
        features = fitted_pipeline.features(tiny_dataset.test.labeled_profiles[:3])
        assert features.shape == (3, fitted_pipeline.config.hisrect.feature_dim)

    def test_ssl_history_recorded(self, fitted_pipeline):
        assert fitted_pipeline.ssl_history is not None
        assert fitted_pipeline.ssl_history.iterations > 0
