"""Co-location judgement: the HisRect judge, naive judges, clustering and pipeline.

Every judge-like class in this package satisfies the
:class:`repro.core.CoLocationJudge` protocol, self-registers in
:mod:`repro.registry` (``"judge"`` kind) and can be served through
:class:`repro.api.ColocationEngine`.
"""

from repro.colocation.clustering import (
    ClusteringResult,
    ProfileClusterer,
    partition_from_labels,
    partitions_equal,
)
from repro.colocation.comp2loc import Comp2LocJudge
from repro.colocation.judge import (
    CoLocationJudgeNetwork,
    HisRectCoLocationJudge,
    JudgeConfig,
    JudgeTrainingHistory,
)
from repro.colocation.onephase import OnePhaseConfig, OnePhaseModel
from repro.colocation.pipeline import CoLocationPipeline, PipelineConfig, training_modes
from repro.colocation.strategies import OnePhaseStrategy, TwoPhaseStrategy
from repro.colocation.variants import Comp2LocApproach, variant_pipeline_config

__all__ = [
    "JudgeConfig",
    "CoLocationJudgeNetwork",
    "HisRectCoLocationJudge",
    "JudgeTrainingHistory",
    "Comp2LocJudge",
    "Comp2LocApproach",
    "OnePhaseConfig",
    "OnePhaseModel",
    "ProfileClusterer",
    "ClusteringResult",
    "partition_from_labels",
    "partitions_equal",
    "CoLocationPipeline",
    "PipelineConfig",
    "TwoPhaseStrategy",
    "OnePhaseStrategy",
    "training_modes",
    "variant_pipeline_config",
]
