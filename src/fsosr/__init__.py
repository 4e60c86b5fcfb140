"""Few-shot open-set recognition toolkit for pre-extracted feature embeddings."""

from .baselines import BaselineConfig, knn_chunk, simpleshot_chunk
from .diagnostics import DiagnosticReport, diagnose, split_diagnostics
from .episodes import OUTLIER, Episode, EpisodeSpec, sample_episode
from .errors import (
    ConfigError,
    DataError,
    DegenerateFeatureError,
    DivergenceError,
    FsosrError,
    SamplingError,
    StoreError,
)
from .feature_store import (
    FeatureSet,
    base_mean,
    ingest_csv,
    load_feature_store,
    save_feature_store,
)
from .metrics import (
    EpisodeReport,
    MetricSummary,
    RunReport,
    aggregate,
    score_chunk,
    score_episode,
)
from .ostim import (
    LossBreakdown,
    OstimConfig,
    PrototypeSet,
    Variant,
    init_prototypes,
    logits,
    loss_and_grad,
    predict,
    refine,
)
from .predictions import PredictionSheet
from .runner import RunConfig, config_from_dict, load_config, run, sweep_alpha
from .synthgen import SynthSpec, generate
from .transforms import NormalizedChunk, center_normalize, normalize_chunk

__all__ = [
    "BaselineConfig",
    "ConfigError",
    "DataError",
    "DegenerateFeatureError",
    "DiagnosticReport",
    "DivergenceError",
    "Episode",
    "EpisodeReport",
    "EpisodeSpec",
    "FeatureSet",
    "FsosrError",
    "LossBreakdown",
    "MetricSummary",
    "NormalizedChunk",
    "OstimConfig",
    "OUTLIER",
    "PredictionSheet",
    "PrototypeSet",
    "RunConfig",
    "RunReport",
    "SamplingError",
    "StoreError",
    "SynthSpec",
    "Variant",
    "aggregate",
    "base_mean",
    "center_normalize",
    "config_from_dict",
    "diagnose",
    "generate",
    "ingest_csv",
    "init_prototypes",
    "knn_chunk",
    "load_config",
    "load_feature_store",
    "logits",
    "loss_and_grad",
    "normalize_chunk",
    "predict",
    "refine",
    "run",
    "sample_episode",
    "save_feature_store",
    "score_chunk",
    "score_episode",
    "simpleshot_chunk",
    "split_diagnostics",
    "sweep_alpha",
]
