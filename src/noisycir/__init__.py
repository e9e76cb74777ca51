"""Noise-aware contrastive learning toolkit for composed image retrieval.

Desk-scale pipeline: a synthetic encoder plants concept-structured token
bundles, a weight compensation block re-weights tokens by attention, queries
fuse text and reference-image embeddings, a GMM-based filter detects noisy
pairs from per-sample contrastive losses, and a soft-label NCE objective
trains only on the pairs judged matched.
"""

from .autodiff import GradCheckReport, ParamStore, Tape, Var, grad_check
from .errors import (ConfigError, DataFormatError, DegenerateInputError,
                     NumericalError, ShapeError)
from .evaluation import FilterScore, evaluate_filter
from .nfb import GmmParams, PairSets, build_sets, em_fit, posterior, soft_labels
from .synth import Dataset, DatasetSpec, TokenBundle, TripletSample, generate_dataset
from .trainer import MetricsRecord, TrainConfig, run_ablation, run_training

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DataFormatError", "DegenerateInputError", "NumericalError",
    "ShapeError", "Dataset", "DatasetSpec", "TokenBundle", "TripletSample",
    "generate_dataset", "GmmParams", "PairSets", "build_sets", "em_fit",
    "posterior", "soft_labels", "FilterScore", "evaluate_filter",
    "MetricsRecord", "TrainConfig", "run_ablation", "run_training",
    "GradCheckReport", "ParamStore", "Tape", "Var", "grad_check",
]
