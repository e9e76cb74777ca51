"""Retrieval and filter-quality metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import cosine_values
from .errors import ConfigError, ShapeError


def cosine_similarity_matrix(queries: np.ndarray, gallery: np.ndarray) -> np.ndarray:
    """All-pairs cosines under autodiff.cosine_values's zero-norm clamp."""
    return cosine_values(queries, gallery)[0]


def recall_from_similarity(sims: np.ndarray, k: int) -> float:
    """Recall@k when the true target of query i sits at gallery index i.

    A gallery item outranks the target on a tied score only if it has the
    lower index (deterministic tie-break).
    """
    n = sims.shape[0]
    if sims.shape != (n, n):
        raise ShapeError("similarity matrix must be square and index-aligned")
    if k < 1:
        raise ConfigError("k must be >= 1")
    if k > n:
        raise ConfigError(f"k={k} exceeds gallery size {n}")
    diag = np.diag(sims)
    better = (sims > diag[:, None]).sum(axis=1)
    ties_before = ((sims == diag[:, None]) & (np.arange(n) < np.arange(n)[:, None])).sum(axis=1)
    ranks = better + ties_before + 1
    return float((ranks <= k).mean())


@dataclass
class FilterScore:
    precision: float
    recall: float
    f1: float
    precision_defined: bool = True


def evaluate_filter(labels: np.ndarray, noisy_truth: np.ndarray) -> FilterScore:
    """Score noise detection: positive class = truly noisy, predicted = label 0."""
    labels = np.asarray(labels).reshape(-1)
    truth = np.asarray(noisy_truth, dtype=bool).reshape(-1)
    if labels.shape != truth.shape:
        raise ShapeError("labels and truth flags disagree in length")
    predicted = labels == 0
    tp = int((predicted & truth).sum())
    fp = int((predicted & ~truth).sum())
    fn = int((~predicted & truth).sum())
    defined = (tp + fp) > 0
    precision = tp / (tp + fp) if defined else 0.0
    recall = tp / (tp + fn) if (tp + fn) > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return FilterScore(precision=precision, recall=recall, f1=f1,
                       precision_defined=defined)
