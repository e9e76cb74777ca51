"""Query fusion and the soft-label contrastive objective.

A query is the MLP of the text and reference-image embeddings side by side,
one fusion MLP per view (plain global tokens vs weight-compensated), recorded
as one autodiff.mlp_forward node. The per-sample loss is temperature-scaled
softmax cross-entropy over in-batch cosine similarities, and the training
objective (autodiff.masked_loss, one op) is the sum of the label-masked means
of the enabled views' loss vectors.
The autodiff ops check a positive temperature, queries and targets of one
shape and one label per row; fusion checks only the view, equal text and image
shapes and a batch of at least 2 pairs.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Var
from .errors import ConfigError, ShapeError

VIEW_GLOBAL = "global"
VIEW_WCB = "wcb"

FUSION_MLP = {VIEW_GLOBAL: "fuse_global", VIEW_WCB: "fuse_wcb"}

DEFAULT_TEMPERATURE = 0.07


def fuse_query(text_emb: Var, image_emb: Var, store: ParamStore, view: str) -> Var:
    """Fused multi-modal query rows: [text | image] -> view MLP -> (B, d)."""
    if view not in FUSION_MLP:
        raise ConfigError(f"unknown fusion view {view!r}")
    if text_emb.shape != image_emb.shape:
        raise ShapeError(f"fuse_query {text_emb.shape} vs {image_emb.shape}")
    return ad.mlp_forward([text_emb, image_emb], store, FUSION_MLP[view])


def nce_per_sample(queries: Var, targets: Var, tau: float) -> Var:
    """Per-sample contrastive loss column (B, 1) over in-batch negatives."""
    if queries.shape[0] < 2:
        raise ShapeError("need a batch of at least 2 pairs")
    return ad.nce_rows(queries, targets, tau)


def soft_nce_loss(queries: Var, targets: Var, queries_wcb: Var, targets_wcb: Var,
                  labels: np.ndarray, tau: float) -> Var:
    """Label-masked mean of the two views' per-sample losses (scalar Var)."""
    return ad.masked_loss([nce_per_sample(queries, targets, tau),
                           nce_per_sample(queries_wcb, targets_wcb, tau)], labels)

