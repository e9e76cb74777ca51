"""Weight compensation: attention-reweighted token fusion.

Each bundle's tokens are scaled by their attention weights, the non-global
rows pass through a modality-specific MLP and a column-wise max-pool, and
the pooled vector is added elementwise to the global token. Text uses its
own MLP; the reference and target images share the image MLP.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tape, Var
from .synth import TokenBundle

TEXT_MLP = "wcb_text"
IMAGE_MLP = "wcb_image"


def compensate_batch(tape: Tape, store: ParamStore, bundles: TokenBundle, name: str) -> Var:
    """Compensate packed bundles, (..., L, d): one (B, d) row per bundle, in
    C order. One MLP call covers every weighted non-global row; the max-pool
    works per bundle."""
    d = bundles.tokens.shape[-1]
    weighted = bundles.attention[..., None] * bundles.tokens
    rows = np.delete(weighted, bundles.global_index, axis=-2).reshape(-1, d)
    pooled = ad.maxpool_segments(ad.mlp_forward(tape.const(rows), store, name),
                                 math.prod(bundles.tokens.shape[:-2]))
    return ad.add(pooled, tape.const(bundles.global_token().reshape(-1, d)))
