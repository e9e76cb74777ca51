"""Weight compensation: attention-reweighted token fusion.

Each bundle's tokens are scaled by their attention weights, the non-global
rows pass through a modality-specific MLP and a column-wise max-pool, and
the pooled vector is added elementwise to the global token: one pooled
autodiff.mlp_forward node. Text uses its own MLP; the reference and target
images share the image MLP. Tokens and global tokens enter the tape as data
leaves, so the backward pass computes no gradient for them.
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
    C order. One MLP call covers every weighted non-global row, max-pools per
    bundle and adds the global tokens. Tokens enter the tape as data."""
    n, d = bundles.tokens.shape[-2:]
    gi = bundles.global_index
    # weight only the non-global rows: a slice when the global row is first or last
    keep = slice(1, None) if gi == 0 else slice(0, gi) if gi == n - 1 else np.arange(n) != gi
    rows = (bundles.attention[..., keep, None] * bundles.tokens[..., keep, :]).reshape(-1, d)
    return ad.mlp_forward([tape.const(rows)], store, name, math.prod(bundles.tokens.shape[:-2]),
                          tape.const(bundles.global_token().reshape(-1, d)))
