"""Weight compensation: attention-reweighted token fusion.

Each bundle's tokens are scaled by their attention weights, the non-global
rows pass through a modality-specific MLP and a column-wise max-pool, and
the pooled vector is added elementwise to the global token. Text uses its
own MLP; the reference and target images share the image MLP.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tape, Var
from .errors import ShapeError
from .synth import TokenBundle

TEXT_MLP = "wcb_text"
IMAGE_MLP = "wcb_image"


def compensate_batch(tape: Tape, store: ParamStore, bundles: list[TokenBundle],
                     name: str) -> Var:
    """Compensate B equal-shape bundles that share a global_index; returns (B, d).

    The batch is stacked once: one broadcast multiply weights every token by
    its attention, one delete drops the shared global row, the MLP runs over
    all remaining rows and the max-pool works per bundle.
    """
    first = bundles[0]
    if any(b.global_index != first.global_index
           or b.tokens.shape != first.tokens.shape
           or b.attention.shape != first.attention.shape for b in bundles):
        raise ShapeError(
            "compensate_batch requires equal-shape bundles with one global_index")
    tokens = np.stack([b.tokens for b in bundles])          # (B, L, d)
    attention = np.stack([b.attention for b in bundles])    # (B, L)
    weighted = np.delete(attention[:, :, None] * tokens, first.global_index, axis=1)
    x = tape.const(weighted.reshape(-1, tokens.shape[2]))
    pooled = ad.maxpool_segments(ad.mlp_forward(x, store, name), len(bundles))
    return ad.add(pooled, tape.const(tokens[:, first.global_index]))
