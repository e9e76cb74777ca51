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


def _token_rows(bundles: list[TokenBundle]) -> tuple[np.ndarray, np.ndarray]:
    """Attention-weighted non-global rows (B * (L-1), d), bundle by bundle, and
    the global tokens (B, d) of B equal-shape bundles sharing a global_index."""
    key = (bundles[0].global_index, bundles[0].tokens.shape, bundles[0].attention.shape)
    if any((b.global_index, b.tokens.shape, b.attention.shape) != key for b in bundles):
        raise ShapeError(
            "compensate_batch requires equal-shape bundles with one global_index")
    gi, (length, d) = key[0], key[1]
    tokens = np.concatenate([b.tokens for b in bundles]).reshape(-1, length, d)
    attention = np.concatenate([b.attention for b in bundles]).reshape(-1, length, 1)
    weighted = attention * tokens
    rows = np.concatenate([weighted[:, :gi], weighted[:, gi + 1:]], axis=1)
    return rows.reshape(-1, d), tokens[:, gi]


def compensate_batch(tape: Tape, store: ParamStore, bundles: list[TokenBundle],
                     name: str) -> Var:
    """Compensate B equal-shape bundles that share a global_index; returns (B, d).

    The MLP runs over all bundles' weighted rows at once; the max-pool works
    per bundle.
    """
    rows, global_tokens = _token_rows(bundles)
    pooled = ad.maxpool_segments(ad.mlp_forward(tape.const(rows), store, name),
                                 len(bundles))
    return ad.add(pooled, tape.const(global_tokens))

