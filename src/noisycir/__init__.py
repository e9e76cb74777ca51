"""Noise-aware contrastive learning toolkit for composed image retrieval.

Desk-scale pipeline: a synthetic encoder plants concept-structured token
bundles, a weight compensation block re-weights tokens by attention, queries
fuse text and reference-image embeddings, a GMM-based filter detects noisy
pairs from per-sample contrastive losses, and a soft-label NCE objective
trains only on the pairs judged matched.

Import from the submodules (noisycir.trainer, noisycir.autodiff, ...): the
package root holds only __version__.
"""

__version__ = "0.1.0"
