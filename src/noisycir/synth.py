"""Deterministic synthetic stand-in for frozen text/image encoders.

Emits token bundles with the same layout a CLIP-style encoder would:
text sequences of n+2 rows (sot, n words, eot) and image sequences of
m+1 rows (cls, m patches), each with a normalized attention map. Concepts
are planted unit anchors; triplets encode an edit direction from a
reference concept to a target concept, with controllable injection of
mismatched and partially matched targets plus ground-truth noise labels.

Samples are built in blocks that their bundles view. A per-sample loop only
draws, normals straight into place; centring, eot and cls means, placing the
distractors and attention then run once per block. Sample i draws only from
SeedSequence([seed, 1, i]), in a fixed order, whatever the block or its size.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, check_seed_and_floats

TRUTH_CLEAN = "clean"
TRUTH_MISMATCHED = "mismatched"
TRUTH_PARTIAL = "partial"

# Planted attention on a distractor token, as a fraction of the uniform
# weight, before normalization. Normalized weight stays below 1/(10L).
_DISTRACTOR_RAW = 0.05
_BLOCK = 256  # samples per block: array calls spread thin, transients small


@dataclass(frozen=True)
class DatasetSpec:
    num_concepts: int = 16
    dim: int = 32
    text_tokens: int = 8
    image_patches: int = 16
    num_triplets: int = 2000
    mismatch_rate: float = 0.0
    partial_rate: float = 0.0
    distractor_fraction: float = 0.25
    noise_scale: float = 0.05
    seed: int = 0

    def validate(self) -> None:
        check_seed_and_floats(self)
        if min(self.num_concepts, self.dim, self.text_tokens,
               self.image_patches, self.num_triplets) < 1:
            raise ConfigError("all dataset counts must be >= 1")
        if self.dim < 4:
            raise ConfigError("dim must be >= 4")
        if not (0.0 <= self.mismatch_rate <= 1.0 and 0.0 <= self.partial_rate <= 1.0):
            raise ConfigError("noise rates must be in [0, 1]")
        if self.mismatch_rate + self.partial_rate > 1.0:
            raise ConfigError("mismatch_rate + partial_rate must be <= 1")
        if not (0.0 <= self.distractor_fraction < 1.0):
            raise ConfigError("distractor_fraction must be in [0, 1)")
        if math.ceil(self.distractor_fraction * self.image_patches) >= self.image_patches:
            raise ConfigError("distractor_fraction leaves no informative patch")
        if self.noise_scale < 0:
            raise ConfigError("noise_scale must be >= 0")


@dataclass
class TokenBundle:
    tokens: np.ndarray          # (L, d)
    attention: np.ndarray       # (L,), nonnegative, sums to 1
    global_index: int           # eot row for text, cls row for image
    modality: str               # "text" | "image"

    def global_token(self) -> np.ndarray:
        return self.tokens[self.global_index]


@dataclass
class TripletSample:
    mod_text: TokenBundle
    ref_image: TokenBundle
    tar_image: TokenBundle
    truth: str
    concept_ids: tuple[int, int] = field(default=(0, 0))

    @property
    def is_noisy(self) -> bool:
        return self.truth != TRUTH_CLEAN


def make_concepts(spec: DatasetSpec) -> np.ndarray:
    """C unit-norm anchor vectors in R^d, seeded and pairwise distinct."""
    spec.validate()
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0]))
    anchors = rng.standard_normal((spec.num_concepts, spec.dim))
    anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
    if spec.num_concepts > 1:
        sims = anchors @ anchors.T
        np.fill_diagonal(sims, -1.0)
        if sims.max() > 0.95:
            warnings.warn(
                f"concept anchors nearly collinear (max cosine {sims.max():.3f}); "
                f"increase dim or reduce num_concepts", stacklevel=2)
    return anchors


def _draw_image(rng: np.random.Generator, tokens: np.ndarray, row: np.ndarray,
                jitter: np.ndarray) -> None:
    """One image's draws: its distractor patches, its rows in _finish's
    layout (informative, distractors, cls) and its attention jitter."""
    m, k = len(row) - 1, len(jitter) - 1
    row[k:m] = 1 + rng.choice(m, size=m - k, replace=False)
    rng.standard_normal(out=tokens[:k])
    rng.standard_normal(out=tokens[k:m])
    rng.standard_normal(out=tokens[m])
    jitter[:] = rng.uniform(size=k + 1)


def _finish(tokens: np.ndarray, row: np.ndarray, jitter: np.ndarray, center: np.ndarray,
            sigma: float, jittered: np.ndarray) -> np.ndarray:
    """Turn a block of bundles' draws into tokens, in place; return the
    attention. A bundle is drawn as its q informative rows, its other rows,
    then its global row; row[:, i] is the token row drawn row i belongs to."""
    (b, n_rows, _), q = tokens.shape, jitter.shape[1] - 1
    inform = tokens[:, :q]
    inform *= sigma
    inform += center[:, None]
    tokens[:, -1] = sigma * tokens[:, -1] + inform.sum(axis=1) / q
    np.put_along_axis(tokens, row[:, :, None], tokens.copy(), axis=1)
    # the jittered rows (informative and global) ~1, the rest near zero
    att = np.full((b, n_rows), _DISTRACTOR_RAW / n_rows)
    np.put_along_axis(att, row[:, jittered], 1.0 + 0.1 * jitter, axis=1)
    return att / att.sum(axis=1, keepdims=True)


def _build(concepts: np.ndarray, spec: DatasetSpec, indices) -> list[TripletSample]:
    """The samples at `indices`, built as one block."""
    c = concepts.shape[0]
    if c < 2:
        raise ConfigError("need at least 2 concepts to form an edit triplet")
    n, m, d, sigma = spec.text_tokens, spec.image_patches, spec.dim, spec.noise_scale
    b, k = len(indices), m - math.ceil(spec.distractor_fraction * m)
    text, text_jitter = np.empty((b, n + 2, d)), np.empty((b, n + 1))
    img, jitter = np.empty((2, b, m + 1, d)), np.empty((2, b, k + 1))  # reference, target
    row = np.zeros((2, b, m + 1), np.intp)
    pairs, truths, tar_ids = [], [], np.empty((b, 2), np.intp)  # target centred on their mean
    for i, index in enumerate(indices):
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 1, index]))
        r = int(rng.integers(c))
        t = int((r + 1 + rng.integers(c - 1)) % c)
        pairs.append((r, t))
        rng.standard_normal(out=text[i, :n])  # words
        rng.standard_normal(out=text[i, n])  # sot: uninformative
        rng.standard_normal(out=text[i, n + 1])  # eot
        text_jitter[i] = rng.uniform(size=n + 1)
        _draw_image(rng, img[0, i], row[0, i], jitter[0, i])
        u = rng.uniform()
        noisy, wrong = u < spec.mismatch_rate + spec.partial_rate, u < spec.mismatch_rate
        other = int((t + 1 + rng.integers(c - 1)) % c) if noisy else t
        tar_ids[i] = other if wrong else t, other
        truths.append(TRUTH_MISMATCHED if wrong else TRUTH_PARTIAL if noisy else TRUTH_CLEAN)
        _draw_image(rng, img[1, i], row[1, i], jitter[1, i])

    diffs = {(r, t): concepts[t] - concepts[r] for r, t in set(pairs)}
    unit = {p: v / np.linalg.norm(v) for p, v in diffs.items()}  # 1-D norms, as per sample
    text_att = _finish(text, np.broadcast_to(np.r_[1:n + 1, 0, n + 1], (b, n + 2)), text_jitter,
                       np.array([unit[p] for p in pairs]), sigma, np.r_[:n, -1])
    free = np.broadcast_to(np.arange(m + 1) > 0, row.shape).copy()  # patches not drawn
    np.put_along_axis(free, row[..., k:m], False, axis=2)
    row[..., :k] = np.nonzero(free)[2].reshape(2, b, k)  # the informative ones, in order
    a, o = tar_ids.T
    tar_center = np.where((a != o)[:, None], 0.5 * concepts[a] + 0.5 * concepts[o], concepts[a])
    ref_att, tar_att = (_finish(img[j], row[j], jitter[j], center, sigma, np.r_[-1, :k])
                        for j, center in enumerate((concepts[[r for r, _ in pairs]], tar_center)))
    return [TripletSample(TokenBundle(text[i], text_att[i], n + 1, "text"),
                          TokenBundle(img[0, i], ref_att[i], 0, "image"),
                          TokenBundle(img[1, i], tar_att[i], 0, "image"),
                          truth=truths[i], concept_ids=pairs[i]) for i in range(b)]


def synth_triplet(concepts: np.ndarray, spec: DatasetSpec, index: int) -> TripletSample:
    """Generate sample `index` deterministically from (spec, seed, index)."""
    if not 0 <= index < spec.num_triplets:
        raise ConfigError(f"index {index} out of range for N={spec.num_triplets}")
    return _build(concepts, spec, [index])[0]


def generate_dataset(spec: DatasetSpec) -> list[TripletSample]:
    concepts, n = make_concepts(spec), spec.num_triplets
    return [s for i in range(0, n, _BLOCK)
            for s in _build(concepts, spec, range(i, min(i + _BLOCK, n)))]
