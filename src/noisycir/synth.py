"""Deterministic synthetic stand-in for frozen text/image encoders.

Emits token bundles with the same layout a CLIP-style encoder would:
text sequences of n+2 rows (sot, n words, eot) and image sequences of
m+1 rows (cls, m patches), each with a normalized attention map. Concepts
are planted unit anchors; triplets encode an edit direction from a
reference concept to a target concept, with controllable injection of
mismatched and partially matched targets plus ground-truth noise labels.
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


def _concept_rng(spec: DatasetSpec) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([spec.seed, 0]))


def _sample_rng(spec: DatasetSpec, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([spec.seed, 1, index]))


def make_concepts(spec: DatasetSpec) -> np.ndarray:
    """C unit-norm anchor vectors in R^d, seeded and pairwise distinct."""
    spec.validate()
    rng = _concept_rng(spec)
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


def _attention(n_rows: int, informative: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Normalized attention: informative rows ~1 with jitter, the rest near zero."""
    raw = np.full(n_rows, _DISTRACTOR_RAW / n_rows)
    raw[informative] = 1.0 + 0.1 * rng.uniform(size=informative.size)
    return raw / raw.sum()


def _image_bundle(center: np.ndarray, spec: DatasetSpec,
                  rng: np.random.Generator) -> TokenBundle:
    m, d, sigma = spec.image_patches, spec.dim, spec.noise_scale
    n_distract = math.ceil(spec.distractor_fraction * m)
    tokens = np.empty((m + 1, d))
    patch_rows = np.arange(1, m + 1)
    distract_rows = rng.choice(patch_rows, size=n_distract, replace=False)
    inform_rows = np.setdiff1d(patch_rows, distract_rows)
    tokens[inform_rows] = center + sigma * rng.standard_normal((inform_rows.size, d))
    tokens[distract_rows] = rng.standard_normal((n_distract, d))
    tokens[0] = tokens[inform_rows].mean(axis=0) + sigma * rng.standard_normal(d)
    att = _attention(m + 1, np.concatenate(([0], inform_rows)), rng)
    return TokenBundle(tokens=tokens, attention=att, global_index=0, modality="image")


def _text_bundle(direction: np.ndarray, spec: DatasetSpec,
                 rng: np.random.Generator) -> TokenBundle:
    n, d, sigma = spec.text_tokens, spec.dim, spec.noise_scale
    tokens = np.empty((n + 2, d))
    word_rows = np.arange(1, n + 1)
    tokens[word_rows] = direction + sigma * rng.standard_normal((n, d))
    tokens[0] = rng.standard_normal(d)  # sot: uninformative
    tokens[n + 1] = tokens[word_rows].mean(axis=0) + sigma * rng.standard_normal(d)
    att = _attention(n + 2, np.concatenate((word_rows, [n + 1])), rng)
    return TokenBundle(tokens=tokens, attention=att, global_index=n + 1, modality="text")


def synth_triplet(concepts: np.ndarray, spec: DatasetSpec, index: int) -> TripletSample:
    """Generate sample `index` deterministically from (spec, seed, index)."""
    if index >= spec.num_triplets:
        raise ConfigError(f"index {index} out of range for N={spec.num_triplets}")
    c = concepts.shape[0]
    if c < 2:
        raise ConfigError("need at least 2 concepts to form an edit triplet")
    rng = _sample_rng(spec, index)
    r = int(rng.integers(c))
    t = int((r + 1 + rng.integers(c - 1)) % c)

    direction = concepts[t] - concepts[r]
    direction = direction / np.linalg.norm(direction)
    mod_text = _text_bundle(direction, spec, rng)
    ref_image = _image_bundle(concepts[r], spec, rng)

    u = rng.uniform()
    if u < spec.mismatch_rate:
        wrong = int((t + 1 + rng.integers(c - 1)) % c)
        tar_image = _image_bundle(concepts[wrong], spec, rng)
        truth = TRUTH_MISMATCHED
    elif u < spec.mismatch_rate + spec.partial_rate:
        other = int((t + 1 + rng.integers(c - 1)) % c)
        blend = 0.5 * concepts[t] + 0.5 * concepts[other]
        tar_image = _image_bundle(blend, spec, rng)
        truth = TRUTH_PARTIAL
    else:
        tar_image = _image_bundle(concepts[t], spec, rng)
        truth = TRUTH_CLEAN
    return TripletSample(mod_text=mod_text, ref_image=ref_image,
                         tar_image=tar_image, truth=truth, concept_ids=(r, t))


def generate_dataset(spec: DatasetSpec) -> list[TripletSample]:
    concepts = make_concepts(spec)
    return [synth_triplet(concepts, spec, i) for i in range(spec.num_triplets)]
