"""Deterministic synthetic stand-in for frozen text/image encoders.

Emits token bundles with the same layout a CLIP-style encoder would:
text sequences of n+2 rows (sot, n words, eot) and image sequences of
m+1 rows (cls, m patches), each with a normalized attention map. Concepts
are planted unit anchors; triplets encode an edit direction from a
reference concept to a target concept, with controllable injection of
mismatched and partially matched targets plus ground-truth noise labels.

A Dataset is one float64 array of records in the .ncld payload's layout
(see storage), and every bundle a strided view of it. Samples are built in
blocks written straight into their records: a per-sample loop only draws,
normals straight into place; centring, eot and cls means, placing the
distractors and attention then run once per block. Sample i draws only from
SeedSequence([seed, 1, i]), in a fixed order, whatever the block or its size.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError, check_field_types

TRUTH_CLEAN = "clean"
TRUTH_MISMATCHED = "mismatched"
TRUTH_PARTIAL = "partial"
TRUTHS = (TRUTH_CLEAN, TRUTH_PARTIAL, TRUTH_MISMATCHED)  # a record's truth code indexes it

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
        check_field_types(self)
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

    @property
    def record_size(self) -> int:
        """Floats per record: d tokens and 1 attention weight per bundle row, then 3 codes."""
        return (self.text_tokens + 2 + 2 * (self.image_patches + 1)) * (self.dim + 1) + 3


@dataclass
class TokenBundle:
    """One bundle, tokens (L, d) and attention (L,), or equal-shape bundles packed
    as (..., L, d) and (..., L), which index and iterate as one-bundle views."""

    tokens: np.ndarray
    attention: np.ndarray       # nonnegative, each bundle's sums to 1
    global_index: int           # eot row for text, cls row for image
    modality: str               # "text" | "image"

    def __post_init__(self) -> None:
        shape = self.tokens.shape
        if (self.attention.ndim == 0 or shape[:-1] != self.attention.shape
                or not 0 <= self.global_index < shape[-2]):
            raise ShapeError(f"bundle of tokens {shape}, attention {self.attention.shape} "
                             f"and global row {self.global_index}")

    def global_token(self) -> np.ndarray:
        return self.tokens[..., self.global_index, :]

    def __getitem__(self, index) -> TokenBundle:
        return TokenBundle(self.tokens[index], self.attention[index], self.global_index,
                           self.modality)

    def __iter__(self) -> Iterator[TokenBundle]:
        return map(self.__getitem__, np.ndindex(self.tokens.shape[:-2]))


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


class Dataset:
    """Triplets as the rows of one (N, spec.record_size) array, with (N, L, d)
    bundle views mod_text, ref_image and tar_image, and images, the last two
    as one (2, N, L, d) view. An int index gives a TripletSample of views; a
    slice or an index array, the Dataset of those records (an array's gathered)."""

    def __init__(self, records: np.ndarray, spec: DatasetSpec):
        if records.shape[1:] != (spec.record_size,):
            raise ShapeError(f"records of shape {records.shape}, not (N, {spec.record_size})")
        n, m, w = spec.text_tokens + 2, spec.image_patches + 1, spec.dim + 1
        self.records, self.spec = records, spec
        self.mod_text = _bundles(records[:, :n * w], n, n - 1, "text")
        pair = records[:, n * w:-3].reshape(len(records), 2, m * w).swapaxes(0, 1)
        self.images = _bundles(pair, m, 0, "image")
        self.ref_image, self.tar_image = self.images[0], self.images[1]

    @property
    def is_noisy(self) -> np.ndarray:
        return self.records[:, -3] != TRUTHS.index(TRUTH_CLEAN)

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, index) -> TripletSample | Dataset:
        if isinstance(index, (int, np.integer)):
            code, r, t = self.records[index, -3:].astype(np.intp).tolist()
            return TripletSample(self.mod_text[index], self.ref_image[index],
                                 self.tar_image[index], TRUTHS[code], (r, t))
        return Dataset(self.records[index], self.spec)

    def __iter__(self) -> Iterator[TripletSample]:
        return map(self.__getitem__, range(len(self)))


def _bundles(block: np.ndarray, rows: int, global_index: int, modality: str) -> TokenBundle:
    """Bundle views of block (..., rows * (d + 1)): tokens then attention."""
    d = block.shape[-1] // rows - 1
    tokens = block[..., :rows * d].reshape(*block.shape[:-1], rows, d)
    return TokenBundle(tokens, block[..., rows * d:], global_index, modality)


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


def _build(concepts: np.ndarray, spec: DatasetSpec, indices, records: np.ndarray) -> None:
    """Write the samples at `indices` into `records`, their rows of a
    dataset's records, as one block."""
    c = concepts.shape[0]
    if c < 2:
        raise ConfigError("need at least 2 concepts to form an edit triplet")
    n, m, d, sigma = spec.text_tokens, spec.image_patches, spec.dim, spec.noise_scale
    b, k = len(indices), m - math.ceil(spec.distractor_fraction * m)
    block = Dataset(records, spec)
    text, text_jitter = block.mod_text.tokens, np.empty((b, n + 1))
    img, jitter = block.images.tokens, np.empty((2, b, k + 1))  # reference, target
    row = np.zeros((2, b, m + 1), np.intp)
    pairs, tar_ids = [], np.empty((b, 2), np.intp)  # target centred on their mean
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
        records[i, -3:] = noisy + wrong, r, t  # TRUTHS index (wrong implies noisy)
        _draw_image(rng, img[1, i], row[1, i], jitter[1, i])

    diffs = {(r, t): concepts[t] - concepts[r] for r, t in set(pairs)}
    unit = {p: v / np.linalg.norm(v) for p, v in diffs.items()}  # 1-D norms, as per sample
    block.mod_text.attention[:] = _finish(
        text, np.broadcast_to(np.r_[1:n + 1, 0, n + 1], (b, n + 2)), text_jitter,
        np.array([unit[p] for p in pairs]), sigma, np.r_[:n, -1])
    free = np.broadcast_to(np.arange(m + 1) > 0, row.shape).copy()  # patches not drawn
    np.put_along_axis(free, row[..., k:m], False, axis=2)
    row[..., :k] = np.nonzero(free)[2].reshape(2, b, k)  # the informative ones, in order
    a, o = tar_ids.T
    tar_center = np.where((a != o)[:, None], 0.5 * concepts[a] + 0.5 * concepts[o], concepts[a])
    for j, center in enumerate((concepts[[r for r, _ in pairs]], tar_center)):
        block.images.attention[j] = _finish(img[j], row[j], jitter[j], center, sigma,
                                            np.r_[-1, :k])


def generate_dataset(spec: DatasetSpec) -> Dataset:
    concepts, n = make_concepts(spec), spec.num_triplets
    records = np.empty((n, spec.record_size))
    for i in range(0, n, _BLOCK):
        _build(concepts, spec, range(i, min(i + _BLOCK, n)), records[i:i + _BLOCK])
    return Dataset(records, spec)
