"""Reference implementations the tests compare the package against.

The composed autodiff ops below are the op-by-op building blocks the fused
mlp_forward and the batched pooling and similarity ops replaced; no code in
the package calls them. Each keeps its fault hook, so gradient-check tests
can plant a fault in it.

taped_epoch_losses is the trainer's epoch-scope loss pass as it ran before
its losses were stacked: one forward_batch and one nce_per_sample per chunk.

synth_triplet and generate_dataset are the synthetic generator as it ran
before it built samples in blocks: every token and attention row is
computed per sample, from the same draws of the sample's own generator.

token_rows and compensate_batch are the weight compensation as it ran
before datasets were packed: a list of per-sample bundles, checked for one
shape and one global row, then concatenated bundle by bundle.

build_sets and soft_labels are the noise filter's decision as it ran before
it was kept as accept masks: per-view frozensets, combined by set algebra,
and labels rebuilt from the sets pair by pair.

cosine_similarity_matrix is evaluation's cosine as it ran before it called
autodiff.cosine_values: a second normalisation that divided a zero row by 1.

em_fit is the mixture fit as it ran before each E-step shared one exp:
np.percentile start, a GmmParams updated in place, and the log joint
exponentiated once for the log-likelihood and again for the
responsibilities.
"""

import math
from dataclasses import dataclass

import numpy as np

from noisycir import autodiff as ad
from noisycir import nfb, trainer
from noisycir.autodiff import _NORM_EPS, ParamStore, Tape, Var, _fault, _same_tape
from noisycir.errors import ShapeError
from noisycir.evaluation import recall_from_similarity
from noisycir.fusion import nce_per_sample
from noisycir.synth import (_DISTRACTOR_RAW, TRUTH_CLEAN, TRUTH_MISMATCHED,
                            TRUTH_PARTIAL, DatasetSpec, TokenBundle,
                            TripletSample, make_concepts)

def matmul(a: Var, b: Var) -> Var:
    tape = _same_tape(a, b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul {a.shape} x {b.shape}")
    out = Var(tape, a.value @ b.value)

    def bw():
        g = _fault("matmul", out.grad)
        a.grad += g @ b.value.T
        b.grad += a.value.T @ g

    out._backward = bw
    return out


def relu(a: Var) -> Var:
    out = Var(a.tape, np.maximum(a.value, 0.0))

    def bw():
        a.grad += _fault("relu", out.grad) * (a.value > 0.0)

    out._backward = bw
    return out


def emul(a: Var, b: Var) -> Var:
    tape = _same_tape(a, b)
    if a.shape != b.shape:
        raise ShapeError(f"emul {a.shape} * {b.shape}")
    out = Var(tape, a.value * b.value)

    def bw():
        g = _fault("emul", out.grad)
        a.grad += g * b.value
        b.grad += g * a.value

    out._backward = bw
    return out


def maxpool_rows(a: Var) -> Var:
    """Column-wise max over rows; gradient routes to the first argmax row."""
    if a.shape[0] < 1:
        raise ShapeError("maxpool_rows on empty matrix")
    idx = np.argmax(a.value, axis=0)
    cols = np.arange(a.shape[1])
    out = Var(a.tape, a.value[idx, cols].reshape(1, -1))

    def bw():
        g = _fault("maxpool_rows", out.grad)
        np.add.at(a.grad, (idx, cols), g[0])

    out._backward = bw
    return out


def vsum(a: Var) -> Var:
    out = Var(a.tape, np.array([[a.value.sum()]]))

    def bw():
        a.grad += _fault("vsum", out.grad[0, 0])

    out._backward = bw
    return out


def cosine(u: Var, v: Var) -> Var:
    """Cosine similarity of two (1, d) vectors, each divided by
    max(norm, _NORM_EPS); a clamped vector has no tangent projection."""
    tape = _same_tape(u, v)
    if u.shape != v.shape or u.shape[0] != 1:
        raise ShapeError(f"cosine {u.shape} vs {v.shape}")
    nu = max(float(np.linalg.norm(u.value)), _NORM_EPS)
    nv = max(float(np.linalg.norm(v.value)), _NORM_EPS)
    c = float(np.dot(u.value[0], v.value[0])) / (nu * nv)
    out = Var(tape, np.array([[c]]))

    def bw():
        g = _fault("cosine", out.grad[0, 0])
        u.grad += g * (v.value / (nu * nv) - (nu > _NORM_EPS) * c * u.value / (nu * nu))
        v.grad += g * (u.value / (nu * nv) - (nv > _NORM_EPS) * c * v.value / (nv * nv))

    out._backward = bw
    return out


def cosine_similarity_matrix(queries: np.ndarray, gallery: np.ndarray) -> np.ndarray:
    """All-pairs cosines as evaluation computed them before it shared
    autodiff.cosine_values: a zero row is divided by 1, not clamped."""
    q = np.asarray(queries, dtype=np.float64)
    g = np.asarray(gallery, dtype=np.float64)
    qn = np.linalg.norm(q, axis=1, keepdims=True)
    gn = np.linalg.norm(g, axis=1, keepdims=True)
    qn[qn == 0] = 1.0
    gn[gn == 0] = 1.0
    return (q / qn) @ (g / gn).T


def recall_at_k(queries: np.ndarray, gallery: np.ndarray, k: int) -> float:
    """Fraction of queries whose index-aligned target ranks in the top k."""
    q = np.asarray(queries)
    g = np.asarray(gallery)
    if q.shape != g.shape:
        raise ShapeError("queries and gallery must align one-to-one")
    return recall_from_similarity(cosine_similarity_matrix(q, g), k)


def taped_epoch_losses(store, samples, train_idx, config) -> list[np.ndarray]:
    """Per-view detached losses over train_idx, one taped forward per chunk."""
    per_chunk = []
    for chunk in trainer._batches(np.asarray(train_idx), config.batch_size,
                                  fold_tail=True):
        views = trainer.forward_batch(Tape(), store, samples[chunk], config.enable_wcb)
        per_chunk.append([nce_per_sample(q, t, config.temperature).value[:, 0]
                          for q, t in views])
    return [np.concatenate(view) for view in zip(*per_chunk)]


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
    """Sample `index`, built row by row from its own generator."""
    c = concepts.shape[0]
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 1, index]))
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


def token_rows(bundles: list[TokenBundle]) -> tuple[np.ndarray, np.ndarray]:
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
    """Compensated (B, d) rows of a list of B bundles."""
    rows, global_tokens = token_rows(bundles)
    pooled = ad.maxpool_segments(ad.mlp_forward(tape.const(rows), store, name),
                                 len(bundles))
    return ad.add(pooled, tape.const(global_tokens))


@dataclass
class SetsOracle:
    n: int
    s_match: frozenset
    s_mis: frozenset
    s_match_wcb: frozenset
    s_mis_wcb: frozenset
    s_m: frozenset      # matched: union of per-view matched sets
    s_u: frozenset      # mismatched: intersection of per-view rejects
    s_p: frozenset      # partial: views disagree


def build_sets(post: np.ndarray, post_wcb: np.ndarray, theta: float) -> SetsOracle:
    post = np.asarray(post, dtype=np.float64).reshape(-1)
    post_wcb = np.asarray(post_wcb, dtype=np.float64).reshape(-1)
    if post.shape != post_wcb.shape:
        raise ShapeError("posterior vectors disagree in length")
    n = post.size
    s_match = frozenset(np.flatnonzero(post > theta).tolist())
    s_mis = frozenset(range(n)) - s_match
    s_match_w = frozenset(np.flatnonzero(post_wcb > theta).tolist())
    s_mis_w = frozenset(range(n)) - s_match_w
    return SetsOracle(n=n, s_match=s_match, s_mis=s_mis, s_match_wcb=s_match_w,
                      s_mis_wcb=s_mis_w, s_m=s_match | s_match_w,
                      s_u=s_mis & s_mis_w,
                      s_p=(s_mis | s_mis_w) - (s_mis & s_mis_w))


def soft_labels(sets: SetsOracle) -> np.ndarray:
    """1 for pairs in s_m but in neither s_u nor s_p, else 0."""
    labels = np.zeros(sets.n)
    for i in sets.s_m:
        if i not in sets.s_u and i not in sets.s_p:
            labels[i] = 1.0
    return labels


def em_fit(losses: np.ndarray) -> nfb.GmmParams:
    x = np.asarray(losses, dtype=np.float64).reshape(-1)
    if x.size < 4:
        return nfb.GmmParams(weights=np.array([1.0 - 1e-12, 1e-12]),
                             means=np.array([0.0, 1.0]),
                             variances=np.array([1e6, 1e6]),
                             fallback=True)
    mu = np.percentile(x, [25.0, 75.0]).astype(np.float64)
    var0 = max(float(x.var()), nfb.VARIANCE_FLOOR)
    gmm = nfb.GmmParams(weights=np.array([0.5, 0.5]), means=mu,
                        variances=np.array([var0, var0]))
    prev_ll = None
    for it in range(nfb.DEFAULT_MAX_ITERS + 1):
        lj = nfb._log_joint(gmm, x)
        m = lj.max(axis=0)
        ll = float((m + np.log(np.exp(lj - m).sum(axis=0))).sum())
        gmm.log_likelihoods.append(ll)
        if (prev_ll is not None and ll - prev_ll < nfb.DEFAULT_TOL) \
                or it == nfb.DEFAULT_MAX_ITERS:
            break
        prev_ll = ll
        post = np.exp(lj - m)
        post /= post.sum(axis=0)
        nk = post.sum(axis=1)
        nk = np.maximum(nk, 1e-12)
        gmm.weights = nk / x.size
        gmm.means = (post * x).sum(axis=1) / nk
        gmm.variances = np.maximum(
            (post * (x - gmm.means[:, None]) ** 2).sum(axis=1) / nk, nfb.VARIANCE_FLOOR)
        gmm.n_iters = it + 1
    if gmm.means[0] > gmm.means[1]:
        for attr in ("weights", "means", "variances"):
            setattr(gmm, attr, getattr(gmm, attr)[::-1].copy())
    return gmm
