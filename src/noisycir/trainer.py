"""Training loop, optimizer, and ablation harness.

Per epoch: forward every enabled view, during warm-up train with every label
set to 1; afterwards fit the noise filter on detached per-sample losses (over
the whole epoch by default, or per batch). One fit step serves both scopes:
it fits one mixture per enabled view, and nfb.build_sets turns the posteriors
into one accept mask per view; a pair is labelled 1 only when every view
accepts it, and the filter report counts the matched, mismatched and partial
pairs from the same masks. The labels, one per sample index, mask the
contrastive loss, and an Adam step with one learning rate follows.
Retrieval is evaluated on a clean holdout; filter quality against the
synthetic ground-truth noise flags.

A batch's embeddings are a list of (query, target) pairs, one per enabled
view. Its tokens enter the tape as data leaves, so a step computes
gradients for the parameters only. Every tape is freed when its step or
no-grad chunk ends; the epoch-scope loss pass then computes all full
chunks' losses in one stacked call.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import fusion, nfb
from .autodiff import (ParamStore, Tape, Var, cosine_values, slice_rows,
                       xent_values)
from .errors import (ConfigError, DegenerateInputError, NumericalError,
                     check_field_types)
from .evaluation import (FilterScore, cosine_similarity_matrix, evaluate_filter,
                         recall_from_similarity)
from .synth import Dataset
from .wcb import IMAGE_MLP, TEXT_MLP, compensate_batch

RECALL_KS = (1, 10, 50)

_BETA1 = 0.9    # Adam's first-moment decay
_BETA2 = 0.999  # Adam's second-moment decay
_EPS = 1e-8     # Adam's denominator floor


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 16
    epochs: int = 20
    lr: float = 1e-3
    temperature: float = fusion.DEFAULT_TEMPERATURE
    theta: float = nfb.DEFAULT_THETA
    filter_scope: str = "epoch"       # "epoch" | "batch"
    warmup_epochs: int = 3
    seed: int = 0
    enable_wcb: bool = True
    enable_nfb: bool = True
    eval_fraction: float = 0.2

    def validate(self) -> None:
        check_field_types(self)
        if self.batch_size < 4:
            raise ConfigError("batch_size must be >= 4")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if min(self.lr, self.temperature) <= 0:
            raise ConfigError("lr and temperature must be > 0")
        if not (0.0 < self.theta < 1.0):
            raise ConfigError("theta must lie in (0, 1)")
        if self.filter_scope not in ("epoch", "batch"):
            raise ConfigError("filter_scope must be 'epoch' or 'batch'")
        if self.warmup_epochs < 1:
            raise ConfigError("warmup_epochs must be >= 1")
        if not (0.0 < self.eval_fraction < 1.0):
            raise ConfigError("eval_fraction must lie in (0, 1)")


@dataclass
class MetricsRecord:
    epoch: int
    train_loss: float
    label1_fraction: float
    recall_at_1: float
    recall_at_10: float
    recall_at_50: float
    filter_score: FilterScore | None = None


@dataclass
class FilterReportRow:
    epoch: int
    view: str
    mu0: float
    mu1: float
    sigma0: float
    sigma1: float
    pi0: float
    n_matched: int
    n_mismatched: int
    n_partial: int
    precision: float
    recall: float
    f1: float


@dataclass
class TrainResult:
    records: list[MetricsRecord]
    filter_rows: list[FilterReportRow]
    store: ParamStore
    train_indices: list[int]
    eval_indices: list[int]


class Adam:
    """Adam with one learning rate for every parameter.

    The moments are flat vectors aligned with the store's flat parameter
    buffer, so one step is one vectorised update.
    """

    def __init__(self, store: ParamStore, lr: float):
        self.store = store
        self.t = 0
        self.lr = lr
        self.m = np.zeros_like(store.flat_params)
        self.v = np.zeros_like(store.flat_params)

    def step(self) -> None:
        self.t += 1
        b1, b2 = _BETA1, _BETA2
        g = self.store.flat_grads
        self.m *= b1
        self.m += (1 - b1) * g
        self.v *= b2
        self.v += (1 - b2) * g * g
        mhat = self.m / (1 - b1 ** self.t)
        vhat = self.v / (1 - b2 ** self.t)
        # p -= lr * mhat / (sqrt(vhat) + eps), evaluated in place in that order
        mhat *= self.lr
        np.sqrt(vhat, out=vhat)
        vhat += _EPS
        mhat /= vhat
        self.store.flat_params -= mhat
        self.store.zero_grads()


def init_params(dim: int, seed: int) -> ParamStore:
    """All trainable MLPs; the same seed always yields the same init."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    store = ParamStore()
    store.init_mlp(TEXT_MLP, dim, dim, dim, rng)
    store.init_mlp(IMAGE_MLP, dim, dim, dim, rng)
    store.init_mlp(fusion.FUSION_MLP[fusion.VIEW_GLOBAL], 2 * dim, dim, dim, rng)
    store.init_mlp(fusion.FUSION_MLP[fusion.VIEW_WCB], 2 * dim, dim, dim, rng)
    return store


def forward_batch(tape: Tape, store: ParamStore, batch: Dataset,
                  enable_wcb: bool) -> list[tuple[Var, Var]]:
    """(query, target) embeddings over one batch, a Dataset like samples[idx]:
    the global view, then the compensated view when WCB is enabled."""
    text_g, ref_g, tar_g = (tape.const(g) for g in (batch.mod_text.global_token(),
                                                    *batch.images.global_token()))
    views = [(fusion.fuse_query(text_g, ref_g, store, fusion.VIEW_GLOBAL), tar_g)]
    if enable_wcb:
        text_w = compensate_batch(tape, store, batch.mod_text, TEXT_MLP)
        both = compensate_batch(tape, store, batch.images, IMAGE_MLP)  # references, targets
        b = len(batch)
        ref_w = slice_rows(both, 0, b)
        tar_w = slice_rows(both, b, 2 * b)
        views.append((fusion.fuse_query(text_w, ref_w, store, fusion.VIEW_WCB), tar_w))
    return views


def split_dataset(samples: Dataset,
                  config: TrainConfig) -> tuple[list[int], list[int]]:
    """Holdout a clean evaluation split; everything else trains."""
    clean = np.flatnonzero(~samples.is_noisy).tolist()
    if not clean:
        raise DegenerateInputError("no clean pair to hold out for evaluation")
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 4]))
    perm = rng.permutation(len(clean))
    n_eval = max(1, int(round(config.eval_fraction * len(clean))))
    eval_idx = sorted(clean[j] for j in perm[:n_eval])
    train_idx = np.setdiff1d(np.arange(len(samples)), eval_idx).tolist()
    if len(train_idx) < 2:  # the contrastive loss needs in-batch negatives
        raise DegenerateInputError(
            f"training needs at least 2 pairs, got {len(train_idx)}")
    return train_idx, eval_idx


def _batches(indices: np.ndarray, batch_size: int,
             fold_tail: bool = False) -> list[np.ndarray]:
    """Consecutive chunks of batch_size. The contrastive loss needs in-batch
    negatives, so a trailing one-pair chunk is dropped, or with fold_tail
    joins the chunk before it."""
    out = [indices[s:s + batch_size] for s in range(0, len(indices), batch_size)]
    if out and len(out[-1]) < 2:
        tail = out.pop()
        if fold_tail and out:
            out[-1] = np.concatenate([out[-1], tail])
    return out


def _collect_epoch_losses(store: ParamStore, samples: Dataset,
                          train_idx: list[int], config: TrainConfig
                          ) -> list[np.ndarray]:
    """Detached per-sample losses over the whole training split, one vector
    per enabled view, in train_idx order."""
    chunks = _batches(np.asarray(train_idx), config.batch_size, fold_tail=True)
    embedded = []
    for chunk in chunks:
        with Tape() as tape:
            views = forward_batch(tape, store, samples[chunk], config.enable_wcb)
        embedded.append([(q.value, t.value) for q, t in views])
    # one stacked (n, B, B) loss call per view; a tail of another size goes alone
    n_full = len(chunks) - (len(chunks[-1]) != config.batch_size)
    losses = []
    for view in zip(*embedded):
        parts = [zip(*part) for part in (view[:n_full], view[n_full:]) if part]
        losses.append(np.concatenate([
            xent_values(cosine_values(np.stack(qs), np.stack(ts))[0],
                        config.temperature)[0].ravel()
            for qs, ts in parts]))
    return losses


def _fit_and_label(loss_vectors: list[np.ndarray], theta: float
                   ) -> tuple[np.ndarray, list[nfb.GmmParams], nfb.PairSets]:
    """One mixture per view; label 1 where every view accepts the pair
    (build_sets of the first and the last view: with one view, it twice)."""
    normed = [nfb.normalize_losses(v) for v in loss_vectors]
    gmms = [nfb.em_fit(x) for x in normed]
    posts = [nfb.posterior(g, x) for g, x in zip(gmms, normed)]
    sets = nfb.build_sets(posts[0], posts[-1], theta)
    return nfb.soft_labels(sets), gmms, sets


def _diagnostics(store: ParamStore) -> str:
    norms = {k: float(np.linalg.norm(v)) for k, v in store.params.items()}
    return ", ".join(f"{k}={v:.3e}" for k, v in sorted(norms.items()))


def evaluate_retrieval(store: ParamStore, samples: Dataset,
                       enable_wcb: bool) -> dict[int, float]:
    """Recall@K over the holdout; similarity averaged across enabled views.
    A non-finite similarity, which would rank every target first, raises
    NumericalError."""
    with Tape() as tape:
        pairs = forward_batch(tape, store, samples, enable_wcb)
    sims = sum(cosine_similarity_matrix(q.value, t.value) for q, t in pairs) / len(pairs)
    if not np.isfinite(sims).all():
        raise NumericalError(f"non-finite holdout similarity; param norms: {_diagnostics(store)}")
    return {k: recall_from_similarity(sims, min(k, len(samples))) for k in RECALL_KS}


def train_epoch(store: ParamStore, optimizer: Adam, samples: Dataset,
                train_idx: list[int], eval_idx: list[int], config: TrainConfig,
                epoch: int) -> tuple[MetricsRecord, list[FilterReportRow]]:
    filtering = config.enable_nfb and epoch >= config.warmup_epochs

    # one label per sample index, NaN until a fit labels it
    pair_labels = np.full(len(samples), np.nan)
    gmms: list[nfb.GmmParams] = []
    set_counts = np.zeros(3, dtype=int)

    def fit(idx, loss_vectors: list[np.ndarray]) -> np.ndarray:
        nonlocal gmms
        labels, gmms, sets = _fit_and_label(loss_vectors, config.theta)
        pair_labels[idx] = labels
        set_counts[:] += sets.counts
        return labels

    if filtering and config.filter_scope == "epoch":
        fit(train_idx, _collect_epoch_losses(store, samples, train_idx, config))

    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 5, epoch]))
    order = rng.permutation(np.asarray(train_idx))

    losses: list[float] = []
    label_sum = 0.0
    label_n = 0
    for batch_no, chunk in enumerate(_batches(order, config.batch_size)):
        with Tape() as tape:
            views = forward_batch(tape, store, samples[chunk], config.enable_wcb)
            vecs = [fusion.nce_per_sample(q, t, config.temperature) for q, t in views]
            if not filtering:
                labels = np.ones(len(chunk))
            elif config.filter_scope == "batch":
                labels = fit(chunk, [v.value[:, 0] for v in vecs])
            else:
                labels = pair_labels[chunk]
            loss = fusion.masked_loss(vecs, labels)
            if not np.isfinite(loss.value).all():
                raise NumericalError(
                    f"non-finite loss at epoch {epoch} batch {batch_no}; "
                    f"param norms: {_diagnostics(store)}")
            tape.backward(loss)
        optimizer.step()
        losses.append(loss.scalar())
        label_sum += labels.sum()
        label_n += len(labels)

    recalls = evaluate_retrieval(store, samples[eval_idx], config.enable_wcb)
    score: FilterScore | None = None
    filter_rows: list[FilterReportRow] = []
    labelled = np.flatnonzero(~np.isnan(pair_labels))
    if labelled.size:
        score = evaluate_filter(pair_labels[labelled], samples.is_noisy[labelled])
        # one row per enabled view, each describing its own fit
        for view, gmm in zip(("main", "wcb"), gmms):
            filter_rows.append(FilterReportRow(
                epoch=epoch, view=view,
                mu0=float(gmm.means[0]), mu1=float(gmm.means[1]),
                sigma0=float(np.sqrt(gmm.variances[0])),
                sigma1=float(np.sqrt(gmm.variances[1])),
                pi0=float(gmm.weights[0]),
                n_matched=int(set_counts[0]), n_mismatched=int(set_counts[1]),
                n_partial=int(set_counts[2]),
                precision=score.precision, recall=score.recall, f1=score.f1))

    record = MetricsRecord(
        epoch=epoch,
        train_loss=float(np.mean(losses)) if losses else 0.0,
        label1_fraction=float(label_sum / label_n) if label_n else 1.0,
        recall_at_1=recalls[1], recall_at_10=recalls[10], recall_at_50=recalls[50],
        filter_score=score)
    return record, filter_rows


def run_training(samples: Dataset, config: TrainConfig) -> TrainResult:
    config.validate()
    store = init_params(samples.spec.dim, config.seed)
    optimizer = Adam(store, config.lr)
    train_idx, eval_idx = split_dataset(samples, config)
    records: list[MetricsRecord] = []
    filter_rows: list[FilterReportRow] = []
    for epoch in range(config.epochs):
        rec, rows = train_epoch(store, optimizer, samples, train_idx, eval_idx,
                                config, epoch)
        records.append(rec)
        filter_rows.extend(rows)
    return TrainResult(records=records, filter_rows=filter_rows, store=store,
                       train_indices=train_idx, eval_indices=eval_idx)


ABLATION_VARIANTS = (
    ("baseline", False, False),
    ("wcb_only", True, False),
    ("nfb_only", False, True),
    ("full", True, True),
)


def variant_config(config: TrainConfig, name: str) -> TrainConfig:
    """config with the enable_wcb and enable_nfb flags of the variant `name`."""
    use_wcb, use_nfb = {n: (w, f) for n, w, f in ABLATION_VARIANTS}[name]
    return dataclasses.replace(config, enable_wcb=use_wcb, enable_nfb=use_nfb)


def run_ablation(samples: Dataset,
                 config: TrainConfig) -> list[dict[str, object]]:
    """Train the four flag combinations under identical seeds; final metrics."""
    rows: list[dict[str, object]] = []
    for name, _, _ in ABLATION_VARIANTS:
        result = run_training(samples, variant_config(config, name))
        final = result.records[-1] if result.records else None
        recalls = {f"R@{k}": getattr(final, f"recall_at_{k}", 0.0) for k in RECALL_KS}
        rows.append({"variant": name, **recalls, "Avg": sum(recalls.values()) / 3.0})
    return rows
