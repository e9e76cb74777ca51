"""Training loop, optimizer, and ablation harness.

Per epoch: forward both views, during warm-up train with every label set to
1; afterwards fit the noise filter on detached per-sample losses (over the
whole epoch by default, or per batch), mask the contrastive loss with the
resulting soft labels, and take a grouped-learning-rate Adam step. Retrieval
is evaluated on a clean holdout; filter quality against the synthetic
ground-truth noise flags.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import fusion, nfb
from .autodiff import ParamStore, Tape, Var, slice_rows
from .errors import ConfigError, NumericalError, check_seed_and_floats
from .evaluation import (FilterScore, cosine_similarity_matrix, evaluate_filter,
                         recall_from_similarity)
from .synth import TripletSample
from .wcb import IMAGE_MLP, TEXT_MLP, compensate_batch

RECALL_KS = (1, 10, 50)


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 16
    epochs: int = 20
    lr_wcb: float = 1e-3
    lr_other: float = 1e-3
    temperature: float = fusion.DEFAULT_TEMPERATURE
    theta: float = nfb.DEFAULT_THETA
    filter_scope: str = "epoch"       # "epoch" | "batch"
    warmup_epochs: int = 3
    seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    enable_wcb: bool = True
    enable_nfb: bool = True
    eval_fraction: float = 0.2

    def validate(self) -> None:
        check_seed_and_floats(self)
        if self.batch_size < 4:
            raise ConfigError("batch_size must be >= 4")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if min(self.lr_wcb, self.lr_other, self.temperature) <= 0:
            raise ConfigError("rates and temperature must be > 0")
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

    def recalls(self) -> dict[int, float]:
        return {1: self.recall_at_1, 10: self.recall_at_10, 50: self.recall_at_50}


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
    """Adam with a per-group learning rate (WCB parameters vs the rest).

    The moments and the learning rates are flat vectors aligned with the
    store's flat parameter buffer, so one step is one vectorised update.
    """

    def __init__(self, store: ParamStore, lr_by_group: dict[str, float],
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.store = store
        self.lr_by_group = lr_by_group
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = np.zeros_like(store.flat_params)
        self.v = np.zeros_like(store.flat_params)
        self.lr = np.empty_like(store.flat_params)
        for name, sl in store.slices.items():
            self.lr[sl] = lr_by_group[store.groups[name]]

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
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
        vhat += self.eps
        mhat /= vhat
        self.store.flat_params -= mhat
        self.store.zero_grads()


def init_params(dim: int, seed: int) -> ParamStore:
    """All trainable MLPs; the same seed always yields the same init."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    store = ParamStore()
    store.init_mlp(TEXT_MLP, dim, dim, dim, rng, group="wcb")
    store.init_mlp(IMAGE_MLP, dim, dim, dim, rng, group="wcb")
    store.init_mlp(fusion.FUSION_MLP[fusion.VIEW_GLOBAL], 2 * dim, dim, dim, rng)
    store.init_mlp(fusion.FUSION_MLP[fusion.VIEW_WCB], 2 * dim, dim, dim, rng)
    return store


@dataclass
class BatchViews:
    q: Var
    t: Var
    q_wcb: Var | None = None
    t_wcb: Var | None = None

    def pairs(self) -> list[tuple[Var, Var]]:
        out = [(self.q, self.t)]
        if self.q_wcb is not None:
            out.append((self.q_wcb, self.t_wcb))
        return out


def forward_batch(tape: Tape, store: ParamStore, samples: list[TripletSample],
                  enable_wcb: bool) -> BatchViews:
    """Build query/target embeddings for both views over one batch."""
    text_g = tape.const(np.stack([s.mod_text.global_token() for s in samples]))
    ref_g = tape.const(np.stack([s.ref_image.global_token() for s in samples]))
    tar_g = tape.const(np.stack([s.tar_image.global_token() for s in samples]))
    q = fusion.fuse_query(text_g, ref_g, store, fusion.VIEW_GLOBAL)
    views = BatchViews(q=q, t=tar_g)
    if enable_wcb:
        text_w = compensate_batch(tape, store, [s.mod_text for s in samples], TEXT_MLP)
        images = [s.ref_image for s in samples] + [s.tar_image for s in samples]
        both = compensate_batch(tape, store, images, IMAGE_MLP)
        b = len(samples)
        ref_w = slice_rows(both, 0, b)
        tar_w = slice_rows(both, b, 2 * b)
        views.q_wcb = fusion.fuse_query(text_w, ref_w, store, fusion.VIEW_WCB)
        views.t_wcb = tar_w
    return views


def _loss_vectors(views: BatchViews, tau: float) -> list[Var]:
    return [fusion.nce_per_sample(q, t, tau) for q, t in views.pairs()]


def split_dataset(samples: list[TripletSample],
                  config: TrainConfig) -> tuple[list[int], list[int]]:
    """Holdout a clean evaluation split; everything else trains."""
    clean = [i for i, s in enumerate(samples) if not s.is_noisy]
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 4]))
    perm = rng.permutation(len(clean))
    n_eval = max(1, int(round(config.eval_fraction * len(clean))))
    eval_idx = sorted(clean[j] for j in perm[:n_eval])
    eval_set = set(eval_idx)
    train_idx = [i for i in range(len(samples)) if i not in eval_set]
    return train_idx, eval_idx


def _batches(indices: np.ndarray, batch_size: int) -> list[np.ndarray]:
    out = []
    for start in range(0, len(indices), batch_size):
        chunk = indices[start:start + batch_size]
        if len(chunk) >= 2:  # contrastive loss needs in-batch negatives
            out.append(chunk)
    return out


def _collect_epoch_losses(store: ParamStore, samples: list[TripletSample],
                          train_idx: list[int], config: TrainConfig
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Detached per-sample losses over the training split, per view."""
    main = np.zeros(len(train_idx))
    wcb_l = np.zeros(len(train_idx))
    pos = 0
    for chunk in _batches(np.asarray(train_idx), config.batch_size):
        tape = Tape()
        views = forward_batch(tape, store, [samples[i] for i in chunk],
                              config.enable_wcb)
        vecs = _loss_vectors(views, config.temperature)
        main[pos:pos + len(chunk)] = vecs[0].value[:, 0]
        wcb_l[pos:pos + len(chunk)] = (vecs[1].value[:, 0] if len(vecs) > 1
                                       else vecs[0].value[:, 0])
        pos += len(chunk)
    return main[:pos], wcb_l[:pos]


def _fit_and_label(loss_main: np.ndarray, loss_wcb: np.ndarray,
                   theta: float) -> tuple[np.ndarray, nfb.GmmParams, nfb.GmmParams,
                                          nfb.PairSets]:
    gmm_main = nfb.em_fit(nfb.normalize_losses(loss_main))
    gmm_wcb = nfb.em_fit(nfb.normalize_losses(loss_wcb))
    post_main = nfb.posterior(gmm_main, nfb.normalize_losses(loss_main))
    post_wcb = nfb.posterior(gmm_wcb, nfb.normalize_losses(loss_wcb))
    sets = nfb.build_sets(post_main, post_wcb, theta)
    return nfb.soft_labels(sets), gmm_main, gmm_wcb, sets


def _diagnostics(store: ParamStore) -> str:
    norms = {k: float(np.linalg.norm(v)) for k, v in store.params.items()}
    return ", ".join(f"{k}={v:.3e}" for k, v in sorted(norms.items()))


def evaluate_retrieval(store: ParamStore, samples: list[TripletSample],
                       enable_wcb: bool) -> dict[int, float]:
    """Recall@K over the holdout; similarity averaged across enabled views."""
    tape = Tape()
    views = forward_batch(tape, store, samples, enable_wcb)
    sims = np.zeros((len(samples), len(samples)))
    for q, t in views.pairs():
        sims += cosine_similarity_matrix(q.value, t.value)
    sims /= len(views.pairs())
    n = len(samples)
    return {k: recall_from_similarity(sims, min(k, n)) for k in RECALL_KS}


def train_epoch(store: ParamStore, optimizer: Adam, samples: list[TripletSample],
                train_idx: list[int], eval_idx: list[int], config: TrainConfig,
                epoch: int) -> tuple[MetricsRecord, list[FilterReportRow]]:
    filtering = config.enable_nfb and epoch >= config.warmup_epochs

    epoch_labels: dict[int, float] = {}
    filter_rows: list[FilterReportRow] = []
    gmms: tuple[nfb.GmmParams, nfb.GmmParams] | None = None
    sets_counts = np.zeros(3, dtype=int)

    if filtering and config.filter_scope == "epoch":
        loss_main, loss_wcb = _collect_epoch_losses(store, samples, train_idx, config)
        labels, gmm_main, gmm_wcb, sets = _fit_and_label(
            loss_main, loss_wcb, config.theta)
        epoch_labels = dict(zip(train_idx, labels))
        gmms = (gmm_main, gmm_wcb)
        sets_counts += (len(sets.s_m), len(sets.s_u), len(sets.s_p))

    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 5, epoch]))
    order = rng.permutation(np.asarray(train_idx))

    losses: list[float] = []
    label_sum = 0.0
    label_n = 0
    for batch_no, chunk in enumerate(_batches(order, config.batch_size)):
        tape = Tape()
        batch = [samples[i] for i in chunk]
        views = forward_batch(tape, store, batch, config.enable_wcb)
        vecs = _loss_vectors(views, config.temperature)
        if not filtering:
            labels = np.ones(len(chunk))
        elif config.filter_scope == "epoch":
            labels = np.array([epoch_labels[i] for i in chunk])
        else:
            lv_main = vecs[0].value[:, 0]
            lv_wcb = vecs[-1].value[:, 0]
            labels, gmm_main, gmm_wcb, sets = _fit_and_label(
                lv_main, lv_wcb, config.theta)
            for i, lab in zip(chunk, labels):
                epoch_labels[int(i)] = float(lab)
            gmms = (gmm_main, gmm_wcb)
            sets_counts += (len(sets.s_m), len(sets.s_u), len(sets.s_p))
        loss = fusion.masked_loss(vecs, labels)
        if not np.isfinite(loss.value).all():
            raise NumericalError(
                f"non-finite loss at epoch {epoch} batch {batch_no}; "
                f"param norms: {_diagnostics(store)}")
        tape.backward(loss)
        tape.accumulate_grads()
        optimizer.step()
        losses.append(loss.scalar())
        label_sum += labels.sum()
        label_n += len(labels)

    recalls = evaluate_retrieval(store, [samples[i] for i in eval_idx],
                                 config.enable_wcb)
    score: FilterScore | None = None
    if filtering and epoch_labels:
        idx = sorted(epoch_labels)
        lab_arr = np.array([epoch_labels[i] for i in idx])
        truth = np.array([samples[i].is_noisy for i in idx])
        score = evaluate_filter(lab_arr, truth)
        if gmms is not None:
            for view, gmm in zip(("main", "wcb"), gmms):
                filter_rows.append(FilterReportRow(
                    epoch=epoch, view=view,
                    mu0=float(gmm.means[0]), mu1=float(gmm.means[1]),
                    sigma0=float(np.sqrt(gmm.variances[0])),
                    sigma1=float(np.sqrt(gmm.variances[1])),
                    pi0=float(gmm.weights[0]),
                    n_matched=int(sets_counts[0]), n_mismatched=int(sets_counts[1]),
                    n_partial=int(sets_counts[2]),
                    precision=score.precision, recall=score.recall, f1=score.f1))

    record = MetricsRecord(
        epoch=epoch,
        train_loss=float(np.mean(losses)) if losses else 0.0,
        label1_fraction=(label_sum / label_n) if label_n else 1.0,
        recall_at_1=recalls[1], recall_at_10=recalls[10], recall_at_50=recalls[50],
        filter_score=score)
    return record, filter_rows


def run_training(samples: list[TripletSample], config: TrainConfig,
                 store: ParamStore | None = None) -> TrainResult:
    config.validate()
    dim = samples[0].mod_text.tokens.shape[1]
    if store is None:
        store = init_params(dim, config.seed)
    optimizer = Adam(store,
                     lr_by_group={"wcb": config.lr_wcb, "other": config.lr_other},
                     beta1=config.adam_beta1, beta2=config.adam_beta2,
                     eps=config.adam_eps)
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


def run_ablation(samples: list[TripletSample],
                 config: TrainConfig) -> list[dict[str, object]]:
    """Train the four flag combinations under identical seeds; final metrics."""
    rows: list[dict[str, object]] = []
    for name, use_wcb, use_nfb in ABLATION_VARIANTS:
        cfg = dataclasses.replace(config, enable_wcb=use_wcb, enable_nfb=use_nfb)
        result = run_training(samples, cfg)
        final = result.records[-1] if result.records else None
        r1 = final.recall_at_1 if final else 0.0
        r10 = final.recall_at_10 if final else 0.0
        r50 = final.recall_at_50 if final else 0.0
        rows.append({"variant": name, "R@1": r1, "R@10": r10, "R@50": r50,
                     "Avg": (r1 + r10 + r50) / 3.0})
    return rows
