"""Noise-pair filtering via a two-component 1-D Gaussian mixture.

Each view's per-sample contrastive losses are min-max normalized, a
2-component GMM is fit to them by EM, and the posterior of the low-loss
component decides set membership: pairs confidently matched in at least one
view form the matched set, pairs rejected by both views the mismatched set,
and pairs the views disagree on the partially-matched set. Soft labels keep
(label 1) exactly the pairs every view accepts. With a single view, its
posteriors are passed as both views and no pair is partial.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError

VARIANCE_FLOOR = 1e-6
DEFAULT_THETA = 0.5
DEFAULT_MAX_ITERS = 100
DEFAULT_TOL = 1e-6


@dataclass
class GmmParams:
    weights: np.ndarray      # (2,), sums to 1
    means: np.ndarray        # (2,), means[0] <= means[1]
    variances: np.ndarray    # (2,), >= VARIANCE_FLOOR
    n_iters: int = 0
    log_likelihoods: list[float] = field(default_factory=list)
    fallback: bool = False   # batch too small; posteriors forced to 1


@dataclass
class PairSets:
    n: int
    theta: float
    s_match: frozenset[int]
    s_mis: frozenset[int]
    s_match_wcb: frozenset[int]
    s_mis_wcb: frozenset[int]
    s_m: frozenset[int]      # matched: union of per-view matched sets
    s_u: frozenset[int]      # mismatched: intersection of per-view rejects
    s_p: frozenset[int]      # partial: views disagree


def normalize_losses(losses: np.ndarray) -> np.ndarray:
    """Min-max map to [0, 1]; a constant vector maps to all 0.5."""
    x = np.asarray(losses, dtype=np.float64).reshape(-1)
    if x.size < 2:
        raise ShapeError("need at least 2 losses to normalize")
    lo, hi = x.min(), x.max()
    if hi - lo < 1e-15:
        return np.full_like(x, 0.5)
    return (x - lo) / (hi - lo)


def _log_joint(gmm: GmmParams, x: np.ndarray) -> np.ndarray:
    """log(pi_k * N(x; mu_k, var_k)) stacked as (2, n)."""
    w, mu, var = gmm.weights[:, None], gmm.means[:, None], gmm.variances[:, None]
    return np.log(w) - 0.5 * (np.log(2.0 * np.pi * var)
                              + (x[None, :] - mu) ** 2 / var)


def em_fit(losses: np.ndarray, max_iters: int = DEFAULT_MAX_ITERS,
           tol: float = DEFAULT_TOL) -> GmmParams:
    """Fit the 2-component mixture by EM.

    Means start at the 25th/75th percentiles with shared sample variance and
    equal weights. Batches smaller than 4 points return a flagged fallback
    whose posteriors are all ~1 (every pair treated as matched).
    """
    x = np.asarray(losses, dtype=np.float64).reshape(-1)
    if x.size < 4:
        return GmmParams(weights=np.array([1.0 - 1e-12, 1e-12]),
                         means=np.array([0.0, 1.0]),
                         variances=np.array([1e6, 1e6]),
                         fallback=True)
    mu = np.percentile(x, [25.0, 75.0]).astype(np.float64)
    var0 = max(float(x.var()), VARIANCE_FLOOR)
    gmm = GmmParams(weights=np.array([0.5, 0.5]), means=mu,
                    variances=np.array([var0, var0]))
    prev_ll = None
    for it in range(max_iters + 1):
        # the log joint serves double duty: current-parameter likelihood
        # (tracked for convergence) and E-step responsibilities
        lj = _log_joint(gmm, x)
        m = lj.max(axis=0)
        ll = float((m + np.log(np.exp(lj - m).sum(axis=0))).sum())
        gmm.log_likelihoods.append(ll)
        if (prev_ll is not None and ll - prev_ll < tol) or it == max_iters:
            break
        prev_ll = ll
        post = np.exp(lj - m)
        post /= post.sum(axis=0)
        # M-step: weighted MLE with variance floor
        nk = post.sum(axis=1)
        nk = np.maximum(nk, 1e-12)
        gmm.weights = nk / x.size
        gmm.means = (post * x).sum(axis=1) / nk
        gmm.variances = np.maximum(
            (post * (x - gmm.means[:, None]) ** 2).sum(axis=1) / nk, VARIANCE_FLOOR)
        gmm.n_iters = it + 1
    if gmm.means[0] > gmm.means[1]:
        for attr in ("weights", "means", "variances"):
            setattr(gmm, attr, getattr(gmm, attr)[::-1].copy())
    return gmm


def posterior(gmm: GmmParams, losses: np.ndarray | float) -> np.ndarray:
    """p(matched | loss): posterior of the low-mean component, in log space."""
    x = np.atleast_1d(np.asarray(losses, dtype=np.float64))
    if gmm.fallback:
        return np.ones_like(x)
    lj = _log_joint(gmm, x)
    return np.exp(lj[0] - np.logaddexp(lj[0], lj[1]))


def build_sets(post: np.ndarray, post_wcb: np.ndarray,
               theta: float = DEFAULT_THETA) -> PairSets:
    post = np.asarray(post, dtype=np.float64).reshape(-1)
    post_wcb = np.asarray(post_wcb, dtype=np.float64).reshape(-1)
    if post.shape != post_wcb.shape:
        raise ShapeError("posterior vectors disagree in length")
    n = post.size
    s_match = frozenset(np.flatnonzero(post > theta).tolist())
    s_mis = frozenset(range(n)) - s_match
    s_match_w = frozenset(np.flatnonzero(post_wcb > theta).tolist())
    s_mis_w = frozenset(range(n)) - s_match_w
    s_m = s_match | s_match_w
    s_u = s_mis & s_mis_w
    s_p = (s_mis | s_mis_w) - (s_mis & s_mis_w)
    return PairSets(n=n, theta=theta, s_match=s_match, s_mis=s_mis,
                    s_match_wcb=s_match_w, s_mis_wcb=s_mis_w,
                    s_m=s_m, s_u=s_u, s_p=s_p)


def soft_labels(sets: PairSets) -> np.ndarray:
    """Binary labels: 1 for confidently matched pairs, 0 for noise/partial."""
    labels = np.zeros(sets.n)
    for i in sets.s_m:
        if i not in sets.s_u and i not in sets.s_p:
            labels[i] = 1.0
    return labels
