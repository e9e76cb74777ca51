"""Noise-pair filtering via a two-component 1-D Gaussian mixture.

Each view's per-sample contrastive losses are min-max normalized, a
2-component GMM is fit to them by EM (means started at the sorted quartiles;
each E-step's one exp gives both the log-likelihood and the responsibilities;
the E-step and the posterior take the log joint from one function, _log_joint),
and a view accepts a pair when the posterior of the low-loss component exceeds
theta: the decision is one (2, n) boolean array of per-view accept masks. Soft
labels keep (label 1) exactly the pairs every view accepts; the matched,
mismatched and partially matched sets and their sizes are read from the same
masks. With a single view, its posteriors are passed as both views and no pair
is partial.
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
    n_iters: int = 0         # M-steps run
    # one per E-step, n_iters + 1 of them, the last at the parameters above;
    # a fallback runs no EM and has n_iters 0 and no entries
    log_likelihoods: list[float] = field(default_factory=list)
    fallback: bool = False   # batch too small; posteriors forced to 1


@dataclass(frozen=True, eq=False)
class PairSets:
    """The filter's decision over n pairs, and the sets read from it."""
    accept: np.ndarray       # (2, n) bool: row v is view v's posterior > theta

    n = property(lambda self: self.accept.shape[1])
    # matched: some view accepts; mismatched: no view does; partial: the views disagree
    s_m = property(lambda self: _members(self.accept.any(axis=0)))
    s_u = property(lambda self: _members(~self.accept.any(axis=0)))
    s_p = property(lambda self: _members(self.accept[0] != self.accept[1]))

    @property
    def counts(self) -> tuple[int, int, int]:
        """Sizes of the matched, mismatched and partial sets."""
        n_m = int(np.count_nonzero(self.accept.any(axis=0)))
        return n_m, self.n - n_m, int(np.count_nonzero(self.accept[0] != self.accept[1]))


def _members(mask: np.ndarray) -> frozenset[int]:
    return frozenset(np.flatnonzero(mask).tolist())


def normalize_losses(losses: np.ndarray) -> np.ndarray:
    """Min-max map to [0, 1]; a constant vector maps to all 0.5."""
    x = np.asarray(losses, dtype=np.float64).reshape(-1)
    if x.size < 2:
        raise ShapeError("need at least 2 losses to normalize")
    lo, hi = x.min(), x.max()
    if hi - lo < 1e-15:
        return np.full_like(x, 0.5)
    return (x - lo) / (hi - lo)


def _log_joint(w: np.ndarray, var: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """log(pi_k * N(x; mu_k, var_k)) stacked as (2, n), from (2, 1) columns of
    weights and variances and d2 = (x - mu) ** 2."""
    return np.log(w) - 0.5 * (np.log(2.0 * np.pi * var) + d2 / var)


def _quartiles(x: np.ndarray) -> np.ndarray:
    """np.percentile(x, [25, 75]) on one sort, by NumPy's 'linear' rule: a + (b-a)t at
    index q(n-1), or b - (b-a)(1-t) if t >= 0.5. A NaN in x makes all of em_fit NaN."""
    s, out = np.sort(x), []
    for v in (0.25 * (x.size - 1), 0.75 * (x.size - 1)):
        j = int(v)
        t, a, b = v - j, s[j], s[j + 1]
        out.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return np.array(out)


def em_fit(losses: np.ndarray) -> GmmParams:
    """Fit the 2-component mixture by EM.

    Means start at the 25th/75th percentiles (one sort, see _quartiles) with
    shared sample variance and equal weights; EM stops once the log-likelihood
    gains less than DEFAULT_TOL, or after DEFAULT_MAX_ITERS iterations. Each
    E-step takes one exp of the log joint less its column max: its column sum
    gives the log-likelihood, and dividing by that sum gives the
    responsibilities. Batches smaller than 4 points return a flagged fallback
    whose posteriors are all ~1 (every pair treated as matched).
    """
    x = np.asarray(losses, dtype=np.float64).reshape(-1)
    if x.size < 4:
        return GmmParams(weights=np.array([1.0 - 1e-12, 1e-12]),
                         means=np.array([0.0, 1.0]),
                         variances=np.array([1e6, 1e6]),
                         fallback=True)
    var0 = max(float(x.var()), VARIANCE_FLOOR)
    # weights, means and variances as (2, 1) columns that broadcast against x
    w, mu, var = np.full((2, 1), 0.5), _quartiles(x)[:, None], np.full((2, 1), var0)
    d2, lls, prev_ll = (x - mu) ** 2, [], None
    for it in range(DEFAULT_MAX_ITERS + 1):
        lj = _log_joint(w, var, d2)
        m = np.maximum(lj[0], lj[1])  # what a reduce over the 2 rows computes
        e = np.exp(lj - m)
        s = e[0] + e[1]
        ll = float(np.add.reduce(m + np.log(s)))
        lls.append(ll)
        if (prev_ll is not None and ll - prev_ll < DEFAULT_TOL) or it == DEFAULT_MAX_ITERS:
            break
        prev_ll = ll
        e /= s
        # M-step: weighted MLE with variance floor
        nk = np.maximum(np.add.reduce(e, axis=1, keepdims=True), 1e-12)
        w = nk / x.size
        mu = np.add.reduce(e * x, axis=1, keepdims=True) / nk
        d2 = (x - mu) ** 2  # also the next E-step's
        var = np.maximum(np.add.reduce(e * d2, axis=1, keepdims=True) / nk, VARIANCE_FLOOR)
    if mu[0, 0] > mu[1, 0]:
        w, mu, var = w[::-1], mu[::-1], var[::-1]
    return GmmParams(weights=w.ravel(), means=mu.ravel(), variances=var.ravel(),
                     n_iters=it, log_likelihoods=lls)


def posterior(gmm: GmmParams, losses: np.ndarray | float) -> np.ndarray:
    """p(matched | loss): posterior of the low-mean component, in log space."""
    x = np.atleast_1d(np.asarray(losses, dtype=np.float64))
    if gmm.fallback:
        return np.ones_like(x)
    lj = _log_joint(gmm.weights[:, None], gmm.variances[:, None],
                    (x - gmm.means[:, None]) ** 2)
    return np.exp(lj[0] - np.logaddexp(lj[0], lj[1]))


def build_sets(post: np.ndarray, post_wcb: np.ndarray,
               theta: float = DEFAULT_THETA) -> PairSets:
    """Each view's accept mask, posterior > theta (a posterior equal to
    theta rejects)."""
    post = np.asarray(post, dtype=np.float64).reshape(-1)
    post_wcb = np.asarray(post_wcb, dtype=np.float64).reshape(-1)
    if post.shape != post_wcb.shape:
        raise ShapeError("posterior vectors disagree in length")
    return PairSets(accept=np.array([post, post_wcb]) > theta)


def soft_labels(sets: PairSets) -> np.ndarray:
    """Binary labels: 1 for pairs every view accepts, 0 for noise/partial."""
    return sets.accept.all(axis=0).astype(np.float64)
