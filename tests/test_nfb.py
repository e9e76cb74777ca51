import math

import numpy as np
import pytest

from noisycir import nfb
from noisycir.errors import ShapeError
from noisycir.nfb import (DEFAULT_THETA, GmmParams, build_sets, em_fit,
                          normalize_losses, posterior, soft_labels)
from tests import oracles


def grid_search_mle(x, mean_grid, weight_grid, sigma):
    """Brute-force maximum likelihood over a coarse parameter grid.

    Independent oracle for em_fit on well-separated clusters: fixes both
    component sigmas and scans means/weight combinations exhaustively.
    """
    # broadcast the per-point densities over every (mu0, mu1, pi0) combo
    dens = np.exp(-(x[None, :] - mean_grid[:, None]) ** 2 / (2 * sigma ** 2))
    w = np.asarray(weight_grid)
    best, best_ll = None, -np.inf
    for i, mu0 in enumerate(mean_grid):
        for j, mu1 in enumerate(mean_grid):
            if mu0 > mu1:
                continue
            mix = w[:, None] * dens[i] + (1 - w)[:, None] * dens[j]
            lls = np.log(mix / math.sqrt(2 * math.pi * sigma ** 2)).sum(axis=1)
            k = int(np.argmax(lls))
            if lls[k] > best_ll:
                best_ll, best = lls[k], (mu0, mu1, w[k])
    return best


def two_cluster(n_each=8, lo=0.1, hi=0.9, sigma=0.0, seed=0):
    rng = np.random.default_rng(seed)
    a = lo + sigma * rng.standard_normal(n_each)
    b = hi + sigma * rng.standard_normal(n_each)
    return np.concatenate([a, b])


class TestNormalizeLosses:
    def test_affine_map(self):
        assert normalize_losses(np.array([2.0, 4.0, 6.0])).tolist() == [0.0, 0.5, 1.0]

    def test_constant_vector(self):
        assert normalize_losses(np.array([3.0, 3.0, 3.0])).tolist() == [0.5, 0.5, 0.5]

    def test_range_and_order_preserved(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.uniform(-10, 10, int(rng.integers(2, 30)))
            y = normalize_losses(x)
            assert y.min() >= 0.0 and y.max() <= 1.0
            assert np.array_equal(np.argsort(x, kind="stable"),
                                  np.argsort(y, kind="stable"))

    def test_too_short(self):
        with pytest.raises(ShapeError):
            normalize_losses(np.array([1.0]))


class TestEmFit:
    def test_separated_clusters_vs_grid_oracle(self):
        x = two_cluster(sigma=0.02, seed=2)
        gmm = em_fit(x)
        mu0, mu1, pi0 = grid_search_mle(x, np.linspace(0, 1, 101),
                                        np.linspace(0.1, 0.9, 17), 0.03)
        assert gmm.means[0] == pytest.approx(mu0, abs=0.02)
        assert gmm.means[1] == pytest.approx(mu1, abs=0.02)
        assert gmm.weights[0] == pytest.approx(pi0, abs=0.05)

    def test_separated_clusters_recover_planted_values(self):
        x = two_cluster(sigma=0.0)
        gmm = em_fit(x)
        assert gmm.means[0] == pytest.approx(0.1, abs=0.02)
        assert gmm.means[1] == pytest.approx(0.9, abs=0.02)
        assert gmm.weights[0] == pytest.approx(0.5, abs=0.05)

    def test_identical_points(self):
        gmm = em_fit(np.full(10, 0.4))
        assert gmm.means[0] == pytest.approx(0.4, abs=1e-9)
        assert gmm.means[1] == pytest.approx(0.4, abs=1e-9)
        assert gmm.variances[0] == pytest.approx(1e-6)
        assert posterior(gmm, 0.4)[0] == pytest.approx(0.5, abs=1e-12)

    def test_log_likelihood_non_decreasing(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = rng.uniform(0, 1, int(rng.integers(4, 40)))
            gmm = em_fit(x)
            lls = np.array(gmm.log_likelihoods)
            assert np.all(np.diff(lls) >= -1e-10)

    def test_component_order(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            gmm = em_fit(rng.uniform(0, 1, 32))
            assert gmm.means[0] <= gmm.means[1]
            assert gmm.weights.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(gmm.variances >= 1e-6)

    def test_small_batch_fallback(self):
        gmm = em_fit(np.array([0.1, 0.9, 0.5]))
        assert gmm.fallback
        assert np.allclose(posterior(gmm, np.array([0.1, 0.9, 0.5])), 1.0)

    def test_responsibilities_sum_to_one(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 1, 64)
        gmm = em_fit(x)
        p0 = posterior(gmm, x)
        # p(k=1|x) computed the same way must complement p(k=0|x)
        flipped = GmmParams(weights=gmm.weights[::-1].copy(),
                            means=gmm.means[::-1].copy(),
                            variances=gmm.variances[::-1].copy())
        p1 = posterior(flipped, x)
        assert np.allclose(p0 + p1, 1.0, atol=1e-9)


def _em_inputs():
    """Loss vectors of n 4-40 and 1714: raw and min-max normalized, ties
    (rounded to 0.1), constant, and a few with one or every entry NaN (each
    of those runs DEFAULT_MAX_ITERS iterations)."""
    rng = np.random.default_rng(14)
    for i in range(2000):
        n = 1714 if i % 100 == 0 else int(rng.integers(4, 41))
        # low clean losses with ~30% high noisy ones, or no structure at all
        x = np.where(rng.random(n) < 0.3, rng.normal(3.0, 0.5, n), rng.gamma(2.0, 0.5, n)) \
            if i % 2 else rng.uniform(0, 5, n)
        kind = i % 5
        if kind == 1:
            x = normalize_losses(x)
        elif kind == 2:
            x = np.round(x, 1)
        elif kind == 3:
            x = normalize_losses(np.round(x, 1))
        elif kind == 4:
            x = np.full(n, float(x[0]))
        if i % 50 == 5:
            x[rng.integers(n)] = np.nan
        elif i % 50 == 7:
            x[:] = np.nan
        yield x


class TestEmFitAgainstOracle:
    def test_every_field_equals_the_reference_fit(self):
        with np.errstate(all="ignore"):
            for x in _em_inputs():
                got, want = em_fit(x), oracles.em_fit(x)
                for name in ("weights", "means", "variances"):
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
                assert got.n_iters == want.n_iters
                assert np.array_equal(got.log_likelihoods, want.log_likelihoods,
                                      equal_nan=True)
                assert got.fallback == want.fallback

    @pytest.mark.parametrize("n", range(4, 65))
    def test_quartiles_equal_numpy_percentile(self, n):
        # n = 3 (mod 4) puts the 25th and 75th percentiles at t == 0.5
        rng = np.random.default_rng(n)
        for _ in range(25):
            # lognormal neighbours far apart in magnitude make b - a inexact,
            # where the two interpolation formulas can round apart
            for x in (rng.uniform(0, 1, n), rng.lognormal(0.0, 4.0, n),
                      np.round(rng.uniform(0, 1, n), 1), rng.uniform(-1e3, 1e3, n)):
                assert nfb._quartiles(x).tobytes() \
                    == np.percentile(x, [25.0, 75.0]).tobytes()


class TestPosterior:
    def test_symmetric_midpoint(self):
        gmm = GmmParams(weights=np.array([0.5, 0.5]), means=np.array([0.2, 0.8]),
                        variances=np.array([0.01, 0.01]))
        assert posterior(gmm, 0.5)[0] == pytest.approx(0.5, abs=1e-12)

    def test_limit_toward_low_component(self):
        gmm = GmmParams(weights=np.array([0.5, 0.5]), means=np.array([0.2, 0.8]),
                        variances=np.array([0.01, 0.01]))
        assert posterior(gmm, -5.0)[0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_density_ratio(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            gmm = GmmParams(
                weights=np.array([w := rng.uniform(0.05, 0.95), 1 - w]),
                means=np.sort(rng.uniform(0, 1, 2)),
                variances=rng.uniform(1e-4, 0.2, 2))
            x = rng.uniform(-1, 2)
            n0 = gmm.weights[0] * math.exp(
                -(x - gmm.means[0]) ** 2 / (2 * gmm.variances[0])) / math.sqrt(
                2 * math.pi * gmm.variances[0])
            n1 = gmm.weights[1] * math.exp(
                -(x - gmm.means[1]) ** 2 / (2 * gmm.variances[1])) / math.sqrt(
                2 * math.pi * gmm.variances[1])
            assert posterior(gmm, x)[0] == pytest.approx(n0 / (n0 + n1), abs=1e-12)

    def test_bounded(self):
        rng = np.random.default_rng(7)
        gmm = em_fit(rng.uniform(0, 1, 40))
        p = posterior(gmm, rng.uniform(-100, 100, 1000))
        assert np.all((p >= 0) & (p <= 1))


class TestBuildSets:
    def test_enumerated_example(self):
        sets = build_sets(np.array([0.9, 0.3]), np.array([0.8, 0.6]), 0.5)
        assert sets.s_m == {0, 1}
        assert sets.s_u == frozenset()
        assert sets.s_p == {1}
        assert soft_labels(sets).tolist() == [1.0, 0.0]

    def test_unanimous_match(self):
        sets = build_sets(np.array([0.9, 0.8]), np.array([0.7, 0.99]))
        assert sets.s_m == {0, 1} and not sets.s_u and not sets.s_p

    def test_unanimous_mismatch(self):
        sets = build_sets(np.array([0.1, 0.2]), np.array([0.3, 0.0]))
        assert sets.s_u == {0, 1} and not sets.s_m and not sets.s_p

    def test_theta_boundary_is_strict(self):
        sets = build_sets(np.array([0.5]), np.array([0.5]), 0.5)
        assert sets.s_u == {0}  # p == theta counts as mismatched
        assert soft_labels(sets).tolist() == [0.0]

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            build_sets(np.array([0.1, 0.2]), np.array([0.1]))


class TestSetLaws:
    def test_partition_containment_agreement(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            n = int(rng.integers(1, 40))
            post = rng.uniform(0, 1, n)
            post_w = rng.uniform(0, 1, n)
            sets = build_sets(post, post_w, DEFAULT_THETA)
            assert sets.s_m | sets.s_u == frozenset(range(n))
            assert not (sets.s_m & sets.s_u)
            assert sets.s_p <= sets.s_m
            labels = soft_labels(sets)
            for i in range(n):
                both = post[i] > DEFAULT_THETA and post_w[i] > DEFAULT_THETA
                assert labels[i] == (1.0 if both else 0.0)

    def test_all_four_membership_combinations(self):
        post = np.array([0.9, 0.9, 0.1, 0.1])
        post_w = np.array([0.9, 0.1, 0.9, 0.1])
        sets = build_sets(post, post_w, 0.5)
        assert soft_labels(sets).tolist() == [1.0, 0.0, 0.0, 0.0]
        assert sets.s_m == {0, 1, 2}
        assert sets.s_u == {3}
        assert sets.s_p == {1, 2}


class TestMasksAgainstSetOracle:
    @pytest.mark.parametrize("one_view", [False, True], ids=["two_views", "one_view"])
    def test_masks_give_the_oracle_sets_labels_and_counts(self, one_view):
        rng = np.random.default_rng(9)
        for _ in range(500):
            n = int(rng.integers(1, 41))
            theta = float(rng.uniform(0.05, 0.95))
            post = rng.uniform(0, 1, n)
            post[rng.random(n) < 0.1] = theta  # the strict boundary
            post_w = post if one_view else rng.uniform(0, 1, n)
            sets = build_sets(post, post_w, theta)
            want = oracles.build_sets(post, post_w, theta)
            assert (sets.n, sets.s_m, sets.s_u, sets.s_p) \
                == (want.n, want.s_m, want.s_u, want.s_p)
            labels = soft_labels(sets)
            assert labels.dtype == np.float64
            assert np.array_equal(labels, oracles.soft_labels(want))
            assert sets.counts == (len(want.s_m), len(want.s_u), len(want.s_p))
            if one_view:
                assert not sets.s_p
