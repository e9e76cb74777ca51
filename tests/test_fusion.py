import math

import numpy as np
import pytest

from noisycir import autodiff as ad
from noisycir.autodiff import ParamStore, Tape
from noisycir.errors import ConfigError, ShapeError
from noisycir.fusion import (VIEW_GLOBAL, VIEW_WCB, fuse_query, masked_loss,
                             nce_per_sample, soft_nce_loss)
from noisycir.trainer import init_params
from tests import oracles
from tests.test_autodiff import assert_grads_match


def brute_force_soft_nce(q, t, qw, tw, labels, tau):
    """Explicit softmax over all pairs, masked sum. Independent of the tape."""
    def view_losses(queries, targets):
        b = queries.shape[0]
        sims = np.zeros((b, b))
        for i in range(b):
            for j in range(b):
                sims[i, j] = np.dot(queries[i], targets[j]) / (
                    np.linalg.norm(queries[i]) * np.linalg.norm(targets[j]))
        out = np.zeros(b)
        for i in range(b):
            e = [math.exp(sims[i, j] / tau) for j in range(b)]
            out[i] = -math.log(e[i] / sum(e))
        return out

    b = q.shape[0]
    l1 = view_losses(q, t)
    l2 = view_losses(qw, tw)
    return sum(labels[i] * l1[i] for i in range(b)) / b \
        + sum(labels[i] * l2[i] for i in range(b)) / b


class TestFuseQuery:
    def test_zero_weights_give_zero_query(self):
        d = 6
        store = ParamStore()
        for suffix, shape in (("W1", (2 * d, d)), ("b1", (1, d)),
                              ("W2", (d, d)), ("b2", (1, d))):
            store.add(f"fuse_global.{suffix}", np.zeros(shape))
        rng = np.random.default_rng(0)
        tape = Tape()
        q = fuse_query(tape.const(rng.uniform(size=(2, d))),
                       tape.const(rng.uniform(size=(2, d))), store, VIEW_GLOBAL)
        assert np.array_equal(q.value, np.zeros((2, d)))
        # the zero query has cosine 0 with every target: a uniform softmax
        losses = nce_per_sample(q, tape.const(rng.uniform(size=(2, d))), 0.07)
        assert np.array_equal(losses.value, np.full((2, 1), math.log(2)))

    def test_swapping_halves_changes_output(self):
        d = 8
        store = init_params(d, 0)
        rng = np.random.default_rng(1)
        a = rng.uniform(-1, 1, (3, d))
        b = rng.uniform(-1, 1, (3, d))
        tape = Tape()
        q_ab = fuse_query(tape.const(a), tape.const(b), store, VIEW_GLOBAL)
        q_ba = fuse_query(tape.const(b), tape.const(a), store, VIEW_GLOBAL)
        assert not np.allclose(q_ab.value, q_ba.value, atol=1e-6)

    def test_views_use_distinct_parameters(self):
        d = 8
        store = init_params(d, 0)
        rng = np.random.default_rng(2)
        a, b = rng.uniform(-1, 1, (3, d)), rng.uniform(-1, 1, (3, d))
        tape = Tape()
        qg = fuse_query(tape.const(a), tape.const(b), store, VIEW_GLOBAL)
        qw = fuse_query(tape.const(a), tape.const(b), store, VIEW_WCB)
        assert not np.allclose(qg.value, qw.value, atol=1e-6)

    def test_unknown_view(self):
        store = init_params(4, 0)
        tape = Tape()
        with pytest.raises(ConfigError):
            fuse_query(tape.const(np.ones((1, 4))), tape.const(np.ones((1, 4))),
                       store, "nope")

    def test_gradient(self):
        d = 6
        rng = np.random.default_rng(3)
        store = ParamStore()
        store.init_mlp("fuse_global", 2 * d, d, d, rng)
        a = rng.uniform(-1, 1, (2, d))
        b = rng.uniform(-1, 1, (2, d))

        def f(st):
            tape = Tape()
            q = fuse_query(tape.const(a), tape.const(b), st, VIEW_GLOBAL)
            return oracles.vsum(oracles.emul(q, q))

        assert_grads_match(f, store)


class TestNcePerSample:
    def test_uniform_cosines_give_log_b(self):
        # all rows identical: every pairwise cosine is 1
        tape = Tape()
        q = tape.const(np.tile([1.0, 2.0, 0.5], (4, 1)))
        t = tape.const(np.tile([0.3, -1.0, 2.0], (4, 1)))
        out = nce_per_sample(q, t, 0.07)
        assert np.allclose(out.value, math.log(4), atol=1e-12)

        tape = Tape()
        q2 = tape.const(np.tile([1.0, 0.0], (2, 1)))
        t2 = tape.const(np.tile([0.0, 1.0], (2, 1)))
        out2 = nce_per_sample(q2, t2, 1.0)
        assert np.allclose(out2.value, 0.6931471805599453, atol=1e-15)

    def test_diagonal_one_off_diagonal_minus_one(self):
        # the loss of a hand-made similarity matrix, through nce_rows' value function
        losses = ad.xent_values(np.array([[1.0, -1.0], [-1.0, 1.0]]), 1.0)[0]
        expect = -math.log(math.e / (math.e + math.exp(-1.0)))
        assert np.allclose(losses, expect, atol=1e-15)
        assert losses[0, 0] == pytest.approx(0.12692801104297263, abs=1e-15)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        q = rng.uniform(-1, 1, (5, 6))
        t = rng.uniform(-1, 1, (5, 6))
        perm = rng.permutation(5)
        tape = Tape()
        base = nce_per_sample(tape.const(q), tape.const(t), 0.07).value[:, 0]
        tape = Tape()
        permuted = nce_per_sample(tape.const(q[perm]), tape.const(t[perm]),
                                  0.07).value[:, 0]
        assert np.allclose(permuted, base[perm], atol=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        q = rng.uniform(-1, 1, (4, 6))
        t = rng.uniform(-1, 1, (4, 6))
        scales_q = rng.uniform(0.1, 10, 4)
        scales_t = rng.uniform(0.1, 10, 4)
        tape = Tape()
        base = nce_per_sample(tape.const(q), tape.const(t), 0.07).value
        tape = Tape()
        scaled = nce_per_sample(tape.const(q * scales_q[:, None]),
                                tape.const(t * scales_t[:, None]), 0.07).value
        assert np.allclose(scaled, base, atol=1e-9)

    def test_entries_positive_for_distinct_targets(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            tape = Tape()
            q = tape.const(rng.uniform(-1, 1, (4, 8)))
            t = tape.const(rng.uniform(-1, 1, (4, 8)))
            out = nce_per_sample(q, t, 0.07)
            assert np.all(out.value > 0)

    def test_monotone_in_diagonal_cosine(self):
        # raising sample i's diagonal similarity strictly lowers its loss
        rng = np.random.default_rng(7)
        sims = rng.uniform(-1, 1, (4, 4))
        for bump in (0.05, 0.2, 0.5):
            lo = ad.xent_values(sims, 0.07)[0][1, 0]
            bumped = sims.copy()
            bumped[1, 1] += bump
            hi = ad.xent_values(bumped, 0.07)[0][1, 0]
            assert hi < lo

    def test_config_errors(self):
        tape = Tape()
        q = tape.const(np.ones((2, 3)))
        with pytest.raises(ConfigError):
            nce_per_sample(q, q, 0.0)
        with pytest.raises(ShapeError):
            nce_per_sample(tape.const(np.ones((1, 3))),
                           tape.const(np.ones((1, 3))), 0.07)
        # the ops check the rest: nce_rows wants queries and targets of one
        # shape, masked_loss one label per row
        rng = np.random.default_rng(0)
        with pytest.raises(ShapeError):
            nce_per_sample(q, tape.const(rng.uniform(-1, 1, (3, 3))), 0.07)
        rows = [tape.const(rng.uniform(-1, 1, (3, 3))) for _ in range(4)]
        with pytest.raises(ShapeError):
            soft_nce_loss(*rows, np.ones(2), 0.07)

    def test_no_overflow_at_low_temperature(self):
        tape = Tape()
        q = tape.const(np.eye(4))
        out = nce_per_sample(q, tape.const(np.eye(4)), 0.01)
        assert np.all(np.isfinite(out.value))


class TestSoftNceLoss:
    def _random_inputs(self, rng, b, d):
        return (rng.uniform(-1, 1, (b, d)) for _ in range(4))

    def test_all_labels_zero_gives_zero_loss_and_grads(self):
        d = 6
        store = init_params(d, 0)
        rng = np.random.default_rng(8)
        text, ref = rng.uniform(-1, 1, (4, d)), rng.uniform(-1, 1, (4, d))
        tar = rng.uniform(-1, 1, (4, d))

        def f(st):
            tape = Tape()
            q = fuse_query(tape.const(text), tape.const(ref), st, VIEW_GLOBAL)
            qw = fuse_query(tape.const(text), tape.const(ref), st, VIEW_WCB)
            return soft_nce_loss(q, tape.const(tar), qw, tape.const(tar),
                                 np.zeros(4), 0.07)

        store.zero_grads()
        loss = f(store)
        assert loss.scalar() == 0.0
        loss.tape.backward(loss)
        for name in store.names():
            assert np.array_equal(store.grads[name],
                                  np.zeros_like(store.grads[name])), name

    def test_all_labels_one_is_mean_of_view_means(self):
        rng = np.random.default_rng(9)
        q, t, qw, tw = self._random_inputs(rng, 5, 6)
        tape = Tape()
        qv, tv = tape.const(q), tape.const(t)
        qwv, twv = tape.const(qw), tape.const(tw)
        loss = soft_nce_loss(qv, tv, qwv, twv, np.ones(5), 0.07)
        l1 = nce_per_sample(tape.const(q), tape.const(t), 0.07).value.mean()
        l2 = nce_per_sample(tape.const(qw), tape.const(tw), 0.07).value.mean()
        assert loss.scalar() == pytest.approx(l1 + l2, abs=1e-12)

    def test_masked_loss_single_view_is_its_masked_mean(self):
        tape = Tape()
        lv = tape.const(np.array([[1.0], [2.0], [4.0]]))
        labels = np.array([1.0, 0.5, 0.0])
        assert masked_loss([lv], labels).scalar() == (1.0 + 1.0) / 3

    def test_matches_brute_force(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            b = int(rng.integers(2, 6))
            d = int(rng.integers(3, 8))
            q, t, qw, tw = (rng.uniform(-1, 1, (b, d)) for _ in range(4))
            labels = rng.integers(0, 2, b).astype(float)
            tape = Tape()
            loss = soft_nce_loss(tape.const(q), tape.const(t), tape.const(qw),
                                 tape.const(tw), labels, 0.07)
            expect = brute_force_soft_nce(q, t, qw, tw, labels, 0.07)
            assert loss.scalar() == pytest.approx(expect, abs=1e-12)

    def test_masked_samples_contribute_zero_gradient(self):
        d = 6
        rng = np.random.default_rng(11)
        store = init_params(d, 0)
        text, ref, tar = (rng.uniform(-1, 1, (4, d)) for _ in range(3))
        labels = np.array([1.0, 0.0, 1.0, 0.0])

        def masked(st):
            tape = Tape()
            q = fuse_query(tape.const(text), tape.const(ref), st, VIEW_GLOBAL)
            qw = fuse_query(tape.const(text), tape.const(ref), st, VIEW_WCB)
            return soft_nce_loss(q, tape.const(tar), qw, tape.const(tar),
                                 labels, 0.07)

        def explicit(st):
            # sum only the label-1 loss entries by hand
            tape = Tape()
            q = fuse_query(tape.const(text), tape.const(ref), st, VIEW_GLOBAL)
            qw = fuse_query(tape.const(text), tape.const(ref), st, VIEW_WCB)
            l1 = nce_per_sample(q, tape.const(tar), 0.07)
            l2 = nce_per_sample(qw, tape.const(tar), 0.07)
            total = None
            for lv in (l1, l2):
                for i in (0, 2):
                    term = oracles.masked_mean(lv, np.eye(4)[i])
                    total = term if total is None else oracles.add(total, term)
            return total

        grads = {}
        for tag, fn in (("masked", masked), ("explicit", explicit)):
            store.zero_grads()
            loss = fn(store)
            loss.tape.backward(loss)
            grads[tag] = {k: v.copy() for k, v in store.grads.items()}
        for name in store.names():
            assert np.allclose(grads["masked"][name], grads["explicit"][name],
                               atol=1e-12), name

    def test_gradient_full_objective(self):
        d = 5
        rng = np.random.default_rng(12)
        store = ParamStore()
        store.init_mlp("fuse_global", 2 * d, d, d, rng)
        store.init_mlp("fuse_wcb", 2 * d, d, d, rng)
        text, ref, tar = (rng.uniform(-1, 1, (4, d)) for _ in range(3))
        labels = np.array([1.0, 0.0, 1.0, 1.0])

        def f(st):
            tape = Tape()
            q = fuse_query(tape.const(text), tape.const(ref), st, VIEW_GLOBAL)
            qw = fuse_query(tape.const(text), tape.const(ref), st, VIEW_WCB)
            return soft_nce_loss(q, tape.const(tar), qw, tape.const(tar),
                                 labels, 0.07)

        report = ad.grad_check(f, store)
        assert report.passed
