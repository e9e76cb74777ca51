import gc
import weakref

import numpy as np
import pytest

from noisycir import autodiff as ad
from noisycir import cli
from noisycir.autodiff import ParamStore, Tape, Var
from noisycir.errors import ConfigError, ShapeError
from noisycir.storage import read_weights, write_weights
from tests import oracles


def numeric_grad(f, store, name, step=1e-6):
    """Central differences of scalar f(store) w.r.t. one named parameter."""
    p = store.params[name]
    out = np.zeros_like(p)
    flat = p.reshape(-1)
    gflat = out.reshape(-1)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + step
        hi = f(store).scalar()
        flat[j] = orig - step
        lo = f(store).scalar()
        flat[j] = orig
        gflat[j] = (hi - lo) / (2 * step)
    return out


def analytic_grads(f, store):
    store.zero_grads()
    out = f(store)
    out.tape.backward(out)
    return {k: v.copy() for k, v in store.grads.items()}


def assert_grads_match(f, store, rel_tol=1e-5):
    ana = analytic_grads(f, store)
    for name in store.names():
        num = numeric_grad(f, store, name)
        denom = np.maximum(np.maximum(np.abs(ana[name]), np.abs(num)), 1e-6)
        small = np.maximum(np.abs(ana[name]), np.abs(num)) < 1e-6
        rel = np.abs(ana[name] - num) / denom
        assert np.all(np.where(small, np.abs(ana[name] - num) <= 1e-8, rel <= rel_tol)), name


class TestMatmul:
    def test_identity(self):
        rng = np.random.default_rng(0)
        m = rng.uniform(-1, 1, (3, 3))
        tape = Tape()
        out = oracles.matmul(tape.const(np.eye(3)), tape.const(m))
        assert np.array_equal(out.value, m)

    def test_hand_arithmetic(self):
        tape = Tape()
        out = oracles.matmul(tape.const([[1.0, 2.0], [3.0, 4.0]]),
                             tape.const([[1.0], [1.0]]))
        assert out.value.tolist() == [[3.0], [7.0]]

    def test_shape_error(self):
        tape = Tape()
        with pytest.raises(ShapeError):
            oracles.matmul(tape.const(np.ones((2, 3))), tape.const(np.ones((2, 3))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        store = ParamStore()
        store.add("a", rng.uniform(-1, 1, (4, 5)))
        store.add("b", rng.uniform(-1, 1, (5, 2)))

        def f(st):
            tape = Tape()
            prod = oracles.matmul(oracles.param(tape, st, "a"), oracles.param(tape, st, "b"))
            return oracles.vsum(oracles.emul(prod, prod))

        assert_grads_match(f, store, rel_tol=1e-6)

    def test_associativity(self):
        rng = np.random.default_rng(2)
        a, b, c = (rng.uniform(-1, 1, s) for s in ((3, 4), (4, 5), (5, 2)))
        tape = Tape()
        a, b, c = tape.const(a), tape.const(b), tape.const(c)
        left = oracles.matmul(oracles.matmul(a, b), c)
        right = oracles.matmul(a, oracles.matmul(b, c))
        assert np.allclose(left.value, right.value, atol=1e-10)


class TestCosine:
    def test_self_similarity(self):
        tape = Tape()
        v = tape.const([[0.3, -0.2, 0.9]])
        assert oracles.cosine(v, v).scalar() == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        tape = Tape()
        out = oracles.cosine(tape.const([[1.0, 0.0]]), tape.const([[0.0, 1.0]]))
        assert out.scalar() == pytest.approx(0.0, abs=1e-15)

    def test_closed_form(self):
        tape = Tape()
        out = oracles.cosine(tape.const([[1.0, 1.0]]), tape.const([[1.0, 0.0]]))
        assert out.scalar() == pytest.approx(0.7071067811865475, abs=1e-15)

    def test_zero_norm_is_clamped(self):
        store = ParamStore()
        store.add("u", np.zeros((1, 2)))
        store.add("v", np.array([[3.0, 4.0]]))

        def f(st):
            tape = Tape()
            return oracles.cosine(oracles.param(tape, st, "u"), oracles.param(tape, st, "v"))

        assert f(store).scalar() == 0.0
        grads = analytic_grads(f, store)
        assert np.array_equal(grads["u"], store.params["v"] / (ad._NORM_EPS * 5.0))
        assert np.array_equal(grads["v"], np.zeros((1, 2)))

    @pytest.mark.parametrize("norm", [0.0, 1e-14])
    def test_clamped_rows_backward_matches_central_differences(self, norm):
        """A row under the clamp maps as x / eps; a step of 1e-17 keeps every
        perturbed row of norm < eps under it."""
        rng = np.random.default_rng(7)
        q, t = rng.standard_normal((4, 5)), rng.standard_normal((4, 5))
        for x, row in ((q, 1), (t, 2)):
            x[row] *= norm / np.linalg.norm(x[row])
        weights = rng.standard_normal((4, 1))
        store = ParamStore()
        store.add("q", q)
        store.add("t", t)

        def f(st):
            tape = Tape()
            losses = ad.nce_rows(oracles.param(tape, st, "q"), oracles.param(tape, st, "t"), 0.5)
            return oracles.vsum(oracles.emul(losses, tape.const(weights)))

        ana = analytic_grads(f, store)
        for name, row in (("q", 1), ("t", 2)):
            num = numeric_grad(f, store, name, step=1e-17)[row]
            assert np.allclose(ana[name][row], num, rtol=1e-8, atol=0.0), name
            assert np.abs(ana[name][row]).max() > 1e9  # the 1 / eps scale
            rest = np.delete(np.arange(store.params[name].shape[0]), row)
            num = numeric_grad(f, store, name)[rest]
            assert np.allclose(ana[name][rest], num, rtol=1e-6, atol=1e-9), name

    def test_range(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            tape = Tape()
            u = tape.const(rng.uniform(-1, 1, (1, 6)))
            v = tape.const(rng.uniform(-1, 1, (1, 6)))
            assert -1.0 <= oracles.cosine(u, v).scalar() <= 1.0

    def test_gradient(self):
        rng = np.random.default_rng(4)
        store = ParamStore()
        store.add("u", rng.uniform(-1, 1, (1, 5)))
        store.add("v", rng.uniform(-1, 1, (1, 5)))

        def f(st):
            tape = Tape()
            return oracles.cosine(oracles.param(tape, st, "u"), oracles.param(tape, st, "v"))

        assert_grads_match(f, store)


class TestMlpForward:
    def test_zero_weights_annihilate(self):
        store = ParamStore()
        store.add("m.W1", np.zeros((4, 4)))
        store.add("m.b1", np.zeros((1, 4)))
        store.add("m.W2", np.zeros((4, 4)))
        store.add("m.b2", np.zeros((1, 4)))
        tape = Tape()
        out = ad.mlp_forward([tape.const(np.random.default_rng(5).uniform(size=(3, 4)))],
                             store, "m")
        assert np.array_equal(out.value, np.zeros((3, 4)))

    def test_identity_layers_on_nonnegative_input(self):
        store = ParamStore()
        store.add("m.W1", np.eye(4))
        store.add("m.b1", np.zeros((1, 4)))
        store.add("m.W2", np.eye(4))
        store.add("m.b2", np.zeros((1, 4)))
        x = np.abs(np.random.default_rng(6).uniform(size=(3, 4)))
        tape = Tape()
        out = ad.mlp_forward([tape.const(x)], store, "m")
        assert np.allclose(out.value, x, atol=1e-15)

    def test_unknown_name(self):
        store = ParamStore()
        tape = Tape()
        with pytest.raises(KeyError):
            ad.mlp_forward([tape.const(np.ones((1, 4)))], store, "nope")

    def test_width_mismatch(self):
        store = ParamStore()
        store.init_mlp("m", 4, 4, 4, np.random.default_rng(7))
        tape = Tape()
        with pytest.raises(ShapeError):
            ad.mlp_forward([tape.const(np.ones((1, 5)))], store, "m")

    def test_gradient_all_weights(self):
        rng = np.random.default_rng(8)
        store = ParamStore()
        store.init_mlp("m", 8, 8, 8, rng)
        x = rng.uniform(-1, 1, (3, 8))

        def f(st):
            tape = Tape()
            out = ad.mlp_forward([tape.const(x)], st, "m")
            return oracles.vsum(oracles.emul(out, out))

        assert_grads_match(f, store)


class TestMaxpoolRows:
    def test_single_row(self):
        tape = Tape()
        out = oracles.maxpool_rows(tape.const([[1.0, -2.0, 3.0]]))
        assert out.value.tolist() == [[1.0, -2.0, 3.0]]

    def test_hand_arithmetic(self):
        tape = Tape()
        out = oracles.maxpool_rows(tape.const([[1.0, 5.0], [3.0, 2.0]]))
        assert out.value.tolist() == [[3.0, 5.0]]

    def test_tie_routes_to_lowest_row(self):
        tape = Tape()
        x = oracles.leaf(tape, [[2.0, 1.0], [2.0, 0.0]])
        out = oracles.maxpool_rows(x)
        loss = oracles.vsum(out)
        tape.backward(loss)
        assert x.grad.tolist() == [[1.0, 1.0], [0.0, 0.0]]

    def test_gradient_away_from_tie(self):
        rng = np.random.default_rng(9)
        store = ParamStore()
        store.add("x", rng.uniform(-1, 1, (4, 3)))

        def f(st):
            tape = Tape()
            out = oracles.maxpool_rows(oracles.param(tape, st, "x"))
            return oracles.vsum(oracles.emul(out, out))

        assert_grads_match(f, store)

    # identity layers pass a non-negative input through mlp_forward unchanged,
    # so its pooling is seen as is
    def test_segments_match_per_segment_pooling(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(0, 1, (12, 5))
        tape = Tape()
        seg = ad.mlp_forward([tape.const(x)], _identity_mlp(5), "m", 3,
                             tape.const(np.zeros((3, 5))))
        rows = [oracles.maxpool_rows(tape.const(x[i * 4:(i + 1) * 4]))
                for i in range(3)]
        assert np.array_equal(seg.value, np.concatenate([r.value for r in rows]))

    def test_segments_tie_routes_to_lowest_row(self):
        tape = Tape()
        x = oracles.leaf(tape, [[2.0, 1.0], [2.0, 0.0], [0.0, 4.0], [3.0, 4.0]])
        out = ad.mlp_forward([x], _identity_mlp(2), "m", 2, tape.const(np.zeros((2, 2))))
        assert out.value.tolist() == [[2.0, 1.0], [3.0, 4.0]]
        tape.backward(oracles.vsum(out))
        assert x.grad.tolist() == [[1.0, 1.0], [0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]


def _identity_mlp(d):
    store = ParamStore()
    for p, value in (("W1", np.eye(d)), ("b1", np.zeros((1, d))),
                     ("W2", np.eye(d)), ("b2", np.zeros((1, d)))):
        store.add(f"m.{p}", value)
    return store


class TestGradCheck:
    def test_quadratic_closed_form(self):
        store = ParamStore()
        store.add("x", np.array([[3.0]]))

        def f(st):
            tape = Tape()
            x = oracles.param(tape, st, "x")
            return oracles.vsum(oracles.emul(x, x))

        report = ad.grad_check(f, store)
        assert report.passed
        assert report.max_rel_error < 1e-9
        grads = analytic_grads(f, store)
        assert grads["x"][0, 0] == pytest.approx(6.0, abs=1e-12)

    def test_constant_function_uses_absolute_branch(self):
        store = ParamStore()
        store.add("x", np.array([[1.5]]))
        c = np.array([[2.0]])

        def f(st):
            tape = Tape()
            oracles.param(tape, st, "x")  # recorded but unused downstream
            return tape.const(c)

        report = ad.grad_check(f, store)
        assert report.passed
        assert report.max_abs_error == 0.0

    def test_fault_injection_fails(self):
        rng = np.random.default_rng(11)
        store = ParamStore()
        store.add("a", rng.uniform(-1, 1, (3, 3)))
        store.add("b", rng.uniform(-1, 1, (3, 3)))

        def f(st):
            tape = Tape()
            prod = oracles.matmul(oracles.param(tape, st, "a"), oracles.param(tape, st, "b"))
            return oracles.vsum(oracles.emul(prod, prod))

        ad.set_backward_fault("matmul")
        try:
            report = ad.grad_check(f, store)
        finally:
            ad.set_backward_fault(None)
        assert not report.passed

    def test_every_probe_tape_is_freed_without_the_cyclic_collector(self):
        rng = np.random.default_rng(13)
        store = ParamStore()
        store.add("a", rng.uniform(-1, 1, (2, 3)))
        store.add("b", rng.uniform(-1, 1, (3, 2)))
        refs = []

        def f(st):
            tape = Tape()
            refs.append(weakref.ref(tape))
            prod = oracles.matmul(oracles.param(tape, st, "a"), oracles.param(tape, st, "b"))
            return oracles.vsum(oracles.emul(prod, prod))

        was_enabled = gc.isenabled()
        gc.disable()
        try:
            report = ad.grad_check(f, store)
            alive = sum(ref() is not None for ref in refs)
        finally:
            if was_enabled:
                gc.enable()
        assert report.passed
        assert len(refs) == 1 + 2 * report.n_entries
        assert alive == 0

    def test_empty_store_passes_with_nothing_to_report(self):
        report = ad.grad_check(lambda st: Tape().const([[1.0]]), ParamStore())
        assert report == ad.GradCheckReport(passed=True, max_rel_error=0.0, max_abs_error=0.0,
                                            worst_param="", n_entries=0)

    @staticmethod
    def _product_store():
        store = ParamStore()
        store.add("a", np.array([[1.0, -2.0, 0.5]]))
        store.add("b", np.array([[3.0, 1.5, -1.0]]))
        return store

    def test_a_nan_gradient_fails(self):
        def f(st):
            tape = Tape()
            a, b = (oracles.param(tape, st, n) for n in ("a", "b"))
            poisoned = Var(tape, b.value)  # b, whose backward adds nan to b's gradient

            def bw():
                b.grad += poisoned.grad + poisoned.grad * np.nan

            poisoned._backward = bw
            return oracles.vsum(oracles.emul(a, poisoned))

        report = ad.grad_check(f, self._product_store())
        assert not report.passed
        assert report.worst_param == "b" and np.isnan(report.max_rel_error)
        assert oracles.grad_check(f, self._product_store()).passed  # the hole it had

    def test_a_nan_probe_fails(self):
        store = self._product_store()
        b1 = store.params["b"][0, 1]

        def f(st):
            tape = Tape()
            a, b = (oracles.param(tape, st, n) for n in ("a", "b"))
            if st.params["b"][0, 1] > b1:
                return tape.const([[np.nan]])
            return oracles.vsum(oracles.emul(a, b))

        report = ad.grad_check(f, store)
        assert not report.passed
        assert report.worst_param == "b" and np.isnan(report.max_rel_error)
        assert oracles.grad_check(f, self._product_store()).passed  # the hole it had

    @pytest.mark.parametrize("argv, passed, worst", [
        (["--seed", "0"], True, ""),
        (["--seed", "9"], False, "wcb_image.b1"),
        (["--inject-fault", "mlp_forward"], False, "wcb_image.b2"),
    ], ids=["seed-0", "seed-9", "fault-mlp_forward"])
    def test_gradcheck_objective_report_equals_the_per_entry_oracle(
            self, monkeypatch, capsys, argv, passed, worst):
        """Every field of the CLI's report, floats by their bytes, equals the
        per-entry walk's on the same objective, fault hook set."""
        reports = []

        def both(f, store):
            reports.extend([oracles.grad_check(f, store), flat_check(f, store)])
            return reports[-1]

        def fields(report):
            def raw(x):
                return np.float64(x).tobytes()
            return (bool(report.passed), raw(report.max_rel_error), raw(report.max_abs_error),
                    report.worst_param, report.n_entries)

        flat_check = ad.grad_check
        monkeypatch.setattr(ad, "grad_check", both)
        cli.main(["gradcheck", *argv])
        capsys.readouterr()
        want, got = reports
        assert fields(got) == fields(want)
        assert (got.passed, got.worst_param, got.n_entries) == (passed, worst, 704)


class TestProperties:
    def test_backward_linearity(self):
        rng = np.random.default_rng(12)
        store = ParamStore()
        store.add("w", rng.uniform(-1, 1, (4, 4)))
        x1 = rng.uniform(-1, 1, (2, 4))
        x2 = rng.uniform(-1, 1, (2, 4))

        def loss_for(xs):
            tape = Tape()
            w = oracles.param(tape, store, "w")
            total = None
            for x in xs:
                term = oracles.vsum(oracles.relu(oracles.matmul(tape.const(x), w)))
                total = term if total is None else oracles.add(total, term)
            return total

        store.zero_grads()
        both = loss_for([x1, x2])
        both.tape.backward(both)
        g_sum = store.grads["w"].copy()

        g_parts = np.zeros_like(g_sum)
        for x in (x1, x2):
            store.zero_grads()
            one = loss_for([x])
            one.tape.backward(one)
            g_parts += store.grads["w"]
        assert np.allclose(g_sum, g_parts, atol=1e-12)

    def test_random_op_pipeline_gradients(self):
        rng = np.random.default_rng(13)
        store = ParamStore()
        store.add("a", rng.uniform(-1, 1, (3, 4)))
        store.add("b", rng.uniform(-1, 1, (4, 4)))
        store.add("bias", rng.uniform(-1, 1, (1, 4)))

        def f(st):
            tape = Tape()
            prod = oracles.matmul(oracles.param(tape, st, "a"), oracles.param(tape, st, "b"))
            h = oracles.relu(oracles.add_bias(prod, oracles.param(tape, st, "bias")))
            pooled = oracles.maxpool_rows(h)
            return oracles.vsum(oracles.emul(pooled, pooled))

        assert_grads_match(f, store)

    def test_gradients_zeroed_between_backward_passes(self):
        store = ParamStore()
        store.add("x", np.array([[2.0]]))
        tape = Tape()
        x = oracles.param(tape, store, "x")
        loss = oracles.vsum(oracles.emul(x, x))
        tape.backward(loss)
        g1 = x.grad.copy()
        tape.backward(loss)
        assert np.array_equal(x.grad, g1)  # not doubled


def _every_op_loss(tape, store):
    """A scalar loss that passes through every op the training step records:
    a pooled MLP "m" and a two-input MLP "f", as the WCB and the fusion."""
    rng = np.random.default_rng(14)
    x, base = tape.const(rng.uniform(-1, 1, (8, 4))), tape.const(rng.uniform(-1, 1, (4, 4)))
    pooled = ad.mlp_forward([x], store, "m", 4, base)
    top, bottom = ad.slice_rows(pooled, 0, 2), ad.slice_rows(pooled, 2, 4)
    q = ad.mlp_forward([top, bottom], store, "f")
    return ad.masked_loss([ad.nce_rows(q, bottom, 0.5), ad.nce_rows(bottom, q, 0.5)],
                          np.array([1.0, 0.5]))


def _every_op_store(seed):
    store = ParamStore()
    rng = np.random.default_rng(seed)
    store.init_mlp("m", 4, 5, 4, rng)
    store.init_mlp("f", 8, 5, 4, rng)
    return store


class TestLeanTape:
    def _store(self):
        return _every_op_store(15)

    def test_tape_never_replayed_allocates_no_gradients(self):
        tape = Tape()
        _every_op_loss(tape, self._store())
        assert tape._nodes
        assert all(node.grad is None for node in tape._nodes)

    def test_backward_gives_every_node_a_gradient_of_its_shape(self):
        tape = Tape()
        loss = _every_op_loss(tape, self._store())
        tape.backward(loss)
        for node in tape._nodes:
            assert node.grad is not None
            assert node.grad.shape == node.value.shape
        assert loss.grad.tolist() == [[1.0]]


class TestBackwardFillsTheStore:
    def _store(self):
        return _every_op_store(21)

    def test_one_backward_leaves_finite_difference_gradients_in_the_store(self):
        store = self._store()

        def f(st):
            return _every_op_loss(Tape(), st)

        loss = f(store)
        loss.tape.backward(loss)  # and nothing after it
        ana = {k: v.copy() for k, v in store.grads.items()}
        for name in store.names():
            num = numeric_grad(f, store, name)
            assert np.allclose(ana[name], num, rtol=1e-5, atol=1e-8), name
        assert any(g.any() for g in ana.values())

    def test_a_second_backward_adds_to_the_store_again(self):
        store = self._store()
        tape = Tape()
        loss = _every_op_loss(tape, store)
        tape.backward(loss)
        once = store.flat_grads.copy()
        tape.backward(loss)
        assert once.any()
        assert np.array_equal(store.flat_grads, once + once)


def test_add_rejects_operands_of_unequal_shape():
    # the reference add, which oracles.compensate_batch composes
    tape = Tape()
    a = tape.const(np.ones((3, 4)))
    for other in (np.ones((1, 4)), np.ones((3, 1)), np.ones((4, 3))):
        with pytest.raises(ShapeError):
            oracles.add(a, tape.const(other))
    assert oracles.add(a, tape.const(np.ones((3, 4)))).value.tolist() == [[2.0] * 4] * 3


def test_const_makes_2d_float64_leaves():
    tape = Tape()
    for value in ([[1, 2], [3, 4]], np.array([[1.5, -2.0]], dtype=np.float32),
                  np.arange(6.0).reshape(2, 3).T):
        leaf = tape.const(value)
        assert leaf.value.dtype == np.float64 and leaf.value.flags.c_contiguous
        assert np.array_equal(leaf.value, np.asarray(value))
    for bad in (np.ones(3), np.ones((2, 2, 2))):
        with pytest.raises(ShapeError):
            tape.const(bad)


def test_nce_rows_refuses_a_nonpositive_temperature():
    x = Tape().const(np.eye(3))
    for tau in (0.0, -0.1):
        with pytest.raises(ConfigError, match="temperature must be positive"):
            ad.nce_rows(x, x, tau)


def _nce_value_and_grads(nce, q, t, weights):
    """Loss column and q, t gradients of masked_loss([nce(q, t)], weights)."""
    tape = Tape()
    qv, tv = oracles.leaf(tape, q), oracles.leaf(tape, t)
    losses = nce(qv, tv)
    tape.backward(ad.masked_loss([losses], weights))
    return losses.value, qv.grad, tv.grad


def test_nce_rows_equals_the_composed_reference_exactly():
    rng = np.random.default_rng(24)
    clamped = 0
    for _ in range(300):
        b, d = int(rng.integers(2, 21)), int(rng.integers(1, 9))
        tau = float(rng.choice([0.01, 0.07, 0.5, 1.0, 3.0]))
        q, t = rng.standard_normal((b, d)), rng.standard_normal((b, d))
        for x in (q, t):  # exactly-zero and tiny rows: the norm clamp
            x[rng.random(b) < 0.1] = 0.0
            x[rng.random(b) < 0.1] *= 1e-14
        clamped += int((q == 0.0).all(axis=1).any() or (t == 0.0).all(axis=1).any())
        weights = (rng.random(b) < 0.7).astype(float)
        fused = _nce_value_and_grads(lambda qv, tv: ad.nce_rows(qv, tv, tau), q, t, weights)
        composed = _nce_value_and_grads(
            lambda qv, tv: oracles.softmax_xent_rows(oracles.cosine_matrix(qv, tv), tau),
            q, t, weights)
        for got, want in zip(fused, composed):
            assert np.array_equal(got, want)
    assert clamped > 50


class TestMlpAppliedTwice:
    @staticmethod
    def _loss(tape, store, xs):
        total = None
        for x in xs:
            out = ad.mlp_forward([tape.const(x)], store, "m")
            term = oracles.vsum(oracles.emul(out, out))
            total = term if total is None else oracles.add(total, term)
        return total

    def test_store_gradients_are_the_sum_of_each_application(self):
        rng = np.random.default_rng(22)
        store = ParamStore()
        store.init_mlp("m", 4, 5, 3, rng)
        xs = [rng.uniform(-1, 1, (6, 4)), rng.uniform(-1, 1, (2, 4))]
        grads = []
        for part in ([xs[0]], [xs[1]], xs):
            store.zero_grads()
            loss = self._loss(Tape(), store, part)
            loss.tape.backward(loss)
            grads.append(store.flat_grads.copy())
        assert grads[0].any() and grads[1].any()
        assert np.array_equal(grads[2], grads[0] + grads[1])
        assert ad.grad_check(lambda st: self._loss(Tape(), st, xs), store).passed


def composed_mlp(x, store, name):
    """Reference MLP recorded op by op: matmul -> add -> relu -> matmul -> add."""
    w1, b1, w2, b2 = (oracles.param(x.tape, store, f"{name}.{p}")
                      for p in ("W1", "b1", "W2", "b2"))
    h = oracles.relu(oracles.add_bias(oracles.matmul(x, w1), b1))
    return oracles.add_bias(oracles.matmul(h, w2), b2)


def _mlp_case():
    """An MLP and an input whose pre-activations are exactly zero in places:
    row 0 of the input and column 2 of W1 are zero, and so is b1."""
    rng = np.random.default_rng(16)
    store = ParamStore()
    store.init_mlp("m", 5, 6, 4, rng)
    store.params["m.W1"][:, 2] = 0.0
    x = rng.uniform(-1, 1, (7, 5))
    x[0] = 0.0
    return store, x, rng.uniform(-1, 1, (7, 4))


def _mlp_value_and_grads(mlp, store, x, weights):
    store.zero_grads()
    tape = Tape()
    xv = oracles.leaf(tape, x)
    out = mlp(oracles.relu(xv), store, "m")
    tape.backward(oracles.vsum(oracles.emul(out, tape.const(weights))))
    return out.value, xv.grad, {k: v.copy() for k, v in store.grads.items()}


class TestFusedMlp:
    @pytest.mark.parametrize("fault", [None, "mlp_forward"])
    def test_equals_composed_oracle_exactly(self, fault):
        # the fused op's one fault hook scales its upstream gradient by 1.01
        store, x, weights = _mlp_case()
        ad.set_backward_fault(fault)
        try:
            fused = _mlp_value_and_grads(lambda xv, st, name: ad.mlp_forward([xv], st, name),
                                         store, x, weights)
        finally:
            ad.set_backward_fault(None)
        upstream = weights * 1.01 if fault else weights
        composed = _mlp_value_and_grads(composed_mlp, store, x, upstream)
        pre = np.maximum(x, 0.0) @ store.params["m.W1"] + store.params["m.b1"]
        assert (pre == 0.0).any() and (pre > 0.0).any()
        assert np.array_equal(fused[0], composed[0])
        assert np.array_equal(fused[1], composed[1])
        assert fused[2].keys() == {"m.W1", "m.b1", "m.W2", "m.b2"}
        for name, grad in composed[2].items():
            assert np.array_equal(fused[2][name], grad), name

    def test_records_only_its_input_and_output(self):
        store, x, _ = _mlp_case()
        tape = Tape()
        ad.mlp_forward([oracles.leaf(tape, x)], store, "m")
        assert len(tape._nodes) == 2


def _pooled_value_and_grads(pooled, store, x, base, upstream):
    """Value, x's gradient and the store's gradients of pooled(x) . upstream."""
    store.zero_grads()
    tape = Tape()
    xv = oracles.leaf(tape, x)
    out = pooled(xv, tape.const(base))
    tape.backward(oracles.vsum(oracles.emul(out, tape.const(upstream))))
    return out.value, xv.grad, store.flat_grads.copy()


class TestPooledMlp:
    @pytest.mark.parametrize("fault", [None, "mlp_forward"])
    def test_equals_the_composed_reference_exactly(self, fault):
        # the fused op's one hook scales the pooled gradient by 1.01
        rng = np.random.default_rng(25)
        ties = 0
        for _ in range(60):
            n, seg = int(rng.integers(1, 6)), int(rng.integers(1, 5))
            d_in, hidden, d_out = (int(k) for k in rng.integers(1, 6, 3))
            store = ParamStore()
            store.init_mlp("m", d_in, hidden, d_out, rng)
            store.params["m.W2"][...] = np.round(store.params["m.W2"])  # zero columns: ties
            store.params["m.W1"][:, 0] = 0.0  # b1 is 0: exactly-zero pre-activations
            x = rng.integers(-2, 3, (n * seg, d_in)).astype(float)
            x[rng.random(n * seg) < 0.2] = 0.0
            base = rng.standard_normal((n, d_out))
            upstream = rng.uniform(-1, 1, (n, d_out))
            y = ad.mlp_forward([Tape().const(x)], store, "m").value.reshape(n, seg, d_out)
            ties += int((y == y.max(axis=1, keepdims=True)).sum(axis=1).max() > 1)
            ad.set_backward_fault(fault)
            try:
                fused = _pooled_value_and_grads(
                    lambda xv, bv: ad.mlp_forward([xv], store, "m", n, bv),
                    store, x, base, upstream)
            finally:
                ad.set_backward_fault(None)
            composed = _pooled_value_and_grads(
                lambda xv, bv: oracles.add(
                    oracles.maxpool_segments(ad.mlp_forward([xv], store, "m"), n), bv),
                store, x, base, upstream * 1.01 if fault else upstream)
            for got, want in zip(fused, composed):
                assert np.array_equal(got, want)
        assert ties > 20

    def test_records_only_its_input_and_output(self):
        store = _identity_mlp(3)
        tape = Tape()
        ad.mlp_forward([oracles.leaf(tape, np.ones((6, 3)))], store, "m", 2,
                       tape.const(np.zeros((2, 3))))
        assert len(tape._nodes) == 2

    def test_shape_errors(self):
        store = _identity_mlp(3)
        tape = Tape()
        x = tape.const(np.ones((6, 3)))
        with pytest.raises(ShapeError, match="not divisible"):
            ad.mlp_forward([x], store, "m", 4, tape.const(np.zeros((4, 3))))
        for base in (None, oracles.leaf(tape, np.zeros((2, 3))),
                     tape.const(np.zeros((3, 3))), tape.const(np.zeros((2, 2)))):
            with pytest.raises(ShapeError, match="base must be data"):
                ad.mlp_forward([x], store, "m", 2, base)


def _two_input_value_and_grads(join, store, xs, leaves, segments, base, upstream):
    """Value, the store's gradients and each input's gradient (None for data)
    of mlp_forward(join(inputs)) . upstream; an input is a leaf where leaves
    says so, else data."""
    store.zero_grads()
    tape = Tape()
    vs = [oracles.leaf(tape, x) if leaf else tape.const(x) for x, leaf in zip(xs, leaves)]
    out = ad.mlp_forward(join(vs), store, "m", segments, tape.const(base) if segments else None)
    tape.backward(oracles.vsum(oracles.emul(out, tape.const(upstream))))
    return [out.value, store.flat_grads.copy()] + [v.grad for v in vs]


class TestTwoInputMlp:
    @pytest.mark.parametrize("pooled", [False, True], ids=["plain", "pooled"])
    @pytest.mark.parametrize("fault", [None, "mlp_forward"])
    @pytest.mark.parametrize("leaves", [(True, True), (False, True), (True, False),
                                        (False, False)],
                             ids=["leaf-leaf", "data-leaf", "leaf-data", "data-data"])
    def test_equals_the_mlp_of_the_concatenated_columns_exactly(self, leaves, fault, pooled):
        # the fault hook, when set, scales both sides' gradients alike
        rng = np.random.default_rng(27)
        for _ in range(40):
            n, seg = int(rng.integers(1, 6)), int(rng.integers(1, 4)) if pooled else 1
            d_a, d_b, hidden, d_out = (int(k) for k in rng.integers(1, 6, 4))
            store = ParamStore()
            store.init_mlp("m", d_a + d_b, hidden, d_out, rng)
            xs = [rng.standard_normal((n * seg, d)) for d in (d_a, d_b)]
            for x in xs:
                x[rng.random(x.shape) < 0.2] = 0.0
            base = rng.standard_normal((n, d_out))
            upstream = rng.uniform(-1, 1, (n if pooled else n * seg, d_out))
            case = (store, xs, leaves, n if pooled else 0, base, upstream)
            ad.set_backward_fault(fault)
            try:
                fused = _two_input_value_and_grads(lambda vs: vs, *case)
                joined = _two_input_value_and_grads(
                    lambda vs: [oracles.concat_cols(*vs)], *case)
            finally:
                ad.set_backward_fault(None)
            assert fused[1].any()
            for leaf, got, want in zip((True, True, *leaves), fused, joined):
                if leaf:
                    assert np.array_equal(got, want)
                else:
                    assert got is None and want is None

    def test_shape_errors(self):
        store = ParamStore()
        store.init_mlp("m", 5, 3, 2, np.random.default_rng(28))
        tape = Tape()
        with pytest.raises(ShapeError, match="unequal row counts"):
            ad.mlp_forward([tape.const(np.ones((3, 2))), tape.const(np.ones((4, 3)))],
                           store, "m")
        with pytest.raises(ShapeError, match="input width 4 != 5"):
            ad.mlp_forward([tape.const(np.ones((3, 2))), tape.const(np.ones((3, 2)))],
                           store, "m")
        with pytest.raises(ShapeError, match="different tapes"):
            ad.mlp_forward([tape.const(np.ones((3, 2))), Tape().const(np.ones((3, 3)))],
                           store, "m")


def _masked_value_and_grads(loss, columns, labels):
    tape = Tape()
    vecs = [oracles.leaf(tape, c) for c in columns]
    out = loss(vecs, labels)
    tape.backward(out)
    return [out.value] + [v.grad for v in vecs]


class TestMaskedLoss:
    @pytest.mark.parametrize("views", [1, 2, 3])
    def test_equals_the_composed_reference_exactly(self, views):
        rng = np.random.default_rng(26 + views)
        for _ in range(100):
            b = int(rng.integers(1, 20))
            columns = [rng.exponential(size=(b, 1)) for _ in range(views)]
            labels = (rng.random(b) < 0.6).astype(float)
            fused = _masked_value_and_grads(ad.masked_loss, columns, labels)
            composed = _masked_value_and_grads(oracles.composed_masked_loss, columns, labels)
            for got, want in zip(fused, composed):
                assert np.array_equal(got, want)

    def test_shape_errors(self):
        tape = Tape()
        column = tape.const(np.ones((3, 1)))
        for vecs, labels in (([column], np.ones(2)), ([column, column], np.ones(4)),
                             ([tape.const(np.ones((3, 2)))], np.ones(3)),
                             ([column, tape.const(np.ones((2, 1)))], np.ones(3))):
            with pytest.raises(ShapeError, match="masked_loss"):
                ad.masked_loss(vecs, labels)


class TestMaxpoolSegmentsScatter:
    """The reference max-pool the pooled mlp_forward is compared against."""

    def test_gradient_equals_add_at_reference(self):
        rng = np.random.default_rng(17)
        x = rng.integers(-2, 3, (12, 5)).astype(float)  # small ints: many ties
        upstream = rng.uniform(-1, 1, (3, 5))
        tape = Tape()
        xv = oracles.leaf(tape, x)
        out = oracles.maxpool_segments(xv, 3)
        tape.backward(oracles.vsum(oracles.emul(out, tape.const(upstream))))

        expect = np.zeros_like(x)
        for s in range(3):
            rows = 4 * s + np.argmax(x[4 * s:4 * s + 4], axis=0)
            np.add.at(expect, (rows, np.arange(5)), upstream[s])
        assert np.array_equal(xv.grad, expect)


class TestFlatParamStore:
    @staticmethod
    def _assert_views(store):
        assert np.array_equal(store.flat_params,
                              np.concatenate([p.reshape(-1) for p in store.params.values()]))
        for name in store.names():
            assert np.shares_memory(store.params[name], store.flat_params), name
            assert np.shares_memory(store.grads[name], store.flat_grads), name

    def test_params_and_grads_are_views_of_the_flat_buffers(self):
        store = ParamStore()
        store.init_mlp("a", 3, 4, 2, np.random.default_rng(18))
        store.init_mlp("b", 2, 2, 2, np.random.default_rng(19))
        self._assert_views(store)
        store.grads["a.W2"][...] = 1.0
        assert store.flat_grads.sum() == store.grads["a.W2"].size
        store.zero_grads()
        assert not store.flat_grads.any()

    def test_views_survive_read_weights(self, tmp_path):
        store = ParamStore()
        store.init_mlp("a", 3, 4, 2, np.random.default_rng(20))
        write_weights(store, str(tmp_path / "w.nclw"))
        loaded = read_weights(str(tmp_path / "w.nclw"))
        self._assert_views(loaded)
        assert np.array_equal(loaded.flat_params, store.flat_params)

    def test_re_adding_a_name_keeps_its_position_and_gradient(self):
        store = ParamStore()
        store.add("a", np.ones((2, 2)))
        store.add("b", np.ones((1, 3)))
        store.grads["a"][...] = 2.0
        store.add("a", np.zeros((3, 1)))
        assert store.names() == ["a", "b"]
        assert store.params["a"].shape == store.grads["a"].shape == (3, 1)
        assert not store.grads["a"].any()
        self._assert_views(store)


class TestValueMath:
    """The value functions of the taped ops, over stacks of batches."""

    def _stack(self, seed=3):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((5, 6, 4)), rng.standard_normal((5, 6, 4))

    def test_stacked_losses_equal_each_taped_batch_exactly(self):
        q, t = self._stack()
        tau = 0.07
        sims = ad.cosine_values(q, t)[0]
        losses = ad.xent_values(sims, tau)[0]
        assert sims.shape == (5, 6, 6) and losses.shape == (5, 6, 1)
        for i in range(q.shape[0]):
            with Tape() as tape:
                taped = ad.nce_rows(tape.const(q[i]), tape.const(t[i]), tau)
            assert np.array_equal(losses[i], taped.value)

    @pytest.mark.parametrize("side", ["q", "t"])
    def test_near_zero_row_inside_a_stack_is_clamped(self, side):
        q, t = self._stack()
        before = ad.cosine_values(q, t)
        x = q if side == "q" else t
        x[3, 2] = 1e-14
        after = ad.cosine_values(q, t)
        k = 1 if side == "q" else 2
        units, norms = after[k]
        assert np.array_equal(units[3, 2], x[3, 2] / ad._NORM_EPS)
        assert norms[3, 2, 0] == ad._NORM_EPS
        # every other row keeps its bytes, and so does every cosine without it
        other = np.ones(units.shape[:2], dtype=bool)
        other[3, 2] = False
        for j in (1, 2):
            assert np.array_equal(after[j][0][other], before[j][0][other])
            assert np.array_equal(after[j][1][other], before[j][1][other])
        keep = np.ones(after[0].shape, dtype=bool)
        if side == "q":
            keep[3, 2, :] = False
        else:
            keep[3, :, 2] = False
        assert np.array_equal(after[0][keep], before[0][keep])


class TestDataLeaves:
    def test_data_leaf_takes_no_gradient_and_is_not_a_node(self):
        tape = Tape()
        x = tape.const(np.ones((2, 3)))
        w = oracles.leaf(tape, np.full((2, 3), 2.0))
        out = ad.mlp_forward([x, w], _identity_mlp(6), "m")  # identity on x | w
        assert x.data and not w.data and not out.data
        assert x not in tape._nodes
        tape.backward(oracles.vsum(out))
        assert x.grad is None
        assert w.grad.tolist() == [[1.0] * 3] * 2

    @pytest.mark.parametrize("op", [
        lambda a, b: ad.masked_loss([ad.nce_rows(a, b, 0.1), ad.nce_rows(b, a, 0.1)],
                                    [1.0, 0.0]),
        lambda a, b: oracles.concat_cols(a, b),
        lambda a, b: ad.nce_rows(a, b, 0.1),
        lambda a, b: ad.slice_rows(a, 0, 1),
        lambda a, b: ad.slice_rows(oracles.concat_cols(a, b), 1, 2),
        lambda a, b: ad.masked_loss([ad.nce_rows(a, b, 0.1)], [1.0, 1.0]),
    ])
    def test_op_on_data_alone_records_nothing(self, op):
        tape = Tape()
        a, b = (tape.const(np.arange(6.0).reshape(2, 3) + k) for k in (0, 1))
        out = op(a, b)
        assert out.data and out._backward is None and out.grad is None
        assert tape._nodes == []

    def test_loss_on_data_alone_leaves_zero_gradients(self):
        tape = Tape()
        w = oracles.leaf(tape, [[3.0]])
        loss = ad.masked_loss([tape.const([[1.0], [2.0]])], [1.0, 1.0])
        tape.backward(loss)
        assert loss.grad is None and w.grad.tolist() == [[0.0]]
