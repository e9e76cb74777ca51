import gc
import weakref

import numpy as np
import pytest

from noisycir import autodiff as ad
from noisycir.autodiff import ParamStore, Tape
from noisycir.errors import ShapeError
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
    out.tape.accumulate_grads()
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
            prod = oracles.matmul(tape.param(st, "a"), tape.param(st, "b"))
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
            return oracles.cosine(tape.param(st, "u"), tape.param(st, "v"))

        assert f(store).scalar() == 0.0
        grads = analytic_grads(f, store)
        assert np.array_equal(grads["u"], store.params["v"] / (ad._NORM_EPS * 5.0))
        assert np.array_equal(grads["v"], np.zeros((1, 2)))

    @pytest.mark.parametrize("norm", [0.0, 1e-14])
    def test_clamped_rows_backward_matches_central_differences(self, norm):
        """A row under the clamp maps as x / eps; a step of 1e-17 keeps every
        perturbed row of norm < eps under it."""
        rng = np.random.default_rng(7)
        q, t = rng.standard_normal((4, 5)), rng.standard_normal((3, 5))
        for x, row in ((q, 1), (t, 2)):
            x[row] *= norm / np.linalg.norm(x[row])
        weights = rng.standard_normal((4, 3))
        store = ParamStore()
        store.add("q", q)
        store.add("t", t)

        def f(st):
            tape = Tape()
            sims = ad.cosine_matrix(tape.param(st, "q"), tape.param(st, "t"))
            return oracles.vsum(oracles.emul(sims, tape.const(weights)))

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
            return oracles.cosine(tape.param(st, "u"), tape.param(st, "v"))

        assert_grads_match(f, store)


class TestMlpForward:
    def test_zero_weights_annihilate(self):
        store = ParamStore()
        store.add("m.W1", np.zeros((4, 4)))
        store.add("m.b1", np.zeros((1, 4)))
        store.add("m.W2", np.zeros((4, 4)))
        store.add("m.b2", np.zeros((1, 4)))
        tape = Tape()
        out = ad.mlp_forward(tape.const(np.random.default_rng(5).uniform(size=(3, 4))),
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
        out = ad.mlp_forward(tape.const(x), store, "m")
        assert np.allclose(out.value, x, atol=1e-15)

    def test_unknown_name(self):
        store = ParamStore()
        tape = Tape()
        with pytest.raises(KeyError):
            ad.mlp_forward(tape.const(np.ones((1, 4))), store, "nope")

    def test_width_mismatch(self):
        store = ParamStore()
        store.init_mlp("m", 4, 4, 4, np.random.default_rng(7))
        tape = Tape()
        with pytest.raises(ShapeError):
            ad.mlp_forward(tape.const(np.ones((1, 5))), store, "m")

    def test_gradient_all_weights(self):
        rng = np.random.default_rng(8)
        store = ParamStore()
        store.init_mlp("m", 8, 8, 8, rng)
        x = rng.uniform(-1, 1, (3, 8))

        def f(st):
            tape = Tape()
            out = ad.mlp_forward(tape.const(x), st, "m")
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
        x = tape.const([[2.0, 1.0], [2.0, 0.0]])
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
            out = oracles.maxpool_rows(tape.param(st, "x"))
            return oracles.vsum(oracles.emul(out, out))

        assert_grads_match(f, store)

    def test_segments_match_per_segment_pooling(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(-1, 1, (12, 5))
        tape = Tape()
        seg = ad.maxpool_segments(tape.const(x), 3)
        rows = [oracles.maxpool_rows(tape.const(x[i * 4:(i + 1) * 4]))
                for i in range(3)]
        assert np.array_equal(seg.value, np.concatenate([r.value for r in rows]))

    def test_segments_tie_routes_to_lowest_row(self):
        tape = Tape()
        x = tape.const([[2.0, 1.0], [2.0, 0.0], [0.0, 4.0], [3.0, 4.0]])
        out = ad.maxpool_segments(x, 2)
        assert out.value.tolist() == [[2.0, 1.0], [3.0, 4.0]]
        tape.backward(oracles.vsum(out))
        assert x.grad.tolist() == [[1.0, 1.0], [0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]


class TestGradCheck:
    def test_quadratic_closed_form(self):
        store = ParamStore()
        store.add("x", np.array([[3.0]]))

        def f(st):
            tape = Tape()
            x = tape.param(st, "x")
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
            tape.param(st, "x")  # recorded but unused downstream
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
            prod = oracles.matmul(tape.param(st, "a"), tape.param(st, "b"))
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
            prod = oracles.matmul(tape.param(st, "a"), tape.param(st, "b"))
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


class TestProperties:
    def test_backward_linearity(self):
        rng = np.random.default_rng(12)
        store = ParamStore()
        store.add("w", rng.uniform(-1, 1, (4, 4)))
        x1 = rng.uniform(-1, 1, (2, 4))
        x2 = rng.uniform(-1, 1, (2, 4))

        def loss_for(xs):
            tape = Tape()
            w = tape.param(store, "w")
            total = None
            for x in xs:
                term = oracles.vsum(oracles.relu(oracles.matmul(tape.const(x), w)))
                total = term if total is None else ad.add(total, term)
            return total

        store.zero_grads()
        both = loss_for([x1, x2])
        both.tape.backward(both)
        both.tape.accumulate_grads()
        g_sum = store.grads["w"].copy()

        g_parts = np.zeros_like(g_sum)
        for x in (x1, x2):
            store.zero_grads()
            one = loss_for([x])
            one.tape.backward(one)
            one.tape.accumulate_grads()
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
            prod = oracles.matmul(tape.param(st, "a"), tape.param(st, "b"))
            h = oracles.relu(ad.add(prod, tape.param(st, "bias")))
            pooled = oracles.maxpool_rows(h)
            return oracles.vsum(oracles.emul(pooled, pooled))

        assert_grads_match(f, store)

    def test_gradients_zeroed_between_backward_passes(self):
        store = ParamStore()
        store.add("x", np.array([[2.0]]))
        tape = Tape()
        x = tape.param(store, "x")
        loss = oracles.vsum(oracles.emul(x, x))
        tape.backward(loss)
        g1 = x.grad.copy()
        tape.backward(loss)
        assert np.array_equal(x.grad, g1)  # not doubled


def _every_op_loss(tape, store):
    """A scalar loss that passes through every op the training step records."""
    x = tape.const(np.random.default_rng(14).uniform(-1, 1, (8, 4)))
    pooled = ad.maxpool_segments(ad.mlp_forward(x, store, "m"), 4)
    q = ad.concat_cols(ad.slice_rows(pooled, 0, 2), ad.slice_rows(pooled, 2, 4))
    t = ad.concat_cols(ad.slice_rows(pooled, 2, 4), ad.slice_rows(pooled, 0, 2))
    losses = ad.softmax_xent_rows(ad.cosine_matrix(q, t), 0.5)
    return ad.masked_mean(losses, np.array([1.0, 0.5]))


class TestLeanTape:
    def _store(self):
        store = ParamStore()
        store.init_mlp("m", 4, 5, 4, np.random.default_rng(15))
        return store

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


def composed_mlp(x, store, name):
    """Reference MLP recorded op by op: matmul -> add -> relu -> matmul -> add."""
    tape = x.tape
    h = oracles.relu(ad.add(oracles.matmul(x, tape.param(store, f"{name}.W1")),
                            tape.param(store, f"{name}.b1")))
    return ad.add(oracles.matmul(h, tape.param(store, f"{name}.W2")),
                  tape.param(store, f"{name}.b2"))


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
    xv = tape.const(x)
    out = mlp(oracles.relu(xv), store, "m")
    tape.backward(oracles.vsum(oracles.emul(out, tape.const(weights))))
    tape.accumulate_grads()
    return out.value, xv.grad, {k: v.copy() for k, v in store.grads.items()}


class TestFusedMlp:
    @pytest.mark.parametrize("fault", [None, "add", "matmul", "relu"])
    def test_equals_composed_oracle_exactly(self, fault):
        store, x, weights = _mlp_case()
        ad.set_backward_fault(fault)
        try:
            fused = _mlp_value_and_grads(ad.mlp_forward, store, x, weights)
            composed = _mlp_value_and_grads(composed_mlp, store, x, weights)
        finally:
            ad.set_backward_fault(None)
        pre = np.maximum(x, 0.0) @ store.params["m.W1"] + store.params["m.b1"]
        assert (pre == 0.0).any() and (pre > 0.0).any()
        assert np.array_equal(fused[0], composed[0])
        assert np.array_equal(fused[1], composed[1])
        assert fused[2].keys() == {"m.W1", "m.b1", "m.W2", "m.b2"}
        for name, grad in composed[2].items():
            assert np.array_equal(fused[2][name], grad), name

    def test_records_one_node_besides_its_parameters(self):
        store, x, _ = _mlp_case()
        tape = Tape()
        ad.mlp_forward(tape.const(x), store, "m")
        assert len(tape._nodes) == 1 + 4 + 1  # input, W1 b1 W2 b2, output


class TestMaxpoolSegmentsScatter:
    def test_gradient_equals_add_at_reference(self):
        rng = np.random.default_rng(17)
        x = rng.integers(-2, 3, (12, 5)).astype(float)  # small ints: many ties
        upstream = rng.uniform(-1, 1, (3, 5))
        tape = Tape()
        xv = tape.const(x)
        out = ad.maxpool_segments(xv, 3)
        tape.backward(oracles.vsum(oracles.emul(out, tape.const(upstream))))

        expect = np.zeros_like(x)
        for s in range(3):
            rows = 4 * s + np.argmax(x[4 * s:4 * s + 4], axis=0)
            np.add.at(expect, (rows, np.arange(5)), upstream[s])
        assert np.array_equal(xv.grad, expect)


class TestFlatParamStore:
    @staticmethod
    def _assert_views(store):
        assert store.flat_params.size == sum(p.size for p in store.params.values())
        for name in store.names():
            assert np.shares_memory(store.params[name], store.flat_params), name
            assert np.shares_memory(store.grads[name], store.flat_grads), name
            sl = store.slices[name]
            assert np.array_equal(store.flat_params[sl], store.params[name].reshape(-1))

    def test_params_and_grads_are_views_of_the_flat_buffers(self):
        store = ParamStore()
        store.init_mlp("a", 3, 4, 2, np.random.default_rng(18), group="wcb")
        store.init_mlp("b", 2, 2, 2, np.random.default_rng(19))
        self._assert_views(store)
        store.grads["a.W2"][...] = 1.0
        assert store.flat_grads.sum() == store.grads["a.W2"].size
        store.zero_grads()
        assert not store.flat_grads.any()

    def test_views_survive_read_weights(self, tmp_path):
        store = ParamStore()
        store.init_mlp("a", 3, 4, 2, np.random.default_rng(20), group="wcb")
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
                taped_sims = ad.cosine_matrix(tape.const(q[i]), tape.const(t[i]))
                taped = ad.softmax_xent_rows(taped_sims, tau)
            assert np.array_equal(sims[i], taped_sims.value)
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
