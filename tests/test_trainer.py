import dataclasses
import gc
import weakref

import numpy as np
import pytest

from noisycir import nfb, trainer
from noisycir.autodiff import Tape
from noisycir.errors import ConfigError, DegenerateInputError
from noisycir.synth import DatasetSpec, generate_dataset
from noisycir.trainer import (ABLATION_VARIANTS, Adam, TrainConfig,
                              _collect_epoch_losses, _fit_and_label, forward_batch,
                              init_params, run_training, split_dataset, train_epoch,
                              variant_config)
from tests import oracles

SMALL_SPEC = DatasetSpec(num_concepts=8, dim=16, text_tokens=4, image_patches=8,
                         num_triplets=120, mismatch_rate=0.3, seed=11)
SMALL_CFG = TrainConfig(batch_size=16, epochs=5, warmup_epochs=2, seed=0)


@pytest.fixture(scope="module")
def small_dataset():
    return generate_dataset(SMALL_SPEC)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"batch_size": 3},
        {"epochs": -1},
        {"lr": 0.0},
        {"temperature": -0.1},
        {"theta": 1.0},
        {"filter_scope": "dataset"},
        {"warmup_epochs": 0},
        {"eval_fraction": 0.0},
        {"seed": -1},
        {"seed": 2.0},
        {"seed": False},
        {"lr": float("nan")},
        {"lr": float("inf")},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            dataclasses.replace(TrainConfig(), **kwargs)

    def test_defaults_valid(self):
        TrainConfig()


@pytest.mark.parametrize("name, flags", [
    ("baseline", (False, False)), ("wcb_only", (True, False)),
    ("nfb_only", (False, True)), ("full", (True, True))])
def test_variant_config_sets_the_variant_flags_and_nothing_else(name, flags):
    assert name in [n for n, _, _ in ABLATION_VARIANTS]
    for start in ((True, True), (False, False), (not flags[0], not flags[1])):
        base = TrainConfig(batch_size=8, epochs=3, theta=0.4, filter_scope="batch",
                           seed=7, enable_wcb=start[0], enable_nfb=start[1])
        cfg = variant_config(base, name)
        assert (cfg.enable_wcb, cfg.enable_nfb) == flags
        assert dataclasses.replace(cfg, enable_wcb=start[0], enable_nfb=start[1]) == base


class TestSplit:
    def test_eval_split_is_clean_and_disjoint(self, small_dataset):
        train_idx, eval_idx = split_dataset(small_dataset, SMALL_CFG)
        assert not set(train_idx) & set(eval_idx)
        assert sorted(train_idx + eval_idx) == list(range(len(small_dataset)))
        assert all(not small_dataset[i].is_noisy for i in eval_idx)

    def test_eval_fraction_of_clean_pool(self, small_dataset):
        _, eval_idx = split_dataset(small_dataset, SMALL_CFG)
        n_clean = sum(1 for s in small_dataset if not s.is_noisy)
        assert len(eval_idx) == max(1, int(round(0.2 * n_clean)))

    def test_deterministic_per_seed(self, small_dataset):
        a = split_dataset(small_dataset, SMALL_CFG)
        b = split_dataset(small_dataset, SMALL_CFG)
        c = split_dataset(small_dataset, dataclasses.replace(SMALL_CFG, seed=1))
        assert a == b
        assert a != c

    @pytest.mark.parametrize("scope", ["epoch", "batch"])
    @pytest.mark.parametrize("variant", [name for name, _, _ in ABLATION_VARIANTS])
    def test_one_training_pair_fails_before_any_epoch(self, monkeypatch, variant, scope):
        data = generate_dataset(dataclasses.replace(SMALL_SPEC, num_triplets=2,
                                                    mismatch_rate=0.0))
        monkeypatch.setattr(trainer, "train_epoch", None)  # never reached
        cfg = variant_config(dataclasses.replace(SMALL_CFG, filter_scope=scope), variant)
        with pytest.raises(DegenerateInputError, match="at least 2 pairs, got 1"):
            run_training(data, cfg)


class DictAdam:
    """Reference optimizer: Adam written per named parameter, one
    dictionary entry of moments each."""

    def __init__(self, store, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.store = store
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in store.params.items()}
        self.v = {k: np.zeros_like(v) for k, v in store.params.items()}

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, p in self.store.params.items():
            g = self.store.grads[name]
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            mhat = self.m[name] / (1 - b1 ** self.t)
            vhat = self.v[name] / (1 - b2 ** self.t)
            p -= self.lr * mhat / (np.sqrt(vhat) + self.eps)
        self.store.zero_grads()


class TestAdam:
    def test_flat_steps_equal_per_parameter_oracle_exactly(self):
        flat_store, ref_store = init_params(6, 2), init_params(6, 2)
        flat, ref = Adam(flat_store, 3e-2), DictAdam(ref_store, 3e-2)
        rng = np.random.default_rng(21)
        for _ in range(5):
            for name in flat_store.names():
                g = rng.standard_normal(flat_store.grads[name].shape)
                g[0, 0] = 0.0
                flat_store.grads[name][...] = g
                ref_store.grads[name][...] = g
            flat.step()
            ref.step()
        for name in ref_store.names():
            assert np.array_equal(flat_store.params[name], ref_store.params[name]), name
        for flat_moment, ref_moment in ((flat.m, ref.m), (flat.v, ref.v)):
            assert np.array_equal(flat_moment, np.concatenate(
                [ref_moment[name].reshape(-1) for name in ref_store.names()]))
        assert not flat_store.flat_grads.any()

    def test_single_step_matches_hand_formula(self):
        store = init_params(4, 0)
        name = next(iter(store.params))
        before = {k: v.copy() for k, v in store.params.items()}
        for k in store.grads:
            store.grads[k][...] = 1.0
        g = np.ones_like(before[name])
        opt = Adam(store, 1e-2)
        opt.step()
        # bias-corrected first step reduces to p -= lr * g / (|g| + eps)
        for k, prev in before.items():
            expect = prev - 1e-2 * 1.0 / (1.0 + 1e-8)
            assert np.allclose(store.params[k], expect, atol=1e-12)
        assert all(np.all(v == 0) for v in store.grads.values())


class TestTraining:
    def test_zero_epochs_is_a_no_op(self, small_dataset):
        result = run_training(small_dataset, dataclasses.replace(SMALL_CFG, epochs=0))
        assert result.records == []
        for k, v in init_params(SMALL_SPEC.dim, SMALL_CFG.seed).params.items():
            assert np.array_equal(result.store.params[k], v)

    def test_warmup_keeps_every_label_one(self, small_dataset):
        result = run_training(small_dataset, SMALL_CFG)
        for rec in result.records[:SMALL_CFG.warmup_epochs]:
            assert rec.label1_fraction == 1.0
            assert rec.filter_score is None
        assert any(r.filter_score is not None
                   for r in result.records[SMALL_CFG.warmup_epochs:])

    def test_same_seed_reproduces_run_exactly(self, small_dataset):
        a = run_training(small_dataset, SMALL_CFG)
        b = run_training(small_dataset, SMALL_CFG)
        assert a.records == b.records
        for k in a.store.params:
            assert np.array_equal(a.store.params[k], b.store.params[k])

    @pytest.mark.filterwarnings("ignore:concept anchors nearly collinear")
    @pytest.mark.parametrize("seed", range(10))
    def test_dim_4_trains_through_zero_query_rows(self, seed):
        # at dim 4 a fusion MLP row with every hidden unit dead is an exact
        # zero query; the cosine clamps its norm instead of failing the run
        data = generate_dataset(DatasetSpec(dim=4, num_triplets=200, mismatch_rate=0.3,
                                            seed=seed))
        result = run_training(data, TrainConfig(epochs=5, seed=seed))
        assert len(result.records) == 5
        for rec in result.records:
            values = [rec.train_loss, rec.label1_fraction, rec.recall_at_1,
                      rec.recall_at_10, rec.recall_at_50]
            if rec.filter_score is not None:
                values += dataclasses.astuple(rec.filter_score)
            assert np.all(np.isfinite(values))

    def test_filter_disabled_equals_labels_forced_one(self, small_dataset):
        # with the filter off every epoch behaves like warm-up, so a run with
        # warmup_epochs >= epochs must coincide exactly
        base = dataclasses.replace(SMALL_CFG, enable_nfb=False)
        forced = dataclasses.replace(SMALL_CFG, warmup_epochs=SMALL_CFG.epochs)
        a = run_training(small_dataset, base)
        b = run_training(small_dataset, forced)
        assert [r.train_loss for r in a.records] == [r.train_loss for r in b.records]
        for k in a.store.params:
            assert np.array_equal(a.store.params[k], b.store.params[k])
        assert a.filter_rows == []

    def test_filter_fit_adds_no_gradients(self, small_dataset):
        # the loss-collection pass for the filter must leave parameter
        # gradients untouched
        store = init_params(SMALL_SPEC.dim, 0)
        train_idx, _ = split_dataset(small_dataset, SMALL_CFG)
        losses = _collect_epoch_losses(store, small_dataset, train_idx, SMALL_CFG)
        assert [v.shape for v in losses] == [(len(train_idx),)] * 2
        assert all(np.all(v == 0) for v in store.grads.values())

    def test_loss_pass_without_wcb_yields_one_view(self, small_dataset):
        store = init_params(SMALL_SPEC.dim, 0)
        train_idx, _ = split_dataset(small_dataset, SMALL_CFG)
        cfg = dataclasses.replace(SMALL_CFG, enable_wcb=False)
        losses = _collect_epoch_losses(store, small_dataset, train_idx, cfg)
        assert [v.shape for v in losses] == [(len(train_idx),)]

    def test_warmup_trajectory_shared_across_filter_flag(self, small_dataset):
        # baseline and filter-enabled runs agree during warm-up epochs
        cfg_on = dataclasses.replace(SMALL_CFG, epochs=2)
        cfg_off = dataclasses.replace(SMALL_CFG, epochs=2, enable_nfb=False)
        a = run_training(small_dataset, cfg_on)
        b = run_training(small_dataset, cfg_off)
        assert [r.train_loss for r in a.records] == [r.train_loss for r in b.records]

    def test_filter_rejects_after_warmup_on_noisy_data(self, small_dataset):
        cfg = dataclasses.replace(SMALL_CFG, epochs=6, warmup_epochs=2)
        result = run_training(small_dataset, cfg)
        post = result.records[cfg.warmup_epochs:]
        assert all(r.label1_fraction < 1.0 for r in post)
        # by the last epoch the rejected share should at least cover the
        # planted mismatch fraction of the training split
        train_noisy = np.mean([small_dataset[i].is_noisy
                               for i in result.train_indices])
        assert 1.0 - post[-1].label1_fraction >= 0.5 * train_noisy

    def test_batch_scope_also_runs(self, small_dataset):
        cfg = dataclasses.replace(SMALL_CFG, filter_scope="batch", epochs=4)
        result = run_training(small_dataset, cfg)
        assert len(result.records) == 4
        assert result.records[-1].filter_score is not None

    def test_wcb_disabled_has_single_view(self, small_dataset):
        store = init_params(SMALL_SPEC.dim, 0)
        tape = Tape()
        views = forward_batch(tape, store, small_dataset[:8], enable_wcb=False)
        assert len(views) == 1

    def test_train_epoch_reports_recall_fields(self, small_dataset):
        store = init_params(SMALL_SPEC.dim, 0)
        opt = Adam(store, 1e-3)
        train_idx, eval_idx = split_dataset(small_dataset, SMALL_CFG)
        rec, rows = train_epoch(store, opt, small_dataset, train_idx, eval_idx,
                                SMALL_CFG, epoch=0)
        assert rec.epoch == 0
        assert 0.0 <= rec.recall_at_1 <= rec.recall_at_10 <= rec.recall_at_50 <= 1.0
        assert rows == []  # warm-up epoch emits no filter report


class TestFilterPath:
    @pytest.mark.parametrize("scope", ["epoch", "batch"])
    def test_one_mixture_per_fit_without_wcb(self, small_dataset, monkeypatch,
                                             scope):
        em_calls, fit_calls = [], []
        em_fit, fit_and_label = nfb.em_fit, trainer._fit_and_label
        monkeypatch.setattr(nfb, "em_fit",
                            lambda *a, **k: em_calls.append(1) or em_fit(*a, **k))
        monkeypatch.setattr(trainer, "_fit_and_label",
                            lambda *a: fit_calls.append(1) or fit_and_label(*a))
        cfg = dataclasses.replace(SMALL_CFG, enable_wcb=False, filter_scope=scope,
                                  epochs=SMALL_CFG.warmup_epochs + 1)
        result = run_training(small_dataset, cfg)
        n_batches = len(trainer._batches(np.asarray(result.train_indices),
                                         cfg.batch_size))
        assert len(fit_calls) == (1 if scope == "epoch" else n_batches)
        assert len(em_calls) == len(fit_calls)
        (row,) = result.filter_rows
        assert row.view == "main"

    @pytest.mark.parametrize("enable_wcb, scope", [(True, "epoch"), (False, "batch")],
                             ids=["full_epoch_scope", "nfb_only_batch_scope"])
    def test_run_is_the_same_under_the_reference_em(self, small_dataset, monkeypatch,
                                                    enable_wcb, scope):
        cfg = dataclasses.replace(SMALL_CFG, enable_wcb=enable_wcb, filter_scope=scope)
        result = run_training(small_dataset, cfg)
        monkeypatch.setattr(nfb, "em_fit", oracles.em_fit)
        want = run_training(small_dataset, cfg)
        assert result.records == want.records
        assert result.filter_rows == want.filter_rows
        assert result.store.flat_params.tobytes() == want.store.flat_params.tobytes()
        views = ["main", "wcb"] if enable_wcb else ["main"]
        assert [r.view for r in result.filter_rows] \
            == views * (cfg.epochs - cfg.warmup_epochs)

    @pytest.mark.parametrize("n_views", [1, 2])
    @pytest.mark.parametrize("theta", [0.3, 0.5])
    def test_labels_keep_the_pairs_every_view_accepts(self, monkeypatch,
                                                      n_views, theta):
        rng = np.random.default_rng(n_views)
        posts = [rng.random(64) for _ in range(n_views)]
        feed = iter(posts)
        monkeypatch.setattr(nfb, "posterior", lambda gmm, x: next(feed))
        labels, gmms, _ = _fit_and_label([rng.random(64) for _ in posts], theta)
        every = np.all([p > theta for p in posts], axis=0).astype(float)
        assert len(gmms) == n_views
        assert 0 < every.sum() < every.size
        assert np.array_equal(labels, every)
        assert np.array_equal(
            labels, nfb.soft_labels(nfb.build_sets(posts[0], posts[-1], theta)))

    def test_epoch_scope_labels_every_pair_of_a_split_1_mod_batch(
            self, small_dataset):
        # a trailing one-pair chunk joins the chunk before it, so no
        # training pair is left without a label
        train_idx, eval_idx = split_dataset(small_dataset, SMALL_CFG)
        n = len(train_idx)
        batch_size = next(b for b in range(4, n) if n % b == 1)
        cfg = dataclasses.replace(SMALL_CFG, batch_size=batch_size)
        store = init_params(SMALL_SPEC.dim, 0)
        opt = Adam(store, 1e-3)
        _, rows = train_epoch(store, opt, small_dataset, train_idx, eval_idx,
                              cfg, epoch=cfg.warmup_epochs)
        assert [r.n_matched + r.n_mismatched for r in rows] == [n, n]


def _trained_store(dataset, epochs=1):
    """Parameters after a short run, so the passes see non-initial weights."""
    cfg = dataclasses.replace(SMALL_CFG, epochs=epochs)
    return run_training(dataset, cfg).store


class TestNoGradPasses:
    @pytest.mark.parametrize("residue", [0, 1, 7])
    @pytest.mark.parametrize("enable_wcb", [True, False], ids=["wcb", "no_wcb"])
    def test_epoch_losses_equal_taped_pass_exactly(self, small_dataset,
                                                   enable_wcb, residue):
        # full chunks are stacked; a tail of 1 folds into the chunk before
        # it and a tail of 7 stands alone, and neither may change a bit
        store = _trained_store(small_dataset)
        cfg = dataclasses.replace(SMALL_CFG, enable_wcb=enable_wcb)
        train_idx, _ = split_dataset(small_dataset, cfg)
        n = 4 * cfg.batch_size + residue
        assert len(train_idx) >= n
        idx = train_idx[:n]
        got = _collect_epoch_losses(store, small_dataset, idx, cfg)
        want = oracles.taped_epoch_losses(store, small_dataset, idx, cfg)
        assert len(got) == len(want) == (2 if enable_wcb else 1)
        for g, w in zip(got, want):
            assert g.shape == (n,)
            assert np.array_equal(g, w)


class TestDataLeaves:
    def test_step_gradients_equal_all_differentiable_leaves_exactly(
            self, small_dataset, monkeypatch):
        store = _trained_store(small_dataset)
        batch = small_dataset[:SMALL_CFG.batch_size]
        labels = (np.arange(len(batch)) % 3 != 0).astype(float)
        tau = SMALL_CFG.temperature
        got = oracles.step_grads(Tape(), store, batch, labels, tau)
        # the pooled mlp_forward takes its global tokens as data only, so the
        # all-leaves step composes the WCB from the reference ops
        monkeypatch.setattr(trainer, "compensate_batch",
                            lambda tape, st, bundles, name:
                            oracles.compensate_batch(tape, st, list(bundles), name))
        want = oracles.step_grads(oracles.DifferentiableTape(), store, batch, labels, tau)
        assert got.any()
        assert np.array_equal(got, want)

    def test_inputs_are_data_without_gradients_or_closures(self, small_dataset):
        store = init_params(SMALL_SPEC.dim, 0)
        with Tape() as tape:
            (q, t), (q_wcb, t_wcb) = forward_batch(tape, store, small_dataset[:8],
                                                   enable_wcb=True)
            tape.backward(trainer.fusion.soft_nce_loss(q, t, q_wcb, t_wcb, np.ones(8),
                                                       SMALL_CFG.temperature))
            assert not any(node.data for node in tape._nodes)
            assert len(tape._nodes) == 9  # 8 data leaves and ops on them are not nodes
        assert t.data and t.grad is None and t._backward is None
        assert not t_wcb.data


class TestTapeLifetime:
    @pytest.mark.parametrize("scope", ["epoch", "batch"])
    def test_every_tape_is_freed_without_the_cyclic_collector(
            self, small_dataset, monkeypatch, scope):
        refs, replayed = [], []

        class RecordingTape(Tape):
            def __init__(self):
                super().__init__()
                refs.append(weakref.ref(self))

            def backward(self, loss):
                replayed.append(1)
                super().backward(loss)

        monkeypatch.setattr(trainer, "Tape", RecordingTape)
        cfg = dataclasses.replace(SMALL_CFG, filter_scope=scope)
        store = init_params(SMALL_SPEC.dim, 0)
        opt = Adam(store, 1e-3)
        train_idx, eval_idx = split_dataset(small_dataset, cfg)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            train_epoch(store, opt, small_dataset, train_idx, eval_idx, cfg,
                        epoch=cfg.warmup_epochs)
            alive = sum(ref() is not None for ref in refs)
        finally:
            if was_enabled:
                gc.enable()
        idx = np.asarray(train_idx)
        steps = len(trainer._batches(idx, cfg.batch_size))
        loss_pass = (len(trainer._batches(idx, cfg.batch_size, fold_tail=True))
                     if scope == "epoch" else 0)
        # one tape per step, per loss-pass chunk and for the holdout eval;
        # only the steps' tapes are replayed
        assert len(refs) == steps + loss_pass + 1
        assert len(replayed) == steps
        assert alive == 0

    def test_closing_a_tape_cuts_its_graph(self):
        store = init_params(SMALL_SPEC.dim, 0)
        samples = generate_dataset(SMALL_SPEC)[:8]
        with Tape() as tape:
            (q, t), (q_wcb, t_wcb) = forward_batch(tape, store, samples,
                                                   enable_wcb=True)
            loss = trainer.fusion.soft_nce_loss(q, t, q_wcb, t_wcb, np.ones(8),
                                                SMALL_CFG.temperature)
            tape.backward(loss)
            nodes = list(tape._nodes)
        assert tape._nodes == []
        assert all(v.tape is None and v._backward is None for v in nodes)
        assert np.isfinite(loss.scalar())

    def test_no_node_of_a_training_step_holds_a_parameter(self):
        store = init_params(SMALL_SPEC.dim, 0)
        samples = generate_dataset(SMALL_SPEC)[:8]
        with Tape() as tape:
            (q, t), (q_wcb, t_wcb) = forward_batch(tape, store, samples,
                                                   enable_wcb=True)
            loss = trainer.fusion.soft_nce_loss(q, t, q_wcb, t_wcb, np.ones(8),
                                                SMALL_CFG.temperature)
            tape.backward(loss)
            assert store.flat_grads.any()
            for node in tape._nodes:
                assert not np.shares_memory(node.value, store.flat_params)
                assert not np.shares_memory(node.grad, store.flat_grads)
