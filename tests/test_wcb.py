from dataclasses import dataclass

import numpy as np
import pytest

from noisycir import autodiff as ad
from noisycir.autodiff import ParamStore, Tape, Var
from noisycir.errors import ShapeError
from noisycir.synth import Dataset, DatasetSpec, TokenBundle, TripletSample, generate_dataset
from noisycir.trainer import init_params
from noisycir.wcb import IMAGE_MLP, TEXT_MLP, compensate_batch
from tests import oracles
from tests.test_autodiff import assert_grads_match

# ---------------------------------------------------------------------------
# per-sample reference path: one bundle at a time, the test oracle for the
# batched compensate_batch
# ---------------------------------------------------------------------------


@dataclass
class CompensatedEmbedding:
    vector: Var            # (1, d)
    modality: str
    source: str            # which bundle it came from


def weight_relocate(bundle: TokenBundle) -> np.ndarray:
    """Row i of the result is attention[i] * tokens[i]."""
    return bundle.attention[:, None] * bundle.tokens


def wcb_fuse(tape: Tape, store: ParamStore, name: str,
             weighted_nonglobal: np.ndarray, global_token: np.ndarray) -> Var:
    """Max-pool the MLP of the weighted non-global rows, add the global token."""
    d = global_token.shape[-1]
    if weighted_nonglobal.shape[1] != d:
        raise ShapeError(
            f"wcb_fuse: token width {weighted_nonglobal.shape[1]} != {d}")
    x = tape.const(weighted_nonglobal)
    pooled = oracles.maxpool_rows(ad.mlp_forward([x], store, name))
    return oracles.add(pooled, tape.const(global_token.reshape(1, d)))


def compensate_bundle(tape: Tape, store: ParamStore,
                      bundle: TokenBundle) -> CompensatedEmbedding:
    weighted = weight_relocate(bundle)
    nonglobal = np.delete(weighted, bundle.global_index, axis=0)
    name = TEXT_MLP if bundle.modality == "text" else IMAGE_MLP
    vec = wcb_fuse(tape, store, name, nonglobal, bundle.global_token())
    return CompensatedEmbedding(vector=vec, modality=bundle.modality, source=name)


def compensate_all(tape: Tape, store: ParamStore,
                   sample: TripletSample) -> tuple[Var, Var, Var]:
    """Compensated (text, reference image, target image) embeddings."""
    t = compensate_bundle(tape, store, sample.mod_text)
    r = compensate_bundle(tape, store, sample.ref_image)
    g = compensate_bundle(tape, store, sample.tar_image)
    return t.vector, r.vector, g.vector


SPEC = DatasetSpec(num_concepts=6, dim=8, text_tokens=4, image_patches=6,
                   num_triplets=8, seed=2)


def image_bundle(tokens, attention):
    return TokenBundle(tokens=np.asarray(tokens, dtype=float),
                       attention=np.asarray(attention, dtype=float),
                       global_index=0, modality="image")


def zero_mlp(store, name, d):
    store.add(f"{name}.W1", np.zeros((d, d)))
    store.add(f"{name}.b1", np.zeros((1, d)))
    store.add(f"{name}.W2", np.zeros((d, d)))
    store.add(f"{name}.b2", np.zeros((1, d)))


class TestWeightRelocate:
    def test_uniform_attention(self):
        rng = np.random.default_rng(0)
        tokens = rng.uniform(-1, 1, (4, 3))
        b = image_bundle(tokens, np.full(4, 0.25))
        assert np.allclose(weight_relocate(b), tokens / 4, atol=1e-15)

    def test_one_hot_attention(self):
        rng = np.random.default_rng(1)
        tokens = rng.uniform(-1, 1, (4, 3))
        att = np.array([0.0, 0.0, 1.0, 0.0])
        out = weight_relocate(image_bundle(tokens, att))
        assert np.array_equal(out[2], tokens[2])
        assert np.array_equal(out[[0, 1, 3]], np.zeros((3, 3)))

    def test_exact_recomputation(self):
        rng = np.random.default_rng(2)
        tokens = rng.uniform(-1, 1, (5, 4))
        att = rng.dirichlet(np.ones(5))
        out = weight_relocate(image_bundle(tokens, att))
        for i in range(5):
            assert np.array_equal(out[i], att[i] * tokens[i])

    def test_linearity_in_tokens(self):
        rng = np.random.default_rng(3)
        att = rng.dirichlet(np.ones(4))
        x = rng.uniform(-1, 1, (4, 3))
        y = rng.uniform(-1, 1, (4, 3))
        a, b = 0.7, -1.3
        combined = weight_relocate(image_bundle(a * x + b * y, att))
        parts = a * weight_relocate(image_bundle(x, att)) \
            + b * weight_relocate(image_bundle(y, att))
        assert np.allclose(combined, parts, atol=1e-12)


class TestWcbFuse:
    def test_zero_mlp_collapses_to_global_token(self):
        d = 6
        store = ParamStore()
        zero_mlp(store, "m", d)
        rng = np.random.default_rng(4)
        weighted = rng.uniform(-1, 1, (3, d))
        global_token = rng.uniform(-1, 1, d)
        tape = Tape()
        out = wcb_fuse(tape, store, "m", weighted, global_token)
        assert np.allclose(out.value[0], global_token, atol=1e-15)

    def test_single_row_identity_mlp(self):
        d = 4
        store = ParamStore()
        store.add("m.W1", np.eye(d))
        store.add("m.b1", np.zeros((1, d)))
        store.add("m.W2", np.eye(d))
        store.add("m.b2", np.zeros((1, d)))
        row = np.abs(np.random.default_rng(5).uniform(size=(1, d)))
        g = np.random.default_rng(6).uniform(size=d)
        tape = Tape()
        out = wcb_fuse(tape, store, "m", row, g)
        assert np.allclose(out.value[0], row[0] + g, atol=1e-14)

    def test_gradient_through_both_branches(self):
        rng = np.random.default_rng(7)
        d = 5
        store = ParamStore()
        store.init_mlp("m", d, d, d, rng)
        weighted = rng.uniform(-1, 1, (4, d))
        g = rng.uniform(-1, 1, d)

        def f(st):
            tape = Tape()
            out = wcb_fuse(tape, st, "m", weighted, g)
            return oracles.vsum(oracles.emul(out, out))

        assert_grads_match(f, store)


class TestCompensateAll:
    def test_purity(self):
        samples = generate_dataset(SPEC)
        store = init_params(SPEC.dim, 0)
        outs = []
        for _ in range(2):
            tape = Tape()
            t, r, g = compensate_all(tape, store, samples[0])
            outs.append((t.value.copy(), r.value.copy(), g.value.copy()))
        for a, b in zip(outs[0], outs[1]):
            assert np.array_equal(a, b)

    def test_images_share_mlp_text_does_not(self):
        samples = generate_dataset(SPEC)
        store = init_params(SPEC.dim, 0)
        tape = Tape()
        ce_ref = compensate_bundle(tape, store, samples[0].ref_image)
        ce_tar = compensate_bundle(tape, store, samples[0].tar_image)
        ce_txt = compensate_bundle(tape, store, samples[0].mod_text)
        assert ce_ref.source == ce_tar.source == IMAGE_MLP
        assert ce_txt.source == TEXT_MLP

    def test_zero_attention_reduces_to_bias_pool_plus_global(self):
        d = SPEC.dim
        store = init_params(d, 0)
        rng = np.random.default_rng(8)
        tokens = rng.uniform(-1, 1, (5, d))
        att = np.array([1.0, 0.0, 0.0, 0.0, 0.0])  # all mass on the global row
        bundle = image_bundle(tokens, att)
        tape = Tape()
        out = compensate_bundle(tape, store, bundle).vector
        # non-global rows are zeroed, so the pooled branch sees only biases
        zeros = np.zeros((4, d))
        h = np.maximum(zeros @ store.params[f"{IMAGE_MLP}.W1"]
                       + store.params[f"{IMAGE_MLP}.b1"], 0.0)
        expect = (h @ store.params[f"{IMAGE_MLP}.W2"]
                  + store.params[f"{IMAGE_MLP}.b2"]).max(axis=0) + tokens[0]
        assert np.allclose(out.value[0], expect, atol=1e-12)

    def test_batch_path_matches_per_sample_path(self):
        samples = generate_dataset(SPEC)
        store = init_params(SPEC.dim, 1)
        tape = Tape()
        batch = compensate_batch(tape, store, samples.ref_image, IMAGE_MLP)
        for i, s in enumerate(samples):
            single = compensate_bundle(tape, store, s.ref_image).vector
            assert np.allclose(batch.value[i], single.value[0], atol=1e-12)

    @pytest.mark.parametrize("modality", ["text", "image"])
    def test_batch_path_equals_per_sample_oracle_exactly(self, modality):
        samples = generate_dataset(SPEC)
        store = init_params(SPEC.dim, 1)
        if modality == "text":
            bundles, name = samples.mod_text, TEXT_MLP
        else:
            bundles, name = samples.images, IMAGE_MLP  # references, then targets
        tape = Tape()
        batch = compensate_batch(tape, store, bundles, name).value
        oracle = np.concatenate(
            [compensate_bundle(tape, store, b).vector.value for b in bundles])
        assert np.array_equal(batch, oracle)

    @pytest.mark.parametrize("global_index", [0, 3, 6])
    def test_batch_equals_the_oracle_at_any_global_row(
            self, global_index):
        rng = np.random.default_rng(global_index)
        store = init_params(SPEC.dim, 1)
        bundles = TokenBundle(rng.standard_normal((5, 7, SPEC.dim)),
                              rng.dirichlet(np.ones(7), size=5), global_index, "image")
        tape = Tape()
        oracle = np.concatenate(
            [compensate_bundle(tape, store, b).vector.value for b in bundles])
        assert np.array_equal(compensate_batch(tape, store, bundles, IMAGE_MLP).value,
                              oracle)

    def test_batch_rejects_mixed_global_index(self):
        samples = generate_dataset(SPEC)
        store = init_params(SPEC.dim, 1)
        a = samples[0].ref_image
        b = samples[1].ref_image
        moved = TokenBundle(b.tokens, b.attention, 1, b.modality)
        with pytest.raises(ShapeError):
            oracles.compensate_batch(Tape(), store, [a, moved], IMAGE_MLP)
        # a pack has one global row, and it must be one of its rows
        rows = samples.images.tokens.shape[-2]
        for bad in (rows, -1):
            with pytest.raises(ShapeError):
                TokenBundle(samples.images.tokens, samples.images.attention, bad, "image")

    def test_batch_rejects_mixed_shapes(self):
        samples = generate_dataset(SPEC)
        store = init_params(SPEC.dim, 1)
        b = samples[1].ref_image
        short = TokenBundle(b.tokens[:-1], b.attention[:-1], 0, b.modality)
        with pytest.raises(ShapeError):
            oracles.compensate_batch(Tape(), store, [samples[0].ref_image, short],
                                     IMAGE_MLP)
        # packs: attention that is not one weight per token row, and records
        # that are not the spec's
        packed = samples.ref_image
        with pytest.raises(ShapeError):
            TokenBundle(packed.tokens, packed.attention[:, :-1], 0, "image")
        with pytest.raises(ShapeError):
            TokenBundle(packed.tokens[0, 0], packed.attention[0], 0, "image")
        for records in (samples.records[:, :-1], samples.records[0]):
            with pytest.raises(ShapeError):
                Dataset(records, SPEC)

    @pytest.mark.parametrize("modality", ["text", "image"])
    def test_gathered_batch_equals_the_list_oracle_exactly(self, modality):
        # a batch gathered from the records, as the trainer's are, against
        # the per-bundle lists compensate_batch took before datasets were packed
        samples = generate_dataset(SPEC)
        store = init_params(SPEC.dim, 1)
        idx = np.array([5, 0, 3, 7, 3])
        batch = samples[idx]
        if modality == "text":
            packed, name = batch.mod_text, TEXT_MLP
            listed = [samples[i].mod_text for i in idx]
        else:
            packed, name = batch.images, IMAGE_MLP
            listed = ([samples[i].ref_image for i in idx]
                      + [samples[i].tar_image for i in idx])
        # the bundles a traced run counts rows of are the packed slices
        assert [b.tokens.shape for b in packed] == [b.tokens.shape for b in listed]
        for got, want in zip(packed, listed):
            assert np.array_equal(got.tokens, want.tokens)
            assert np.array_equal(got.attention, want.attention)
            assert got.global_index == want.global_index
        rows, _ = oracles.token_rows(listed)
        assert sum(b.tokens.shape[0] - 1 for b in packed) == rows.shape[0]
        tape = Tape()
        got = compensate_batch(tape, store, packed, name).value
        assert np.array_equal(got, oracles.compensate_batch(tape, store, listed, name).value)
        assert np.array_equal(got, oracles.compensate_batch(tape, store, list(packed),
                                                            name).value)

    def test_high_attention_token_dominates_sensitivity(self):
        # perturbing a high-attention token must move the output more, on
        # average, than perturbing a near-zero-attention distractor
        spec = DatasetSpec(num_concepts=8, dim=16, image_patches=8,
                           num_triplets=100, distractor_fraction=0.25, seed=9)
        samples = generate_dataset(spec)
        store = init_params(spec.dim, 3)
        rng = np.random.default_rng(10)
        delta = 0.1
        diffs_hi, diffs_lo = [], []
        for s in samples:
            b = s.tar_image
            patch_att = b.attention.copy()
            patch_att[b.global_index] = -1  # exclude global from the choice
            hi = int(np.argmax(patch_att))
            lo = int(np.argmin(np.where(patch_att < 0, np.inf, patch_att)))
            step = rng.standard_normal(spec.dim)
            step *= delta / np.linalg.norm(step)
            base = _out(store, b)
            for row, sink in ((hi, diffs_hi), (lo, diffs_lo)):
                tokens = b.tokens.copy()
                tokens[row] += step
                moved = _out(store, TokenBundle(tokens, b.attention,
                                                b.global_index, b.modality))
                sink.append(np.linalg.norm(moved - base))
        assert np.mean(diffs_hi) > np.mean(diffs_lo)

    def test_end_to_end_gradcheck(self):
        samples = generate_dataset(SPEC)
        store = init_params(SPEC.dim, 4)
        sample = samples[0]

        def f(st):
            tape = Tape()
            t, r, g = compensate_all(tape, st, sample)
            total = oracles.add(oracles.add(oracles.vsum(oracles.emul(t, t)),
                                            oracles.vsum(oracles.emul(r, r))),
                                oracles.vsum(oracles.emul(g, g)))
            return total

        report = ad.grad_check(f, store)
        assert report.passed
        assert report.max_rel_error <= 1e-5


def _out(store, bundle):
    tape = Tape()
    return compensate_bundle(tape, store, bundle).vector.value[0].copy()
