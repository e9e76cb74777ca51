import collections
import math

import numpy as np
import pytest

from noisycir.errors import ConfigError
from noisycir.synth import TRUTHS, DatasetSpec, generate_dataset, make_concepts
from tests import oracles

SMALL = DatasetSpec(num_concepts=8, dim=16, text_tokens=6, image_patches=10,
                    num_triplets=50, seed=7)


class TestMakeConcepts:
    def test_single_concept_unit_norm(self):
        spec = DatasetSpec(num_concepts=1, dim=8, num_triplets=1)
        anchors = make_concepts(spec)
        assert anchors.shape == (1, 8)
        assert np.linalg.norm(anchors[0]) == pytest.approx(1.0, abs=1e-12)

    def test_same_seed_bit_identical(self):
        a = make_concepts(SMALL)
        b = make_concepts(SMALL)
        assert np.array_equal(a, b)

    def test_default_generator_well_separated(self):
        anchors = make_concepts(DatasetSpec(num_concepts=16, dim=32))
        sims = anchors @ anchors.T
        np.fill_diagonal(sims, -1.0)
        assert sims.max() < 0.95

    def test_crowded_space_warns(self):
        with pytest.warns(UserWarning):
            make_concepts(DatasetSpec(num_concepts=200, dim=4, num_triplets=1))


class TestSynthTriplet:
    def test_zero_rates_all_clean(self):
        samples = generate_dataset(SMALL)
        assert all(s.truth == "clean" for s in samples)

    def test_full_mismatch_rate(self):
        spec = DatasetSpec(num_concepts=8, dim=16, num_triplets=40,
                           mismatch_rate=1.0, seed=3)
        concepts = make_concepts(spec)
        for s in generate_dataset(spec):
            assert s.truth == "mismatched"
            # target image center is far from the intended target anchor
            t = s.concept_ids[1]
            cls = s.tar_image.global_token()
            sim_t = np.dot(cls / np.linalg.norm(cls), concepts[t])
            assert sim_t < 0.9

    def test_empirical_corruption_rates(self):
        spec = DatasetSpec(num_triplets=1000, mismatch_rate=0.2,
                           partial_rate=0.1, seed=11)
        counts = collections.Counter(s.truth for s in generate_dataset(spec))
        assert counts["mismatched"] / 1000 == pytest.approx(0.2, abs=0.03)
        assert counts["partial"] / 1000 == pytest.approx(0.1, abs=0.03)

    def test_shapes_and_global_indices(self):
        spec = SMALL
        s = generate_dataset(spec)[0]
        n, m, d = spec.text_tokens, spec.image_patches, spec.dim
        assert s.mod_text.tokens.shape == (n + 2, d)
        assert s.mod_text.global_index == n + 1
        assert s.ref_image.tokens.shape == (m + 1, d)
        assert s.ref_image.global_index == 0
        assert s.tar_image.attention.shape == (m + 1,)

    def test_attention_normalized_nonnegative(self):
        for s in generate_dataset(SMALL):
            for b in (s.mod_text, s.ref_image, s.tar_image):
                assert np.all(b.attention >= 0)
                assert b.attention.sum() == pytest.approx(1.0, abs=1e-9)

    def test_distractor_attention_bounded(self):
        spec = DatasetSpec(num_concepts=4, dim=16, image_patches=16,
                           distractor_fraction=0.25, num_triplets=5, seed=1)
        n_distract = 4
        for s in generate_dataset(spec):
            for b in (s.ref_image, s.tar_image):
                low = np.sort(b.attention)[:n_distract]
                assert np.all(low <= 1.0 / (10 * b.attention.size))

    def test_determinism_bit_identical(self):
        a = generate_dataset(SMALL)
        b = generate_dataset(SMALL)
        for x, y in zip(a, b):
            assert x.truth == y.truth and x.concept_ids == y.concept_ids
            assert np.array_equal(x.mod_text.tokens, y.mod_text.tokens)
            assert np.array_equal(x.tar_image.attention, y.tar_image.attention)

    def test_clean_cls_closest_to_target_anchor(self):
        spec = DatasetSpec(num_triplets=300, noise_scale=0.05, seed=21)
        concepts = make_concepts(spec)
        hits = 0
        for s in generate_dataset(spec):
            cls = s.tar_image.global_token()
            sims = concepts @ (cls / np.linalg.norm(cls))
            hits += int(np.argmax(sims) == s.concept_ids[1])
        assert hits / 300 >= 0.99

    def test_single_concept_rejected(self):
        spec = DatasetSpec(num_concepts=1, num_triplets=3)
        with pytest.raises(ConfigError, match="2 concepts"):
            generate_dataset(spec)


def assert_same_samples(got, want):
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert x.truth == y.truth
        assert x.concept_ids == y.concept_ids
        assert all(type(i) is int for i in x.concept_ids)
        for a, b in ((x.mod_text, y.mod_text), (x.ref_image, y.ref_image),
                     (x.tar_image, y.tar_image)):
            assert np.array_equal(a.tokens, b.tokens)
            assert np.array_equal(a.attention, b.attention)
            assert a.global_index == b.global_index
            assert a.modality == b.modality


class TestBlockBuilder:
    """The block builder against the per-sample generator it replaced."""

    @pytest.mark.parametrize("spec", [
        DatasetSpec(num_triplets=40, mismatch_rate=0.2, partial_rate=0.1, seed=3),
        DatasetSpec(num_triplets=20, distractor_fraction=0.0),
        DatasetSpec(num_triplets=20, text_tokens=1, image_patches=1,
                    distractor_fraction=0.0),
        DatasetSpec(num_triplets=20, num_concepts=2, mismatch_rate=1.0),
        DatasetSpec(num_triplets=20, partial_rate=1.0, noise_scale=0.0,
                    seed=4294967295),
        DatasetSpec(num_triplets=1),
        DatasetSpec(num_triplets=20, image_patches=7, distractor_fraction=0.8),
        DatasetSpec(num_triplets=10, image_patches=200, dim=5),
    ], ids=["mixed", "no-distractors", "one-token-one-patch", "two-concepts-all-mismatched",
            "all-partial-noiseless-max-seed", "n1", "7-patches-80pct-distractors",
            "200-patches-dim5"])
    def test_equals_per_sample_oracle(self, spec):
        assert_same_samples(generate_dataset(spec), oracles.generate_dataset(spec))

    @pytest.mark.parametrize("n", [255, 256, 257, 513])
    def test_block_boundaries(self, n):
        spec = DatasetSpec(num_triplets=n, mismatch_rate=0.2, partial_rate=0.1, seed=5)
        assert_same_samples(generate_dataset(spec), oracles.generate_dataset(spec))


class TestPackedDataset:
    """A Dataset is its records; every way of indexing it gives the same samples."""

    SPEC = DatasetSpec(num_triplets=40, mismatch_rate=0.2, partial_rate=0.2, seed=3)

    def test_int_slice_and_index_array_indexing_agree(self):
        ds = generate_dataset(self.SPEC)
        by_int = [ds[i] for i in range(len(ds))]
        assert_same_samples(list(ds), by_int)
        assert_same_samples(list(ds[5:9]), by_int[5:9])
        assert_same_samples(list(ds[::7]), by_int[::7])
        idx = np.array([7, 0, 39, 7, 12])
        assert_same_samples(list(ds[idx]), [by_int[i] for i in idx])
        assert_same_samples(list(ds[[3]]), [ds[np.int64(3)]])
        assert_same_samples([ds[-1]], [by_int[39]])
        assert_same_samples(list(ds[np.zeros(0, np.intp)]), [])
        assert ds.is_noisy.tolist() == [s.is_noisy for s in by_int]
        # a slice views the records; an index array gathers a copy of them
        assert np.shares_memory(ds[5:9].records, ds.records)
        assert not np.shares_memory(ds[idx].records, ds.records)
        with pytest.raises(IndexError):
            ds[40]

    def test_a_record_is_its_sample_in_file_order(self):
        ds = generate_dataset(self.SPEC)
        for i in (0, 17, 39):
            s = ds[i]
            want = [a.ravel() for b in (s.mod_text, s.ref_image, s.tar_image)
                    for a in (b.tokens, b.attention)]
            want.append([TRUTHS.index(s.truth), *s.concept_ids])
            assert np.array_equal(ds.records[i], np.concatenate(want))
            assert all(type(c) is int for c in s.concept_ids)
            assert isinstance(s.truth, str) and f"{s.concept_ids}" == repr(s.concept_ids)

    def test_bundles_view_the_records(self):
        ds = generate_dataset(self.SPEC)
        n, m, d = self.SPEC.text_tokens, self.SPEC.image_patches, self.SPEC.dim
        assert ds.mod_text.tokens.shape == (40, n + 2, d)
        assert ds.images.tokens.shape == (2, 40, m + 1, d)
        assert np.array_equal(ds.images.tokens[1], ds.tar_image.tokens)
        assert np.array_equal(ds.images.global_token()[0], ds.ref_image.tokens[:, 0])
        for b in (ds.mod_text, ds.images, ds[4].ref_image, ds[4].tar_image):
            assert np.shares_memory(b.tokens, ds.records)
            assert np.shares_memory(b.attention, ds.records)
        # iterating a pack yields its bundles in C order: references, then targets
        images = list(ds.images)
        assert len(images) == 80
        assert all(np.array_equal(b.tokens, s.ref_image.tokens)
                   and np.array_equal(images[40 + i].attention, s.tar_image.attention)
                   for i, (b, s) in enumerate(zip(images, ds)))


class TestSpecValidation:
    def test_rates_must_sum_below_one(self):
        with pytest.raises(ConfigError):
            DatasetSpec(mismatch_rate=0.7, partial_rate=0.5).validate()

    def test_dim_floor(self):
        with pytest.raises(ConfigError):
            DatasetSpec(dim=2).validate()

    def test_distractors_cannot_consume_all_patches(self):
        with pytest.raises(ConfigError):
            DatasetSpec(distractor_fraction=0.99).validate()

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_seed_must_be_non_negative_int(self, seed):
        with pytest.raises(ConfigError):
            DatasetSpec(seed=seed).validate()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_noise_scale_must_be_finite(self, value):
        with pytest.raises(ConfigError):
            DatasetSpec(noise_scale=value).validate()

    def test_counts_stop_at_the_largest_array_numpy_can_index(self):
        limit = np.iinfo(np.intp).max // 8  # float64s
        spec = DatasetSpec()
        fits = limit // spec.record_size
        DatasetSpec(num_triplets=fits).validate()
        with pytest.raises(ConfigError, match="too large"):
            DatasetSpec(num_triplets=fits + 1).validate()
        concepts = math.isqrt(limit)  # the concepts' Gram matrix is the largest array
        DatasetSpec(num_concepts=concepts).validate()
        with pytest.raises(ConfigError, match="too large"):
            DatasetSpec(num_concepts=concepts + 1).validate()
