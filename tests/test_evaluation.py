import numpy as np
import pytest

from noisycir.errors import ConfigError, ShapeError
from noisycir.evaluation import (cosine_similarity_matrix, evaluate_filter,
                                 recall_from_similarity)
from noisycir.autodiff import cosine_values
from tests import oracles
from tests.oracles import recall_at_k


class TestSimilarityMatrix:
    def test_matches_scalar_cosine(self):
        rng = np.random.default_rng(0)
        q = rng.uniform(-1, 1, (5, 4))
        g = rng.uniform(-1, 1, (7, 4))
        sims = cosine_similarity_matrix(q, g)
        for i in range(5):
            for j in range(7):
                expect = np.dot(q[i], g[j]) / (np.linalg.norm(q[i])
                                               * np.linalg.norm(g[j]))
                assert sims[i, j] == pytest.approx(expect, abs=1e-12)

    def test_scale_invariant(self):
        rng = np.random.default_rng(1)
        q = rng.uniform(-1, 1, (4, 6))
        g = rng.uniform(-1, 1, (4, 6))
        assert np.allclose(cosine_similarity_matrix(q, g),
                           cosine_similarity_matrix(3.7 * q, 0.01 * g),
                           atol=1e-12)

    def test_zero_row_yields_zero_similarity(self):
        q = np.array([[0.0, 0.0], [1.0, 0.0]])
        g = np.array([[1.0, 1.0]])
        sims = cosine_similarity_matrix(q, g)
        assert sims[0, 0] == 0.0

    def test_equals_the_second_normalisation_it_replaced(self):
        """cosine_values, on single matrices and on stacks, has the bytes of
        the old evaluation cosine: rows of any scale, and zero rows."""
        rng = np.random.default_rng(16)
        for case in range(2000):
            s, nq, ng, d = rng.integers(1, 4), *rng.integers(1, 61, 3)
            scale = 10.0 ** rng.uniform(-6, 6, (s, 1, 1))
            q = rng.standard_normal((s, nq, d)) * scale
            g = rng.standard_normal((s, ng, d)) * scale
            q[rng.uniform(size=(s, nq)) < 0.1] = 0.0
            g[rng.uniform(size=(s, ng)) < 0.1] = 0.0
            want = np.stack([oracles.cosine_similarity_matrix(a, b) for a, b in zip(q, g)])
            if s == 1:
                got = cosine_similarity_matrix(q[0], g[0])[None]
            else:
                got = cosine_values(q, g)[0]
            assert got.tobytes() == want.tobytes(), case


class TestRecall:
    def test_self_retrieval_is_one(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, (20, 8))
        assert recall_at_k(x, x, 1) == 1.0

    def test_reversed_alignment_fails_at_k1(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, (20, 8))
        assert recall_at_k(x, x[::-1], 1) == 0.0

    def test_planted_ranks(self):
        # build a similarity matrix with known ranks: target of query i is
        # outscored by exactly i gallery items
        n = 10
        sims = np.zeros((n, n))
        for i in range(n):
            sims[i, i] = 0.5
            order = [j for j in range(n) if j != i]
            for r, j in enumerate(order):
                sims[i, j] = 1.0 - 0.01 * r if r < i else 0.1 - 0.001 * r
        for k in range(1, n + 1):
            assert recall_from_similarity(sims, k) == pytest.approx(k / n)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(4)
        sims = rng.uniform(-1, 1, (30, 30))
        vals = [recall_from_similarity(sims, k) for k in range(1, 31)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] == 1.0

    def test_tie_break_by_gallery_index(self):
        sims = np.ones((3, 3))  # every score tied
        assert recall_from_similarity(sims, 1) == pytest.approx(1 / 3)
        assert recall_from_similarity(sims, 2) == pytest.approx(2 / 3)
        assert recall_from_similarity(sims, 3) == 1.0

    def test_argument_validation(self):
        sims = np.eye(4)
        with pytest.raises(ConfigError):
            recall_from_similarity(sims, 0)
        with pytest.raises(ConfigError):
            recall_from_similarity(sims, 5)
        with pytest.raises(ShapeError):
            recall_from_similarity(np.zeros((3, 4)), 1)
        with pytest.raises(ShapeError):
            recall_at_k(np.zeros((3, 2)), np.zeros((4, 2)), 1)


class TestEvaluateFilter:
    def test_perfect_filter(self):
        truth = np.array([True, False, True, False])
        labels = np.array([0.0, 1.0, 0.0, 1.0])
        score = evaluate_filter(labels, truth)
        assert score.precision == 1.0 and score.recall == 1.0 and score.f1 == 1.0

    def test_hand_counted_confusion(self):
        # predictions flag samples 0,1,2 as noisy; truth says 0,1,4 are
        truth = np.array([True, True, False, False, True])
        labels = np.array([0.0, 0.0, 0.0, 1.0, 1.0])
        score = evaluate_filter(labels, truth)
        assert score.precision == pytest.approx(2 / 3)
        assert score.recall == pytest.approx(2 / 3)
        assert score.f1 == pytest.approx(2 / 3)

    def test_null_filter_flags_nothing(self):
        truth = np.array([True, False, True])
        score = evaluate_filter(np.ones(3), truth)
        assert score.precision == 0.0
        assert score.recall == 0.0
        assert score.f1 == 0.0

    def test_no_noise_present(self):
        score = evaluate_filter(np.array([0.0, 1.0]), np.array([False, False]))
        assert score.precision == 0.0 and score.recall == 0.0 and score.f1 == 0.0

    def test_random_filter_f1_near_half(self):
        # balanced truth + coin-flip predictions: precision and recall both
        # concentrate near 0.5, so F1 does too
        rng = np.random.default_rng(5)
        f1s = []
        for _ in range(200):
            truth = rng.random(400) < 0.5
            labels = (rng.random(400) < 0.5).astype(float)
            f1s.append(evaluate_filter(labels, truth).f1)
        assert np.mean(f1s) == pytest.approx(0.5, abs=0.1)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            evaluate_filter(np.ones(3), np.array([True, False]))
