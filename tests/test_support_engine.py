"""Unit tests for the batched SupportEngine facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import support
from repro.core.support import (
    SupportDistribution,
    SupportEngine,
    frequent_probabilities_dp_batch,
    frequent_probability_dynamic_programming,
    normal_tail_probability,
    pack_probability_matrix,
    poisson_tail_probability,
)


@pytest.fixture
def vectors():
    rng = np.random.default_rng(42)
    return [rng.random(rng.integers(1, 30)) for _ in range(12)]


class TestPacking:
    def test_zero_padding(self):
        matrix = pack_probability_matrix([[0.5], [0.2, 0.8, 0.1]])
        assert matrix.shape == (2, 3)
        assert matrix[0].tolist() == [0.5, 0.0, 0.0]
        assert matrix[1].tolist() == [0.2, 0.8, 0.1]

    def test_empty_input(self):
        assert pack_probability_matrix([]).shape == (0, 0)


class TestBatchDP:
    @pytest.mark.parametrize("min_count", [1, 2, 5, 10])
    def test_bitwise_identical_to_scalar_dp(self, vectors, min_count):
        batch = frequent_probabilities_dp_batch(
            pack_probability_matrix(vectors), min_count
        )
        scalar = np.array(
            [
                frequent_probability_dynamic_programming(vector, min_count)
                for vector in vectors
            ]
        )
        # Padding zeros are identity steps of the recurrence, so the batch
        # result must agree bitwise, not merely approximately.
        assert np.array_equal(batch, scalar)

    def test_min_count_zero_is_certain(self, vectors):
        matrix = pack_probability_matrix(vectors)
        assert np.array_equal(
            frequent_probabilities_dp_batch(matrix, 0), np.ones(len(vectors))
        )

    def test_min_count_beyond_width_is_impossible(self, vectors):
        matrix = pack_probability_matrix(vectors)
        assert np.array_equal(
            frequent_probabilities_dp_batch(matrix, matrix.shape[1] + 1),
            np.zeros(len(vectors)),
        )


class TestEngineMoments:
    def test_matches_support_distribution(self, vectors):
        engine = SupportEngine(vectors)
        for index, vector in enumerate(vectors):
            distribution = SupportDistribution(vector)
            assert engine.expected_supports()[index] == pytest.approx(
                distribution.expected_support
            )
            assert engine.variances()[index] == pytest.approx(distribution.variance)

    def test_nonzero_counts(self):
        engine = SupportEngine([[0.5, 0.0, 0.3], [0.0], [1.0, 1.0]])
        assert engine.nonzero_counts().tolist() == [2, 0, 2]

    def test_subset_slices_the_level_bitwise(self, vectors):
        engine = SupportEngine(vectors)
        indices = [1, 4, 5, 11]
        batch = engine.subset(indices)
        fresh = SupportEngine([vectors[index] for index in indices])
        assert np.array_equal(batch.expected_supports(), fresh.expected_supports())
        assert np.array_equal(batch.variances(), fresh.variances())
        assert np.array_equal(
            batch.frequent_probabilities(4), fresh.frequent_probabilities(4)
        )


class TestEngineTails:
    @pytest.mark.parametrize("method", ["dynamic_programming", "divide_conquer"])
    @pytest.mark.parametrize("min_count", [1, 3, 8])
    def test_matches_support_distribution(self, vectors, method, min_count):
        engine = SupportEngine(vectors)
        results = engine.frequent_probabilities(min_count, method=method)
        for index, vector in enumerate(vectors):
            expected = SupportDistribution(vector).frequent_probability(
                min_count, method=method
            )
            assert results[index] == pytest.approx(expected, abs=1e-9)

    def test_unknown_method_rejected(self, vectors):
        with pytest.raises(ValueError, match="unknown method"):
            SupportEngine(vectors).frequent_probabilities(2, method="magic")

    @pytest.mark.parametrize("block_bytes", [240, 480, 960])
    def test_blocked_dp_is_bitwise(self, vectors, monkeypatch, block_bytes):
        # Zero-padded columns are Bernoulli(0) identity steps, so chunking
        # the candidate list with per-block padded widths must reproduce
        # the single whole-matrix batch bit for bit.
        reference = SupportEngine(vectors).frequent_probabilities(3)
        monkeypatch.setattr(support, "DP_BLOCK_BYTES", block_bytes)
        blocked = SupportEngine(vectors).frequent_probabilities(3)
        assert np.array_equal(blocked, reference)

    def test_blocked_dp_handles_single_vector_blocks(self, vectors, monkeypatch):
        reference = SupportEngine(vectors).frequent_probabilities(3)
        monkeypatch.setattr(support, "DP_BLOCK_BYTES", 1)
        blocked = SupportEngine(vectors).frequent_probabilities(3)
        assert np.array_equal(blocked, reference)


class TestEngineApproximations:
    def test_normal_matches_scalar(self, vectors):
        engine = SupportEngine(vectors)
        results = engine.normal_frequent_probabilities(4)
        for index, vector in enumerate(vectors):
            distribution = SupportDistribution(vector)
            assert results[index] == normal_tail_probability(
                distribution.expected_support, distribution.variance, 4
            )

    def test_poisson_matches_scalar(self, vectors):
        engine = SupportEngine(vectors)
        results = engine.poisson_frequent_probabilities(4)
        for index, vector in enumerate(vectors):
            assert results[index] == poisson_tail_probability(
                SupportDistribution(vector).expected_support, 4
            )

