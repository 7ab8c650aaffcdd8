"""Tests for the support-distribution mathematics (core.support).

These tests anchor every miner: the exact PMF computations are validated
against brute-force enumeration and against each other, and the
approximations (Poisson, Normal, Chernoff) are validated against the exact
tail probabilities.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.support import (
    SupportDistribution,
    chernoff_upper_bound,
    exact_pmf_divide_conquer,
    exact_pmf_dynamic_programming,
    frequent_probability_dynamic_programming,
    normal_tail_probability,
    poisson_lambda_for_threshold,
    poisson_tail_probability,
)

probability_vectors = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=40
)


def brute_force_pmf(probabilities):
    """Exponential-time reference PMF (only for short vectors)."""
    pmf = np.zeros(len(probabilities) + 1)
    n = len(probabilities)
    for mask in range(2 ** n):
        probability = 1.0
        support = 0
        for index in range(n):
            if mask & (1 << index):
                probability *= probabilities[index]
                support += 1
            else:
                probability *= 1.0 - probabilities[index]
        pmf[support] += probability
    return pmf


class TestExactPmf:
    def test_single_bernoulli(self):
        assert exact_pmf_dynamic_programming([0.3]).tolist() == pytest.approx([0.7, 0.3])

    def test_dp_matches_brute_force(self):
        probabilities = [0.8, 0.8, 0.5, 0.1, 0.9]
        assert exact_pmf_dynamic_programming(probabilities) == pytest.approx(
            brute_force_pmf(probabilities)
        )

    def test_divide_conquer_matches_brute_force(self):
        probabilities = [0.8, 0.8, 0.5, 0.1, 0.9]
        assert exact_pmf_divide_conquer(probabilities) == pytest.approx(
            brute_force_pmf(probabilities)
        )

    def test_paper_table2_style_distribution(self, paper_db):
        a = paper_db.vocabulary.id_of("A")
        pmf = exact_pmf_dynamic_programming(paper_db.itemset_probabilities((a,)))
        # A occurs with probabilities 0.8, 0.8, 0.5 (and 0 in T4).
        assert pmf[0] == pytest.approx(0.02)
        assert pmf[1] == pytest.approx(0.18)
        assert pmf[2] == pytest.approx(0.48)
        assert pmf[3] == pytest.approx(0.32)

    @given(probability_vectors)
    @settings(max_examples=60, deadline=None)
    def test_dp_and_dc_agree(self, probabilities):
        dp = exact_pmf_dynamic_programming(probabilities)
        dc = exact_pmf_divide_conquer(probabilities)
        assert dp == pytest.approx(dc, abs=1e-9)

    @given(probability_vectors)
    @settings(max_examples=60, deadline=None)
    def test_pmf_is_a_distribution(self, probabilities):
        pmf = exact_pmf_dynamic_programming(probabilities)
        assert np.all(pmf >= -1e-12)
        assert pmf.sum() == pytest.approx(1.0)

    @given(probability_vectors)
    @settings(max_examples=60, deadline=None)
    def test_pmf_mean_matches_expected_support(self, probabilities):
        pmf = exact_pmf_dynamic_programming(probabilities)
        mean = float(np.dot(np.arange(len(pmf)), pmf))
        assert mean == pytest.approx(sum(probabilities), abs=1e-8)

    def test_fft_and_direct_convolution_agree(self):
        rng = np.random.default_rng(3)
        probabilities = rng.random(300)
        with_fft = exact_pmf_divide_conquer(probabilities, use_fft=True)
        without_fft = exact_pmf_divide_conquer(probabilities, use_fft=False)
        assert with_fft == pytest.approx(without_fft, abs=1e-9)


class TestFrequentProbabilityDP:
    def test_matches_tail_of_pmf(self):
        probabilities = [0.9, 0.4, 0.7, 0.2, 0.5]
        pmf = exact_pmf_dynamic_programming(probabilities)
        for min_count in range(0, 7):
            expected_tail = float(pmf[min_count:].sum()) if min_count <= 5 else 0.0
            assert frequent_probability_dynamic_programming(
                probabilities, min_count
            ) == pytest.approx(expected_tail, abs=1e-9)

    def test_zero_min_count_is_certain(self):
        assert frequent_probability_dynamic_programming([0.1], 0) == 1.0

    def test_min_count_above_n_is_impossible(self):
        assert frequent_probability_dynamic_programming([0.9, 0.9], 3) == 0.0

    @given(probability_vectors, st.integers(min_value=1, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_min_count(self, probabilities, min_count):
        higher = frequent_probability_dynamic_programming(probabilities, min_count + 1)
        lower = frequent_probability_dynamic_programming(probabilities, min_count)
        assert higher <= lower + 1e-9


class TestApproximations:
    def test_poisson_tail_sane(self):
        # P[Poisson(2) >= 1] = 1 - e^-2
        assert poisson_tail_probability(2.0, 1) == pytest.approx(1 - math.exp(-2))

    def test_poisson_tail_zero_rate(self):
        assert poisson_tail_probability(0.0, 1) == 0.0
        assert poisson_tail_probability(0.0, 0) == 1.0

    def test_normal_tail_continuity_correction(self):
        # Symmetric case: expectation exactly at the corrected threshold.
        assert normal_tail_probability(9.5, 4.0, 10) == pytest.approx(0.5)

    def test_normal_tail_degenerate_variance(self):
        assert normal_tail_probability(5.0, 0.0, 3) == 1.0
        assert normal_tail_probability(2.0, 0.0, 3) == 0.0

    def test_normal_approximation_converges_to_exact(self):
        """The CLT argument of the paper: error shrinks as N grows."""
        rng = np.random.default_rng(0)
        errors = []
        for n in (20, 200, 2000):
            probabilities = rng.uniform(0.3, 0.9, size=n)
            distribution = SupportDistribution(probabilities)
            min_count = int(0.6 * n)
            exact = distribution.frequent_probability(min_count)
            approximate = distribution.normal_frequent_probability(min_count)
            errors.append(abs(exact - approximate))
        assert errors[-1] < 0.01
        assert errors[-1] <= errors[0] + 1e-6

    @given(probability_vectors, st.integers(min_value=1, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_chernoff_is_an_upper_bound(self, probabilities, min_count):
        distribution = SupportDistribution(probabilities)
        exact = distribution.frequent_probability(min_count)
        bound = chernoff_upper_bound(distribution.expected_support, min_count)
        assert bound >= exact - 1e-9

    def test_chernoff_uninformative_when_expectation_exceeds_threshold(self):
        assert chernoff_upper_bound(10.0, 5) == 1.0

    def test_poisson_lambda_threshold_is_monotone_inverse(self):
        for min_count in (2, 5, 20):
            for pft in (0.3, 0.7, 0.9):
                lam = poisson_lambda_for_threshold(min_count, pft)
                assert poisson_tail_probability(lam, min_count) >= pft - 1e-6
                assert poisson_tail_probability(lam * 0.95, min_count) <= pft + 1e-3

    def test_poisson_lambda_rejects_bad_pft(self):
        with pytest.raises(ValueError):
            poisson_lambda_for_threshold(5, 1.5)


class TestSupportDistribution:
    def test_moments(self):
        distribution = SupportDistribution([0.5, 0.5, 1.0])
        assert distribution.expected_support == pytest.approx(2.0)
        assert distribution.variance == pytest.approx(0.5)
        assert distribution.n_transactions == 3

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            SupportDistribution([0.5, 1.2])

    def test_pmf_methods_agree(self):
        probabilities = [0.2, 0.9, 0.6, 0.5]
        dp = SupportDistribution(probabilities).pmf(method="dynamic_programming")
        dc = SupportDistribution(probabilities).pmf(method="divide_conquer")
        assert dp == pytest.approx(dc)

    def test_unknown_pmf_method_rejected(self):
        with pytest.raises(ValueError):
            SupportDistribution([0.5]).pmf(method="quantum")

    def test_frequent_probability_edge_cases(self):
        distribution = SupportDistribution([0.5, 0.5])
        assert distribution.frequent_probability(0) == 1.0
        assert distribution.frequent_probability(3) == 0.0

    def test_frequent_probability_methods_agree(self, paper_db):
        a = paper_db.vocabulary.id_of("A")
        distribution = SupportDistribution(paper_db.itemset_probabilities((a,)))
        assert distribution.frequent_probability(2) == pytest.approx(
            distribution.frequent_probability(2, method="dynamic_programming")
        )
        assert distribution.frequent_probability(2) == pytest.approx(0.8)

    def test_pmf_as_dict_drops_negligible_entries(self):
        distribution = SupportDistribution([1.0, 1.0])
        assert distribution.pmf_as_dict() == {2: pytest.approx(1.0)}


class TestDivideConquerRenormalization:
    """DC's renormalisation is tolerance-gated, keeping DC and DP tails aligned.

    An unconditional renormalisation silently masked FFT drift *and*
    perturbed well-conditioned PMFs, so the DC tail of a candidate could
    differ from the DP tail by more than the convolution round-off itself.
    """

    def test_dc_and_dp_tails_agree_within_1e12_on_dense_inputs(self):
        from repro.core.support import (
            frequent_probabilities_dp_batch,
            pack_probability_matrix,
        )

        rng = np.random.default_rng(17)
        # Dense regime: 300 transactions, occurrence probabilities in
        # [0.3, 1.0) — the FFT path engages (> 64 entries per half).
        vectors = [rng.uniform(0.3, 1.0, size=300) for _ in range(8)]
        for min_count in (1, 60, 150, 250):
            dp = frequent_probabilities_dp_batch(
                pack_probability_matrix(vectors), min_count
            )
            dc = np.array(
                [
                    float(exact_pmf_divide_conquer(vector)[min_count:].sum())
                    for vector in vectors
                ]
            )
            assert np.max(np.abs(dp - dc)) <= 1e-12

    def test_well_conditioned_pmf_is_not_perturbed(self):
        # Direct (non-FFT) convolution of exact dyadic probabilities is
        # exact; renormalising would divide every entry by a sum a few ulps
        # off 1.0 and destroy that exactness.
        pmf = exact_pmf_divide_conquer([0.5, 0.25, 0.75, 0.5])
        reference = exact_pmf_dynamic_programming([0.5, 0.25, 0.75, 0.5])
        assert np.array_equal(pmf, reference)

    def test_negatives_are_clipped(self):
        rng = np.random.default_rng(5)
        pmf = exact_pmf_divide_conquer(rng.uniform(0.0, 1.0, size=400))
        assert np.all(pmf >= 0.0)

    def test_large_drift_still_renormalises(self, monkeypatch):
        import repro.core.support as support_module

        original = support_module.shift_convolve
        calls = []

        def drifting(left, right, axis=-1):
            calls.append(1)
            return original(left, right, axis) * 1.001

        # the DC walker's direct merges run through shift_convolve
        monkeypatch.setattr(support_module, "shift_convolve", drifting)
        pmf = support_module.exact_pmf_divide_conquer(np.full(8, 0.5))
        assert calls, "the drift never reached the walker"
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)

    def test_total_mass_stays_within_tolerance_of_one(self):
        from repro.core.support import PMF_RENORMALIZE_TOLERANCE

        rng = np.random.default_rng(23)
        for length in (10, 100, 500):
            pmf = exact_pmf_divide_conquer(rng.uniform(0.0, 1.0, size=length))
            assert abs(pmf.sum() - 1.0) <= PMF_RENORMALIZE_TOLERANCE
