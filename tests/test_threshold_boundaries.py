"""Exact-boundary behaviour of the two frequent-itemset definitions.

The paper's definitions draw their lines differently:

* **Definition 2** (expected support) is *inclusive*: ``esup(X) >= min_esup``;
* **Definition 4** (probabilistic frequentness) is *strict*:
  ``Pr[sup(X) >= min_count] > pft``.

These tests construct databases whose statistics land **exactly on** the
thresholds — dyadic probabilities, so the floating-point values are exact —
and pin the convention for every registered miner.  Conventions living in
``core/thresholds.py`` and the individual miners cannot silently drift
per-miner without failing here.
"""

import math

import pytest

from repro.core.miner import mine
from repro.core.registry import algorithms_in_family
from repro.core.support import normal_tail_probability, poisson_tail_probability
from repro.core.thresholds import ProbabilisticThreshold
from repro.db import UncertainDatabase
from repro.stream import StreamingDP, StreamingUApriori, TransactionStream

import reference

#: a hair above 1.0 — scaled thresholds stay exactly representable
ULP_UP = 1.0 + 2.0**-50

#: every registered miner of a family, plus the brute-force reference the
#: test-suite checks them against (``tests/reference.py``)
EXPECTED_MINERS = sorted(algorithms_in_family("expected")) + ["reference"]
EXACT_MINERS = sorted(algorithms_in_family("exact")) + ["reference"]


def _mine(database, algorithm, **thresholds):
    if algorithm != "reference":
        return mine(database, algorithm=algorithm, **thresholds)
    if "min_esup" in thresholds:
        return reference.exhaustive_expected(database, **thresholds)
    return reference.exhaustive_probabilistic(database, **thresholds)


def boundary_database(n_transactions=4):
    """Every transaction {1: 0.5, 2: 1.0}: esup(1) = esup(1,2) = N/2 exactly."""
    return UncertainDatabase.from_records(
        [{1: 0.5, 2: 1.0} for _ in range(n_transactions)]
    )


class TestDefinition2InclusiveBoundary:
    """``esup >= min_esup``: a value exactly at the threshold qualifies."""

    @pytest.mark.parametrize("algorithm", EXPECTED_MINERS)
    def test_exact_boundary_is_frequent(self, algorithm):
        database = boundary_database()
        result = _mine(database, algorithm, min_esup=2.0)
        assert (1,) in result
        assert (2,) in result
        assert (1, 2) in result

    @pytest.mark.parametrize("algorithm", EXPECTED_MINERS)
    def test_just_above_boundary_is_not(self, algorithm):
        database = boundary_database()
        result = _mine(database, algorithm, min_esup=2.0 * ULP_UP)
        assert (1,) not in result
        assert (1, 2) not in result
        assert (2,) in result  # esup 4.0 comfortably above

    @pytest.mark.parametrize("algorithm", EXPECTED_MINERS)
    def test_ratio_threshold_resolves_to_same_boundary(self, algorithm):
        # ratio 0.5 of 4 transactions -> absolute 2.0, exactly
        database = boundary_database()
        result = _mine(database, algorithm, min_esup=0.5)
        assert (1,) in result and (1, 2) in result

    def test_streaming_uapriori_shares_the_convention(self):
        stream = TransactionStream.from_records(
            [{1: 0.5, 2: 1.0} for _ in range(4)]
        )
        miner = StreamingUApriori(4, min_esup=2.0)
        result = miner.advance(stream, 4)
        assert (1,) in result and (1, 2) in result

        stream = TransactionStream.from_records(
            [{1: 0.5, 2: 1.0} for _ in range(4)]
        )
        miner = StreamingUApriori(4, min_esup=2.0 * ULP_UP)
        result = miner.advance(stream, 4)
        assert (1,) not in result and (2,) in result


class TestDefinition4StrictBoundary:
    """``Pr > pft``: a probability exactly at the threshold does NOT qualify."""

    @staticmethod
    def two_coin_database():
        # Pr[sup({1}) >= 1] = 1 - 0.5 * 0.5 = 0.75 exactly; item 2 is
        # certain, so Pr[sup({2}) >= 1] = 1.0.
        return UncertainDatabase.from_records([{1: 0.5, 2: 1.0}, {1: 0.5, 2: 1.0}])

    @pytest.mark.parametrize("algorithm", EXACT_MINERS)
    def test_exact_boundary_is_excluded(self, algorithm):
        database = self.two_coin_database()
        result = _mine(database, algorithm, min_sup=0.5, pft=0.75)
        assert (1,) not in result
        assert (2,) in result  # Pr = 1.0 > 0.75

    @pytest.mark.parametrize("algorithm", EXACT_MINERS)
    def test_just_below_boundary_is_included(self, algorithm):
        database = self.two_coin_database()
        result = _mine(database, algorithm, min_sup=0.5, pft=0.74)
        assert (1,) in result
        assert result[(1,)].frequent_probability == 0.75

    def test_min_count_rounds_up(self):
        # The smallest integer support satisfying sup >= N * min_sup.
        assert ProbabilisticThreshold(0.5).min_count(5) == 3
        assert ProbabilisticThreshold(0.5).min_count(4) == 2
        assert ProbabilisticThreshold(0.3).min_count(10) == 3

    def test_streaming_dp_shares_the_convention(self):
        records = [{1: 0.5, 2: 1.0}, {1: 0.5, 2: 1.0}]
        miner = StreamingDP(2, min_sup=0.5, pft=0.75)
        result = miner.advance(TransactionStream.from_records(records), 2)
        assert (1,) not in result and (2,) in result
        miner = StreamingDP(2, min_sup=0.5, pft=0.74)
        result = miner.advance(TransactionStream.from_records(records), 2)
        assert (1,) in result


class TestApproximateMinersStrictBoundary:
    """The approximate miners apply the same strict ``> pft`` convention.

    Each test computes the miner's own approximation of the frequent
    probability with the shared kernel, then sets ``pft`` exactly equal to
    it: the itemset must be excluded.  Nudging ``pft`` below by more than
    the kernels' determinism (they are pure functions — the identical call
    returns identical bits) must include it.
    """

    def test_ndu_apriori(self):
        database = boundary_database()  # esup(1) = 2.0, var(1) = 1.0
        min_count = ProbabilisticThreshold(0.5).min_count(4)  # = 2
        value = normal_tail_probability(2.0, 1.0, min_count)
        assert 0.0 < value < 1.0
        at_boundary = mine(database, algorithm="ndu-apriori", min_sup=0.5, pft=value)
        assert (1,) not in at_boundary
        below = mine(
            database, algorithm="ndu-apriori", min_sup=0.5, pft=value - 1e-9
        )
        assert (1,) in below

    def test_nduh_mine(self):
        database = boundary_database()
        min_count = ProbabilisticThreshold(0.5).min_count(4)
        value = normal_tail_probability(2.0, 1.0, min_count)
        at_boundary = mine(database, algorithm="nduh-mine", min_sup=0.5, pft=value)
        assert (1,) not in at_boundary
        below = mine(database, algorithm="nduh-mine", min_sup=0.5, pft=value - 1e-9)
        assert (1,) in below

    def test_pdu_apriori(self):
        # PDUApriori converts (min_count, pft) into the smallest Poisson
        # rate with tail > pft.  With pft set to the exact tail at the
        # itemset's expected support, that rate lies strictly above the
        # expected support, so the itemset must be excluded.
        database = boundary_database()
        min_count = 3
        value = poisson_tail_probability(2.0, min_count)
        assert 0.0 < value < 1.0
        at_boundary = mine(
            database, algorithm="pdu-apriori", min_sup=float(min_count), pft=value
        )
        assert (1,) not in at_boundary
        below = mine(
            database,
            algorithm="pdu-apriori",
            min_sup=float(min_count),
            pft=value - 1e-9,
        )
        assert (1,) in below

    def test_world_sampling(self):
        # Deterministic given the seed: read the estimate once, then pin the
        # strict comparison against that exact value on an identical run.
        database = self.larger_coin_database()
        probe = mine(
            database,
            algorithm="world-sampling",
            min_sup=0.5,
            pft=0.01,
            n_worlds=64,
            seed=7,
        )
        estimate = probe[(1,)].frequent_probability
        assert 0.0 < estimate < 1.0
        at_boundary = mine(
            database,
            algorithm="world-sampling",
            min_sup=0.5,
            pft=estimate,
            n_worlds=64,
            seed=7,
        )
        assert (1,) not in at_boundary
        below = mine(
            database,
            algorithm="world-sampling",
            min_sup=0.5,
            pft=estimate - 1e-9,
            n_worlds=64,
            seed=7,
        )
        assert (1,) in below

    @staticmethod
    def larger_coin_database():
        return UncertainDatabase.from_records([{1: 0.5} for _ in range(8)])


class TestKernelBoundaryEdges:
    """Degenerate threshold inputs shared by all miners."""

    def test_min_count_zero_means_always_frequent(self):
        from repro.core.support import (
            frequent_probability_dynamic_programming,
            poisson_tail_probability,
        )

        assert frequent_probability_dynamic_programming([0.5], 0) == 1.0
        assert poisson_tail_probability(0.5, 0) == 1.0
        assert normal_tail_probability(0.5, 0.25, 0) == 1.0

    def test_pft_bounds_are_enforced(self):
        with pytest.raises(ValueError):
            ProbabilisticThreshold(0.5, pft=0.0)
        with pytest.raises(ValueError):
            ProbabilisticThreshold(0.5, pft=1.0)
        assert math.isclose(ProbabilisticThreshold(0.5, pft=0.9).pft, 0.9)
