"""Tests for the exact probabilistic miners (DP and DC, with and without pruning)."""

import sys

import numpy as np
import pytest

from repro.algorithms import DCMiner, DPMiner
from repro.core import SupportDistribution
from repro.core.support import undecided_after_bounds

import reference
from helpers import make_random_database


ALL_CONFIGS = [
    ("dp", True),
    ("dp", False),
    ("dc", True),
    ("dc", False),
]


def make_miner(kind: str, use_pruning: bool):
    if kind == "dp":
        return DPMiner(use_pruning=use_pruning)
    return DCMiner(use_pruning=use_pruning)


class TestPaperExample:
    @pytest.mark.parametrize("kind,use_pruning", ALL_CONFIGS)
    def test_example2_of_the_paper(self, paper_db, kind, use_pruning):
        """{A} is probabilistic frequent at min_sup=0.5, pft=0.7 (Example 2)."""
        result = make_miner(kind, use_pruning).mine(paper_db, min_sup=0.5, pft=0.7)
        a = paper_db.vocabulary.id_of("A")
        record = result.get((a,))
        assert record is not None
        assert record.frequent_probability == pytest.approx(0.8)

    @pytest.mark.parametrize("kind,use_pruning", ALL_CONFIGS)
    def test_high_pft_excludes_borderline_itemsets(self, paper_db, kind, use_pruning):
        result = make_miner(kind, use_pruning).mine(paper_db, min_sup=0.5, pft=0.85)
        a = paper_db.vocabulary.id_of("A")
        c = paper_db.vocabulary.id_of("C")
        assert result.get((a,)) is None  # Pr = 0.8 < 0.85
        assert result.get((c,)) is not None  # Pr ~ 0.954


class TestCorrectness:
    @pytest.mark.parametrize("kind,use_pruning", ALL_CONFIGS)
    @pytest.mark.parametrize("min_sup,pft", [(0.3, 0.9), (0.2, 0.5), (0.4, 0.7)])
    def test_matches_exhaustive_reference(self, random_db, kind, use_pruning, min_sup, pft):
        fast = make_miner(kind, use_pruning).mine(random_db, min_sup=min_sup, pft=pft)
        slow = reference.exhaustive_probabilistic(random_db, min_sup=min_sup, pft=pft)
        assert fast.itemset_keys() == slow.itemset_keys()
        for record in fast:
            assert record.frequent_probability == pytest.approx(
                slow[record.itemset].frequent_probability, abs=1e-9
            )

    def test_dp_and_dc_report_identical_probabilities(self, seeded_random_db):
        dp = DPMiner(use_pruning=False).mine(seeded_random_db, min_sup=0.25, pft=0.6)
        dc = DCMiner(use_pruning=False).mine(seeded_random_db, min_sup=0.25, pft=0.6)
        assert dp.itemset_keys() == dc.itemset_keys()
        for record in dp:
            assert record.frequent_probability == pytest.approx(
                dc[record.itemset].frequent_probability, abs=1e-9
            )

    @pytest.mark.parametrize("kind", ["dp", "dc"])
    def test_pruning_does_not_change_results(self, seeded_random_db, kind):
        """Chernoff pruning is sound: DPB == DPNB and DCB == DCNB."""
        with_bound = make_miner(kind, True).mine(seeded_random_db, min_sup=0.3, pft=0.9)
        without_bound = make_miner(kind, False).mine(seeded_random_db, min_sup=0.3, pft=0.9)
        assert with_bound.itemset_keys() == without_bound.itemset_keys()

    def test_item_prefilter_is_lossless(self, random_db):
        filtered = DCMiner(item_prefilter=True).mine(random_db, min_sup=0.3, pft=0.8)
        unfiltered = DCMiner(item_prefilter=False).mine(random_db, min_sup=0.3, pft=0.8)
        assert filtered.itemset_keys() == unfiltered.itemset_keys()

    def test_probabilities_exceed_pft(self, random_db):
        result = DCMiner().mine(random_db, min_sup=0.25, pft=0.75)
        assert all(record.frequent_probability > 0.75 for record in result)

    def test_expected_support_and_variance_reported(self, random_db):
        result = DCMiner().mine(random_db, min_sup=0.25, pft=0.6)
        for record in result:
            assert record.expected_support == pytest.approx(
                random_db.expected_support(record.itemset)
            )
            assert record.variance == pytest.approx(
                random_db.support_variance(record.itemset)
            )

    @pytest.mark.parametrize("span", [0, sys.maxsize])
    def test_dc_direct_and_fft_convolution_agree(self, random_db, span):
        """``conv_span=0`` sends every merge through the FFT, ``sys.maxsize``
        none (the direct-convolution ablation)."""
        default = DCMiner().mine(random_db, min_sup=0.25, pft=0.6)
        forced = DCMiner(plan={"conv_span": span}).mine(
            random_db, min_sup=0.25, pft=0.6
        )
        assert default.itemset_keys() == forced.itemset_keys()


class TestBoundChain:
    def test_disabled_bounds_never_prune(self):
        notes = {}
        assert undecided_after_bounds([0.1], [50], 50, 0.9, False, notes) == [0]
        assert notes == {}

    def test_prunes_hopeless_candidates(self):
        notes = {}
        assert undecided_after_bounds([1.0], [50], 50, 0.9, notes=notes) == []
        assert notes["markov_pruned"] + notes["chernoff_pruned"] == 1.0

    def test_keeps_promising_candidates(self):
        assert undecided_after_bounds([60.0], [60], 50, 0.9) == [0]

    def test_soundness_against_exact_probability(self):
        """A pruned candidate is never probabilistic frequent."""
        database = make_random_database(n_transactions=40, n_items=6, density=0.3, seed=7)
        min_count, pft = 15, 0.7
        distributions = [
            SupportDistribution(database.itemset_probabilities((item,)))
            for item in range(6)
        ]
        undecided = undecided_after_bounds(
            [distribution.expected_support for distribution in distributions],
            [
                int(np.count_nonzero(distribution.probabilities))
                for distribution in distributions
            ],
            min_count,
            pft,
        )
        assert len(undecided) < len(distributions)  # the chain decides some
        for index, distribution in enumerate(distributions):
            if index not in undecided:
                assert distribution.frequent_probability(min_count) <= pft


class TestStatistics:
    def test_pruning_reduces_exact_evaluations(self):
        database = make_random_database(n_transactions=60, n_items=10, density=0.3, seed=2)
        pruned = DCMiner(use_pruning=True, item_prefilter=False).mine(
            database, min_sup=0.4, pft=0.9
        )
        unpruned = DCMiner(use_pruning=False, item_prefilter=False).mine(
            database, min_sup=0.4, pft=0.9
        )
        assert (
            pruned.statistics.exact_evaluations <= unpruned.statistics.exact_evaluations
        )
        assert pruned.statistics.notes["chernoff_pruned"] >= 0

    def test_algorithm_names_reflect_configuration(self):
        assert DPMiner(use_pruning=True).name == "dpb"
        assert DPMiner(use_pruning=False).name == "dpnb"
        assert DCMiner(use_pruning=True).name == "dcb"
        assert DCMiner(use_pruning=False).name == "dcnb"
