"""Tests for the top-k ranked mining subsystem.

The acceptance property: for every miner family that supports a ranking,
``mine_topk(k)`` returns exactly the k best itemsets of full threshold-free
mining under the deterministic tie-break (score desc, size asc,
lexicographic items), with the threshold-raising floor changing only
the amount of work, never the result.
"""

import math

import numpy as np
import pytest

from repro.algorithms.topk import TopKMiner, exhaustive_topk
from repro.core import (
    FrequentItemset,
    Itemset,
    MiningResult,
    MiningStatistics,
    SupportEngine,
    mine,
)
from repro.core.topk import (
    TopKBuffer,
    mine_topk,
    rank_itemsets,
    ranking_of,
    resolve_evaluator,
    topk_scorer,
    truncate_result,
    truncation_baseline,
)
from repro.db import UncertainDatabase

from helpers import make_random_database

#: evaluators of the probabilistic ranking (Definition 4 ordering)
PROBABILITY_EVALUATORS = ("dp", "dc", "normal", "poisson")


@pytest.fixture(scope="module")
def random_db() -> UncertainDatabase:
    return make_random_database(n_transactions=40, n_items=7, density=0.5, seed=11)


def dyadic_db(n: int = 32) -> UncertainDatabase:
    """All probabilities exact binary fractions: every score is float-exact."""
    import random as _random

    rng = _random.Random(5)
    records = [
        {
            item: rng.choice((0.25, 0.5, 0.75, 1.0))
            for item in range(6)
            if rng.random() < 0.5
        }
        for _ in range(n)
    ]
    return UncertainDatabase.from_records(records, name="dyadic")


class TestTopKBuffer:
    def test_keeps_k_best_by_score(self):
        buffer = TopKBuffer(2)
        buffer.offer(1.0, FrequentItemset(Itemset((1,)), 1.0))
        buffer.offer(3.0, FrequentItemset(Itemset((2,)), 3.0))
        buffer.offer(2.0, FrequentItemset(Itemset((3,)), 2.0))
        assert [r.itemset.items for r in buffer.records()] == [(2,), (3,)]

    def test_floor_is_zero_until_full_then_kth_best(self):
        buffer = TopKBuffer(2)
        assert buffer.floor == 0.0
        buffer.offer(3.0, FrequentItemset(Itemset((1,)), 3.0))
        assert buffer.floor == 0.0
        buffer.offer(1.0, FrequentItemset(Itemset((2,)), 1.0))
        assert buffer.floor == 1.0
        buffer.offer(2.0, FrequentItemset(Itemset((3,)), 2.0))
        assert buffer.floor == 2.0  # the floor only rises

    def test_tie_break_size_then_lexicographic(self):
        buffer = TopKBuffer(3)
        buffer.offer(1.0, FrequentItemset(Itemset((2, 3)), 1.0))
        buffer.offer(1.0, FrequentItemset(Itemset((5,)), 1.0))
        buffer.offer(1.0, FrequentItemset(Itemset((1, 2)), 1.0))
        buffer.offer(1.0, FrequentItemset(Itemset((4,)), 1.0))
        assert [r.itemset.items for r in buffer.records()] == [(4,), (5,), (1, 2)]

    def test_strictly_worse_scores_rejected_when_full(self):
        buffer = TopKBuffer(1)
        buffer.offer(2.0, FrequentItemset(Itemset((1,)), 2.0))
        assert not buffer.offer(1.0, FrequentItemset(Itemset((2,)), 1.0))
        assert buffer.floor == 2.0

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            TopKBuffer(0)


class TestEvaluatorResolution:
    def test_algorithm_names_map_to_evaluators(self):
        assert resolve_evaluator("uapriori") == "esup"
        assert resolve_evaluator("ufp-growth") == "esup"
        assert resolve_evaluator("uh-mine") == "esup"
        assert resolve_evaluator("dpb") == resolve_evaluator("dpnb") == "dp"
        assert resolve_evaluator("dcb") == resolve_evaluator("dcnb") == "dc"
        assert resolve_evaluator("ndu-apriori") == "normal"
        assert resolve_evaluator("nduh-mine") == "normal"
        assert resolve_evaluator("pdu-apriori") == "poisson"

    def test_rankings(self):
        assert ranking_of("uapriori") == "esup"
        for evaluator in PROBABILITY_EVALUATORS:
            assert ranking_of(evaluator) == "probability"

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            resolve_evaluator("no-such-miner")


class TestExpectedRankingEqualsTruncation:
    """Expected-support ranking pinned against every expected-family miner."""

    @pytest.mark.parametrize("algorithm", ["uapriori", "ufp-growth", "uh-mine"])
    def test_topk_equals_mine_then_truncate(self, random_db, algorithm):
        k = 8
        top = mine_topk(random_db, k, algorithm=algorithm)
        full = mine(random_db, algorithm=algorithm, min_esup=1e-9)
        truncated = truncate_result(full, k, "esup")
        assert [r.itemset.items for r in top] == [
            r.itemset.items for r in truncated
        ]
        for ours, theirs in zip(top, truncated):
            assert ours.expected_support == pytest.approx(
                theirs.expected_support, rel=1e-9
            )

    def test_uapriori_scores_bitwise(self, random_db):
        # Same batched engine kernels on both sides: byte-identical scores.
        top = mine_topk(random_db, 10, algorithm="uapriori")
        baseline = truncation_baseline(random_db, 10, "esup", reference=top)
        assert top.ranked_keys() == baseline.ranked_keys()


class TestProbabilisticRankingEqualsTruncation:
    """Definition 4 ranking pinned against the exact probabilistic miners."""

    @pytest.mark.parametrize("algorithm", ["dpb", "dpnb", "dcb", "dcnb"])
    def test_topk_equals_mine_then_truncate(self, random_db, algorithm):
        k, min_sup = 6, 0.2
        top = mine_topk(random_db, k, algorithm=algorithm, min_sup=min_sup)
        full = mine(random_db, algorithm=algorithm, min_sup=min_sup, pft=1e-12)
        truncated = truncate_result(full, k, "probability")
        assert top.ranked_keys() == truncated.ranked_keys()

    def test_self_calibrated_baseline_matches(self, random_db):
        top = mine_topk(random_db, 6, algorithm="dp", min_sup=0.2)
        baseline = truncation_baseline(
            random_db, 6, "dp", min_sup=0.2, reference=top
        )
        assert top.ranked_keys() == baseline.ranked_keys()

    def test_poisson_matches_pdu_truncation(self, random_db):
        top = mine_topk(random_db, 6, algorithm="pdu-apriori", min_sup=0.2)
        baseline = truncation_baseline(
            random_db, 6, "poisson", min_sup=0.2, reference=top
        )
        assert top.ranked_keys() == baseline.ranked_keys()

    def test_poisson_keeps_low_max_support_itemsets(self):
        # Regression: the Poisson score is positive even when an itemset
        # occurs in fewer than min_count transactions (PDUApriori applies
        # no occurrence-count cut), so top-k must not prune it either.
        database = UncertainDatabase.from_records(
            [{1: 1.0} for _ in range(3)] + [{2: 0.15} for _ in range(20)]
        )
        top = mine_topk(database, 2, algorithm="poisson", min_sup=0.2)
        assert [record.itemset.items for record in top] == [(1,), (2,)]
        baseline = truncation_baseline(
            database, 2, "poisson", min_sup=0.2, reference=top
        )
        assert top.ranked_keys() == baseline.ranked_keys()

    def test_exact_evaluators_do_cut_low_max_support_itemsets(self):
        # The exact tails genuinely are zero below min_count occurrences.
        database = UncertainDatabase.from_records(
            [{1: 1.0} for _ in range(3)] + [{2: 0.15} for _ in range(20)]
        )
        top = mine_topk(database, 2, algorithm="dp", min_sup=0.2)
        assert [record.itemset.items for record in top] == [(2,)]

    def test_normal_matches_its_baseline(self, random_db):
        # The riskiest family: non-anti-monotone score, coarse descendant
        # envelope, no exact-tail cheap filters.  Its baseline is the
        # exhaustive same-kernel oracle — NDUApriori's own prefilter and
        # downward closure assume anti-monotonicity and can miss genuine
        # top-k members at a high calibrated pft.
        top = mine_topk(random_db, 6, algorithm="ndu-apriori", min_sup=0.2)
        baseline = truncation_baseline(
            random_db, 6, "normal", min_sup=0.2, reference=top
        )
        assert top.ranked_keys() == baseline.ranked_keys()

    def test_normal_baseline_sound_at_extreme_scores(self):
        # Regression: at pft calibrated near 1, ndu-apriori's Markov item
        # prefilter (esup >= min_count * pft) drops the very itemset being
        # verified; the exhaustive oracle must not.
        database = UncertainDatabase.from_records(
            [{1: 0.9999} for _ in range(100)]
        )
        top = mine_topk(database, 1, algorithm="normal", min_sup=100)
        assert [record.itemset.items for record in top] == [(1,)]
        baseline = truncation_baseline(
            database, 1, "normal", min_sup=100, reference=top
        )
        assert top.ranked_keys() == baseline.ranked_keys()

    def test_dp_and_dc_agree_on_the_ranked_set(self, random_db):
        dp = mine_topk(random_db, 6, algorithm="dp", min_sup=0.2)
        dc = mine_topk(random_db, 6, algorithm="dc", min_sup=0.2)
        assert [r.itemset.items for r in dp] == [r.itemset.items for r in dc]
        for left, right in zip(dp.scores(), dc.scores()):
            assert left == pytest.approx(right, abs=1e-9)


class TestPrunedSearchEqualsExhaustive:
    """The threshold-raising floor changes the work, never the result."""

    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_esup(self, seed):
        database = make_random_database(
            n_transactions=35, n_items=7, density=0.5, seed=seed
        )
        for k in (1, 4, 12):
            pruned = mine_topk(database, k, algorithm="esup")
            reference = exhaustive_topk(database, k, evaluator="esup")
            assert pruned.ranked_keys() == reference.ranked_keys()

    @pytest.mark.parametrize("evaluator", PROBABILITY_EVALUATORS)
    @pytest.mark.parametrize("seed", [3, 17])
    def test_probability(self, evaluator, seed):
        database = make_random_database(
            n_transactions=30, n_items=6, density=0.5, seed=seed
        )
        for k in (1, 5):
            pruned = mine_topk(database, k, algorithm=evaluator, min_sup=0.25)
            reference = exhaustive_topk(
                database, k, evaluator=evaluator, min_sup=0.25
            )
            assert pruned.ranked_keys() == reference.ranked_keys()

    def test_floor_actually_prunes_exact_evaluations(self, random_db):
        pruned = mine_topk(random_db, 3, algorithm="dp", min_sup=0.2)
        reference = exhaustive_topk(random_db, 3, evaluator="dp", min_sup=0.2)
        assert (
            pruned.statistics.exact_evaluations
            < reference.statistics.exact_evaluations
        )


class TestScorerBoundChain:
    """topk_scorer kills on ``bound < floor``: a bound tying the floor lives."""

    @staticmethod
    def _score(floor):
        # esup 2.0 at min_count 4: Markov 0.5 is the tighter bound
        # (Chernoff exp(-1/8)), so the floor below sits exactly on it.
        vectors = [np.full(4, 0.5)]
        buffer = TopKBuffer(1)
        buffer.offer(floor, FrequentItemset(Itemset((9,)), 1.0, 0.0, floor))
        statistics = MiningStatistics()
        evaluate = topk_scorer(
            lambda candidates, kill: SupportEngine(vectors), "dp", 4, statistics
        )
        (scored,) = evaluate([(0,)], buffer)
        return scored, statistics

    def test_bound_tying_the_floor_is_evaluated(self):
        scored, statistics = self._score(0.5)
        assert scored is not None and scored.score == 0.0625
        assert statistics.exact_evaluations == 1
        assert statistics.notes["markov_pruned"] == 0.0

    def test_bound_below_the_floor_is_killed(self):
        scored, statistics = self._score(math.nextafter(0.5, 1.0))
        assert scored is None
        assert statistics.exact_evaluations == 0
        assert statistics.notes["markov_pruned"] == 1.0


class TestDeterministicTieBreaking:
    def test_exact_ties_resolve_by_size_then_items(self):
        # Perfectly symmetric dyadic database: every singleton ties, every
        # pair ties, and the tie-break must order them size-asc then lex.
        database = UncertainDatabase.from_records(
            [{1: 0.5, 2: 0.5, 3: 0.5} for _ in range(8)]
        )
        top = mine_topk(database, 5, algorithm="uapriori")
        assert [record.itemset.items for record in top] == [
            (1,),
            (2,),
            (3,),
            (1, 2),
            (1, 3),
        ]
        assert top.scores() == [4.0, 4.0, 4.0, 2.0, 2.0]

    def test_probabilistic_ties_resolve_identically(self):
        database = UncertainDatabase.from_records(
            [{1: 1.0, 2: 1.0, 3: 1.0} for _ in range(8)]
        )
        top = mine_topk(database, 4, algorithm="dp", min_sup=0.25)
        assert [record.itemset.items for record in top] == [
            (1,),
            (2,),
            (3,),
            (1, 2),
        ]
        assert top.scores() == [1.0, 1.0, 1.0, 1.0]


class TestEdgeCasesAndValidation:
    def test_k_larger_than_positive_universe_returns_all(self):
        database = UncertainDatabase.from_records(
            [{1: 0.5} for _ in range(4)] + [{2: 0.25} for _ in range(4)]
        )
        top = mine_topk(database, 50, algorithm="uapriori")
        # All positive-score itemsets, nothing padded.
        assert [record.itemset.items for record in top] == [(1,), (2,)]

    def test_k_one(self, random_db):
        top = mine_topk(random_db, 1, algorithm="uapriori")
        assert len(top) == 1

    def test_invalid_k_rejected(self, random_db):
        with pytest.raises(ValueError):
            mine_topk(random_db, 0, algorithm="uapriori")

    def test_probability_ranking_requires_min_sup(self, random_db):
        with pytest.raises(ValueError, match="min_sup"):
            mine_topk(random_db, 3, algorithm="dp")

    def test_streaming_rejects_unsupported_evaluator(self):
        from repro.stream import StreamingTopK

        with pytest.raises(ValueError):
            StreamingTopK(8, 3, evaluator="normal", min_sup=0.3)

    def test_empty_database(self):
        top = mine_topk(UncertainDatabase([], name="empty"), 3, algorithm="uapriori")
        assert len(top) == 0

    def test_result_helpers(self, random_db):
        top = mine_topk(random_db, 5, algorithm="dp", min_sup=0.2)
        assert len(top.scores()) == len(top) == len(top.ranked_keys())
        assert top.scores() == sorted(top.scores(), reverse=True)
        as_result = top.as_mining_result()
        assert isinstance(as_result, MiningResult)
        assert as_result.itemset_keys() == top.itemset_keys()

    def test_rank_itemsets_drops_nonpositive_scores(self):
        records = [
            FrequentItemset(Itemset((1,)), 0.0),
            FrequentItemset(Itemset((2,)), 2.0),
        ]
        assert [r.itemset.items for r in rank_itemsets(records, "esup")] == [(2,)]


class TestDyadicBitwiseAgainstTruncation:
    """On dyadic probabilities every comparison is float-exact end to end."""

    def test_esup_and_dp_bitwise(self):
        database = dyadic_db()
        top = mine_topk(database, 7, algorithm="uapriori")
        baseline = truncation_baseline(database, 7, "esup", reference=top)
        assert top.ranked_keys() == baseline.ranked_keys()

        top_dp = mine_topk(database, 7, algorithm="dp", min_sup=0.25)
        baseline_dp = truncation_baseline(
            database, 7, "dp", min_sup=0.25, reference=top_dp
        )
        assert top_dp.ranked_keys() == baseline_dp.ranked_keys()

    def test_miner_statistics_labelled(self):
        database = dyadic_db()
        miner = TopKMiner(evaluator="dp")
        result = miner.mine(database, 4, min_sup=0.25)
        assert result.statistics.algorithm == "topk-dp"
        assert result.statistics.notes["k"] == 4.0
