"""Edge-case and robustness tests across miners and the evaluation stack.

Failure-injection style checks: degenerate databases (empty, single
transaction, all-tiny probabilities), extreme thresholds, and consistency of
the post-processing layer under those conditions.
"""

import pytest

from repro.algorithms import DCMiner, NDUApriori, NDUHMine, UApriori, UFPGrowth, UHMine
from repro.core import Itemset, closed_itemsets, derive_rules, mine
from repro.db import DatabaseBuilder, UncertainDatabase, UncertainTransaction

EXPECTED_MINERS = [UApriori, UHMine, UFPGrowth]
PROBABILISTIC_MINERS = [DCMiner, NDUApriori, NDUHMine]


def ambiguous_threshold():
    """Expect the warning a threshold of exactly 1 (ratio, not count) emits."""
    return pytest.warns(UserWarning, match="threshold 1.0 is ambiguous")


def single_transaction_db() -> UncertainDatabase:
    return UncertainDatabase([UncertainTransaction(0, {0: 0.6, 1: 0.4})])


def low_probability_db() -> UncertainDatabase:
    records = [{0: 0.01, 1: 0.02} for _ in range(50)]
    return UncertainDatabase.from_records(records)


class TestDegenerateDatabases:
    @pytest.mark.parametrize("miner_class", EXPECTED_MINERS)
    def test_empty_database_expected(self, miner_class):
        with ambiguous_threshold():
            assert len(miner_class().mine(UncertainDatabase([]), min_esup=1)) == 0

    @pytest.mark.parametrize("miner_class", PROBABILISTIC_MINERS)
    def test_empty_database_probabilistic(self, miner_class):
        with ambiguous_threshold():
            result = miner_class().mine(UncertainDatabase([]), min_sup=1, pft=0.9)
        assert len(result) == 0

    @pytest.mark.parametrize("miner_class", EXPECTED_MINERS)
    def test_single_transaction(self, miner_class):
        result = miner_class().mine(single_transaction_db(), min_esup=0.5)
        assert {record.itemset.items for record in result} == {(0,)}

    @pytest.mark.parametrize("miner_class", PROBABILISTIC_MINERS)
    def test_single_transaction_probabilistic(self, miner_class):
        with ambiguous_threshold():
            result = miner_class().mine(single_transaction_db(), min_sup=1, pft=0.5)
        assert {record.itemset.items for record in result} == {(0,)}

    @pytest.mark.parametrize("miner_class", EXPECTED_MINERS + PROBABILISTIC_MINERS)
    def test_all_low_probabilities_yield_nothing(self, miner_class):
        database = low_probability_db()
        if miner_class in EXPECTED_MINERS:
            result = miner_class().mine(database, min_esup=0.5)
        else:
            result = miner_class().mine(database, min_sup=0.5, pft=0.9)
        assert len(result) == 0

    def test_database_with_empty_transactions_still_counts_them(self):
        builder = DatabaseBuilder()
        builder.add_transaction([(0, 0.9)])
        database = UncertainDatabase(
            list(builder.build()) + [UncertainTransaction(1, {}), UncertainTransaction(2, {})]
        )
        # N = 3, so min_esup = 0.5 requires 1.5 expected occurrences; item 0 has 0.9.
        assert len(UApriori().mine(database, min_esup=0.5)) == 0
        assert len(UApriori().mine(database, min_esup=0.25)) == 1


class TestExtremeThresholds:
    def test_pft_close_to_one(self, paper_db):
        result = DCMiner().mine(paper_db, min_sup=0.5, pft=0.999)
        for record in result:
            assert record.frequent_probability > 0.999

    def test_pft_close_to_zero_returns_everything_with_any_chance(self, paper_db):
        exact = DCMiner().mine(paper_db, min_sup=0.25, pft=0.001)
        approximate = NDUHMine().mine(paper_db, min_sup=0.25, pft=0.001)
        assert exact.itemset_keys() <= approximate.itemset_keys() | exact.itemset_keys()
        assert len(exact) > 0

    def test_min_sup_equal_to_database_size(self, paper_db):
        with ambiguous_threshold():
            result = DCMiner().mine(paper_db, min_sup=1.0, pft=0.1)
        # Support N requires the itemset to appear in every transaction.
        for record in result:
            probabilities = paper_db.itemset_probabilities(record.itemset)
            assert (probabilities > 0).all()

    def test_min_esup_zero_like_threshold(self, paper_db):
        result = UApriori().mine(paper_db, min_esup=1e-9)
        items = {record.itemset.items for record in result if len(record.itemset) == 1}
        assert items == {(item,) for item in paper_db.items()}


class TestUFPGrowthRounding:
    def test_coarse_rounding_merges_nodes(self, paper_db):
        exact = UFPGrowth()
        coarse = UFPGrowth(probability_precision=1)
        exact_result = exact.mine(paper_db, min_esup=0.25)
        coarse_result = coarse.mine(paper_db, min_esup=0.25)
        assert (
            coarse_result.statistics.notes["global_tree_nodes"]
            <= exact_result.statistics.notes["global_tree_nodes"]
        )


class TestPostProcessingRobustness:
    def test_rules_on_result_without_pairs(self, paper_db):
        result = mine(paper_db, algorithm="uapriori", min_esup=0.5)  # singletons only
        assert derive_rules(result, paper_db, min_confidence=0.5) == []

    def test_closed_itemsets_of_empty_result(self):
        from repro.core import MiningResult

        assert len(closed_itemsets(MiningResult([]))) == 0

    def test_closed_itemsets_idempotent(self, paper_db):
        result = mine(paper_db, algorithm="uapriori", min_esup=0.25)
        once = closed_itemsets(result)
        twice = closed_itemsets(once)
        assert once.itemset_keys() == twice.itemset_keys()

    def test_rules_from_probabilistic_result(self, paper_db):
        result = mine(paper_db, algorithm="dcb", min_sup=0.25, pft=0.5)
        rules = derive_rules(result, paper_db, min_confidence=0.3)
        for rule in rules:
            assert rule.antecedent.intersection(rule.consequent) == Itemset()


class TestDispatchRobustness:
    def test_unknown_algorithm_raises_keyerror(self, paper_db):
        with pytest.raises(KeyError):
            mine(paper_db, algorithm="nonexistent", min_esup=0.5)

    def test_invalid_pft_rejected_through_dispatch(self, paper_db):
        with pytest.raises(ValueError):
            mine(paper_db, algorithm="dcb", min_sup=0.5, pft=1.5)

    def test_negative_threshold_rejected(self, paper_db):
        with pytest.raises(ValueError):
            mine(paper_db, algorithm="uapriori", min_esup=-0.5)
