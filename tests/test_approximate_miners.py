"""Tests for the approximate probabilistic miners (PDUApriori, NDUApriori, NDUH-Mine)."""

import pytest

from repro.algorithms import DCMiner, NDUApriori, NDUHMine, PDUApriori
from repro.eval import compare_results

from helpers import make_random_database


def large_random_db(seed: int = 0):
    """A database large enough for the CLT approximations to be accurate."""
    return make_random_database(n_transactions=300, n_items=7, density=0.5, seed=seed)


class TestNDUApriori:
    def test_probabilities_close_to_exact(self):
        database = large_random_db()
        approximate = NDUApriori().mine(database, min_sup=0.3, pft=0.9)
        exact = DCMiner().mine(database, min_sup=0.3, pft=0.9)
        report = compare_results(approximate, exact)
        assert report.precision >= 0.9
        assert report.recall >= 0.9
        assert report.max_probability_error is None or report.max_probability_error < 0.05

    def test_returns_frequent_probabilities(self, paper_db):
        result = NDUApriori().mine(paper_db, min_sup=0.5, pft=0.7)
        assert all(record.frequent_probability is not None for record in result)
        assert all(record.variance is not None for record in result)

    def test_results_respect_pft(self):
        database = large_random_db(1)
        result = NDUApriori().mine(database, min_sup=0.3, pft=0.8)
        assert all(record.frequent_probability > 0.8 for record in result)


class TestPDUApriori:
    def test_membership_close_to_exact_on_large_database(self):
        database = large_random_db(2)
        approximate = PDUApriori().mine(database, min_sup=0.3, pft=0.9)
        exact = DCMiner().mine(database, min_sup=0.3, pft=0.9)
        report = compare_results(approximate, exact)
        assert report.recall >= 0.8
        assert report.precision >= 0.8

    def test_does_not_report_probabilities_by_default(self, paper_db):
        result = PDUApriori().mine(paper_db, min_sup=0.5, pft=0.7)
        assert all(record.frequent_probability is None for record in result)

    def test_optional_probability_estimates(self, paper_db):
        result = PDUApriori(report_probabilities=True).mine(paper_db, min_sup=0.5, pft=0.7)
        assert all(0.0 <= record.frequent_probability <= 1.0 for record in result)

    def test_lambda_threshold_recorded(self, paper_db):
        result = PDUApriori().mine(paper_db, min_sup=0.5, pft=0.7)
        assert result.statistics.notes["poisson_lambda_threshold"] > 0.0
        assert result.statistics.algorithm == "pdu-apriori"


class TestNDUHMine:
    def test_matches_nduapriori_on_large_database(self):
        """Both Normal-approximation miners must return (nearly) the same itemsets."""
        database = large_random_db(3)
        uh = NDUHMine().mine(database, min_sup=0.3, pft=0.9)
        apriori = NDUApriori().mine(database, min_sup=0.3, pft=0.9)
        assert uh.itemset_keys() == apriori.itemset_keys()
        for record in uh:
            assert record.frequent_probability == pytest.approx(
                apriori[record.itemset].frequent_probability, abs=1e-9
            )

    def test_close_to_exact(self):
        database = large_random_db(4)
        approximate = NDUHMine().mine(database, min_sup=0.25, pft=0.9)
        exact = DCMiner().mine(database, min_sup=0.25, pft=0.9)
        report = compare_results(approximate, exact)
        assert report.precision >= 0.9
        assert report.recall >= 0.9

    def test_search_threshold_low_pft_is_conservative(self):
        """With pft < 0.5 the search threshold must drop below min_count - 0.5."""
        threshold_high = NDUHMine._search_threshold(50, 0.9, 200)
        threshold_low = NDUHMine._search_threshold(50, 0.2, 200)
        assert threshold_high == pytest.approx(49.5)
        assert threshold_low < 49.5

    @pytest.mark.parametrize(
        ("pft", "expected"),
        [
            (0.0, 0.0),  # quantile -inf: every itemset may qualify
            (0.2, max(0.0, 49.5 - 0.8416212335729142 * 200 ** 0.5 / 2.0)),
            (0.5, 49.5),  # quantile 0: the bar is min_count - 0.5
            (1.0, 49.5),
        ],
    )
    def test_search_threshold_pins(self, pft, expected):
        assert NDUHMine._search_threshold(50, pft, 200) == expected

    def test_low_pft_does_not_lose_itemsets(self):
        database = large_random_db(5)
        approximate = NDUHMine().mine(database, min_sup=0.3, pft=0.3)
        exact = DCMiner().mine(database, min_sup=0.3, pft=0.3)
        report = compare_results(approximate, exact)
        assert report.recall >= 0.9

    def test_statistics_algorithm_name(self, paper_db):
        result = NDUHMine().mine(paper_db, min_sup=0.5, pft=0.7)
        assert result.statistics.algorithm == "nduh-mine"
        assert "search_expected_support_threshold" in result.statistics.notes


class TestApproximationQualityImprovesWithSize:
    """The paper's central claim: the two definitions unify as N grows."""

    @pytest.mark.parametrize("algorithm_class", [NDUApriori, NDUHMine])
    def test_precision_and_recall_reach_one_on_large_data(self, algorithm_class):
        database = make_random_database(n_transactions=500, n_items=6, density=0.6, seed=11)
        approximate = algorithm_class().mine(database, min_sup=0.4, pft=0.9)
        exact = DCMiner().mine(database, min_sup=0.4, pft=0.9)
        report = compare_results(approximate, exact)
        assert report.precision == pytest.approx(1.0)
        assert report.recall == pytest.approx(1.0)

    def test_small_database_may_disagree_but_large_does_not(self):
        small = make_random_database(n_transactions=20, n_items=6, density=0.6, seed=12)
        large = make_random_database(n_transactions=400, n_items=6, density=0.6, seed=12)
        small_report = compare_results(
            NDUApriori().mine(small, min_sup=0.4, pft=0.9),
            DCMiner().mine(small, min_sup=0.4, pft=0.9),
        )
        large_report = compare_results(
            NDUApriori().mine(large, min_sup=0.4, pft=0.9),
            DCMiner().mine(large, min_sup=0.4, pft=0.9),
        )
        assert large_report.f1 >= small_report.f1 - 1e-9


class TestTinyAbsoluteThresholds:
    """Regression tests: internal expected-support thresholds below 1 must not
    be re-interpreted as ratios of the database size."""

    def test_nduh_mine_with_min_count_of_one(self):
        database = make_random_database(n_transactions=30, n_items=5, density=0.5, seed=21)
        # min_sup low enough that min_count == 1 -> search threshold 0.5 (absolute).
        approximate = NDUHMine().mine(database, min_sup=0.03, pft=0.9)
        exact = DCMiner().mine(database, min_sup=0.03, pft=0.9)
        report = compare_results(approximate, exact)
        assert report.recall >= 0.95

    def test_pdu_apriori_with_min_count_of_one(self):
        database = make_random_database(n_transactions=30, n_items=5, density=0.5, seed=22)
        approximate = PDUApriori().mine(database, min_sup=0.03, pft=0.3)
        exact = DCMiner().mine(database, min_sup=0.03, pft=0.3)
        report = compare_results(approximate, exact)
        assert report.recall >= 0.8
