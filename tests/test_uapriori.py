"""Tests for the UApriori miner."""

import pytest

from repro.algorithms import UApriori

import reference
from helpers import make_random_database


class TestPaperExample:
    def test_frequent_items_at_half_support(self, paper_db):
        result = UApriori().mine(paper_db, min_esup=0.5)
        labels = {
            tuple(paper_db.vocabulary.labels_of(record.itemset.items)) for record in result
        }
        assert labels == {("A",), ("C",)}
        assert result[(paper_db.vocabulary.id_of("A"),)].expected_support == pytest.approx(2.1)

    def test_lower_threshold_reveals_pairs(self, paper_db):
        result = UApriori().mine(paper_db, min_esup=0.25)
        a, c = paper_db.vocabulary.id_of("A"), paper_db.vocabulary.id_of("C")
        assert result[(a, c)].expected_support == pytest.approx(1.84)
        assert result.max_size() == 2

    def test_absolute_threshold_equivalent_to_ratio(self, paper_db):
        by_ratio = UApriori().mine(paper_db, min_esup=0.5)
        by_count = UApriori().mine(paper_db, min_esup=2.0)
        assert by_ratio.itemset_keys() == by_count.itemset_keys()


class TestCorrectness:
    @pytest.mark.parametrize("min_esup", [0.1, 0.2, 0.35])
    def test_matches_exhaustive_reference(self, seeded_random_db, min_esup):
        fast = UApriori().mine(seeded_random_db, min_esup=min_esup)
        slow = reference.exhaustive_expected(seeded_random_db, min_esup=min_esup)
        assert fast.itemset_keys() == slow.itemset_keys()
        for record in fast:
            assert record.expected_support == pytest.approx(
                slow[record.itemset].expected_support
            )

    def test_reported_supports_match_database(self, random_db):
        result = UApriori().mine(random_db, min_esup=0.2)
        for record in result:
            assert record.expected_support == pytest.approx(
                random_db.expected_support(record.itemset)
            )

    def test_downward_closure_of_output(self, random_db):
        result = UApriori().mine(random_db, min_esup=0.15)
        keys = result.itemset_keys()
        for record in result:
            if len(record.itemset) > 1:
                for subset in record.itemset.subsets_of_size(len(record.itemset) - 1):
                    assert subset in keys

    def test_variance_tracking(self, paper_db):
        result = UApriori(track_variance=True).mine(paper_db, min_esup=0.5)
        a = paper_db.vocabulary.id_of("A")
        assert result[(a,)].variance == pytest.approx(paper_db.support_variance((a,)))

    def test_variance_not_tracked_by_default(self, paper_db):
        result = UApriori().mine(paper_db, min_esup=0.5)
        assert all(record.variance is None for record in result)


class TestEdgeCases:
    def test_threshold_above_everything_yields_empty_result(self, paper_db):
        result = UApriori().mine(paper_db, min_esup=0.99)
        assert len(result) == 0

    def test_tiny_threshold_yields_all_combinations(self):
        database = make_random_database(n_transactions=6, n_items=4, density=0.9, seed=5)
        result = UApriori().mine(database, min_esup=0.001)
        expected = reference.exhaustive_expected(database, min_esup=0.001)
        assert result.itemset_keys() == expected.itemset_keys()

    def test_statistics_populated(self, paper_db):
        result = UApriori().mine(paper_db, min_esup=0.25)
        statistics = result.statistics
        assert statistics.algorithm == "uapriori"
        assert statistics.elapsed_seconds >= 0.0
        assert statistics.candidates_generated > 0
        assert statistics.database_scans >= 2

    def test_memory_tracking_enabled(self, paper_db):
        result = UApriori(track_memory=True).mine(paper_db, min_esup=0.5)
        assert result.statistics.peak_memory_bytes > 0

    def test_empty_database(self):
        from repro.db import UncertainDatabase

        result = UApriori().mine(UncertainDatabase([]), min_esup=5)
        assert len(result) == 0
