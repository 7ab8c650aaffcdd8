"""Tests for the shared miner subroutines (the 'common implementation framework')."""

import pytest

from repro.algorithms.common import (
    apriori_join,
    frequent_items_by_expected_support,
    has_infrequent_subset,
    instrumented_run,
    item_statistics,
    make_candidate_source,
    trim_transactions,
)
from repro.core.results import MiningStatistics


class TestItemStatistics:
    def test_expected_support_and_variance(self, paper_db):
        statistics = item_statistics(paper_db)
        a = paper_db.vocabulary.id_of("A")
        assert statistics[a][0] == pytest.approx(2.1)
        assert statistics[a][1] == pytest.approx(paper_db.support_variance((a,)))

    def test_all_items_present(self, paper_db):
        assert set(item_statistics(paper_db)) == set(paper_db.items())

    def test_frequent_items_filtering(self, paper_db):
        frequent = frequent_items_by_expected_support(paper_db, 2.0)
        labels = set(paper_db.vocabulary.labels_of(sorted(frequent)))
        assert labels == {"A", "C"}


class TestAprioriJoin:
    def test_joins_itemsets_sharing_prefix(self):
        candidates = apriori_join([(1, 2), (1, 3), (2, 3)])
        assert candidates == [(1, 2, 3)]

    def test_join_of_single_items(self):
        candidates = apriori_join([(1,), (2,), (3,)])
        assert set(candidates) == {(1, 2), (1, 3), (2, 3)}

    def test_no_join_without_shared_prefix(self):
        assert apriori_join([(1, 2), (3, 4)]) == []

    def test_has_infrequent_subset(self):
        frequent = {(1, 2), (1, 3)}
        assert has_infrequent_subset((1, 2, 3), frequent)  # (2, 3) missing
        frequent.add((2, 3))
        assert not has_infrequent_subset((1, 2, 3), frequent)


class TestTrimAndVectors:
    def test_trim_keeps_transaction_count(self, paper_db):
        a = paper_db.vocabulary.id_of("A")
        trimmed = trim_transactions(paper_db, {a})
        assert len(trimmed) == len(paper_db)
        assert trimmed[3] == {}

    def test_probability_vector_skips_zero_entries(self, paper_db):
        a = paper_db.vocabulary.id_of("A")
        c = paper_db.vocabulary.id_of("C")
        (vector,) = make_candidate_source(paper_db)([(a, c)])
        assert vector.tolist() == pytest.approx([0.72, 0.72, 0.4])

    def test_probability_vector_of_absent_itemset_is_empty(self, paper_db):
        (vector,) = make_candidate_source(paper_db)([(999,)])
        assert vector.size == 0


class TestInstrumentation:
    def test_elapsed_time_recorded(self):
        statistics = MiningStatistics()
        with instrumented_run(statistics):
            sum(range(1000))
        assert statistics.elapsed_seconds > 0.0
        assert statistics.peak_memory_bytes == 0

    def test_memory_tracking(self):
        statistics = MiningStatistics()
        with instrumented_run(statistics, track_memory=True):
            _ = [0] * 100_000
        assert statistics.peak_memory_bytes > 100_000

    def test_elapsed_time_recorded_even_on_exception(self):
        statistics = MiningStatistics()
        with pytest.raises(RuntimeError):
            with instrumented_run(statistics):
                raise RuntimeError("boom")
        assert statistics.elapsed_seconds >= 0.0
