"""Tests for the UH-Mine miner and the UH-Struct."""

import pytest

from repro.algorithms import UApriori, UHMine, build_uh_struct_columnar
from repro.algorithms.common import frequent_items_by_expected_support
from repro.db import UncertainDatabase

from helpers import make_random_database


def _struct_rows(struct):
    """The struct's rows as lists of ``(rank, probability)`` cells."""
    rows, start = [], 0
    while start < len(struct.rank):
        end = int(struct.row_end[start])
        assert (struct.row_end[start:end] == end).all()
        ranks = struct.rank[start:end].tolist()
        rows.append(list(zip(ranks, struct.prob[start:end].tolist())))
        start = end
    return rows


class TestUHStruct:
    def test_struct_orders_cells_by_global_order(self, paper_db):
        frequent = frequent_items_by_expected_support(paper_db, 1.0)
        order = {
            item: rank
            for rank, (item, _) in enumerate(
                sorted(frequent.items(), key=lambda kv: (-kv[1][0], kv[0]))
            )
        }
        struct = build_uh_struct_columnar(paper_db.columnar(), order)
        assert [order[item] for item in struct.items] == list(range(len(order)))
        rows = _struct_rows(struct)
        assert len(rows) == 4
        for cells in rows:
            ranks = [rank for rank, _ in cells]
            assert ranks == sorted(ranks)

    def test_struct_preserves_probabilities(self, paper_db):
        vocabulary = paper_db.vocabulary
        a = vocabulary.id_of("A")
        order = {a: 0}
        struct = build_uh_struct_columnar(paper_db.columnar(), order)
        # Only transactions containing A are kept, with A's probabilities.
        assert [cells[0][1] for cells in _struct_rows(struct)] == [0.8, 0.8, 0.5]
        assert struct.prob.tolist() == [0.8, 0.8, 0.5]

    def test_infrequent_items_are_dropped(self, paper_db):
        a = paper_db.vocabulary.id_of("A")
        struct = build_uh_struct_columnar(paper_db.columnar(), {a: 0})
        assert struct.items == [a]
        assert struct.rank.tolist() == [0, 0, 0]

    def test_no_seed_items_gives_an_empty_struct(self, paper_db):
        struct = build_uh_struct_columnar(paper_db.columnar(), {})
        assert struct.items == []
        assert len(struct.rank) == len(struct.prob) == len(struct.row_end) == 0

    def test_no_row_holds_an_ordered_item(self):
        database = UncertainDatabase.from_records([{1: 0.5}, {}, {2: 0.25}])
        struct = build_uh_struct_columnar(database.columnar(), {3: 0})
        assert struct.items == [3]
        assert len(struct.rank) == len(struct.prob) == len(struct.row_end) == 0
        assert _struct_rows(struct) == []


class TestPaperExample:
    def test_frequent_items_at_half_support(self, paper_db):
        result = UHMine().mine(paper_db, min_esup=0.5)
        labels = {
            tuple(paper_db.vocabulary.labels_of(record.itemset.items)) for record in result
        }
        assert labels == {("A",), ("C",)}

    def test_prefix_extension_finds_pairs(self, paper_db):
        result = UHMine().mine(paper_db, min_esup=0.25)
        a, c = paper_db.vocabulary.id_of("A"), paper_db.vocabulary.id_of("C")
        assert result[(a, c)].expected_support == pytest.approx(1.84)


class TestCorrectness:
    @pytest.mark.parametrize("min_esup", [0.1, 0.2, 0.35])
    def test_matches_uapriori(self, seeded_random_db, min_esup):
        uh = UHMine().mine(seeded_random_db, min_esup=min_esup)
        apriori = UApriori().mine(seeded_random_db, min_esup=min_esup)
        assert uh.itemset_keys() == apriori.itemset_keys()

    @pytest.mark.parametrize("min_esup", [0.15, 0.3])
    def test_expected_supports_are_exact(self, random_db, min_esup):
        result = UHMine().mine(random_db, min_esup=min_esup)
        for record in result:
            assert record.expected_support == pytest.approx(
                random_db.expected_support(record.itemset), abs=1e-9
            )

    def test_variance_tracking_matches_database(self, random_db):
        result = UHMine(track_variance=True).mine(random_db, min_esup=0.2)
        for record in result:
            assert record.variance == pytest.approx(
                random_db.support_variance(record.itemset), abs=1e-9
            )

    def test_dense_high_probability_database(self):
        database = make_random_database(n_transactions=25, n_items=5, density=0.95, seed=4)
        uh = UHMine().mine(database, min_esup=0.05)
        apriori = UApriori().mine(database, min_esup=0.05)
        assert uh.itemset_keys() == apriori.itemset_keys()


class TestBehaviour:
    def test_struct_size_recorded(self, paper_db):
        result = UHMine().mine(paper_db, min_esup=0.25)
        assert result.statistics.notes["uh_struct_cells"] > 0

    def test_empty_result_above_max_support(self, paper_db):
        assert len(UHMine().mine(paper_db, min_esup=0.95)) == 0

    def test_candidate_accounting(self, paper_db):
        result = UHMine().mine(paper_db, min_esup=0.25)
        statistics = result.statistics
        assert statistics.candidates_generated >= statistics.candidates_pruned
        assert statistics.algorithm == "uh-mine"

    def test_empty_database(self):
        with pytest.warns(UserWarning, match="threshold 1.0 is ambiguous"):
            assert len(UHMine().mine(UncertainDatabase([]), min_esup=1)) == 0
