"""Unit tests for the columnar probability store."""

from __future__ import annotations

import numpy as np
import pytest

from repro.db import UncertainDatabase

import reference
from helpers import make_random_database


class TestConstruction:
    def test_lazy_and_cached_on_database(self, paper_db):
        assert paper_db._columnar is None
        view = paper_db.columnar()
        assert paper_db.columnar() is view

    def test_shape(self, paper_db):
        view = paper_db.columnar()
        assert view.n_transactions == len(paper_db)
        assert len(view) == len(paper_db)
        assert view.items() == paper_db.items()
        assert view.nnz() == sum(len(t) for t in paper_db)

    def test_empty_database(self):
        view = UncertainDatabase([]).columnar()
        assert view.n_transactions == 0
        assert view.items() == []
        assert view.itemset_probabilities((1, 2)).shape == (0,)

    def test_missing_item_yields_empty_column(self, tiny_db):
        rows, probs = tiny_db.columnar().column(99)
        assert len(rows) == 0 and len(probs) == 0
        assert tiny_db.columnar().expected_support((99,)) == 0.0


class TestColumns:
    def test_columns_are_sorted_by_row(self):
        database = make_random_database(n_transactions=40, n_items=6, seed=3)
        view = database.columnar()
        for item in view.items():
            rows, probs = view.column(item)
            assert np.all(np.diff(rows) > 0)
            assert len(rows) == len(probs)

    def test_column_matches_transactions(self, tiny_db):
        view = tiny_db.columnar()
        rows, probs = view.column(0)
        assert rows.tolist() == [0, 1]
        assert probs.tolist() == [0.5, 1.0]

    def test_item_statistics_match_reference(self):
        database = make_random_database(n_transactions=30, n_items=8, seed=4)
        columnar = database.columnar().item_statistics()
        assert set(columnar) == set(database.items())
        for item in database.items():
            expected, variance = reference.moments(
                reference.itemset_probabilities(database, (item,))
            )
            assert columnar[item][0] == pytest.approx(expected, abs=1e-12)
            assert columnar[item][1] == pytest.approx(variance, abs=1e-12)


class TestItemsetAlgebra:
    def test_empty_itemset_is_certain(self, tiny_db):
        rows, probs = tiny_db.columnar().itemset_column(())
        assert rows.tolist() == [0, 1, 2]
        assert probs.tolist() == [1.0, 1.0, 1.0]

    def test_pair_intersection(self, tiny_db):
        # Item 0 occurs in rows 0,1; item 2 in rows 1,2 -> intersection row 1.
        rows, probs = tiny_db.columnar().itemset_column((0, 2))
        assert rows.tolist() == [1]
        assert probs[0] == pytest.approx(1.0 * 0.4)

    def test_disjoint_items_short_circuit(self, tiny_db):
        rows, probs = tiny_db.columnar().itemset_column((0, 99))
        assert len(rows) == 0
        # The third member is never intersected once the result is empty.
        rows, probs = tiny_db.columnar().itemset_column((0, 99, 1))
        assert len(rows) == 0

    def test_dense_vector_matches_reference(self):
        database = make_random_database(n_transactions=50, n_items=7, seed=5)
        view = database.columnar()
        for itemset in [(0,), (1, 3), (0, 2, 4)]:
            assert np.array_equal(
                view.itemset_probabilities(itemset),
                reference.itemset_probabilities(database, itemset),
            )


class TestBatch:
    def test_batch_vectors_match_individual(self):
        database = make_random_database(n_transactions=40, n_items=6, seed=6)
        view = database.columnar()
        candidates = [(0, 1), (0, 2), (1, 2), (0, 1, 2)]
        batch = view.batch_vectors(candidates)
        for vector, candidate in zip(batch, candidates):
            assert np.array_equal(vector, view.itemset_column(candidate)[1])

    def test_batch_probabilities_matrix(self):
        database = make_random_database(n_transactions=30, n_items=5, seed=7)
        view = database.columnar()
        candidates = [(0,), (1, 2), (0, 3)]
        matrix = view.batch_probabilities(candidates)
        assert matrix.shape == (3, 30)
        for row, candidate in zip(matrix, candidates):
            assert np.array_equal(row, view.itemset_probabilities(candidate))

