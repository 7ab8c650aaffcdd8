"""Tests for the brute-force references (the test-suite's own ground truth)."""

import pytest

import reference


class TestExhaustiveExpectedSupport:
    def test_paper_example(self, paper_db):
        result = reference.exhaustive_expected(paper_db, min_esup=0.5)
        labels = {
            tuple(paper_db.vocabulary.labels_of(record.itemset.items)) for record in result
        }
        assert labels == {("A",), ("C",)}

    def test_max_size_limits_enumeration(self, paper_db):
        result = reference.exhaustive_expected(paper_db, min_esup=0.25, max_size=1)
        assert result.max_size() == 1

    def test_variance_reported(self, paper_db):
        result = reference.exhaustive_expected(paper_db, min_esup=0.5)
        a = paper_db.vocabulary.id_of("A")
        assert result[(a,)].variance == pytest.approx(paper_db.support_variance((a,)))

    def test_table1_ground_truth(self, paper_db):
        result = reference.exhaustive_expected(paper_db, min_esup=0.25)
        a = paper_db.vocabulary.id_of("A")
        c = paper_db.vocabulary.id_of("C")
        assert result[(a,)].expected_support == pytest.approx(2.1)
        assert result[(a, c)].expected_support == pytest.approx(1.84)


class TestExhaustiveProbabilistic:
    def test_paper_example(self, paper_db):
        result = reference.exhaustive_probabilistic(paper_db, min_sup=0.5, pft=0.7)
        a = paper_db.vocabulary.id_of("A")
        c = paper_db.vocabulary.id_of("C")
        assert result.itemset_keys() == {result[(a,)].itemset, result[(c,)].itemset}
        assert result[(a,)].frequent_probability == pytest.approx(0.8)

    def test_respects_pft_strictly(self, paper_db):
        result = reference.exhaustive_probabilistic(paper_db, min_sup=0.5, pft=0.8)
        a = paper_db.vocabulary.id_of("A")
        assert result.get((a,)) is None


class TestOracleVector:
    def test_absent_items_contribute_zero(self, paper_db):
        a = paper_db.vocabulary.id_of("A")
        dense = reference.itemset_probabilities(paper_db, (a, 999))
        assert dense.shape == (len(paper_db),)
        assert not dense.any()

    def test_products_in_transaction_order(self, paper_db):
        a = paper_db.vocabulary.id_of("A")
        c = paper_db.vocabulary.id_of("C")
        dense = reference.itemset_probabilities(paper_db, (a, c))
        assert dense.tolist() == pytest.approx([0.72, 0.72, 0.4, 0.0])


class TestPossibleWorldEstimate:
    def test_close_to_analytic_expected_support(self, paper_db):
        a = paper_db.vocabulary.id_of("A")
        estimate = reference.possible_world_expected_support(
            paper_db, (a,), n_worlds=4000, seed=1
        )
        assert estimate == pytest.approx(2.1, abs=0.1)

    def test_pair_estimate(self, paper_db):
        a = paper_db.vocabulary.id_of("A")
        c = paper_db.vocabulary.id_of("C")
        estimate = reference.possible_world_expected_support(
            paper_db, (a, c), n_worlds=4000, seed=2
        )
        assert estimate == pytest.approx(1.84, abs=0.1)
