"""Every registered miner against the brute-force references of ``reference``.

The columnar engine is the only production evaluation path; the
per-transaction oracle and the enumerate-and-score references live with the
tests (:mod:`reference`).  These tests pin the contract between them on the
paper's example, the tiny enumeration database and randomized dense and
sparse databases: identical frequent itemset sets, matching expected
supports, variances and frequent probabilities, and probability vectors
equal to the oracle's bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import WorldSamplingMiner
from repro.core.miner import mine
from repro.core.registry import algorithm_names, get_algorithm
from repro.core.support import normal_tail_probability, poisson_tail_probability
from repro.core.topk import mine_topk, rank_itemsets, ranking_of, score_of

import reference
from helpers import make_random_database

EXPECTED_MINERS = ["uapriori", "uh-mine", "ufp-growth"]
EXACT_MINERS = ["dpb", "dpnb", "dcb", "dcnb"]


def _normal_score(probabilities, min_count):
    # The Normal miners first cut itemsets with fewer than min_count possible
    # occurrences (their exact score is zero), as does the Normal ranking.
    if np.count_nonzero(probabilities) < min_count:
        return 0.0
    return normal_tail_probability(*reference.moments(probabilities), min_count)


def _poisson_score(probabilities, min_count):
    return poisson_tail_probability(reference.moments(probabilities)[0], min_count)


#: approximate miner -> the approximation its decision rule applies
APPROXIMATE_SCORES = {
    "pdu-apriori": _poisson_score,
    "ndu-apriori": _normal_score,
    "nduh-mine": _normal_score,
}
SAMPLING_MINERS = ["world-sampling"]

#: top-k evaluator -> the score it ranks by, ``None`` for expected support
TOPK_SCORES = {
    "esup": None,
    "dp": reference.exact_frequent_probability,
    "dc": reference.exact_frequent_probability,
    "normal": _normal_score,
    "poisson": _poisson_score,
}
TOPK_MIN_SUP = 0.3
#: the smallest pft a threshold accepts: enumerates every positive score
#: above the subnormal range
TOPK_PFT = 1e-300
PROBABILISTIC_MINERS = EXACT_MINERS + sorted(APPROXIMATE_SCORES) + SAMPLING_MINERS

DATABASES = ["paper_db", "tiny_db", "random_db", "dense_random_db", "sparse_random_db"]
EXPECTED_THRESHOLDS = [0.15, 0.35, 0.6]
PROBABILISTIC_THRESHOLDS = [(0.3, 0.7), (0.5, 0.9)]

#: Hoeffding confidence of the sampling check: a true probability this far
#: from ``pft`` is decided correctly by every seed except with ~1e-4 odds
SAMPLING_DELTA = 1e-4


@pytest.fixture(params=DATABASES)
def any_db(request):
    if request.param == "dense_random_db":
        database = make_random_database(n_transactions=40, n_items=6, density=0.8, seed=11)
    elif request.param == "sparse_random_db":
        database = make_random_database(n_transactions=60, n_items=12, density=0.15, seed=12)
    else:
        database = request.getfixturevalue(request.param)
    return request.param, database


_REFERENCES = {}


def _reference(name, database, kind, *args, **kwargs):
    """One enumeration per (database, reference, thresholds), shared by the miners."""
    key = (name, kind.__name__, args, tuple(sorted(kwargs.items())))
    if key not in _REFERENCES:
        _REFERENCES[key] = kind(database, *args, **kwargs)
    return _REFERENCES[key]


def _assert_matches(result, expected, check_probability):
    assert result.itemset_keys() == expected.itemset_keys()
    for record in result:
        truth = expected[record.itemset]
        assert record.expected_support == pytest.approx(truth.expected_support, abs=1e-9)
        if record.variance is not None:
            assert record.variance == pytest.approx(truth.variance, abs=1e-9)
        if check_probability:
            assert record.frequent_probability == pytest.approx(
                truth.frequent_probability, abs=1e-9
            )


class TestRegistryCoverage:
    def test_every_registered_algorithm_is_covered(self):
        assert set(EXPECTED_MINERS + PROBABILISTIC_MINERS) == set(algorithm_names())

    def test_registry_holds_no_reference_miner(self):
        assert len(algorithm_names()) == 11
        assert not [name for name in algorithm_names() if name.startswith("exhaustive")]

    def test_factories_reject_backend(self):
        for name in algorithm_names():
            with pytest.raises(TypeError, match="backend"):
                get_algorithm(name).factory(backend="rows")


class TestExpectedSupportMiners:
    @pytest.mark.parametrize("algorithm", EXPECTED_MINERS)
    @pytest.mark.parametrize("min_esup", EXPECTED_THRESHOLDS)
    def test_matches_reference(self, any_db, algorithm, min_esup):
        name, database = any_db
        expected = _reference(name, database, reference.exhaustive_expected, min_esup)
        result = mine(database, algorithm=algorithm, min_esup=min_esup)
        _assert_matches(result, expected, check_probability=False)


class TestProbabilisticMiners:
    @pytest.mark.parametrize("algorithm", EXACT_MINERS)
    @pytest.mark.parametrize("min_sup,pft", PROBABILISTIC_THRESHOLDS)
    def test_exact_miners_match_reference(self, any_db, algorithm, min_sup, pft):
        name, database = any_db
        expected = _reference(
            name, database, reference.exhaustive_probabilistic, min_sup, pft
        )
        result = mine(database, algorithm=algorithm, min_sup=min_sup, pft=pft)
        _assert_matches(result, expected, check_probability=True)

    @pytest.mark.parametrize("algorithm", sorted(APPROXIMATE_SCORES))
    @pytest.mark.parametrize("min_sup,pft", PROBABILISTIC_THRESHOLDS)
    def test_approximate_miners_match_reference(self, any_db, algorithm, min_sup, pft):
        name, database = any_db
        score = APPROXIMATE_SCORES[algorithm]
        expected = _reference(
            name, database, reference.exhaustive_probabilistic, min_sup, pft, score=score
        )
        result = mine(database, algorithm=algorithm, min_sup=min_sup, pft=pft)
        _assert_matches(
            result, expected, check_probability=algorithm != "pdu-apriori"
        )

    @pytest.mark.parametrize("min_sup,pft", PROBABILISTIC_THRESHOLDS)
    def test_sampling_miner_within_its_error_bound(self, any_db, min_sup, pft):
        # Monte-Carlo estimates only match the exact reference up to the
        # Hoeffding half-width: itemsets clearly above pft must be found,
        # and nothing clearly below it may be reported.
        name, database = any_db
        exact = _reference(
            name, database, reference.exhaustive_probabilistic, min_sup, pft=0.01
        )
        miner = WorldSamplingMiner()
        result = miner.mine(database, min_sup=min_sup, pft=pft)
        margin = miner.error_bound(SAMPLING_DELTA)
        for record in result:
            truth = exact[record.itemset]
            assert truth.frequent_probability > pft - margin
            assert record.expected_support == pytest.approx(truth.expected_support, abs=1e-9)
            assert record.variance == pytest.approx(truth.variance, abs=1e-9)
        for truth in exact:
            if truth.frequent_probability > pft + margin:
                assert truth.itemset in result

    @pytest.mark.parametrize("seed", [3, 4])
    def test_sampling_storages_identical_given_seed(self, seed):
        # The presence matrices and the per-world dictionaries (the fallback
        # above max_presence_cells) consume the identical random stream, so
        # even the Monte-Carlo estimates must agree exactly.
        database = make_random_database(n_transactions=25, n_items=6, seed=seed)
        matrices = WorldSamplingMiner().mine(database, min_sup=0.3, pft=0.6)
        fallback = WorldSamplingMiner()
        fallback.max_presence_cells = 0
        dictionaries = fallback.mine(database, min_sup=0.3, pft=0.6)
        assert matrices.itemset_keys() == dictionaries.itemset_keys()
        for record in matrices:
            assert (
                record.frequent_probability
                == dictionaries[record.itemset].frequent_probability
            )


class TestTopKEvaluators:
    """``mine_topk`` ranks like scoring every itemset by brute force.

    The reference scores each itemset from the oracle vector; the engine's
    scores agree to 1e-9, so the comparison is of the score sequence (an
    approximation's last-bit tail may round to zero on one side) and of
    every itemset that clearly beats the k-th score, not of the order
    inside a near-tie.
    """

    @pytest.mark.parametrize("evaluator", sorted(TOPK_SCORES))
    @pytest.mark.parametrize("k", [3, 10])
    def test_topk_matches_reference_ranking(self, any_db, evaluator, k):
        name, database = any_db
        score = TOPK_SCORES[evaluator]
        if score is None:
            everything = _reference(name, database, reference.exhaustive_expected, 1e-12)
            top = mine_topk(database, k, algorithm=evaluator)
        else:
            everything = _reference(
                name, database, reference.exhaustive_probabilistic,
                TOPK_MIN_SUP, TOPK_PFT, score=score,
            )
            top = mine_topk(database, k, algorithm=evaluator, min_sup=TOPK_MIN_SUP)
        ranking = ranking_of(evaluator)
        ranked = rank_itemsets(list(everything), ranking)
        truth = {record.itemset.items: score_of(record, ranking) for record in ranked}

        def padded(scores):
            scores = list(scores)
            return scores + [0.0] * (k - len(scores))

        assert len(top) <= k
        assert padded(top.scores()) == pytest.approx(
            padded(truth[record.itemset.items] for record in ranked[:k]), abs=1e-9
        )
        for items, value in top.ranked_keys():
            assert value == pytest.approx(truth.get(items, 0.0), abs=1e-9)
        floor = (top.scores()[-1] if len(top) == k else 0.0) + 1e-9
        chosen = {items for items, _ in top.ranked_keys()}
        assert {items for items, value in truth.items() if value > floor} <= chosen


class TestDatabasePrimitives:
    @pytest.mark.parametrize("itemset", [(0,), (0, 1), (0, 1, 2), (5,)])
    def test_probability_vectors_bitwise_identical(self, itemset):
        database = make_random_database(n_transactions=50, n_items=7, seed=21)
        assert np.array_equal(
            database.itemset_probabilities(itemset),
            reference.itemset_probabilities(database, itemset),
        )

    def test_batch_matches_single_candidate_evaluation(self):
        database = make_random_database(n_transactions=40, n_items=6, seed=22)
        candidates = [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3, 4)]
        matrix = database.itemset_probabilities_batch(candidates)
        assert matrix.shape == (len(candidates), len(database))
        for row, candidate in zip(matrix, candidates):
            assert np.array_equal(row, database.itemset_probabilities(candidate))
            assert np.array_equal(row, reference.itemset_probabilities(database, candidate))

    def test_moments_agree_with_reference(self):
        database = make_random_database(n_transactions=35, n_items=8, seed=23)
        for candidate in [(0,), (1, 2), (0, 3, 5)]:
            expected, variance = reference.moments(
                reference.itemset_probabilities(database, candidate)
            )
            assert database.expected_support(candidate) == pytest.approx(expected, abs=1e-9)
            assert database.support_variance(candidate) == pytest.approx(variance, abs=1e-9)
