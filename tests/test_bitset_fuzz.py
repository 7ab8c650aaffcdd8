"""Seeded randomized reference fuzz: the columnar cascade against the oracle.

For a grid of generated uncertain databases (density, size, item count and
probability-grid variations):

* every candidate column of the cascade (``batch_columns`` and
  ``itemset_column``) must equal the non-zeros of the per-transaction
  reference oracle's ``p_i(X)`` **bitwise**;
* every sampled miner runs serial and row-sharded.  The two runs must agree
  **bitwise**; the brute-force reference (every itemset enumerated and
  scored from the oracle) must agree exactly on the frequent sets and to
  1e-12 on every score (full-vector reductions may differ in the last ulp
  between the reference's dense sums and the engine's).

Top-k rankings are pinned the same way, against the reference's scored
itemsets ranked and truncated.  Seeds are fixed so every failure replays.
"""

from __future__ import annotations

import random
from itertools import combinations

import numpy as np
import pytest

from repro.core.miner import mine
from repro.core.support import normal_tail_probability, poisson_tail_probability
from repro.core.topk import mine_topk, rank_itemsets
from repro.db import UncertainDatabase
from repro.db.columnar import ColumnarView

import reference

#: (n_transactions, n_items, density, probability grid, seed)
FUZZ_CONFIGS = [
    (30, 6, 0.25, "uniform", 101),
    (60, 8, 0.5, "uniform", 102),
    (120, 10, 0.75, "uniform", 103),
    (80, 12, 0.15, "coarse", 104),
    (100, 7, 0.6, "coarse", 105),
    (50, 9, 0.4, "certain-mix", 106),
]

def _normal_score(probabilities, min_count):
    return normal_tail_probability(*reference.moments(probabilities), min_count)


def _poisson_score(probabilities, min_count):
    return poisson_tail_probability(reference.moments(probabilities)[0], min_count)


EXPECTED = {"min_esup": 0.2}
PROBABILISTIC = {"min_sup": 0.3, "pft": 0.6}

#: miner, thresholds, and the reference score its decision rule applies
#: (``None``: Definition 2, expected support)
MINERS = [
    ("uapriori", EXPECTED, None),
    ("ufp-growth", EXPECTED, None),
    ("uh-mine", EXPECTED, None),
    ("dpb", PROBABILISTIC, reference.exact_frequent_probability),
    ("dpnb", PROBABILISTIC, reference.exact_frequent_probability),
    ("dcb", PROBABILISTIC, reference.exact_frequent_probability),
    ("ndu-apriori", PROBABILISTIC, _normal_score),
    ("pdu-apriori", PROBABILISTIC, _poisson_score),
    ("nduh-mine", PROBABILISTIC, _normal_score),
]


def fuzz_database(n_transactions, n_items, density, grid, seed) -> UncertainDatabase:
    rng = random.Random(seed)

    def probability() -> float:
        if grid == "coarse":
            return rng.choice([0.25, 0.5, 0.75, 1.0])
        if grid == "certain-mix":
            return 1.0 if rng.random() < 0.3 else round(rng.uniform(0.05, 1.0), 2)
        return round(rng.uniform(0.05, 1.0), 6)

    records = [
        {
            item: probability()
            for item in range(n_items)
            if rng.random() < density
        }
        for _ in range(n_transactions)
    ]
    return UncertainDatabase.from_records(records, name=f"fuzz-{seed}")


def _records_by_key(result):
    return {record.itemset.items: record for record in result}


def _assert_bitwise(result, reference, label):
    assert result.itemset_keys() == reference.itemset_keys(), label
    twins = _records_by_key(reference)
    for record in result:
        twin = twins[record.itemset.items]
        assert record.expected_support == twin.expected_support, (label, record)
        assert record.variance == twin.variance, (label, record)
        assert record.frequent_probability == twin.frequent_probability, (
            label,
            record,
        )


def _assert_close(result, reference, label, tolerance=1e-12):
    assert result.itemset_keys() == reference.itemset_keys(), label
    twins = _records_by_key(reference)
    for record in result:
        twin = twins[record.itemset.items]
        assert record.expected_support == pytest.approx(
            twin.expected_support, abs=tolerance
        ), (label, record)
        if record.frequent_probability is not None and twin.frequent_probability is not None:
            assert record.frequent_probability == pytest.approx(
                twin.frequent_probability, abs=tolerance
            ), (label, record)


_REFERENCES = {}


def _reference(config, score, thresholds):
    """The brute-force answer for one (database, decision rule), computed once."""
    key = (config, score, tuple(sorted(thresholds.items())))
    if key not in _REFERENCES:
        database = fuzz_database(*config)
        if score is None:
            _REFERENCES[key] = reference.exhaustive_expected(database, **thresholds)
        else:
            _REFERENCES[key] = reference.exhaustive_probabilistic(
                database, score=score, **thresholds
            )
    return _REFERENCES[key]


@pytest.mark.parametrize("config", FUZZ_CONFIGS, ids=[str(c[-1]) for c in FUZZ_CONFIGS])
def test_fuzz_columns_match_reference_oracle(config):
    database = fuzz_database(*config)
    view = ColumnarView(database)
    items = view.items()
    for k in range(1, 4):
        level = list(combinations(items, k))
        for candidate, column in zip(level, view.batch_columns(level)):
            dense = reference.itemset_probabilities(database, candidate)
            rows = np.flatnonzero(dense)
            for got_rows, got_probs in (column, view.itemset_column(candidate)):
                assert np.array_equal(got_rows, rows), candidate
                assert got_probs.tobytes() == dense[rows].tobytes(), candidate


@pytest.mark.parametrize("config", FUZZ_CONFIGS, ids=[str(c[-1]) for c in FUZZ_CONFIGS])
@pytest.mark.parametrize("miner,thresholds,score", MINERS)
def test_fuzz_miner_equivalence(config, miner, thresholds, score):
    database = fuzz_database(*config)
    label = (miner, config[-1])

    cascade = mine(database, algorithm=miner, **thresholds)
    sharded = mine(database, algorithm=miner, shards=3, **thresholds)

    # serial cascade == sharded cascade, bitwise
    _assert_bitwise(sharded, cascade, label)
    # cascade == brute-force reference: exact frequent sets, scores to 1e-12
    _assert_close(cascade, _reference(config, score, thresholds), label)


def _topk_normal_score(probabilities, min_count):
    # The ranking scores only itemsets that can reach min_count at all.
    if np.count_nonzero(probabilities) < min_count:
        return 0.0
    return _normal_score(probabilities, min_count)


#: evaluator -> (ranking, reference score; ``None``: expected support)
TOPK_REFERENCES = {
    "esup": ("esup", None),
    "dp": ("probability", reference.exact_frequent_probability),
    "normal": ("probability", _topk_normal_score),
}


def _reference_topk(database, evaluator, min_sup, k):
    """Every positively scored itemset of the reference, ranked and truncated."""
    ranking, score = TOPK_REFERENCES[evaluator]
    if score is None:
        scored = reference.exhaustive_expected(database, min_esup=1e-300)
    else:
        scored = reference.exhaustive_probabilistic(
            database, min_sup=min_sup, pft=1e-300, score=score
        )
    return rank_itemsets(list(scored), ranking, k)


@pytest.mark.parametrize("config", FUZZ_CONFIGS[:3], ids=[str(c[-1]) for c in FUZZ_CONFIGS[:3]])
@pytest.mark.parametrize("evaluator,min_sup", [("esup", None), ("dp", 0.3), ("normal", 0.3)])
def test_fuzz_topk_rankings(config, evaluator, min_sup):
    database = fuzz_database(*config)
    k = 8

    cascade = mine_topk(database, k, algorithm=evaluator, min_sup=min_sup)
    sharded = mine_topk(database, k, algorithm=evaluator, min_sup=min_sup, shards=3)
    expected = _reference_topk(database, evaluator, min_sup, k)

    assert sharded.ranked_keys() == cascade.ranked_keys()
    for ours, theirs in zip(sharded, cascade):
        assert ours.expected_support == theirs.expected_support
        assert ours.frequent_probability == theirs.frequent_probability
    assert [record.itemset for record in cascade] == [
        record.itemset for record in expected
    ]
    for ours, truth in zip(cascade, expected):
        assert ours.expected_support == pytest.approx(truth.expected_support, abs=1e-12)
        if truth.frequent_probability is not None:
            assert ours.frequent_probability == pytest.approx(
                truth.frequent_probability, abs=1e-12
            )
