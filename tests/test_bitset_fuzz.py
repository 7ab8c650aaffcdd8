"""Seeded randomized backend-equivalence fuzz: rows == columnar cascade.

For a grid of generated uncertain databases (density, size, item count and
probability-grid variations):

* every candidate column of the cascade (``batch_columns`` and
  ``itemset_column``) must equal the non-zeros of the ``rows`` oracle's
  ``p_i(X)`` **bitwise**;
* every sampled miner runs through the ``rows`` oracle and the columnar
  cascade, serial and row-sharded.  The two columnar runs must agree
  **bitwise**; the rows oracle must agree exactly on the frequent sets and
  to 1e-12 on every score (full-vector reductions may differ in the last
  ulp between the row loop and the NumPy reductions).

Top-k rankings are pinned the same way.  Seeds are fixed so every failure
replays.
"""

from __future__ import annotations

import random
from itertools import combinations

import numpy as np
import pytest

from repro.core.miner import mine
from repro.core.topk import mine_topk
from repro.db import UncertainDatabase
from repro.db.columnar import ColumnarView

#: (n_transactions, n_items, density, probability grid, seed)
FUZZ_CONFIGS = [
    (30, 6, 0.25, "uniform", 101),
    (60, 8, 0.5, "uniform", 102),
    (120, 10, 0.75, "uniform", 103),
    (80, 12, 0.15, "coarse", 104),
    (100, 7, 0.6, "coarse", 105),
    (50, 9, 0.4, "certain-mix", 106),
]

MINERS = [
    ("uapriori", {"min_esup": 0.2}),
    ("ufp-growth", {"min_esup": 0.2}),
    ("uh-mine", {"min_esup": 0.2}),
    ("dpb", {"min_sup": 0.3, "pft": 0.6}),
    ("dpnb", {"min_sup": 0.3, "pft": 0.6}),
    ("dcb", {"min_sup": 0.3, "pft": 0.6}),
    ("ndu-apriori", {"min_sup": 0.3, "pft": 0.6}),
    ("pdu-apriori", {"min_sup": 0.3, "pft": 0.6}),
    ("nduh-mine", {"min_sup": 0.3, "pft": 0.6}),
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


@pytest.mark.parametrize("config", FUZZ_CONFIGS, ids=[str(c[-1]) for c in FUZZ_CONFIGS])
def test_fuzz_columns_match_rows_oracle(config):
    database = fuzz_database(*config)
    view = ColumnarView(database)
    items = view.items()
    for k in range(1, 4):
        level = list(combinations(items, k))
        for candidate, column in zip(level, view.batch_columns(level)):
            dense = database.itemset_probabilities(candidate, backend="rows")
            rows = np.flatnonzero(dense)
            for got_rows, got_probs in (column, view.itemset_column(candidate)):
                assert np.array_equal(got_rows, rows), candidate
                assert got_probs.tobytes() == dense[rows].tobytes(), candidate


@pytest.mark.parametrize("config", FUZZ_CONFIGS, ids=[str(c[-1]) for c in FUZZ_CONFIGS])
@pytest.mark.parametrize("miner,thresholds", MINERS)
def test_fuzz_miner_equivalence(config, miner, thresholds):
    database = fuzz_database(*config)
    label = (miner, config[-1])

    rows = mine(database, algorithm=miner, backend="rows", **thresholds)
    cascade = mine(database, algorithm=miner, backend="columnar", **thresholds)
    sharded = mine(
        database,
        algorithm=miner,
        backend="columnar",
        shards=3,
        **thresholds,
    )

    # serial cascade == sharded cascade, bitwise
    _assert_bitwise(sharded, cascade, label)
    # columnar == rows oracle: exact frequent sets, scores to 1e-12
    _assert_close(cascade, rows, label)


@pytest.mark.parametrize("config", FUZZ_CONFIGS[:3], ids=[str(c[-1]) for c in FUZZ_CONFIGS[:3]])
@pytest.mark.parametrize(
    "evaluator,min_sup", [("esup", None), ("dp", 0.3), ("normal", 0.3)]
)
def test_fuzz_topk_rankings(config, evaluator, min_sup):
    database = fuzz_database(*config)
    k = 8

    cascade = mine_topk(database, k, algorithm=evaluator, min_sup=min_sup)
    sharded = mine_topk(database, k, algorithm=evaluator, min_sup=min_sup, shards=3)
    rows = mine_topk(database, k, algorithm=evaluator, min_sup=min_sup, backend="rows")

    assert sharded.ranked_keys() == cascade.ranked_keys()
    assert rows.ranked_keys() == cascade.ranked_keys()
    for ours, theirs in zip(sharded, cascade):
        assert ours.expected_support == theirs.expected_support
        assert ours.frequent_probability == theirs.frequent_probability
