"""The result cache's monotonicity contract, swept across every miner.

The cache may serve a stricter-threshold request by *filtering* a cached
looser-threshold answer — but only where that is provably sound.  These
tests sweep every registered algorithm over a threshold grid and pin:

* a cached filter is **bitwise equal** to a fresh mine at the stricter
  threshold (records, order, and every float),
* the filter direction is one-way: a looser request never serves from a
  stricter answer,
* answers never cross a definition boundary (expected support vs exact
  probabilistic vs approximations — distinct cache groups), a
  ``conv_span`` boundary, or a dataset-revision boundary,
* the non-anti-monotone families (Normal approximation, Monte-Carlo
  sampling) only ever hit on their exact parameter key,
* top-k answers serve smaller ``k`` as prefixes, and an exhausted answer
  serves every ``k``.
"""

from __future__ import annotations

import json

import pytest

from repro.core.miner import mine
from repro.core.registry import algorithm_names, get_algorithm
from repro.core.topk import mine_topk, ranking_of, resolve_evaluator
from repro.service import ResultCache, ServiceError, plan_mine, plan_topk, record_keys
from repro.service import cache as service_cache
from repro.service.cache import _EXACT_PFT_ALGORITHMS, _POISSON_ALGORITHMS
from repro.service.protocol import (
    EncodedRecords,
    encode_itemsets,
    encode_line,
    encode_records,
    ok_reply,
)

from helpers import make_random_database

#: small enough that even the slowest miners sweep in milliseconds
N_TRANSACTIONS = 30
N_ITEMS = 6

ESUP_GRID = [0.15, 0.25, 0.35, 0.5]
PFT_GRID = [0.3, 0.5, 0.7, 0.9]
FIXED_MIN_SUP = 0.3

EXPECTED_ALGORITHMS = sorted(
    name for name in algorithm_names() if get_algorithm(name).family == "expected"
)
EXACT_ALGORITHMS = sorted(_EXACT_PFT_ALGORITHMS)
POISSON_ALGORITHMS = sorted(_POISSON_ALGORITHMS)
EXACT_KEY_ONLY = sorted(
    name
    for name in algorithm_names()
    if get_algorithm(name).family != "expected"
    and name not in _EXACT_PFT_ALGORITHMS
    and name not in _POISSON_ALGORITHMS
)


@pytest.fixture(scope="module")
def database():
    return make_random_database(
        n_transactions=N_TRANSACTIONS, n_items=N_ITEMS, density=0.5, seed=11
    )


def _plan(database, algorithm, *, revision="r1", conv_span=None, **thresholds):
    info = get_algorithm(algorithm)
    return plan_mine(
        "d",
        revision,
        info.name,
        info.family,
        len(database),
        thresholds.get("min_esup"),
        thresholds.get("min_sup"),
        thresholds.get("pft", 0.9),
        conv_span=conv_span,
    )


def _fresh(database, algorithm, **thresholds):
    info = get_algorithm(algorithm)
    if info.family == "expected":
        return mine(database, algorithm=algorithm, min_esup=thresholds["min_esup"])
    return mine(
        database,
        algorithm=algorithm,
        min_sup=thresholds["min_sup"],
        pft=thresholds.get("pft", 0.9),
    )


class TestExpectedFamilyMonotonicity:
    @pytest.mark.parametrize("algorithm", EXPECTED_ALGORITHMS)
    def test_filter_equals_fresh_mine_across_grid(self, database, algorithm):
        cache = ResultCache()
        loosest = ESUP_GRID[0]
        base = _fresh(database, algorithm, min_esup=loosest)
        cache.store_mine(_plan(database, algorithm, min_esup=loosest), base.itemsets)
        for threshold in ESUP_GRID[1:]:
            plan = _plan(database, algorithm, min_esup=threshold)
            served = cache.fetch_mine(plan)
            assert served is not None and served[1] == "filter"
            fresh = _fresh(database, algorithm, min_esup=threshold)
            assert record_keys(served[0]) == record_keys(fresh.itemsets)
            # The filtered answer was re-stored: repeat is an exact hit.
            again = cache.fetch_mine(plan)
            assert again is not None and again[1] == "hit"
            assert record_keys(again[0]) == record_keys(fresh.itemsets)

    def test_looser_request_never_served_from_stricter_answer(self, database):
        cache = ResultCache()
        strict = _fresh(database, "uapriori", min_esup=0.5)
        cache.store_mine(_plan(database, "uapriori", min_esup=0.5), strict.itemsets)
        assert cache.fetch_mine(_plan(database, "uapriori", min_esup=0.2)) is None

    def test_best_filter_source_is_the_tightest(self, database):
        cache = ResultCache()
        for threshold in (0.15, 0.25):
            result = _fresh(database, "uapriori", min_esup=threshold)
            cache.store_mine(
                _plan(database, "uapriori", min_esup=threshold), result.itemsets
            )
        served = cache.fetch_mine(_plan(database, "uapriori", min_esup=0.4))
        fresh = _fresh(database, "uapriori", min_esup=0.4)
        assert record_keys(served[0]) == record_keys(fresh.itemsets)


class TestExactFamilyMonotonicity:
    @pytest.mark.parametrize("algorithm", EXACT_ALGORITHMS)
    def test_pft_filter_equals_fresh_mine(self, database, algorithm):
        cache = ResultCache()
        loosest = PFT_GRID[0]
        base = _fresh(database, algorithm, min_sup=FIXED_MIN_SUP, pft=loosest)
        cache.store_mine(
            _plan(database, algorithm, min_sup=FIXED_MIN_SUP, pft=loosest),
            base.itemsets,
        )
        for pft in PFT_GRID[1:]:
            plan = _plan(database, algorithm, min_sup=FIXED_MIN_SUP, pft=pft)
            served = cache.fetch_mine(plan)
            assert served is not None and served[1] == "filter"
            fresh = _fresh(database, algorithm, min_sup=FIXED_MIN_SUP, pft=pft)
            assert record_keys(served[0]) == record_keys(fresh.itemsets)

    @pytest.mark.parametrize("algorithm", EXACT_ALGORITHMS[:2])
    def test_min_sup_is_a_group_boundary_not_an_axis(self, database, algorithm):
        cache = ResultCache()
        base = _fresh(database, algorithm, min_sup=0.2, pft=0.5)
        cache.store_mine(
            _plan(database, algorithm, min_sup=0.2, pft=0.5), base.itemsets
        )
        # Same pft, different min_sup (hence min_count): a different group.
        assert (
            cache.fetch_mine(_plan(database, algorithm, min_sup=0.4, pft=0.5)) is None
        )
        assert (
            cache.fetch_mine(_plan(database, algorithm, min_sup=0.4, pft=0.9)) is None
        )


class TestPoissonFamilyMonotonicity:
    @pytest.mark.parametrize("algorithm", POISSON_ALGORITHMS)
    def test_lambda_filter_equals_fresh_mine(self, database, algorithm):
        cache = ResultCache()
        loosest = PFT_GRID[0]
        base = _fresh(database, algorithm, min_sup=FIXED_MIN_SUP, pft=loosest)
        cache.store_mine(
            _plan(database, algorithm, min_sup=FIXED_MIN_SUP, pft=loosest),
            base.itemsets,
        )
        for pft in PFT_GRID[1:]:
            plan = _plan(database, algorithm, min_sup=FIXED_MIN_SUP, pft=pft)
            served = cache.fetch_mine(plan)
            assert served is not None and served[1] == "filter"
            fresh = _fresh(database, algorithm, min_sup=FIXED_MIN_SUP, pft=pft)
            assert record_keys(served[0]) == record_keys(fresh.itemsets)


class TestExactKeyOnlyFamilies:
    @pytest.mark.parametrize("algorithm", EXACT_KEY_ONLY)
    def test_no_filter_axis(self, database, algorithm):
        plan = _plan(database, algorithm, min_sup=FIXED_MIN_SUP, pft=0.5)
        assert plan.axis is None and plan.keep is None

    @pytest.mark.parametrize("algorithm", EXACT_KEY_ONLY)
    def test_only_exact_parameter_hits(self, database, algorithm):
        cache = ResultCache()
        result = _fresh(database, algorithm, min_sup=FIXED_MIN_SUP, pft=0.5)
        plan = _plan(database, algorithm, min_sup=FIXED_MIN_SUP, pft=0.5)
        cache.store_mine(plan, result.itemsets)
        served = cache.fetch_mine(plan)
        assert served is not None and served[1] == "hit"
        assert record_keys(served[0]) == record_keys(result.itemsets)
        # A stricter pft must MISS — the Normal score is not anti-monotone,
        # so filtering could disagree with a fresh downward-closure mine.
        assert (
            cache.fetch_mine(_plan(database, algorithm, min_sup=FIXED_MIN_SUP, pft=0.8))
            is None
        )


class TestBoundaries:
    def test_never_across_definitions(self, database):
        cache = ResultCache()
        expected = _fresh(database, "uapriori", min_esup=0.15)
        cache.store_mine(
            _plan(database, "uapriori", min_esup=0.15), expected.itemsets
        )
        # Every probabilistic plan must miss, whatever its thresholds.
        for algorithm in EXACT_ALGORITHMS + POISSON_ALGORITHMS + EXACT_KEY_ONLY:
            for pft in PFT_GRID:
                plan = _plan(database, algorithm, min_sup=FIXED_MIN_SUP, pft=pft)
                assert cache.fetch_mine(plan) is None, (algorithm, pft)

    def test_never_across_algorithms_within_a_family(self, database):
        cache = ResultCache()
        result = _fresh(database, "uapriori", min_esup=0.15)
        cache.store_mine(_plan(database, "uapriori", min_esup=0.15), result.itemsets)
        assert cache.fetch_mine(_plan(database, "ufp-growth", min_esup=0.3)) is None

    def test_never_across_conv_spans(self, database):
        cache = ResultCache()
        result = _fresh(database, "dcb", min_sup=FIXED_MIN_SUP, pft=0.3)
        cache.store_mine(
            _plan(database, "dcb", min_sup=FIXED_MIN_SUP, pft=0.3, conv_span=512),
            result.itemsets,
        )
        assert (
            cache.fetch_mine(
                _plan(database, "dcb", min_sup=FIXED_MIN_SUP, pft=0.7, conv_span=64)
            )
            is None
        )
        # ...while the same conv_span still serves the stricter pft.
        assert (
            cache.fetch_mine(
                _plan(database, "dcb", min_sup=FIXED_MIN_SUP, pft=0.7, conv_span=512)
            )
            is not None
        )

    def test_never_across_revisions(self, database):
        cache = ResultCache()
        result = _fresh(database, "uapriori", min_esup=0.15)
        cache.store_mine(
            _plan(database, "uapriori", min_esup=0.15, revision="r1"),
            result.itemsets,
        )
        assert (
            cache.fetch_mine(_plan(database, "uapriori", min_esup=0.3, revision="r2"))
            is None
        )
        assert (
            cache.fetch_mine(_plan(database, "uapriori", min_esup=0.15, revision="r2"))
            is None
        )


class TestTopKPrefixes:
    def _group(self, database, evaluator, *, revision="r1", min_sup=None):
        return plan_topk(
            "d",
            revision,
            evaluator,
            ranking_of(evaluator),
            len(database),
            min_sup,
        )

    @pytest.mark.parametrize(
        "evaluator,min_sup", [("esup", None), ("dp", FIXED_MIN_SUP)]
    )
    def test_prefix_serves_smaller_k(self, database, evaluator, min_sup):
        cache = ResultCache()
        group = self._group(database, evaluator, min_sup=min_sup)
        big = mine_topk(database, 12, algorithm=evaluator, min_sup=min_sup)
        cache.store_topk(group, 12, big.itemsets)
        for k in (1, 5, 12):
            served = cache.fetch_topk(group, k)
            assert served is not None
            fresh = mine_topk(database, k, algorithm=evaluator, min_sup=min_sup)
            assert record_keys(served[0]) == record_keys(fresh.itemsets)

    def test_larger_k_misses_non_exhausted_entry(self, database):
        cache = ResultCache()
        group = self._group(database, "esup")
        small = mine_topk(database, 5, algorithm="esup")
        assert len(small.itemsets) == 5
        cache.store_topk(group, 5, small.itemsets)
        assert cache.fetch_topk(group, 9) is None

    def test_exhausted_entry_serves_any_k(self, database):
        cache = ResultCache()
        group = self._group(database, "esup")
        everything = mine_topk(database, 10_000, algorithm="esup")
        assert len(everything.itemsets) < 10_000
        cache.store_topk(group, 10_000, everything.itemsets)
        for k in (3, len(everything.itemsets), 50_000):
            served = cache.fetch_topk(group, k)
            assert served is not None
            fresh = mine_topk(database, k, algorithm="esup")
            assert record_keys(served[0]) == record_keys(fresh.itemsets)

    def test_min_sup_in_group_key_for_probability_ranking(self, database):
        cache = ResultCache()
        group_03 = self._group(database, "dp", min_sup=0.3)
        group_04 = self._group(database, "dp", min_sup=0.4)
        assert group_03 != group_04
        result = mine_topk(database, 6, algorithm="dp", min_sup=0.3)
        cache.store_topk(group_03, 6, result.itemsets)
        assert cache.fetch_topk(group_04, 3) is None

    def test_probability_ranking_requires_min_sup(self, database):
        with pytest.raises(ServiceError) as excinfo:
            self._group(database, resolve_evaluator("dp"), min_sup=None)
        assert excinfo.value.type == "bad-params"

    def test_revision_boundary(self, database):
        cache = ResultCache()
        result = mine_topk(database, 6, algorithm="esup")
        cache.store_topk(self._group(database, "esup", revision="r1"), 6, result.itemsets)
        assert cache.fetch_topk(self._group(database, "esup", revision="r2"), 3) is None


class TestEvictionBehaviour:
    def test_evicted_entries_vanish_from_group_index(self, database):
        result = _fresh(database, "uapriori", min_esup=0.15)
        plan = _plan(database, "uapriori", min_esup=0.15)
        # A budget below the entry's charge: the put is dropped entirely.
        cache = ResultCache(budget_bytes=64)
        cache.store_mine(plan, result.itemsets)
        assert cache.fetch_mine(plan) is None
        assert cache.fetch_mine(_plan(database, "uapriori", min_esup=0.3)) is None
        assert cache._index == {}

    def test_lru_eviction_keeps_accounting_consistent(self, database):
        result = _fresh(database, "uapriori", min_esup=0.15)
        entry_plan = _plan(database, "uapriori", min_esup=0.15)
        from repro.service.cache import _CachedEntry

        charge = _CachedEntry(result.itemsets).payload_nbytes
        cache = ResultCache(budget_bytes=charge * 2 + 10)
        thresholds = (0.15, 0.25, 0.35, 0.5)
        for threshold in thresholds:
            cache.store_mine(
                _plan(database, "uapriori", min_esup=threshold), result.itemsets
            )
        assert len(cache._lru) <= 3
        assert cache._lru.nbytes <= cache._lru.budget_bytes
        # The surviving entries still serve bitwise-correct answers.
        served = cache.fetch_mine(_plan(database, "uapriori", min_esup=0.5))
        assert served is not None
        assert record_keys(served[0]) == record_keys(result.itemsets)


def _reply_line(records) -> bytes:
    """The framed reply of an answer, as the server writes it."""
    return encode_line(ok_reply(1, {"dataset": "d", "n": len(records), "itemsets": records}))


def _fresh_reply_line(records) -> bytes:
    """The framed reply of a fresh answer, encoded in one pass."""
    document = ok_reply(1, {"dataset": "d", "n": len(records), "itemsets": encode_records(records)})
    return (json.dumps(document, separators=(",", ":")) + "\n").encode("utf-8")


def _assert_served_bytes(served, fresh_records, status):
    assert served is not None and served[1] == status
    assert isinstance(served[0], EncodedRecords)
    assert served[0].encoded == encode_itemsets(fresh_records)
    assert _reply_line(served[0]) == _fresh_reply_line(fresh_records)


class TestServedReplyBytes:
    """A served reply's bytes equal a fresh mine's, across the monotonicity sweep."""

    @pytest.mark.parametrize("algorithm", EXPECTED_ALGORITHMS)
    def test_expected_sweep(self, database, algorithm):
        cache = ResultCache()
        loosest = ESUP_GRID[0]
        base = _fresh(database, algorithm, min_esup=loosest)
        cache.store_mine(_plan(database, algorithm, min_esup=loosest), base.itemsets)
        _assert_served_bytes(
            cache.fetch_mine(_plan(database, algorithm, min_esup=loosest)),
            base.itemsets,
            "hit",
        )
        for threshold in ESUP_GRID[1:]:
            plan = _plan(database, algorithm, min_esup=threshold)
            fresh = _fresh(database, algorithm, min_esup=threshold)
            served = cache.fetch_mine(plan)
            _assert_served_bytes(served, fresh.itemsets, "filter")
            again = cache.fetch_mine(plan)
            _assert_served_bytes(again, fresh.itemsets, "hit")
            # The repeat serves the bytes stored with the filtered entry.
            assert again[0].encoded is served[0].encoded

    @pytest.mark.parametrize("algorithm", EXACT_ALGORITHMS + POISSON_ALGORITHMS)
    def test_pft_sweep(self, database, algorithm):
        cache = ResultCache()
        base = _fresh(database, algorithm, min_sup=FIXED_MIN_SUP, pft=PFT_GRID[0])
        cache.store_mine(
            _plan(database, algorithm, min_sup=FIXED_MIN_SUP, pft=PFT_GRID[0]),
            base.itemsets,
        )
        for pft in PFT_GRID[1:]:
            plan = _plan(database, algorithm, min_sup=FIXED_MIN_SUP, pft=pft)
            fresh = _fresh(database, algorithm, min_sup=FIXED_MIN_SUP, pft=pft)
            _assert_served_bytes(cache.fetch_mine(plan), fresh.itemsets, "filter")
            _assert_served_bytes(cache.fetch_mine(plan), fresh.itemsets, "hit")

    @pytest.mark.parametrize("algorithm", EXACT_KEY_ONLY)
    def test_exact_key_sweep(self, database, algorithm):
        cache = ResultCache()
        plan = _plan(database, algorithm, min_sup=FIXED_MIN_SUP, pft=0.5)
        fresh = _fresh(database, algorithm, min_sup=FIXED_MIN_SUP, pft=0.5)
        cache.store_mine(plan, fresh.itemsets)
        _assert_served_bytes(cache.fetch_mine(plan), fresh.itemsets, "hit")

    @pytest.mark.parametrize("evaluator,min_sup", [("esup", None), ("dp", FIXED_MIN_SUP)])
    def test_topk_prefixes_and_exhausted(self, database, evaluator, min_sup):
        group = plan_topk(
            "d", "r1", evaluator, ranking_of(evaluator), len(database), min_sup
        )
        cache = ResultCache()
        big = mine_topk(database, 12, algorithm=evaluator, min_sup=min_sup)
        cache.store_topk(group, 12, big.itemsets)
        _assert_served_bytes(cache.fetch_topk(group, 12), big.itemsets, "hit")
        for k in (1, 5):
            fresh = mine_topk(database, k, algorithm=evaluator, min_sup=min_sup)
            _assert_served_bytes(cache.fetch_topk(group, k), fresh.itemsets, "filter")
            _assert_served_bytes(cache.fetch_topk(group, k), fresh.itemsets, "hit")
        everything = mine_topk(database, 10_000, algorithm=evaluator, min_sup=min_sup)
        cache.store_topk(group, 10_000, everything.itemsets)
        fresh = mine_topk(database, 50_000, algorithm=evaluator, min_sup=min_sup)
        _assert_served_bytes(cache.fetch_topk(group, 50_000), fresh.itemsets, "filter")


class TestEncodedAccounting:
    """Stored encodings are charged to the budget and leave with their entry."""

    @staticmethod
    def _encoded_total(cache) -> int:
        return sum(len(cache._lru.peek(key).records.encoded) for key in cache._lru.keys())

    def test_entry_charges_its_encoding(self, database):
        records = _fresh(database, "uapriori", min_esup=0.15).itemsets
        items = sum(len(record.itemset) for record in records)
        estimate = 256 + 120 * len(records) + 8 * items
        charge = service_cache._CachedEntry(records).payload_nbytes
        assert charge == estimate + len(encode_itemsets(records))

    def test_small_budget_holds_with_encodings(self, database, monkeypatch):
        answers = {
            threshold: _fresh(database, "uapriori", min_esup=threshold).itemsets
            for threshold in ESUP_GRID
        }
        largest = service_cache._CachedEntry(answers[ESUP_GRID[0]]).payload_nbytes
        budget = largest * 2 + 10
        monkeypatch.setenv(service_cache.RESULT_BYTES_ENV, str(budget))
        cache = ResultCache()
        assert cache.describe()["budget_bytes"] == budget
        for round_index in range(3):
            for algorithm in ("uapriori", "ufp-growth", "uh-mine"):
                for threshold, records in answers.items():
                    cache.store_mine(_plan(database, algorithm, min_esup=threshold), records)
                    cache.fetch_mine(_plan(database, algorithm, min_esup=threshold + 0.05))
                    described = cache.describe()
                    assert described["nbytes"] <= budget
                    assert described["encoded_bytes"] == self._encoded_total(cache)
                    assert 0 < described["encoded_bytes"] < described["nbytes"]
        assert cache.describe()["evictions"] > 0

    def test_eviction_frees_the_stored_bytes(self, database):
        small = _fresh(database, "uapriori", min_esup=0.5).itemsets
        large = _fresh(database, "uapriori", min_esup=0.15).itemsets
        cache = ResultCache(budget_bytes=service_cache._CachedEntry(large).payload_nbytes)
        cache.store_mine(_plan(database, "uapriori", min_esup=0.5), small)
        assert cache.describe()["encoded_bytes"] == len(encode_itemsets(small))
        # The large answer fills the whole budget: the small one is evicted.
        cache.store_mine(_plan(database, "ufp-growth", min_esup=0.15), large)
        described = cache.describe()
        assert described["entries"] == 1 and described["evictions"] == 1
        assert described["encoded_bytes"] == len(encode_itemsets(large))
        assert described["nbytes"] == service_cache._CachedEntry(large).payload_nbytes
        cache.clear()
        assert cache.describe()["encoded_bytes"] == 0
        assert cache.describe()["nbytes"] == 0
