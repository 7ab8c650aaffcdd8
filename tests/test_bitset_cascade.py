"""The bitset evaluation cascade: bitmaps, kills, caches, sharding.

Pins the three stages of the cascade against the reference oracle (the
non-zeros of ``reference.itemset_probabilities(db, c)``, compared bitwise):

* stage 1 — packed occupancy bitmaps and popcount kill decisions;
* stage 2 — cross-level byte-budgeted prefix caching (and its bounding);
* stage 3 — the bound-ordered Markov → Chernoff filter-verify pipeline.
"""

from __future__ import annotations

import math
import pickle
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.parallel import ParallelExecutor
from repro.core.support import (
    SupportEngine,
    chernoff_upper_bound,
    exact_pmf_dynamic_programming,
    markov_upper_bound,
    undecided_after_bounds,
)
from repro.db import UncertainDatabase
from repro.db.cache import ByteBudgetLRU
from repro.db import columnar
from repro.db.columnar import ColumnarView, popcount_rows

import reference
from helpers import make_random_database


@pytest.fixture
def database():
    return make_random_database(n_transactions=80, n_items=9, density=0.5, seed=31)


def _all_levels(view, max_len=3):
    """Every itemset of the database up to ``max_len`` as candidate tuples."""
    items = view.items()
    candidates = []
    for k in range(1, max_len + 1):
        candidates.extend(combinations(items, k))
    return candidates


def _oracle_column(database, itemset):
    """The reference oracle: the non-zeros of its ``p_i(X)``."""
    dense = reference.itemset_probabilities(database, itemset)
    rows = np.flatnonzero(dense)
    return rows, dense[rows]


def _oracle_vectors(database, candidates):
    return [_oracle_column(database, candidate)[1] for candidate in candidates]


def _assert_oracle_column(column, database, itemset):
    """``column`` equals the reference oracle of ``itemset`` bit for bit."""
    rows, probs = _oracle_column(database, itemset)
    assert np.array_equal(column[0], rows), itemset
    assert np.asarray(column[1], dtype=np.float64).tobytes() == probs.tobytes(), itemset


def _assert_same_vectors(vectors, expected):
    assert len(vectors) == len(expected)
    for vector, truth in zip(vectors, expected):
        assert vector.tobytes() == truth.tobytes()


#: boundary probabilities: certain, dyadic, tiny normal and the smallest
#: subnormal (products of the last two underflow to exact zeros)
_BOUNDARY_PROBABILITIES = [1.0, 0.5, 0.25, 0.75, 0.125, 0.375, 1e-160, 5e-324]


@st.composite
def boundary_databases(draw):
    """Small databases whose units take boundary probabilities.

    A drawn ``0.0`` is an absent unit (the transaction model drops zero
    probabilities on construction).  Transactions are short, so items
    land on both sides of the dense/sparse kernel crossover.
    """
    n_items = draw(st.integers(min_value=1, max_value=5))
    unit = st.sampled_from([0.0] + _BOUNDARY_PROBABILITIES)
    records = draw(
        st.lists(
            st.dictionaries(st.integers(min_value=0, max_value=n_items - 1), unit),
            min_size=1,
            max_size=16,
        )
    )
    return UncertainDatabase.from_records(records)


class TestPopcountAndBitmaps:
    def test_popcount_rows_matches_unpackbits(self):
        rng = np.random.default_rng(3)
        packed = rng.integers(0, 256, size=(17, 13), dtype=np.uint8)
        expected = np.unpackbits(packed, axis=1).sum(axis=1)
        assert popcount_rows(packed).tolist() == expected.tolist()

    def test_item_bitmap_matches_column(self, database):
        view = database.columnar()
        for item in view.items():
            bitmap = view.item_bitmap(item)
            rows = np.flatnonzero(np.unpackbits(bitmap)[: len(database)])
            assert rows.tolist() == view.column(item)[0].tolist()

    def test_level_occupancy_counts_match_vector_nonzeros(self, database):
        view = database.columnar()
        candidates = _all_levels(view)
        counts = view.level_occupancy_counts(candidates)
        vectors = _oracle_vectors(database, candidates)
        for candidate, count, vector in zip(candidates, counts, vectors):
            assert count == np.count_nonzero(vector), candidate

    def test_empty_candidate_occupies_every_row(self, database):
        view = database.columnar()
        counts = view.level_occupancy_counts([(), (view.items()[0],)])
        assert counts[0] == len(database)

    def test_ragged_and_uniform_level_bitmaps_agree(self, database):
        view = database.columnar()
        items = view.items()
        ragged = [(items[0],), (items[0], items[1]), (items[0], items[1], items[2])]
        ragged_counts = view.level_occupancy_counts(ragged)
        for candidate, count in zip(ragged, ragged_counts):
            assert count == view.level_occupancy_counts([candidate])[0]

    def test_empty_database_and_empty_level(self):
        empty = UncertainDatabase.from_records([])
        view = empty.columnar()
        assert view.level_occupancy_counts([]).tolist() == []
        assert view.level_occupancy_counts([(1,), (1, 2)]).tolist() == [0, 0]
        assert view.batch_vectors([(1,)], min_count=1) [0].tolist() == []


class TestCascadeEquivalence:
    def test_batch_columns_bitwise_identical_to_reference_oracle(self, database):
        view = database.columnar()
        candidates = _all_levels(view)
        for candidate, column in zip(candidates, view.batch_columns(candidates)):
            _assert_oracle_column(column, database, candidate)

    def test_kill_threshold_returns_empty_columns_only_below_count(self, database):
        view = database.columnar()
        candidates = _all_levels(view)
        counts = view.level_occupancy_counts(candidates)
        min_count = int(np.median(counts)) + 1
        killed = view.batch_vectors(candidates, min_count=min_count)
        expected = _oracle_vectors(database, candidates)
        for count, vector, full in zip(counts, killed, expected):
            if count < min_count:
                assert len(vector) == 0
            else:
                assert np.array_equal(vector, full)

    def test_kill_is_sound_for_both_definitions(self, database):
        # A killed candidate could never be frequent: its expected support
        # is bounded by the count, and its exact tail at min_count is zero.
        view = database.columnar()
        candidates = _all_levels(view)
        counts = view.level_occupancy_counts(candidates)
        vectors = _oracle_vectors(database, candidates)
        min_count = int(np.median(counts)) + 1
        for count, vector in zip(counts, vectors):
            if count < min_count:
                assert float(vector.sum()) < min_count
                pmf = exact_pmf_dynamic_programming(vector)
                assert float(pmf[min_count:].sum()) == 0.0

    def test_cross_level_prefix_cache_serves_second_call(self, database):
        view = ColumnarView(database)
        pairs = [(0, 1), (0, 2), (1, 2)]
        triples = [(0, 1, 2)]
        first = view.batch_columns(pairs)
        hits_before = view._prefix_cache.hits
        second = view.batch_columns(triples)
        assert view._prefix_cache.hits > hits_before  # (0, 1) reused as prefix
        _assert_oracle_column(second[0], database, triples[0])
        _assert_oracle_column(first[0], database, pairs[0])

    def test_killed_candidates_never_poison_the_prefix_cache(self, database):
        # A stage-1 kill returns the empty column; a later, lower-threshold
        # run must still see the candidate's true column.
        view = ColumnarView(database)
        candidates = _all_levels(view, max_len=2)
        counts = view.level_occupancy_counts(candidates)
        min_count = int(counts.max())  # kills almost everything
        view.batch_columns(candidates, min_count=min_count)
        full = view.batch_columns(candidates)  # no threshold: true columns
        for candidate, column in zip(candidates, full):
            _assert_oracle_column(column, database, candidate)

    def test_itemset_column_matches_reference_oracle(self, database):
        view = database.columnar()
        for itemset in [(0,), (0, 1), (1, 2, 3), ()] + _all_levels(view):
            _assert_oracle_column(view.itemset_column(itemset), database, itemset)

    @given(boundary_databases())
    # A sparse-path product that underflows to an exact zero (5e-324 * 0.5)
    # must be dropped like the reference oracle drops it.
    @example(UncertainDatabase.from_records([{0: 5e-324, 1: 0.5}] + [{2: 1.0}] * 7))
    @settings(max_examples=200, deadline=None)
    def test_boundary_probabilities_match_reference_oracle(self, database):
        # Levels go through one view in order, so the cross-level prefix
        # cache serves every k >= 2 prefix; itemset_column runs uncached.
        view = ColumnarView(database)
        items = view.items()
        for k in range(1, len(items) + 1):
            level = list(combinations(items, k))
            for candidate, column in zip(level, view.batch_columns(level)):
                _assert_oracle_column(column, database, candidate)
            for candidate in level:
                _assert_oracle_column(view.itemset_column(candidate), database, candidate)


#: (rows, requested shards) of the executor fan-out layouts: even shards,
#: uneven shards, and more shards than rows (clamped to one row each)
SHARD_LAYOUTS = [
    pytest.param(80, 2, id="2-shards"),
    pytest.param(80, 3, id="3-uneven-shards"),
    pytest.param(5, 8, id="more-shards-than-rows"),
]


class TestShardedCascade:
    """The executor's fan-out (in-process and pooled) against the serial view."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n_transactions,shards", SHARD_LAYOUTS)
    def test_executor_counts_sum_to_global(self, workers, n_transactions, shards):
        database = make_random_database(
            n_transactions=n_transactions, n_items=9, density=0.5, seed=31
        )
        view = database.columnar()
        candidates = _all_levels(view)
        with ParallelExecutor(
            workers, shard_views=database.partition(shards).shards
        ) as executor:
            counts = executor.shard_occupancy_counts(candidates)
        assert np.array_equal(counts, view.level_occupancy_counts(candidates))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_executor_kill_uses_global_counts(self, workers):
        # Candidate (1,) has one supporting row in each of two shards; a
        # min_count of 2 is only reachable globally — per-shard evidence
        # alone would kill it and corrupt the concatenated vector.
        db = UncertainDatabase.from_records(
            [{1: 0.5}, {2: 0.25}, {1: 0.75}, {2: 1.0}]
        )
        with ParallelExecutor(workers, shard_views=db.partition(2).shards) as executor:
            vectors = executor.shard_vectors([(1,), (1, 2)], min_count=2)
        assert vectors[0].tolist() == [0.5, 0.75]
        assert vectors[1].tolist() == []  # truly below min_count globally

    @pytest.mark.parametrize("min_count", [0, 2, 5])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n_transactions,shards", SHARD_LAYOUTS)
    def test_executor_shard_vectors_with_kill(
        self, workers, n_transactions, shards, min_count
    ):
        database = make_random_database(
            n_transactions=n_transactions, n_items=9, density=0.5, seed=31
        )
        candidates = _all_levels(database.columnar())
        serial = database.columnar().batch_vectors(candidates, min_count=min_count)
        with ParallelExecutor(
            workers, shard_views=database.partition(shards).shards
        ) as executor:
            fanned = executor.shard_vectors(candidates, min_count=min_count)
        assert len(fanned) == len(serial)
        for left, right in zip(serial, fanned):
            assert np.array_equal(left, right)

    def test_shard_pickling_drops_caches(self, database):
        view = database.columnar()
        view.batch_vectors(_all_levels(view), min_count=3)  # fill every cache
        assert len(view._prefix_cache) > 0 and len(view._bitmaps) > 0
        clone = pickle.loads(pickle.dumps(view))
        assert len(clone._prefix_cache) == 0
        assert len(clone._bitmaps) == 0
        assert len(clone._dense_columns) == 0
        candidates = _all_levels(view)
        for left, right in zip(
            clone.batch_vectors(candidates), view.batch_vectors(candidates)
        ):
            assert np.array_equal(left, right)


class TestByteBudgetCaches:
    def test_lru_eviction_order_and_budget(self):
        cache = ByteBudgetLRU(budget_bytes=64)
        cache.put("a", np.zeros(4))
        cache.put("b", np.zeros(4))
        assert cache.get("a") is not None  # refresh "a"; "b" is now coldest
        cache.put("c", np.zeros(4))
        assert "b" not in cache and "a" in cache and "c" in cache
        assert cache.nbytes <= 64

    def test_oversized_value_is_not_retained(self):
        cache = ByteBudgetLRU(budget_bytes=16)
        cache.put("big", np.zeros(100))
        assert len(cache) == 0

    def test_zero_budget_disables_caching(self):
        cache = ByteBudgetLRU(budget_bytes=0)
        cache.put("a", np.zeros(1))
        assert cache.get("a") is None

    def test_prefix_cache_budget_is_respected_and_only_costs_time(
        self, database, monkeypatch
    ):
        monkeypatch.setattr(columnar, "PREFIX_CACHE_BYTES", 256)
        view = ColumnarView(database)
        candidates = _all_levels(view)
        first = view.batch_vectors(candidates)
        assert view._prefix_cache.nbytes <= 256
        second = view.batch_vectors(candidates)
        expected = _oracle_vectors(database, candidates)
        _assert_same_vectors(first, expected)
        _assert_same_vectors(second, expected)

    def test_dense_memo_is_bounded(self, database, monkeypatch):
        monkeypatch.setattr(columnar, "DENSE_CACHE_BYTES", len(database) * 8 * 2)
        view = ColumnarView(database)
        for item in view.items():
            view._dense_column(item)
        assert len(view._dense_columns) <= 2
        assert view._dense_columns.nbytes <= len(database) * 8 * 2


class TestBoundOrderedVerify:
    def test_markov_bound_is_sound(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            vector = rng.uniform(0.0, 1.0, size=rng.integers(1, 40))
            min_count = int(rng.integers(1, len(vector) + 2))
            exact = float(
                exact_pmf_dynamic_programming(vector)[min_count:].sum()
            )
            assert exact <= markov_upper_bound(float(vector.sum()), min_count) + 1e-12

    @staticmethod
    def _floor_mismatches(bar_of_floor) -> int:
        """Draws where the chain's kill at ``bar_of_floor(floor)`` differs
        from top-k's strict ``min(markov, chernoff) < floor``.

        Half the floors are drawn at random, half sit exactly on the
        combined bound (the tie a strict comparison must keep alive).
        """
        rng = np.random.default_rng(12)
        mismatches = 0
        for _ in range(200):
            expected = float(rng.uniform(0.0, 30.0))
            min_count = int(rng.integers(1, 40))
            combined = min(
                markov_upper_bound(expected, min_count),
                chernoff_upper_bound(expected, min_count),
            )
            for floor in (float(rng.uniform(1e-9, 1.0)), combined):
                if floor <= 0.0:
                    continue
                killed = not undecided_after_bounds(
                    [expected], [min_count], min_count, bar_of_floor(floor)
                )
                mismatches += killed != (combined < floor)
        return mismatches

    def test_floor_bar_reproduces_strict_min_bound_decision(self):
        assert self._floor_mismatches(lambda floor: math.nextafter(floor, 0.0)) == 0
        # The property has teeth: the floor itself as the bar kills ties.
        assert self._floor_mismatches(lambda floor: floor) > 0

    def test_killed_candidates_are_below_the_bar_exactly(self):
        rng = np.random.default_rng(14)
        vectors = [rng.uniform(0.0, 1.0, size=rng.integers(1, 40)) for _ in range(80)]
        engine = SupportEngine(vectors)
        for min_count, bar in ((3, 0.2), (8, 0.5), (15, 0.05)):
            undecided = set(engine.undecided_after_bounds(min_count, bar))
            for index, vector in enumerate(vectors):
                exact = float(exact_pmf_dynamic_programming(vector)[min_count:].sum())
                if index not in undecided:
                    assert exact <= bar + 1e-12, (index, exact)

    def test_undecided_after_bounds_never_drops_a_frequent_candidate(self):
        rng = np.random.default_rng(13)
        vectors = [rng.uniform(0.0, 1.0, size=rng.integers(0, 30)) for _ in range(60)]
        engine = SupportEngine(vectors)
        min_count, pft = 6, 0.4
        undecided = set(engine.undecided_after_bounds(min_count, pft))
        for index, vector in enumerate(vectors):
            exact = float(exact_pmf_dynamic_programming(vector)[min_count:].sum())
            if exact > pft:
                assert index in undecided, (index, exact)

    def test_bounds_disabled_only_applies_count_filter(self):
        vectors = [np.array([0.2, 0.2]), np.array([0.9] * 6), np.zeros(0)]
        engine = SupportEngine(vectors)
        undecided = engine.undecided_after_bounds(2, 0.9, use_bounds=False)
        assert undecided == [0, 1]  # the empty vector fails the count filter

    def test_markov_runs_before_chernoff_in_the_accounting(self):
        vectors = [np.full(60, 0.05), np.full(60, 0.9), np.full(60, 0.35)]
        engine = SupportEngine(vectors)
        notes = {}
        min_count, pft = 40, 0.5
        undecided = engine.undecided_after_bounds(min_count, pft, notes=notes)
        # candidate 0: markov bound = 3/40 <= pft, killed before Chernoff
        # candidate 2: markov 21/40 > pft, then Chernoff ~0.02 <= pft
        assert notes == {
            "markov_tested": 3.0,
            "markov_pruned": 1.0,
            "chernoff_tested": 2.0,
            "chernoff_pruned": 1.0,
        }
        assert undecided == [1]
        assert chernoff_upper_bound(54.0, min_count) > pft  # sanity of the setup

    def test_notes_accumulate_only_when_bounds_run(self):
        notes = {}
        engine = SupportEngine([np.full(20, 0.05)])
        engine.undecided_after_bounds(10, 0.5, use_bounds=False, notes=notes)
        assert notes == {}
        engine.undecided_after_bounds(10, 0.5, notes=notes)
        engine.undecided_after_bounds(10, 0.5, notes=notes)
        assert notes["markov_pruned"] == 2.0


class TestEngineEmptyFastPaths:
    def test_moments_and_counts_of_killed_vectors(self):
        engine = SupportEngine([np.zeros(0), np.array([0.5, 0.25])])
        assert engine.expected_supports().tolist() == [0.0, 0.75]
        assert engine.variances().tolist() == [0.0, 0.25 + 0.1875]
        assert engine.nonzero_counts().tolist() == [0, 2]
