"""Level-at-a-time candidate blocks: array join and prune, block columns, reuse.

* the array join and prune of :mod:`repro.algorithms.common` against the
  frozen tuple join and subset check of ``tests/reference.py``;
* :meth:`ColumnarView.batch_vectors` over joined levels against the
  ``itemset_column`` oracle, bit for bit: kills, ``min_count`` 0, both sides
  of the dense crossover, products that underflow to zero, chunked kills
  and gathers, sliced and store-mapped views;
* a second mine on one view served from the prefix LRU, whose entries own
  exactly the bytes they are charged.
"""

from __future__ import annotations

import tempfile
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import mine
from repro.algorithms.common import apriori_join, has_infrequent_subset
from repro.core.search import CandidateLevel, LevelwiseSearch
from repro.db import UncertainDatabase, columnar
from repro.db.cache import ByteBudgetLRU
from repro.db.columnar import ColumnarView
from repro.db.store import ColumnarStore

from helpers import make_random_database
from reference import apriori_join_tuples, has_infrequent_subset_tuples


@st.composite
def levels(draw):
    """A sorted, duplicate-free level of k-itemsets over a shifted universe.

    The shift puts item ids near 2**20 and 2**40, where packing k of them
    into one int64 key overflows unless the keys are re-ranked.
    """
    k = draw(st.integers(min_value=1, max_value=5))
    base = draw(st.sampled_from([0, 2**20 - 8, 2**40]))
    universe = [base + item for item in range(draw(st.integers(min_value=k, max_value=9)))]
    itemsets = draw(
        st.lists(
            st.lists(st.sampled_from(universe), min_size=k, max_size=k, unique=True).map(
                lambda items: tuple(sorted(items))
            ),
            max_size=40,
            unique=True,
        )
    )
    return k, sorted(itemsets)


class TestArrayJoinAndPrune:
    @given(levels())
    @example((2, []))
    @example((3, [(1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 2, 9)]))  # one group
    @settings(max_examples=300, deadline=None)
    def test_join_and_prune_match_the_tuple_reference(self, drawn):
        _, level = drawn
        joined = apriori_join(CandidateLevel.from_tuples(level))
        expected = apriori_join_tuples(level)
        assert joined.tuples() == expected
        assert apriori_join(level, presorted=True) == expected
        for candidate, parent in zip(joined.tuples(), joined.parents.tolist()):
            assert level[parent] == candidate[:-1]
        mask = has_infrequent_subset(joined.items, CandidateLevel.from_tuples(level).items)
        assert mask.tolist() == [has_infrequent_subset_tuples(c, level) for c in expected]
        pruned = LevelwiseSearch._apriori_candidates(CandidateLevel.from_tuples(level))
        assert pruned.tuples() == [
            c for c in expected if not has_infrequent_subset_tuples(c, level)
        ]

    @given(levels(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_prune_of_arbitrary_candidates(self, drawn, data):
        k, level = drawn
        items = sorted({item for itemset in level for item in itemset} | {7})
        candidates = data.draw(
            st.lists(
                st.lists(st.sampled_from(items), min_size=k + 1, max_size=k + 1, unique=True).map(
                    lambda chosen: tuple(sorted(chosen))
                ),
                max_size=20,
            )
        ) if len(items) > k else []
        matrix = np.array(candidates, dtype=np.int64).reshape(len(candidates), k + 1)
        mask = has_infrequent_subset(matrix, CandidateLevel.from_tuples(level).items.reshape(-1, k))
        assert mask.tolist() == [has_infrequent_subset_tuples(c, level) for c in candidates]


#: probabilities on both sides of the dense crossover, dyadic and tiny ones
#: (``1e-200 * 1e-200`` underflows to an exact zero)
_PROBABILITIES = [1.0, 0.5, 0.25, 0.8, 0.3, 1e-200]


@st.composite
def databases(draw):
    """Small databases whose items range from rare to dense (skewed draws)."""
    skewed_items = [0, 0, 0, 0, 1, 1, 1, 2, 2, 3, 4, 5]
    records = draw(
        st.lists(
            st.dictionaries(
                st.sampled_from(skewed_items),
                st.sampled_from(_PROBABILITIES),
                max_size=5,
            ),
            max_size=40,
        )
    )
    return UncertainDatabase.from_records(records)


def _assert_levels_match_oracle(view, min_count):
    """Walk every level of ``view`` through ``batch_vectors``; check each column.

    A joined level's occupancy count is the number of rows where its
    parent's column is non-zero and its item occurs: at most the members'
    AND count (less where a parent product underflowed to zero) and at
    least the oracle column's length, so every kill is sound.
    """
    level = CandidateLevel.from_tuples([(item,) for item in view.items()])
    while len(level):
        joined = apriori_join(level)
        if not len(joined):
            return
        columns = view.batch_vectors(joined, min_count)
        positions, block = columns.positions, columns.block
        itemsets = joined.tuples()
        counts = view.level_occupancy_counts(joined)
        oracle = [view.itemset_column(itemset) for itemset in itemsets]
        assert (counts <= view.level_occupancy_counts(itemsets)).all()
        assert (counts >= [len(rows) for rows, _ in oracle]).all()
        expected = np.flatnonzero(counts >= min_count) if min_count > 0 else np.arange(len(joined))
        assert positions.tolist() == expected.tolist()
        assert len(block) == len(positions)
        vectors = list(columns)  # the tuple path's shape: one vector per candidate
        assert len(vectors) == len(joined)
        assert sum(len(vector) > 0 for vector in vectors) == np.count_nonzero(block.lengths)
        for row, position in enumerate(positions.tolist()):
            rows, probs = block.column(row)
            assert np.array_equal(rows, oracle[position][0]), itemsets[position]
            assert probs.tobytes() == oracle[position][1].tobytes(), itemsets[position]
        # every other survivor seeds the next level, carrying its columns
        keep = np.arange(0, len(positions), 2)
        level = joined.select(positions[keep], block.select(keep))


class TestBlockColumns:
    @given(databases(), st.sampled_from([0, 1, 2, 5]), st.booleans())
    @example(UncertainDatabase.from_records([{0: 1e-200, 1: 1e-200}] * 3), 1, False)
    @settings(max_examples=100, deadline=None)
    def test_block_columns_equal_the_oracle(self, database, min_count, small_chunks):
        # Small chunks cut every level into many kill and gather chunks.
        with mock.patch.multiple(
            columnar,
            OCCUPANCY_CHUNK_BYTES=16 if small_chunks else columnar.OCCUPANCY_CHUNK_BYTES,
            GATHER_CHUNK_BYTES=24 if small_chunks else columnar.GATHER_CHUNK_BYTES,
        ):
            _assert_levels_match_oracle(ColumnarView(database), min_count)
            n = len(database)
            _assert_levels_match_oracle(database.columnar().slice_rows(n // 3, n), min_count)

    @given(databases(), st.sampled_from([0, 2]))
    @settings(max_examples=25, deadline=None)
    def test_store_mapped_views(self, database, min_count):
        with tempfile.TemporaryDirectory() as directory:
            store = ColumnarStore.save(database, directory)
            _assert_levels_match_oracle(store.view(), min_count)
            n = len(database)
            _assert_levels_match_oracle(store.view(n // 4, n), min_count)

    def test_lineage_free_seed_of_pairs(self):
        # A level of pairs without columns builds its parent block itself.
        database = make_random_database(n_transactions=30, n_items=6, density=0.6, seed=4)
        view = ColumnarView(database)
        pairs = CandidateLevel.from_tuples(list(combinations(view.items(), 2)))
        joined = apriori_join(pairs)
        columns = view.batch_vectors(joined, 2)
        positions, block = columns.positions, columns.block
        for row, position in enumerate(positions.tolist()):
            oracle = view.itemset_column(joined.tuples()[position])
            assert block.column(row)[1].tobytes() == oracle[1].tobytes()

    def test_zero_probability_units_are_refused(self):
        view = ColumnarView.from_columns(
            {0: (np.array([0, 1]), np.array([0.5, 0.5])), 1: (np.array([0, 1]), np.array([0.5, 0.0]))},
            2,
        )
        with pytest.raises(ValueError, match="zero probability"):
            view.batch_vectors(apriori_join(CandidateLevel.from_tuples([(0,), (1,)])))

    def test_dense_and_sparse_items_in_one_level(self):
        # Item 0 is in every row (dense), item 3 in one row in ten.
        records = [
            {0: 0.5, 1: 0.75, 3: 0.25} if row % 10 == 0 else {0: 0.5, 2: 0.125}
            for row in range(100)
        ]
        _assert_levels_match_oracle(ColumnarView(UncertainDatabase.from_records(records)), 0)


    def test_sparse_items_are_never_made_dense(self):
        # At N = 200,000 a dense column is 1.6 MB.  Only item 5 reaches the
        # dense crossover; pairs of sparse items meet by sorted lookups in
        # both directions (the shorter operand probing), and a three-item
        # level gathers from a block of pairs.
        n = 200_000
        rng = np.random.default_rng(3)
        lengths = {1: 9_000, 2: 300, 3: 2_000, 4: 40, 5: 60_000}
        pool = rng.choice(n, size=12_000, replace=False)
        columns = {}
        for item, length in lengths.items():
            rows = np.sort(rng.choice(n, size=length, replace=False) if item == 5 else pool[:length])
            columns[item] = (rows, rng.uniform(0.05, 1.0, size=length))
        view = ColumnarView.from_columns(columns, n)
        probed = []
        gather_sparse = ColumnarView._gather_sparse

        def recording(self, *args):
            probed.append(args[-1])
            return gather_sparse(self, *args)

        with mock.patch.object(ColumnarView, "_gather_sparse", recording):
            _assert_levels_match_oracle(view, 0)
        assert set(probed) == {True, False}
        assert list(view._dense_columns.keys()) == [5]


class TestPrefixReuse:
    def test_second_mine_hits_every_cached_parent(self):
        database = make_random_database(n_transactions=120, n_items=10, density=0.5, seed=5)
        view = database.columnar()
        first = mine(database, algorithm="uapriori", min_esup=0.05)
        cache = view._prefix_cache
        cached = set(cache.keys())
        assert cached
        for key in cached:
            entry = cache.peek(key)
            arrays = (entry.items, *entry.block.arrays())
            assert all(array.base is None for array in arrays)  # owns its bytes
            assert entry.payload_nbytes == sum(array.nbytes for array in arrays)
        assert cache.nbytes == sum(cache.peek(key).payload_nbytes for key in cached)

        looked_up = []
        get = ByteBudgetLRU.get

        def recording_get(lru, key):
            value = get(lru, key)
            if lru is cache:
                looked_up.append((key, value is not None))
            return value

        with mock.patch.object(ByteBudgetLRU, "get", recording_get), mock.patch.object(
            ColumnarView, "_gather", side_effect=AssertionError("gathered again")
        ):
            second = mine(database, algorithm="uapriori", min_esup=0.05)
        hits = {key for key, hit in looked_up if hit}
        assert hits == cached
        assert [(r.itemset, r.expected_support) for r in second] == [
            (r.itemset, r.expected_support) for r in first.itemsets
        ]

    def test_served_and_gathered_parents_in_one_call(self):
        database = make_random_database(n_transactions=60, n_items=6, density=0.5, seed=2)
        view = ColumnarView(database)
        view.batch_columns([(0, 1), (0, 2)])  # caches parent (0,)
        hits = view._prefix_cache.hits
        candidates = [(0, 1), (0, 2), (1, 2), (1, 3)]
        columns = view.batch_columns(candidates)
        assert view._prefix_cache.hits == hits + 1  # (0,) served, (1,) gathered
        for candidate, (rows, probs) in zip(candidates, columns):
            oracle = view.itemset_column(candidate)
            assert np.array_equal(rows, oracle[0]) and probs.tobytes() == oracle[1].tobytes()

    def test_lower_threshold_gathers_only_the_new_children(self):
        database = make_random_database(n_transactions=80, n_items=8, density=0.5, seed=9)
        view = database.columnar()
        mine(database, algorithm="uapriori", min_esup=0.1)
        lower = mine(database, algorithm="uapriori", min_esup=0.04)
        fresh = mine(
            UncertainDatabase.from_records(
                [dict(t.units) for t in database]
            ),
            algorithm="uapriori",
            min_esup=0.04,
        )
        assert [(r.itemset, r.expected_support) for r in lower] == [
            (r.itemset, r.expected_support) for r in fresh.itemsets
        ]
        assert view._prefix_cache.hits > 0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_join_of_every_k_subset_is_every_k_plus_one_subset(k):
    items = list(range(7))
    level = CandidateLevel.from_tuples(list(combinations(items, k)))
    joined = LevelwiseSearch._apriori_candidates(level)
    assert joined.tuples() == list(combinations(items, k + 1))
