"""Level-at-a-time candidate blocks: array join and prune, block columns, reuse.

* the array join and prune of :mod:`repro.algorithms.common` against the
  frozen tuple join and subset check of ``tests/reference.py``;
* :meth:`ColumnarView.batch_vectors` over joined levels against the
  ``itemset_column`` oracle, bit for bit: kills, ``min_count`` 0, both sides
  of the dense crossover, products that underflow to zero, chunked kills
  and gathers, column-built and store-mapped views;
* the compiled kill and gather against their NumPy references, and the
  kill against the tuple candidates' bitmaps;
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

from repro import datasets, mine
from repro.algorithms.common import apriori_join, has_infrequent_subset
from repro.core import kernels
from repro.core.search import CandidateLevel, LevelwiseSearch
from repro.db import UncertainDatabase, columnar
from repro.db.cache import ByteBudgetLRU
from repro.db.columnar import ColumnBlock, ColumnarView
from repro.db.store import ColumnarStore

from helpers import column_built_view, make_random_database
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
            _assert_levels_match_oracle(column_built_view(database), min_count)

    @given(databases(), st.sampled_from([0, 2]))
    @settings(max_examples=25, deadline=None)
    def test_store_mapped_views(self, database, min_count):
        with tempfile.TemporaryDirectory() as directory:
            store = ColumnarStore.save(database, directory)
            _assert_levels_match_oracle(store.view(), min_count)

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

    @pytest.mark.parametrize("compiled", [True, False])
    def test_zero_probability_units_are_refused(self, compiled, monkeypatch):
        if compiled and kernels.library() is None:
            pytest.skip("no compiled kernels")
        if not compiled:
            monkeypatch.setattr(kernels, "_library", None)
        dense = {0: (np.array([0, 1]), np.array([0.5, 0.5])), 1: (np.array([0, 1]), np.array([0.5, 0.0]))}
        # item 1 is sparse: in 10 of 100 rows, one unit stored at 0.0
        sparse = {
            0: (np.arange(100), np.full(100, 0.5)),
            1: (np.arange(0, 100, 10), np.array([0.5] * 9 + [0.0])),
        }
        for columns, n in ((dense, 2), (sparse, 100)):
            view = ColumnarView.from_columns(columns, n)
            with pytest.raises(ValueError, match="zero probability"):
                view.batch_vectors(apriori_join(CandidateLevel.from_tuples([(0,), (1,)])))
            with pytest.raises(ValueError, match="zero probability"):
                view.batch_columns([(0, 1)])

    @pytest.mark.parametrize("compiled", [True, False])
    def test_itemset_column_refuses_stored_zeros_like_the_gathers(self, compiled, monkeypatch):
        if compiled and kernels.library() is None:
            pytest.skip("no compiled kernels")
        if not compiled:
            monkeypatch.setattr(kernels, "_library", None)
        every_row = (np.arange(100), np.full(100, 0.5))
        sparse_zero = (np.arange(0, 100, 10), np.array([0.5] * 3 + [0.0] + [0.5] * 6))
        dense_zero = (np.arange(100), np.array([0.5] * 99 + [0.0]))
        for zero in (sparse_zero, dense_zero):
            # The zero on the item side, then on the parent (running) side.
            for columns in ({0: every_row, 1: zero}, {0: zero, 1: every_row}):
                view = ColumnarView.from_columns(columns, 100)
                level = apriori_join(CandidateLevel.from_tuples([(0,), (1,)]))
                with pytest.raises(ValueError, match="zero probability"):
                    view.batch_vectors(level)
                with pytest.raises(ValueError, match="zero probability"):
                    view.batch_columns([(0, 1)])
                for itemset in ((0, 1), (1, 0)):
                    with pytest.raises(ValueError, match="zero probability"):
                        view.itemset_column(itemset)
                    with pytest.raises(ValueError, match="zero probability"):
                        view.expected_support(itemset)

    def test_itemset_column_still_drops_underflowed_products(self):
        # 5e-324 * 0.5 rounds to an exact zero: a product, not a stored zero.
        columns = {
            0: (np.array([0, 1, 2]), np.array([5e-324, 0.5, 0.25])),
            1: (np.array([0, 1, 2]), np.array([0.5, 0.5, 0.5])),
        }
        view = ColumnarView.from_columns(columns, 3)
        for itemset in ((0, 1), (1, 0)):
            rows, probs = view.itemset_column(itemset)
            assert rows.tolist() == [1, 2] and probs.tolist() == [0.25, 0.125]

    def test_dense_and_sparse_items_in_one_level(self):
        # Item 0 is in every row (dense), item 3 in one row in ten.
        records = [
            {0: 0.5, 1: 0.75, 3: 0.25} if row % 10 == 0 else {0: 0.5, 2: 0.125}
            for row in range(100)
        ]
        _assert_levels_match_oracle(ColumnarView(UncertainDatabase.from_records(records)), 0)


    def test_sparse_items_are_never_made_dense(self, numpy_kernels):
        # The NumPy gather's structure (the compiled gather makes no dense
        # column at all).  At N = 200,000 a dense column is 1.6 MB.  Only
        # item 5 reaches the dense crossover; pairs of sparse items meet by
        # sorted lookups in both directions (the shorter operand probing),
        # and a three-item level gathers from a block of pairs.
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


def _on_numpy(function, *args):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_library", None)
        return function(*args)


def _same_block(left, right) -> bool:
    return all(
        a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for a, b in zip(left.arrays(), right.arrays())
    )


#: occupancy fractions from empty to full, so that spans differ in length by
#: more than 8x in either direction (galloping) or not at all
_DENSITIES = [0.0, 0.01, 0.03, 0.2, 0.5, 0.9, 1.0]


@st.composite
def gather_cases(draw):
    """A view, a parent block and candidates ``(parent, item)`` to gather."""
    n = draw(st.integers(min_value=1, max_value=300))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    values = np.array(_PROBABILITIES)

    def column(density):
        rows = np.flatnonzero(rng.uniform(size=n) < density)
        return rows, values[rng.integers(len(values), size=len(rows))]

    n_items = draw(st.integers(min_value=1, max_value=6))
    columns = {
        item: column(draw(st.sampled_from(_DENSITIES))) for item in range(n_items)
    }
    block = ColumnBlock.of(
        [column(draw(st.sampled_from(_DENSITIES))) for _ in range(draw(st.integers(1, 5)))]
    )
    pairs = sorted(
        draw(
            st.lists(
                st.tuples(
                    st.integers(0, len(block) - 1), st.integers(0, n_items - 1)
                ),
                min_size=1,
                max_size=12,
                unique=True,
            )
        )
    )
    parents, items = (np.array(values, dtype=np.int64) for values in zip(*pairs))
    return ColumnarView.from_columns(columns, n), block, parents, items


@pytest.mark.skipif(
    "sys.modules['repro.core.kernels'].library() is None",
    reason="no compiled kernels (no C compiler, or --numpy-kernels)",
)
class TestCompiledGather:
    """``kernels.gather`` against the NumPy dense and sparse gathers, bit for bit."""

    @given(gather_cases())
    @settings(max_examples=300, deadline=None)
    def test_gather_matches_numpy(self, case):
        # Empty parents and zero-hit survivors (count 0) are drawn at
        # density 0; 1e-200 * 1e-200 underflows and is dropped after both.
        view, block, parents, items = case
        compiled = view._gather(block, parents, items)
        reference = _on_numpy(view._gather, block, parents, items)
        assert _same_block(compiled, reference)

    def test_gallops_both_ways_and_merges_equal_lengths(self):
        n = 4000
        rows = np.arange(n)
        columns = {
            0: (rows, np.full(n, 0.5)),
            1: (rows[::500], np.full(8, 0.25)),
            2: (rows[::2], np.full(n // 2, 1e-200)),
        }
        view = ColumnarView.from_columns(columns, n)
        block = ColumnBlock.of([columns[1], columns[0], columns[2], view.column(9)])
        # short parent into a long item, long into short, equal lengths,
        # 1e-200 * 1e-200 (every product dropped), an empty parent
        parents = np.array([0, 1, 1, 2, 2, 3])
        items = np.array([0, 0, 1, 1, 2, 0])
        compiled = view._gather(block, parents, items)
        assert _same_block(compiled, _on_numpy(view._gather, block, parents, items))
        assert compiled.lengths.tolist() == [8, n, 8, 8, 0, 0]

    @given(databases(), st.sampled_from([0, 2]))
    @settings(max_examples=25, deadline=None)
    def test_levels_of_column_built_and_mapped_views(self, database, min_count):
        with tempfile.TemporaryDirectory() as directory:
            store = ColumnarStore.save(database, directory)
            makers = [
                lambda: ColumnarView(database),
                lambda: column_built_view(database),
                lambda: store.view(),
            ]
            for make in makers:
                self._assert_levels_equal(make(), _on_numpy(make), min_count)

    @staticmethod
    def _assert_levels_equal(view, reference_view, min_count):
        level = CandidateLevel.from_tuples([(item,) for item in view.items()])
        reference = level
        while len(level):
            level, reference = apriori_join(level), apriori_join(reference)
            columns = view.batch_vectors(level, min_count)
            expected = _on_numpy(reference_view.batch_vectors, reference, min_count)
            assert columns.positions.tolist() == expected.positions.tolist()
            assert _same_block(columns.block, expected.block)
            level = level.select(columns.positions, columns.block)
            reference = reference.select(expected.positions, expected.block)

    @given(databases(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_candidate_lists(self, database, data):
        items = ColumnarView(database).items()
        candidates = data.draw(
            st.lists(
                st.lists(st.sampled_from(items), min_size=1, max_size=4, unique=True).map(
                    lambda chosen: tuple(sorted(chosen))
                ),
                max_size=15,
            )
        ) if items else []
        compiled = ColumnarView(database).batch_columns(candidates)
        reference = _on_numpy(ColumnarView(database).batch_columns, candidates)
        for (rows, probs), (expected_rows, expected_probs) in zip(compiled, reference):
            assert rows.tobytes() == expected_rows.tobytes()
            assert probs.tobytes() == expected_probs.tobytes()

    def test_never_writes_past_a_candidates_places(self):
        rows, probs = np.arange(6), np.full(6, 0.5)
        spans = np.array([0]), np.array([6])
        out_rows, out_probs = np.full(10, -1), np.full(10, -1.0)
        # six hits, four places: the first failing candidate comes back
        failed = kernels.gather(
            rows, probs, *spans, rows, probs, *spans,
            out_rows, out_probs, np.array([2]), np.array([4]),
        )
        assert failed == 0
        assert out_rows[6:].tolist() == [-1] * 4 and out_rows[:2].tolist() == [-1] * 2

    def test_wrapper_refuses_bad_input_before_calling_c(self, monkeypatch):
        class Unreachable:
            def repro_gather(self, *args):
                raise AssertionError("called C")

        monkeypatch.setattr(kernels, "_library", Unreachable())
        rows, probs = np.arange(4), np.full(4, 0.5)
        one, four = np.array([0]), np.array([4])
        good = dict(
            parent_rows=rows, parent_probs=probs, parent_starts=one * 0, parent_ends=four,
            item_rows=rows, item_probs=probs, item_starts=one * 0, item_ends=four,
            out_rows=np.empty(4, dtype=np.int64), out_probs=np.empty(4),
            out_starts=one * 0, counts=four,
        )
        bad = [
            {"parent_ends": np.array([5])},  # past the end
            {"item_starts": np.array([-1])},  # before the start
            {"item_starts": np.array([3]), "item_ends": np.array([2])},  # reversed
            {"counts": np.array([5])},  # output places past the end
            {"parent_rows": rows.astype(np.int32)},  # not int64
            {"item_probs": probs.astype(np.float32)},  # not float64
            {"parent_rows": np.arange(8)[::2]},  # not contiguous
            {"out_starts": np.array([[0]])},  # not one-dimensional
            {"item_ends": np.array([4, 4])},  # one span too many
        ]
        for change in bad:
            with pytest.raises(ValueError):
                kernels.gather(**{**good, **change})
        frozen = np.empty(4)
        frozen.flags.writeable = False
        with pytest.raises(ValueError):
            kernels.gather(**{**good, "out_probs": frozen})


@st.composite
def kill_databases(draw):
    """Databases of 0-200 rows (padding bits in the last byte and word), items rare to full.

    ``tiny`` draws 1e-200 among the probabilities, whose products underflow
    to zero and leave a parent column shorter than its members' AND.
    """
    n = draw(st.one_of(st.sampled_from([0, 1, 7, 8, 9, 63, 64, 65, 129]), st.integers(0, 200)))
    tiny = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    values = np.array(_PROBABILITIES if tiny else _PROBABILITIES[:-1])
    records = [{} for _ in range(n)]
    for item in range(draw(st.integers(min_value=1, max_value=6))):
        density = draw(st.sampled_from(_DENSITIES))
        for row in np.flatnonzero(rng.uniform(size=n) < density).tolist():
            records[row][item] = float(values[rng.integers(len(values))])
    return UncertainDatabase.from_records(records), tiny


@pytest.mark.skipif(
    "sys.modules['repro.core.kernels'].library() is None",
    reason="no compiled kernels (no C compiler, or --numpy-kernels)",
)
class TestCompiledKill:
    """``kernels.child_counts`` against the NumPy kill and the tuple bitmaps, count for count."""

    @given(gather_cases())
    @example(
        (
            ColumnarView.from_columns({0: (np.array([5]), np.array([0.5]))}, 65),
            ColumnBlock.of([columnar._EMPTY_COLUMN, (np.array([64]), np.array([0.5])), (np.array([5]), np.array([1.0]))]),
            np.array([0, 1, 2]),
            np.array([0, 0, 0]),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_counts_match_numpy(self, case):
        # Empty parents at density 0, one-row ones at density .01, and
        # rows from 1 to 300, most not a multiple of 8 or 64.
        view, block, parents, items = case
        counts = view._child_counts(block, parents, items)
        assert counts.tolist() == _on_numpy(view._child_counts, block, parents, items).tolist()

    @given(kill_databases(), st.sampled_from([0, 1, 2]))
    @settings(max_examples=60, deadline=None)
    def test_levels_of_column_built_and_mapped_views(self, drawn, min_count):
        database, tiny = drawn
        with tempfile.TemporaryDirectory() as directory:
            store = ColumnarStore.save(database, directory)
            for view in (
                ColumnarView(database),
                column_built_view(database),
                store.view(),
            ):
                self._assert_level_counts(view, min_count, exact=not tiny)

    @staticmethod
    def _assert_level_counts(view, min_count, exact):
        """Every level's compiled counts: the NumPy kill's, and the tuple bitmaps' unless underflow."""
        level = CandidateLevel.from_tuples([(item,) for item in view.items()])
        while len(level):
            level = apriori_join(level)
            counts = view.level_occupancy_counts(level)
            assert counts.tolist() == _on_numpy(view.level_occupancy_counts, level).tolist()
            members = view.level_occupancy_counts(level.tuples())
            assert (counts == members).all() if exact else (counts <= members).all()
            columns = view.batch_vectors(level, min_count)
            level = level.select(columns.positions, columns.block)

    @pytest.mark.parametrize(
        "build, algorithm, params, mapped",
        [
            (lambda: datasets.make_t25i15d(n_transactions=3200, seed=11), "uapriori", {"min_esup": 0.02}, False),
            (lambda: datasets.make_accident(scale=0.01, seed=11), "dpnb", {"min_sup": 0.1, "pft": 0.9}, False),
            (lambda: datasets.make_kosarak(scale=0.003, seed=11), "uapriori", {"min_esup": 0.003}, True),
        ],
        ids=["t25i15d-uapriori", "accident-dpnb", "kosarak-store-uapriori"],
    )
    def test_every_level_of_the_benchmark_mines(self, build, algorithm, params, mapped, tmp_path):
        database = build()
        if mapped:
            database = ColumnarStore.save(database, str(tmp_path)).database()
        levels = []
        counts = ColumnarView.level_occupancy_counts

        def checked(view, candidates):
            compiled = counts(view, candidates)
            if isinstance(candidates, CandidateLevel) and candidates.parents is not None:
                levels.append(len(candidates))
                assert compiled.tolist() == _on_numpy(counts, view, candidates).tolist()
            return compiled

        with mock.patch.object(ColumnarView, "level_occupancy_counts", checked):
            mine(database, algorithm=algorithm, **params)
        assert len(levels) >= 2

    def test_a_stored_zero_is_counted_and_the_level_raises(self):
        # Item 1's unit in row 90 is stored at 0.0: its bit is set, so the
        # kill counts the row, the gather misses it, and the level raises.
        columns = {
            0: (np.arange(100), np.full(100, 0.5)),
            1: (np.arange(0, 100, 10), np.array([0.5] * 9 + [0.0])),
        }
        view = ColumnarView.from_columns(columns, 100)
        level = apriori_join(CandidateLevel.from_tuples([(0,), (1,)]))
        assert view.level_occupancy_counts(level).tolist() == [10]
        assert _on_numpy(view.level_occupancy_counts, level).tolist() == [10]
        with pytest.raises(ValueError, match="zero probability"):
            view.batch_vectors(level, 2)

    def test_a_gather_without_counts_spans_its_items_once(self, monkeypatch):
        # The kill and the merge of one gather share the items' spans, which
        # a view without units (one built from columns) builds by copying.
        columns = {0: (np.arange(0, 40, 2), np.full(20, 0.5)), 1: (np.arange(0, 40, 3), np.full(14, 0.25))}
        view = ColumnarView.from_columns(columns, 40)
        block = ColumnBlock.of([columns[0], columns[1]])
        parents, items = np.array([0, 0, 1]), np.array([0, 1, 1])
        expected = view._gather(block, parents, items, view._child_counts(block, parents, items))
        calls = []
        spans = view._item_spans
        monkeypatch.setattr(view, "_item_spans", lambda distinct: calls.append(1) or spans(distinct))
        assert _same_block(view._gather(block, parents, items), expected)
        assert len(calls) == 1

    def test_an_unsorted_span_with_a_row_out_of_range_raises_in_c(self):
        # The wrapper checks each span's first and last row; C checks the rest.
        rows = np.array([0, 9, 3])
        spans = np.array([0]), np.array([3])
        with pytest.raises(ValueError, match="outside"):
            kernels.child_counts(rows, *spans, np.array([0]), rows, *spans, np.array([0]), 4)

    def test_wrapper_refuses_bad_input_before_calling_c(self, monkeypatch):
        class Unreachable:
            def repro_child_counts(self, *args):
                raise AssertionError("called C")

        monkeypatch.setattr(kernels, "_library", Unreachable())
        rows, zero, four, pair = np.arange(4), np.array([0]), np.array([4]), np.array([0, 0])
        good = dict(
            parent_rows=rows, parent_starts=zero, parent_ends=four, parents=pair,
            item_rows=rows, item_starts=zero, item_ends=four, which=pair, n_rows=4,
        )
        bad = [
            {"parents": np.array([0, 1])},  # a parent past the spans
            {"parents": np.array([-1, 0])},  # a parent before them
            {"which": np.array([0, 1])},  # an item past the spans
            {"n_rows": 3},  # a last row past the rows
            {"item_rows": np.array([-1, 1, 2, 3])},  # a first row before them
            {"parent_ends": np.array([5])},  # a span past its rows
            {"item_starts": np.array([3]), "item_ends": np.array([2])},  # reversed
            {"item_ends": np.array([4, 4])},  # one end too many
            {"which": np.array([0])},  # one candidate short
            {"parent_rows": rows.astype(np.int32)},  # not int64
            {"which": pair.astype(np.uint64)},  # not int64
            {"item_rows": np.arange(8)[::2]},  # not contiguous
            {"parents": np.array([[0, 0]])},  # not one-dimensional
        ]
        for change in bad:
            with pytest.raises(ValueError):
                kernels.child_counts(**{**good, **change})


class TestPrefixReuse:
    """A view that keeps its levels (a served dataset's) serves a re-mine
    from the prefix LRU; a one-shot mine's levels never enter it."""

    def test_one_shot_mine_leaves_the_prefix_cache_empty(self):
        database = make_random_database(n_transactions=120, n_items=10, density=0.5, seed=5)
        view = database.columnar()
        with mock.patch.object(
            ColumnarView, "_children", side_effect=AssertionError("filled the LRU")
        ):
            result = mine(database, algorithm="uapriori", min_esup=0.05)
        assert max(len(record.itemset) for record in result) >= 2  # a joined level ran
        assert len(view._prefix_cache) == 0 and view._prefix_cache.nbytes == 0

    def test_second_mine_hits_every_cached_parent(self):
        database = make_random_database(n_transactions=120, n_items=10, density=0.5, seed=5)
        view = database.columnar()
        view.keep_level_columns()
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
        view.keep_level_columns()
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
