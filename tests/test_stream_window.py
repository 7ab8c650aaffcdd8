"""Unit tests of the streaming ingest layer and the incremental support index."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import UncertainDatabase
from repro.stream import (
    IncrementalSupportIndex,
    SlidingWindow,
    StreamingDP,
    StreamingTopK,
    TransactionStream,
)

from reference import exact_frequent_probability


def make_stream(records):
    return TransactionStream.from_records(records)


class TestTransactionStream:
    def test_stamps_monotonic_sequence_ids(self):
        stream = make_stream([{1: 0.5}, {2: 1.0}, {3: 0.25}])
        assert [t.tid for t in stream] == [0, 1, 2]

    def test_replays_database_and_discards_original_tids(self):
        database = UncertainDatabase.from_records([{1: 0.5}, {2: 0.25}])
        stream = TransactionStream.from_database(database)
        replayed = stream.take(5)
        assert [t.tid for t in replayed] == [0, 1]
        assert [dict(t.units) for t in replayed] == [{1: 0.5}, {2: 0.25}]

    def test_take_stops_at_exhaustion(self):
        stream = make_stream([{1: 1.0}])
        assert len(stream.take(3)) == 1
        assert stream.take(3) == []


class TestSlidingWindow:
    def test_fills_then_evicts_slot_stably(self):
        window = SlidingWindow(capacity=3)
        stream = make_stream([{i: 1.0} for i in range(5)])
        changes = window.slide(stream, 3)
        assert [slot for slot, _, _ in changes] == [0, 1, 2]
        assert [t.tid for t in window.transactions()] == [0, 1, 2]

        changes = window.slide(stream, 2)
        # Sequences 3 and 4 land in slots 0 and 1, evicting 0 and 1.
        assert [(slot, old.tid, new.tid) for slot, old, new in changes] == [
            (0, 0, 3),
            (1, 1, 4),
        ]
        assert [t.tid for t in window.transactions()] == [2, 3, 4]

    def test_partial_fill_length_and_contents(self):
        window = SlidingWindow(capacity=4)
        window.slide(make_stream([{1: 0.5}, {2: 0.5}]), 4)
        assert len(window) == 2
        contents = window.contents()
        assert len(contents) == 2
        assert [t.tid for t in contents] == [0, 1]

    def test_item_counts_follow_evictions(self):
        window = SlidingWindow(capacity=2)
        stream = make_stream([{1: 0.5}, {1: 0.5, 2: 0.5}, {3: 1.0}])
        window.slide(stream, 2)
        assert window.active_items() == [1, 2]
        assert window.item_count(1) == 2
        window.slide(stream, 1)  # evicts the first {1} transaction
        assert window.active_items() == [1, 2, 3]
        assert window.item_count(1) == 1

    def test_contents_is_minable_database(self):
        window = SlidingWindow(capacity=3)
        window.slide(make_stream([{1: 0.5}, {1: 1.0}, {1: 0.25}]), 3)
        database = window.contents()
        assert database.expected_support((1,)) == pytest.approx(1.75)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SlidingWindow(0)
        window = SlidingWindow(2)
        with pytest.raises(ValueError):
            window.slide(make_stream([]), 0)

    def test_rejects_reiterable_sources(self):
        # A list restarts from its first record on every iteration, so
        # "stream exhausted" would never be reached; slide() demands a
        # single-pass iterator (wrap re-iterables in TransactionStream).
        window = SlidingWindow(2)
        with pytest.raises(TypeError):
            window.slide([{1: 1.0}], 1)
        assert len(window.slide(make_stream([{1: 1.0}]), 1)) == 1


class TestIncrementalSupportIndex:
    def test_moments_match_database_reductions(self):
        records = [{1: 0.5, 2: 0.8}, {1: 1.0}, {2: 0.4}, {1: 0.2, 2: 0.9}]
        index = IncrementalSupportIndex(capacity=4)
        index.ensure([(1,), (2,), (1, 2)])
        index.apply(list(enumerate(records)))
        database = UncertainDatabase.from_records(records)
        for candidate in [(1,), (2,), (1, 2)]:
            assert index.expected_supports([candidate])[0] == pytest.approx(
                database.expected_support(candidate)
            )
            assert index.variances([candidate])[0] == pytest.approx(
                database.support_variance(candidate)
            )
        assert index.max_supports([(1, 2)])[0] == 2

    def test_eviction_updates_statistics(self):
        index = IncrementalSupportIndex(capacity=2)
        index.ensure([(7,)])
        index.apply([(0, {7: 0.5}), (1, {7: 0.25})])
        assert index.expected_supports([(7,)])[0] == pytest.approx(0.75)
        index.apply([(0, {8: 1.0})])
        assert index.expected_supports([(7,)])[0] == pytest.approx(0.25)
        assert index.max_supports([(7,)])[0] == 1

    def test_pmf_tail_matches_exact_dp(self):
        from repro.core.support import frequent_probability_dynamic_programming

        probabilities = [0.5, 0.25, 0.75, 1.0, 0.125]
        index = IncrementalSupportIndex(capacity=5, with_pmfs=True)
        index.ensure([(1,)])
        index.apply([(slot, {1: p}) for slot, p in enumerate(probabilities)])
        for min_count in range(7):
            expected = frequent_probability_dynamic_programming(
                probabilities, min_count
            )
            assert index.frequent_probabilities([(1,)], min_count)[0] == pytest.approx(
                expected, abs=1e-12
            )

    def test_registration_backfills_from_resident_slots(self):
        index = IncrementalSupportIndex(capacity=3)
        index.apply([(0, {1: 0.5}), (1, {1: 0.5, 2: 1.0})])
        index.ensure([(1, 2)])
        assert index.expected_supports([(1, 2)])[0] == pytest.approx(0.5)

    def test_incremental_equals_rebuild_bitwise(self):
        rng = random.Random(5)
        capacity, n_items = 37, 6
        index = IncrementalSupportIndex(capacity, with_pmfs=True)
        candidates = [(i,) for i in range(n_items)] + [(0, 1), (2, 3), (1, 4, 5)]
        index.ensure(candidates)

        def random_units():
            return {
                item: rng.uniform(0.01, 1.0)
                for item in range(n_items)
                if rng.random() < 0.6
            }

        sequence = 0
        for _ in range(40):
            step = rng.randrange(1, 9)
            index.apply(
                [((sequence + i) % capacity, random_units()) for i in range(step)]
            )
            sequence += step

        fresh = IncrementalSupportIndex(capacity, with_pmfs=True)
        fresh.apply(
            [
                (slot, units)
                for slot, units in enumerate(index.slot_units())
                if units is not None
            ]
        )
        fresh.ensure(candidates)
        assert np.array_equal(
            index.expected_supports(candidates), fresh.expected_supports(candidates)
        )
        assert np.array_equal(
            index.variances(candidates), fresh.variances(candidates)
        )
        assert np.array_equal(
            index.max_supports(candidates), fresh.max_supports(candidates)
        )
        # Two-stack tails depend on where the last flip fell, so both
        # indexes answer to the DP reference of the resident slots.
        for min_count in (1, 5, 12, 20):
            expected = _reference_tails(index.slot_units(), candidates, min_count)
            for built in (index, fresh):
                assert np.allclose(
                    built.frequent_probabilities(candidates, min_count),
                    expected,
                    rtol=0.0,
                    atol=1e-12,
                )

    def test_dirty_path_is_logarithmic(self):
        index = IncrementalSupportIndex(capacity=64, track_variance=False, track_nonzero=False)
        index.ensure([(1,)])
        index.apply([(slot, {1: 0.5}) for slot in range(64)])
        before = index.node_merges
        index.apply([(0, {1: 0.25})])
        # One changed leaf dirties exactly one ancestor per level.
        assert index.node_merges - before == 6  # log2(64)

    def test_retain_drops_and_reregisters(self):
        index = IncrementalSupportIndex(capacity=4)
        index.apply([(0, {1: 0.5})])
        index.ensure([(1,), (2,)])
        assert index.retain([(1,)]) == 1
        assert (2,) not in index
        with pytest.raises(KeyError):
            index.expected_supports([(2,)])
        index.ensure([(2,)])
        assert index.expected_supports([(2,)])[0] == 0.0

    def test_untracked_statistics_raise(self):
        index = IncrementalSupportIndex(
            capacity=4, track_variance=False, track_nonzero=False
        )
        index.ensure([(1,)])
        with pytest.raises(ValueError):
            index.variances([(1,)])
        with pytest.raises(ValueError):
            index.max_supports([(1,)])

    def test_compaction_preserves_statistics_bitwise(self):
        rng = random.Random(3)
        index = IncrementalSupportIndex(capacity=16, with_pmfs=True)
        index.apply(
            [
                (slot, {i: rng.uniform(0.1, 1.0) for i in range(4)})
                for slot in range(16)
            ]
        )
        keep = [(0,), (1,)]
        extra = [(2,), (3,), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        index.ensure(keep + extra)
        before_expected = index.expected_supports(keep)
        before_tails = index.frequent_probabilities(keep, 4)
        index.retain(keep)  # triggers compaction (most columns freed)
        assert np.array_equal(index.expected_supports(keep), before_expected)
        assert np.array_equal(index.frequent_probabilities(keep, 4), before_tails)


def _reference_tails(slot_units, candidates, min_count):
    """``Pr[sup >= min_count]`` of each candidate over the occupied slots."""
    tails = []
    for candidate in candidates:
        probabilities = []
        for units in slot_units:
            if units is None:
                continue
            probability = 1.0
            for item in candidate:
                probability *= units.get(item, 0.0)
            probabilities.append(probability)
        tails.append(exact_frequent_probability(np.array(probabilities), min_count))
    return np.array(tails)


CANDIDATES = [(0,), (1,), (0, 1)]

#: occurrence probabilities, with the edge values drawn often
PROBABILITIES = st.one_of(
    st.sampled_from([0.0, 1.0, 1e-200, 0.5]),
    st.floats(min_value=0.0, max_value=1.0),
)

UNITS = st.dictionaries(st.sampled_from([0, 1]), PROBABILITIES)

#: the ``min_count`` of a query, relative to the states' cap
QUERIES = st.sampled_from(["zero", "below", "cap", "above", "beyond"])

#: one window operation: a FIFO slide of ``step`` arrivals, a clear, or an
#: overwrite of an arbitrary slot (both not first-in-first-out)
OPERATIONS = st.one_of(
    st.tuples(st.just("slide"), st.integers(min_value=1, max_value=64)),
    st.tuples(st.just("clear"), st.integers(min_value=0, max_value=10**6)),
    st.tuples(st.just("overwrite"), st.integers(min_value=0, max_value=10**6)),
)


class TestTwoStackTails:
    """The two stacks of DP states against the exact PMF of the resident slots."""

    @settings(max_examples=80, deadline=None)
    @given(
        capacity=st.sampled_from([1, 2, 37, 200]),
        operations=st.lists(OPERATIONS, min_size=1, max_size=12),
        units=st.lists(UNITS, min_size=16, max_size=16),
        queries=st.lists(QUERIES, min_size=12, max_size=12),
    )
    def test_tails_match_the_exact_pmf(self, capacity, operations, units, queries):
        index = IncrementalSupportIndex(capacity)
        sequence = 0
        for position, (kind, value) in enumerate(operations):
            row = units[position % len(units)]
            if kind == "slide":
                # Steps cross the kept-state spacing and, up to 64 rows,
                # the window itself (then some rows arrive and leave in
                # one slide).
                changes = [
                    ((sequence + offset) % capacity, units[(sequence + offset) % len(units)])
                    for offset in range(value)
                ]
                sequence += value
            else:
                changes = [(value % capacity, None if kind == "clear" else row)]
            index.apply(changes)
            width = index._width
            min_count = {
                "zero": 0,
                "below": max(1, width // 2),
                "cap": width,
                "above": width + 1,  # rebuilds the states
                "beyond": capacity + 1,
            }[queries[position]]
            expected = _reference_tails(index.slot_units(), CANDIDATES, min_count)
            tails = index.frequent_probabilities(CANDIDATES, min_count)
            assert np.allclose(tails, expected, rtol=0.0, atol=1e-12), (
                min_count,
                tails,
                expected,
            )
            assert np.all(tails >= 0.0)

    def test_evictions_step_down_from_kept_states(self):
        # W = 37 keeps a front state every 7 rows; slides of 3 leave the
        # oldest resident row between kept states on most slides.
        rng = random.Random(8)
        capacity, step = 37, 3
        index = IncrementalSupportIndex(capacity, with_pmfs=True)
        index.ensure(CANDIDATES)
        for sequence in range(0, 4 * capacity, step):
            index.apply(
                [
                    ((sequence + i) % capacity, {0: rng.random(), 1: rng.random()})
                    for i in range(step)
                ]
            )
            assert np.allclose(
                index.frequent_probabilities(CANDIDATES, 12),
                _reference_tails(index.slot_units(), CANDIDATES, 12),
                rtol=0.0,
                atol=1e-12,
            )
        assert index.flips >= 3

    def test_tails_follow_both_column_compactions(self):
        # Dropping moment-only candidates renumbers the moment columns under
        # live PMF columns; dropping PMF candidates renumbers the PMF
        # columns.  The PMF leaves must follow both renumberings.
        rng = random.Random(12)
        capacity, items = 30, range(6)
        index = IncrementalSupportIndex(capacity)

        def fill(start):
            index.apply(
                [
                    (
                        (start + slot) % capacity,
                        {i: rng.uniform(0.1, 1.0) for i in items if rng.random() < 0.8},
                    )
                    for slot in range(7)
                ]
            )

        def assert_exact(candidates):
            for min_count in (1, 5, 12):
                assert np.allclose(
                    index.frequent_probabilities(candidates, min_count),
                    _reference_tails(index.slot_units(), candidates, min_count),
                    rtol=0.0,
                    atol=1e-12,
                )

        fill(0)
        tracked = [(i,) for i in items] + list(itertools.combinations(items, 2))
        index.ensure(list(itertools.combinations(items, 3)))
        index.ensure_pmfs(tracked)
        index.retain(tracked)  # frees 20 of 41 moment columns: compacts them
        assert index._n_allocated == len(tracked)
        assert_exact(tracked)
        fill(7)
        index.retain_pmfs(CANDIDATES)  # frees 18 of 21 PMF columns: compacts them
        assert index._pmf_allocated == len(CANDIDATES)
        assert_exact(CANDIDATES)
        fill(14)
        assert_exact(CANDIDATES)

    def test_spectral_era_inputs_match_the_exact_pmf(self):
        # The capacity-200 random slides that once pinned the spectral PMF
        # levels, now against the exact PMF after every slide.
        rng = random.Random(11)
        capacity = 200
        index = IncrementalSupportIndex(capacity, with_pmfs=True)
        index.ensure(CANDIDATES)
        sequence = 0
        for _ in range(15):
            step = rng.randrange(3, 20)
            index.apply(
                [
                    (
                        (sequence + i) % capacity,
                        {
                            item: rng.uniform(0.01, 1.0)
                            for item in range(2)
                            if rng.random() < 0.7
                        },
                    )
                    for i in range(step)
                ]
            )
            sequence += step
            for min_count in (1, 30, 80, 140):
                assert np.allclose(
                    index.frequent_probabilities(CANDIDATES, min_count),
                    _reference_tails(index.slot_units(), CANDIDATES, min_count),
                    rtol=0.0,
                    atol=1e-12,
                )

    def test_full_window_slides_flip_once_per_turnover(self):
        capacity, step = 40, 8
        rng = random.Random(4)
        records = [
            {item: rng.uniform(0.2, 1.0) for item in range(3) if rng.random() < 0.8}
            for _ in range(capacity + 4 * capacity)
        ]
        stream = TransactionStream.from_records(records)
        miner = StreamingDP(capacity, min_sup=0.3, pft=0.5)
        miner.advance(stream, capacity)
        notes = [
            result.statistics.notes
            for result in miner.results(stream, step, max_slides=4 * capacity // step)
        ]
        flips = [int(note["flips"]) for note in notes]
        turnover = capacity // step
        assert len(flips) == 4 * turnover
        assert all(
            sum(flips[start : start + turnover]) == 1
            for start in range(len(flips) - turnover + 1)
        )
        assert all(note["tail_steps"] > 0 for note in notes)

    def test_adopted_wrapped_window_slides_first_in_first_out(self):
        # The miner back-fills an adopted window oldest first, so slides
        # after a wrap still evict the index's oldest row.
        rng = random.Random(6)
        stream = TransactionStream.from_records(
            [{0: rng.uniform(0.3, 1.0), 1: rng.uniform(0.3, 1.0)} for _ in range(53)]
        )
        window = SlidingWindow(capacity=10)
        window.slide(stream, 23)
        miner = StreamingDP(window, min_sup=0.3, pft=0.5)
        flips = [
            int(result.statistics.notes["flips"])
            for result in miner.results(stream, 2, max_slides=15)
        ]
        assert all(sum(flips[start : start + 5]) == 1 for start in range(11))

    @pytest.mark.parametrize("evaluator", ["esup", "dp"])
    def test_topk_slides_report_tail_work_only_for_exact_tails(self, evaluator):
        stream = TransactionStream.from_records(
            [{0: 0.5, 1: 0.75}, {0: 1.0}, {1: 0.25}, {0: 0.5, 1: 0.5}] * 8
        )
        miner = StreamingTopK(8, 3, evaluator=evaluator, min_sup=0.25)
        notes = [
            result.statistics.notes
            for result in miner.results(stream, 4, max_slides=6)
        ]
        reported = [("tail_steps" in note, "flips" in note) for note in notes]
        assert reported == [(evaluator == "dp",) * 2] * 6
        if evaluator == "dp":
            assert sum(note["flips"] for note in notes) >= 1

    def test_non_fifo_apply_flips_at_the_next_query(self):
        capacity = 16
        index = IncrementalSupportIndex(capacity, with_pmfs=True)
        index.ensure(CANDIDATES)
        index.apply([(slot, {0: 0.5, 1: 0.25}) for slot in range(capacity)])
        index.frequent_probabilities(CANDIDATES, 4)
        index.apply([(0, {0: 0.75})])  # FIFO: evicts the oldest row
        index.frequent_probabilities(CANDIDATES, 4)
        flips = index.flips
        index.apply([(7, {1: 1.0})])  # overwrites a row in the middle
        assert index.flips == flips
        tails = index.frequent_probabilities(CANDIDATES, 4)
        assert index.flips == flips + 1
        assert np.allclose(
            tails,
            _reference_tails(index.slot_units(), CANDIDATES, 4),
            rtol=0.0,
            atol=1e-12,
        )
