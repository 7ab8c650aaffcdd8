"""Unit tests of the streaming ingest layer and the incremental support index."""

import random

import numpy as np
import pytest

from repro.db import UncertainDatabase
from repro.stream import IncrementalSupportIndex, SlidingWindow, TransactionStream
from repro.stream import index as stream_index


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
        for min_count in (1, 5, 12, 20):
            assert np.array_equal(
                index.frequent_probabilities(candidates, min_count),
                fresh.frequent_probabilities(candidates, min_count),
            )

    def test_incremental_equals_rebuild_bitwise_with_fft_spectra(self, monkeypatch):
        # A capacity above the FFT cutoff exercises the frequency-domain
        # upper levels; incremental maintenance must still be bit-identical
        # to a from-scratch build of the same slot states.
        monkeypatch.setattr(stream_index, "DENSE_SPAN", 32)
        rng = random.Random(11)
        capacity = 200
        index = IncrementalSupportIndex(capacity, with_pmfs=True)
        assert index._pmf_spectra
        candidates = [(0,), (1,), (0, 1)]
        index.ensure(candidates)
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
        fresh = IncrementalSupportIndex(capacity, with_pmfs=True)
        fresh.apply(
            [
                (slot, units)
                for slot, units in enumerate(index.slot_units())
                if units is not None
            ]
        )
        fresh.ensure(candidates)
        for min_count in (1, 30, 80, 140):
            assert np.array_equal(
                index.frequent_probabilities(candidates, min_count),
                fresh.frequent_probabilities(candidates, min_count),
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
