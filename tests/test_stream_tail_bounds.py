"""Streaming exact tails stay in ``[0, 1]`` and under their sound bounds.

Far above a candidate's mean a tail is tiny, and round-off in how it is
computed could push it above the truth by many orders of magnitude.  Every
tail the index serves must stay at or below the candidate's Markov and
Chernoff bounds on its root expected support, exactly like the batch
tails.
"""

import random

import pytest

from repro.core.support import chernoff_upper_bound, markov_upper_bound
from repro.stream import StreamingDP, StreamingTopK, TransactionStream
from repro.stream import index as stream_index

WINDOW = 600


def skewed_records(n, seed):
    """Many low-probability units (high occupancy, low esup) plus a few strong items."""
    rng = random.Random(seed)
    records = []
    for _ in range(n):
        row = {item: rng.uniform(0.02, 0.12) for item in range(6) if rng.random() < 0.9}
        row.update(
            {item: rng.uniform(0.3, 1.0) for item in range(6, 9) if rng.random() < 0.35}
        )
        records.append(row)
    return records


@pytest.fixture
def served_tails(monkeypatch):
    """Record every tail the index serves with its candidates' root esup."""
    served = []
    original = stream_index.IncrementalSupportIndex.frequent_probabilities

    def recording(self, candidates, min_count):
        tails = original(self, candidates, min_count)
        served.append((int(min_count), self.expected_supports(candidates), tails))
        return tails

    monkeypatch.setattr(
        stream_index.IncrementalSupportIndex, "frequent_probabilities", recording
    )
    return served


def _assert_within_bounds(served):
    checked = 0
    for min_count, expected, tails in served:
        for esup, tail in zip(expected.tolist(), tails.tolist()):
            bound = min(
                markov_upper_bound(esup, min_count),
                chernoff_upper_bound(esup, min_count),
            )
            assert 0.0 <= tail <= bound, (min_count, esup, tail, bound)
            checked += 1
    assert checked >= 20


@pytest.mark.parametrize("seed", [5, 6])
def test_streaming_dp_tails_respect_bounds(served_tails, seed):
    stream = TransactionStream.from_records(skewed_records(WINDOW + 80, seed))
    miner = StreamingDP(
        WINDOW, min_sup=0.2, pft=0.5, use_pruning=False, item_prefilter=False
    )
    miner.advance(stream, WINDOW)
    assert sum(1 for _ in miner.results(stream, step=40, max_slides=2)) == 2
    _assert_within_bounds(served_tails)


def test_streaming_topk_dp_tails_respect_bounds(served_tails):
    stream = TransactionStream.from_records(skewed_records(WINDOW + 80, 7))
    miner = StreamingTopK(WINDOW, 40, evaluator="dp", min_sup=0.2, use_pruning=False)
    miner.advance(stream, WINDOW)
    assert sum(1 for _ in miner.results(stream, step=40, max_slides=2)) == 2
    _assert_within_bounds(served_tails)
