"""Peak-allocation behaviour of the batched DP path.

The engine's batched evaluations are fed zeros-omitted vectors, and the DP
sweep keeps them in one ragged, step-major buffer of their total length:
its transient must follow the sum of the vector lengths — never the dense
``(candidates, N)`` float64 matrix, and not the padded
``(candidates, max_nnz)`` one either, which one long vector would blow up
— and nothing it builds may stay pinned on the engine for the rest of the
mining run.  These are the regression pins for those properties (plus the
bitwise equality of padded and per-vector DP, which the ragged sweep
relies on: a padded zero is an identity step).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.support import (
    SupportEngine,
    frequent_probabilities_dp_batch,
    frequent_probability_dynamic_programming,
    pack_probability_matrix,
)
from repro.db import UncertainDatabase


N_TRANSACTIONS = 4000
NNZ_PER_CANDIDATE = 40
N_CANDIDATES = 50


@pytest.fixture
def sparse_vectors():
    rng = np.random.default_rng(17)
    return [
        rng.uniform(0.1, 1.0, size=NNZ_PER_CANDIDATE) for _ in range(N_CANDIDATES)
    ]


def test_packed_matrix_width_is_max_nnz_not_database_size(sparse_vectors):
    engine = SupportEngine(sparse_vectors)
    assert engine.matrix.shape == (N_CANDIDATES, NNZ_PER_CANDIDATE)


def test_dp_from_packed_equals_per_vector_dp(sparse_vectors):
    min_count = 8
    batched = frequent_probabilities_dp_batch(
        pack_probability_matrix(sparse_vectors), min_count
    )
    for vector, probability in zip(sparse_vectors, batched):
        assert probability == frequent_probability_dynamic_programming(
            vector, min_count
        )


def test_dp_path_does_not_pin_the_padded_matrix(sparse_vectors):
    engine = SupportEngine(sparse_vectors)
    engine.frequent_probabilities(8, method="dynamic_programming")
    # The sweep never builds the padded matrix; the engine cache stays
    # empty until a caller explicitly asks for the ``matrix`` property.
    assert engine._matrix is None
    assert engine.matrix is not None  # the property still materialises it


def test_dp_level_peak_allocation_tracks_nnz_not_database_width(sparse_vectors):
    dense_cost = N_CANDIDATES * N_TRANSACTIONS * 8  # the dense (C, N) matrix
    engine = SupportEngine(sparse_vectors)
    tracemalloc.start()
    tracemalloc.reset_peak()
    engine.frequent_probabilities(8, method="dynamic_programming")
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # Every vector holds max_nnz (40) entries, so the whole evaluation
    # should peak far below one dense row-aligned matrix; the 40x headroom
    # over the packed cost keeps the pin robust to interpreter noise.
    packed_cost = N_CANDIDATES * NNZ_PER_CANDIDATE * 8
    assert peak < min(dense_cost / 10, packed_cost * 40), (peak, dense_cost)


def test_dp_sweep_peak_follows_total_length_not_padded_width():
    # 49 short vectors and one long one: padding would cost
    # 50 * long_length * 8 bytes; the ragged buffer holds their total length.
    long_length = 10_000
    rng = np.random.default_rng(29)
    vectors = [rng.uniform(0.1, 1.0, size=NNZ_PER_CANDIDATE) for _ in range(49)]
    vectors.append(rng.uniform(0.1, 1.0, size=long_length))
    ragged_cost = sum(len(vector) for vector in vectors) * 8
    padded_cost = len(vectors) * long_length * 8
    tracemalloc.start()
    tracemalloc.reset_peak()
    probabilities = SupportEngine(vectors).frequent_probabilities(8)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 8 * ragged_cost < padded_cost / 4, (peak, ragged_cost, padded_cost)
    assert probabilities[-1] == frequent_probability_dynamic_programming(vectors[-1], 8)


def test_mining_dp_on_sparse_database_stays_compressed():
    # End to end: a sparse database whose columns hold ~2% of the rows each.
    rng = np.random.default_rng(23)
    records = []
    for _ in range(N_TRANSACTIONS):
        units = {
            int(item): float(rng.uniform(0.3, 1.0))
            for item in rng.choice(12, size=rng.integers(0, 2), replace=False)
        }
        records.append(units)
    database = UncertainDatabase.from_records(records)
    from repro.core.miner import mine

    tracemalloc.start()
    tracemalloc.reset_peak()
    result = mine(database, algorithm="dpb", min_sup=0.001, pft=0.5)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert len(result) >= 1
    dense_level_cost = 12 * N_TRANSACTIONS * 8  # one dense row per item
    assert peak < dense_level_cost, (peak, dense_level_cost)
