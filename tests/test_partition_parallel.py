"""Partition-parallel engine: shard-merge exactness across every miner.

The contract pinned here is deliberately stronger than "numerically close":
a mining run with any ``(workers, shards)`` configuration must return
*byte-identical* frequent itemsets, expected supports, variances and tail
probabilities to the serial columnar path, because

* per-shard compressed vectors concatenate to the serial vectors bitwise
  (per-transaction products are row-local),
* candidate-chunked DP/DC tails run the identical serial kernels per chunk,
* item statistics and moments are always derived with the serial reductions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.miner import mine
from repro.core.parallel import (
    ParallelExecutor,
    even_chunks,
    resolve_shards,
    resolve_workers,
)
from repro.core.registry import algorithm_names, get_algorithm
from repro.core.support import (
    SupportEngine,
    frequent_probabilities_dp_batch,
    pack_probability_matrix,
)
from repro.db.partition import shard_bounds

from helpers import make_random_database

EXPECTED_MINERS = ["uapriori", "uh-mine", "ufp-growth"]
PROBABILISTIC_MINERS = [
    "dpb",
    "dpnb",
    "dcb",
    "dcnb",
    "pdu-apriori",
    "ndu-apriori",
    "nduh-mine",
    "world-sampling",
]

#: (workers, shards) configurations exercised against the serial reference:
#: in-process shards, a pool over one unsplit shard (chunked exact tails
#: only), one shard per worker and more shards than workers
PARALLEL_CONFIGS = [(1, 3), (2, 1), (2, 2), (2, 4)]


@pytest.fixture(params=["paper_db", "dense_random_db", "sparse_random_db"])
def any_db(request):
    if request.param == "dense_random_db":
        return make_random_database(n_transactions=40, n_items=6, density=0.8, seed=31)
    if request.param == "sparse_random_db":
        return make_random_database(n_transactions=60, n_items=12, density=0.15, seed=32)
    return request.getfixturevalue(request.param)


def _assert_byte_identical(parallel, serial):
    assert parallel.itemset_keys() == serial.itemset_keys()
    for record in parallel:
        reference = serial[record.itemset]
        assert record.expected_support == reference.expected_support
        assert record.variance == reference.variance
        assert record.frequent_probability == reference.frequent_probability


class TestRegistryCoverage:
    def test_every_registered_algorithm_is_covered(self):
        assert set(EXPECTED_MINERS + PROBABILISTIC_MINERS) == set(algorithm_names())

    def test_all_factories_accept_workers_and_shards(self):
        for name in algorithm_names():
            miner = get_algorithm(name).factory(workers=2, shards=3)
            assert miner.workers == 2
            assert miner.shards == 3


class TestMinersByteIdentical:
    @pytest.mark.parametrize("algorithm", EXPECTED_MINERS)
    @pytest.mark.parametrize("workers,shards", PARALLEL_CONFIGS)
    def test_expected_miners(self, any_db, algorithm, workers, shards):
        serial = mine(any_db, algorithm=algorithm, min_esup=0.2)
        parallel = mine(
            any_db, algorithm=algorithm, min_esup=0.2, workers=workers, shards=shards
        )
        _assert_byte_identical(parallel, serial)

    @pytest.mark.parametrize("algorithm", PROBABILISTIC_MINERS)
    @pytest.mark.parametrize("workers,shards", PARALLEL_CONFIGS)
    def test_probabilistic_miners(self, any_db, algorithm, workers, shards):
        serial = mine(any_db, algorithm=algorithm, min_sup=0.3, pft=0.7)
        parallel = mine(
            any_db,
            algorithm=algorithm,
            min_sup=0.3,
            pft=0.7,
            workers=workers,
            shards=shards,
        )
        _assert_byte_identical(parallel, serial)

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_randomized_databases_exact_miners(self, seed):
        database = make_random_database(
            n_transactions=50, n_items=7, density=0.5, seed=seed
        )
        for algorithm in ("dpb", "dcnb"):
            serial = mine(database, algorithm=algorithm, min_sup=0.25, pft=0.6)
            parallel = mine(
                database,
                algorithm=algorithm,
                min_sup=0.25,
                pft=0.6,
                workers=2,
                shards=3,
            )
            _assert_byte_identical(parallel, serial)


class TestPartition:
    def test_shard_bounds_cover_rows_without_overlap(self):
        for n, k in [(10, 3), (7, 7), (5, 9), (0, 4), (100, 1)]:
            bounds = shard_bounds(n, k)
            assert bounds[0][0] == 0
            assert bounds[-1][1] == n
            for (_, stop), (start, _) in zip(bounds, bounds[1:]):
                assert stop == start
            assert all(stop >= start for start, stop in bounds)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shard_vectors_concatenate_bitwise(self, workers):
        database = make_random_database(n_transactions=45, n_items=8, seed=41)
        view = database.columnar()
        partition = database.partition(4)
        candidates = [(0,), (1, 2), (0, 1, 3), (5, 6)]
        full = view.batch_vectors(candidates)
        with ParallelExecutor(workers, shard_views=partition.shards) as executor:
            merged = executor.shard_vectors(candidates)
        for reference, vector in zip(full, merged):
            assert np.array_equal(reference, vector)

    def test_partition_is_cached_per_shard_count(self):
        database = make_random_database(seed=43)
        assert database.partition(2) is database.partition(2)
        assert database.partition(2) is not database.partition(3)

    def test_slice_rows_rejects_bad_ranges(self):
        view = make_random_database(seed=44).columnar()
        with pytest.raises(ValueError):
            view.slice_rows(-1, 2)
        with pytest.raises(ValueError):
            view.slice_rows(5, 2)
        with pytest.raises(ValueError):
            view.slice_rows(0, len(view) + 1)


class TestParallelExecutor:
    def test_chunked_dp_tails_bitwise_identical(self):
        database = make_random_database(n_transactions=50, n_items=6, seed=61)
        vectors = database.columnar().batch_vectors([(0,), (1,), (0, 1), (2, 3)])
        serial = frequent_probabilities_dp_batch(pack_probability_matrix(vectors), 6)
        with ParallelExecutor(workers=2) as executor:
            assert np.array_equal(executor.dp_tails(vectors, 6), serial)

    def test_chunked_dc_tails_bitwise_identical(self):
        database = make_random_database(n_transactions=50, n_items=6, seed=62)
        vectors = database.columnar().batch_vectors([(0,), (1,), (0, 1), (2, 3)])
        serial = SupportEngine(vectors).frequent_probabilities(
            6, method="divide_conquer"
        )
        with ParallelExecutor(workers=2) as executor:
            assert np.array_equal(executor.dc_tails(vectors, 6), serial)

    def test_engine_delegates_to_executor(self):
        database = make_random_database(n_transactions=30, n_items=5, seed=63)
        vectors = database.columnar().batch_vectors([(0,), (1,), (2,)])
        serial = SupportEngine(vectors).frequent_probabilities(4)
        with ParallelExecutor(workers=2) as executor:
            delegated = SupportEngine(vectors, executor=executor).frequent_probabilities(4)
        assert np.array_equal(delegated, serial)

    def test_shard_vectors_requires_shards(self):
        with ParallelExecutor(workers=1) as executor:
            with pytest.raises(RuntimeError):
                executor.shard_vectors([(0,)])

    def test_even_chunks_preserve_order(self):
        items = list(range(11))
        chunks = even_chunks(items, 3)
        assert [item for chunk in chunks for item in chunk] == items
        assert max(len(c) for c in chunks) - min(len(c) for c in chunks) <= 1
        assert even_chunks([], 4) == []


class TestResolution:
    def test_resolve_workers_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_PLAN", raising=False)
        assert resolve_workers(None) == 1
        monkeypatch.setenv("REPRO_PLAN", "workers=3")
        assert resolve_workers(None) == 3
        assert resolve_workers(2) == 2  # explicit beats env
        monkeypatch.setenv("REPRO_PLAN", "workers=auto")
        assert resolve_workers(None) >= 1

    def test_resolve_workers_zero_means_cpu_count(self):
        assert resolve_workers(0) >= 1

    def test_resolve_workers_rejects_negative(self):
        with pytest.raises(ValueError):
            resolve_workers(-2)

    def test_resolve_shards_defaults_to_workers(self, monkeypatch):
        monkeypatch.delenv("REPRO_PLAN", raising=False)
        assert resolve_shards(None, workers=4) == 4
        monkeypatch.setenv("REPRO_PLAN", "shards=6")
        assert resolve_shards(None, workers=2) == 6
        assert resolve_shards(3, workers=2) == 3
        with pytest.raises(ValueError):
            resolve_shards(0, workers=2)

    def test_env_vars_reach_the_miners(self, monkeypatch):
        monkeypatch.setenv("REPRO_PLAN", "workers=2,shards=3")
        miner = get_algorithm("uapriori").factory()
        assert miner.workers == 2
        assert miner.shards == 3

    def test_statistics_record_parallel_configuration(self):
        database = make_random_database(seed=71)
        result = mine(database, algorithm="uapriori", min_esup=0.3, workers=1, shards=2)
        assert result.statistics.notes["workers"] == 1.0
        assert result.statistics.notes["shards"] == 2.0


class TestExecutorLifecycle:
    """A mid-mine exception must not leak (or block on) a live worker pool."""

    def test_exception_terminates_pool(self):
        executor = ParallelExecutor(workers=2)
        with pytest.raises(RuntimeError):
            with executor:
                executor._ensure_pool()
                assert executor._pool is not None
                raise RuntimeError("mid-mine failure")
        assert executor._pool is None

    def test_clean_exit_closes_pool(self):
        with ParallelExecutor(workers=2) as executor:
            executor._ensure_pool()
            assert executor._pool is not None
        assert executor._pool is None

    def test_terminate_and_close_are_idempotent(self):
        executor = ParallelExecutor(workers=2)
        executor._ensure_pool()
        executor.terminate()
        executor.terminate()
        executor.close()
        assert executor._pool is None

    def test_failing_miner_does_not_leak_pool_processes(self, monkeypatch):
        import multiprocessing

        from repro.algorithms.uapriori import UApriori
        from repro.core.search import ExpectedSupportKernel

        database = make_random_database(n_transactions=24, n_items=5, seed=71)

        def explode(*args, **kwargs):
            raise RuntimeError("evaluator blew up mid-mine")

        miner = UApriori(workers=2, shards=2)
        monkeypatch.setattr(ExpectedSupportKernel, "evaluate", explode)
        with pytest.raises(RuntimeError):
            miner.mine(database, min_esup=0.1)
        # The executor context manager tore the pool down on the error path.
        for process in multiprocessing.active_children():
            process.join(timeout=5)
        assert not multiprocessing.active_children()
