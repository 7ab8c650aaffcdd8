"""Chaos suite: the stack under deterministic, seeded fault injection.

Pins the PR-10 resilience contract end to end:

* fault plans parse, fire deterministically, and activate through every
  tier (install > plan scope > ``REPRO_FAULTS``),
* a SIGKILLed pool worker never loses a batch: the executor rebuilds the
  pool, resubmits, and returns results **bitwise identical** to a
  fault-free run — with zero leaked pools or ``/dev/shm`` segments,
* dropped and truncated service connections surface as typed
  ``connection-lost`` errors that the retrying client transparently
  absorbs for idempotent ops,
* a corrupted store plane is *detected* (checksums), *reported*
  (``verify`` / ``corrupt-dataset``) and — when the spec names a
  ``source`` — *repaired* by a transparent rebuild,
* an eviction storm degrades to cold rebuilds, never to errors,
* the combined acceptance scenario (one worker kill + one dropped
  connection + one corrupted plane in one seeded plan) ends with every
  request answered bitwise-equal to fault-free or failed structurally.
"""

from __future__ import annotations

import glob
import threading
import time

import numpy as np
import pytest

from repro import faults
from repro.core.miner import mine
from repro.core.parallel import ParallelExecutor, live_pool_count, pool_restart_count
from repro.db.store import STORE_VERIFY_ENV, ColumnarStore, StoreError
from repro.db.store import _OPEN_STORES
from repro.faults import FaultInjector, FaultPlan
from repro.plan import plan_scope
from repro.service import (
    DatasetRegistry,
    MiningClient,
    MiningServer,
    ServiceError,
    record_keys,
)
from repro.service.protocol import decode_records

from helpers import make_random_database


def _shm_segments() -> set:
    return set(glob.glob("/dev/shm/repro_*"))


@pytest.fixture(autouse=True)
def _no_leftover_faults():
    """Every test starts and ends fault-free (plans never leak across tests)."""
    faults.clear_faults()
    yield
    faults.clear_faults()


@pytest.fixture()
def database():
    return make_random_database(n_transactions=60, n_items=8, density=0.45, seed=17)


def _inline_spec(database) -> dict:
    return {
        "kind": "inline",
        "records": [
            [[item, probability] for item, probability in sorted(t.units.items())]
            for t in database.transactions
        ],
    }


class TestFaultPlanParsing:
    def test_sites_seed_and_latency(self):
        plan = FaultPlan.parse(
            "seed=9, worker-crash=@1+3, socket-drop=0.25, latency-seconds=0.5"
        )
        assert plan.seed == 9
        assert plan.latency_seconds == 0.5
        assert plan.rules["worker-crash"].probes == frozenset({1, 3})
        assert plan.rules["socket-drop"].rate == 0.25

    def test_semicolon_and_shorthand(self):
        plan = FaultPlan.parse("seed=2;socket-drop@2;store-corrupt@1")
        assert plan.seed == 2
        assert plan.rules["socket-drop"].probes == frozenset({2})
        assert plan.rules["store-corrupt"].probes == frozenset({1})

    def test_empty_spec_is_empty_plan(self):
        assert FaultPlan.parse("").is_empty()
        assert FaultPlan.parse("seed=4").is_empty()
        assert not FaultPlan.parse("socket-drop=1.0").is_empty()

    @pytest.mark.parametrize(
        "spec",
        [
            "teleport=1",
            "socket-drop=2.0",
            "socket-drop=-0.5",
            "socket-drop=@0",
            "socket-drop=@x",
            "worker-crash",
            "latency-seconds=-1",
        ],
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)


class TestDeterminism:
    def test_probe_indices_fire_exactly(self):
        injector = FaultInjector(FaultPlan.parse("worker-crash=@2+4"))
        fired = [injector.probe("worker-crash") for _ in range(5)]
        assert fired == [False, True, False, True, False]
        assert injector.counters()["worker-crash"] == {"probes": 5, "fired": 2}

    def test_rate_schedule_is_reproducible(self):
        first = FaultInjector(FaultPlan.parse("seed=5,socket-drop=0.3"))
        second = FaultInjector(FaultPlan.parse("seed=5,socket-drop=0.3"))
        schedule = [first.probe("socket-drop") for _ in range(200)]
        assert schedule == [second.probe("socket-drop") for _ in range(200)]
        # a 30% rate fires on roughly 30% of probes, never 0% or 100%
        assert 0 < sum(schedule) < 200

    def test_rate_schedule_depends_on_seed(self):
        one = FaultInjector(FaultPlan.parse("seed=1,socket-drop=0.5"))
        two = FaultInjector(FaultPlan.parse("seed=2,socket-drop=0.5"))
        assert [one.probe("socket-drop") for _ in range(200)] != [
            two.probe("socket-drop") for _ in range(200)
        ]

    def test_unknown_site_probe_rejected(self):
        injector = FaultInjector(FaultPlan.parse("seed=1"))
        with pytest.raises(ValueError):
            injector.probe("teleport")


class TestActivation:
    def test_no_plan_means_no_fire(self):
        assert faults.active_injector() is None
        assert faults.fire("worker-crash") is False
        assert faults.fault_counters() == {}

    def test_install_and_clear(self):
        injector = faults.install_faults("socket-drop=1.0")
        assert faults.active_injector() is injector
        assert faults.fire("socket-drop") is True
        faults.clear_faults()
        assert faults.active_injector() is None

    def test_faults_active_context(self):
        with faults.faults_active("worker-crash=@1") as injector:
            assert faults.fire("worker-crash") is True
            assert injector.total_fired() == 1
        assert faults.active_injector() is None

    def test_env_resolution_keeps_counters_per_spec(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "seed=3,socket-drop=@1")
        assert faults.fire("socket-drop") is True
        assert faults.fire("socket-drop") is False
        counters = faults.fault_counters()
        assert counters["socket-drop"] == {"probes": 2, "fired": 1}

    def test_plan_scope_carries_faults_knob(self):
        with plan_scope("faults=seed=1;socket-truncate@1"):
            injector = faults.active_injector()
            assert injector is not None
            assert injector.plan.rules["socket-truncate"].probes == frozenset({1})
        assert faults.active_injector() is None

    def test_disable_in_process(self, monkeypatch):
        faults.install_faults("socket-drop=1.0")
        monkeypatch.setattr(faults, "_DISABLED", True)
        assert faults.active_injector() is None
        assert faults.fire("socket-drop") is False


class TestWorkerCrashRecovery:
    def _vectors(self, seed=21):
        database = make_random_database(n_transactions=50, n_items=6, seed=seed)
        return database.columnar().batch_vectors([(0,), (1,), (0, 1), (2, 3)])

    def test_killed_worker_recovers_bitwise(self):
        vectors = self._vectors()
        with ParallelExecutor(workers=2) as executor:
            golden = executor.dp_tails(vectors, 6)
        shm_before = _shm_segments()
        restarts_before = pool_restart_count()
        with faults.faults_active("worker-crash=@1"):
            with ParallelExecutor(workers=2) as executor:
                recovered = executor.dp_tails(vectors, 6)
                assert executor.pool_restarts >= 1
        assert np.array_equal(recovered, golden)
        assert pool_restart_count() > restarts_before
        assert live_pool_count() == 0
        assert _shm_segments() == shm_before

    def test_killed_worker_recovers_shard_fanout(self):
        database = make_random_database(n_transactions=40, n_items=6, seed=23)
        partition = database.partition(2)
        candidates = [(0,), (1,), (0, 1)]
        with ParallelExecutor(workers=2, shard_views=partition.shards) as executor:
            golden = executor.shard_vectors(candidates)
        shm_before = _shm_segments()
        with faults.faults_active("worker-crash=@1"):
            with ParallelExecutor(
                workers=2, shard_views=partition.shards
            ) as executor:
                recovered = executor.shard_vectors(candidates)
                assert executor.pool_restarts >= 1
        for left, right in zip(golden, recovered):
            assert np.array_equal(left, right)
        assert live_pool_count() == 0
        assert _shm_segments() == shm_before

    def test_sustained_crashes_bounded_and_clean(self):
        """A worker killed on *every* batch either still completes (the
        batch finished on survivors) or fails loudly after the bounded
        rebuild budget — never a hang, never a leaked pool or segment."""
        vectors = self._vectors(seed=29)
        shm_before = _shm_segments()
        with faults.faults_active("worker-crash=1.0"):
            executor = ParallelExecutor(workers=2)
            try:
                executor.dp_tails(vectors, 6)
            except RuntimeError as error:
                assert "worker pool" in str(error)
            finally:
                executor.close()
        assert live_pool_count() == 0
        assert _shm_segments() == shm_before

    def test_task_latency_fires_and_counts(self):
        vectors = self._vectors(seed=31)
        with faults.faults_active(
            "task-latency=@1,latency-seconds=0.01"
        ) as injector:
            with ParallelExecutor(workers=2) as executor:
                executor.dp_tails(vectors, 6)
            assert injector.counters()["task-latency"]["fired"] == 1


class TestMiningUnderFaults:
    def test_mine_is_bitwise_identical_under_crash(self, database):
        # min_esup=0.2 keeps the search alive past level 1, so the miner
        # actually fans out to the pool the crash site lives in
        golden = mine(database, algorithm="uapriori", min_esup=0.2, workers=2, shards=2)
        with faults.faults_active("worker-crash=@1") as injector:
            chaotic = mine(
                database, algorithm="uapriori", min_esup=0.2, workers=2, shards=2
            )
            assert injector.counters()["worker-crash"]["fired"] == 1
        assert record_keys(chaotic.itemsets) == record_keys(golden.itemsets)
        assert live_pool_count() == 0


class TestSocketFaults:
    def test_dropped_reply_is_retried_bitwise(self, database):
        golden = mine(database, algorithm="uapriori", min_esup=0.3)
        # the register below goes straight to the registry (no socket), so
        # the mine reply is the drop site's first probe
        with faults.faults_active("seed=7;socket-drop@1"):
            with MiningServer(max_workers=2) as server:
                server.registry.register("d", _inline_spec(database))
                with MiningClient(*server.address, jitter_seconds=0.0) as client:
                    reply = client.mine(
                        "d", algorithm="uapriori", min_esup=0.3, limit=None
                    )
                    assert client.retries_performed >= 1
        assert record_keys(decode_records(reply["itemsets"])) == record_keys(
            golden.itemsets
        )

    def test_truncated_reply_is_retried(self):
        with faults.faults_active("socket-truncate=@1"):
            with MiningServer(max_workers=2) as server:
                with MiningClient(*server.address, jitter_seconds=0.0) as client:
                    assert client.ping()["pong"] is True
                    assert client.retries_performed >= 1

    def test_without_retries_loss_is_typed(self):
        with faults.faults_active("socket-drop=@1"):
            with MiningServer(max_workers=2) as server:
                with MiningClient(*server.address, retries=0) as client:
                    with pytest.raises(ServiceError) as excinfo:
                        client.ping()
        assert excinfo.value.type == "connection-lost"

    def test_non_idempotent_op_is_not_retried(self, database):
        with faults.faults_active("socket-drop=@1"):
            with MiningServer(max_workers=2) as server:
                with MiningClient(*server.address, jitter_seconds=0.0) as client:
                    with pytest.raises(ServiceError) as excinfo:
                        client.register("d", **_inline_spec(database))
        assert excinfo.value.type == "connection-lost"
        assert client.retries_performed == 0


class TestStoreIntegrity:
    def test_manifest_carries_checksums_and_verifies(self, database, tmp_path):
        store = ColumnarStore.save(database, str(tmp_path / "store"))
        report = store.verify()
        assert report["ok"]
        assert set(report["planes"]) == {"rows", "probs"}
        for entry in report["planes"].values():
            assert entry["ok"] and "expected" in entry

    def test_corruption_is_detected_and_self_inverse(self, database, tmp_path):
        directory = str(tmp_path / "store")
        store = ColumnarStore.save(database, directory)
        path, offset = faults.corrupt_store_plane(directory, "probs", seed=4)
        report = store.verify()
        assert not report["ok"]
        assert not report["planes"]["probs"]["ok"]
        assert report["planes"]["rows"]["ok"]
        with pytest.raises(StoreError, match="probs"):
            store.verify(strict=True)
        # the XOR flip is self-inverse: corrupting again restores the plane
        same_path, same_offset = faults.corrupt_store_plane(directory, "probs", seed=4)
        assert (same_path, same_offset) == (path, offset)
        assert store.verify()["ok"]

    def test_verify_on_open_env(self, database, tmp_path, monkeypatch):
        directory = str(tmp_path / "store")
        ColumnarStore.save(database, directory)
        faults.corrupt_store_plane(directory, "rows", seed=1)
        _OPEN_STORES.clear()  # a fresh open, not the cached pre-corruption one
        monkeypatch.setenv(STORE_VERIFY_ENV, "on")
        with pytest.raises(StoreError, match="rows"):
            ColumnarStore.open(directory)

    def test_registry_rebuilds_store_from_source(self, database, tmp_path):
        directory = str(tmp_path / "store")
        ColumnarStore.save(database, directory)
        faults.corrupt_store_plane(directory, "probs", seed=2)
        registry = DatasetRegistry()
        handle = registry.register(
            "d",
            {
                "kind": "store",
                "directory": directory,
                "source": _inline_spec(database),
            },
        )
        assert handle.n_transactions == len(database)
        assert registry.store_rebuilds == 1
        assert ColumnarStore.open(directory).verify()["ok"]
        # the rebuilt store answers bitwise like the original database
        _, rebuilt = registry.checkout("d")
        golden = mine(database, algorithm="uapriori", min_esup=0.3)
        chaotic = mine(rebuilt, algorithm="uapriori", min_esup=0.3)
        assert record_keys(chaotic.itemsets) == record_keys(golden.itemsets)

    def test_corrupt_store_without_source_is_structured(self, database, tmp_path):
        directory = str(tmp_path / "store")
        ColumnarStore.save(database, directory)
        faults.corrupt_store_plane(directory, "probs", seed=2)
        registry = DatasetRegistry()
        with pytest.raises(ServiceError) as excinfo:
            registry.register("d", {"kind": "store", "directory": directory})
        assert excinfo.value.type == "corrupt-dataset"

    def test_store_corrupt_site_fires_on_open(self, database, tmp_path):
        directory = str(tmp_path / "store")
        ColumnarStore.save(database, directory)
        with faults.faults_active("seed=6;store-corrupt@1") as injector:
            _OPEN_STORES.clear()
            store = ColumnarStore.open(directory)
            assert injector.counters()["store-corrupt"]["fired"] == 1
            assert not store.verify()["ok"]


class TestRegistryEvictStorm:
    def test_storm_degrades_to_cold_rebuilds(self, database):
        registry = DatasetRegistry()
        registry.register("d", _inline_spec(database))
        golden_handle, golden_db = registry.checkout("d")
        with faults.faults_active("registry-evict=1.0"):
            for _ in range(3):
                handle, rebuilt = registry.checkout("d")
                assert handle.revision == golden_handle.revision
                assert len(rebuilt) == len(golden_db)
        assert registry.fault_evictions == 3
        assert registry.rebuilds >= 3
        described = registry.describe()
        assert described["fault_evictions"] == 3


class TestOverloadAndHealth:
    def test_overloaded_carries_retry_after_hint(self, database):
        with MiningServer(max_workers=1, max_queue=0, use_cache=False) as server:
            server.registry.register("d", _inline_spec(database))
            blocker = MiningClient(*server.address, timeout_seconds=30.0)
            barrier = threading.Event()

            def hold_the_slot():
                barrier.set()
                blocker.ping(delay_seconds=1.0)

            thread = threading.Thread(target=hold_the_slot)
            thread.start()
            barrier.wait()
            time.sleep(0.1)  # let the slow ping occupy the only worker
            try:
                with MiningClient(*server.address, retries=0) as client:
                    with pytest.raises(ServiceError) as excinfo:
                        client.ping(delay_seconds=0.5)
                assert excinfo.value.type == "overloaded"
                assert excinfo.value.retry_after_seconds > 0
                # a retrying client rides the hint to eventual success
                with MiningClient(
                    *server.address, retries=20, jitter_seconds=0.0
                ) as client:
                    assert client.ping(delay_seconds=0.01)["pong"] is True
            finally:
                thread.join()
                blocker.close()

    def test_health_reports_gauges_and_counters(self, database):
        with faults.faults_active("seed=1;socket-drop=0.0"):
            with MiningServer(max_workers=2, max_queue=2) as server:
                server.registry.register("d", _inline_spec(database))
                with MiningClient(*server.address) as client:
                    health = client.health()
                    stats = client.stats()
        assert health["status"] == "ok"
        assert health["queue_depth"] == 0
        for key in (
            "in_flight",
            "pool_restarts",
            "live_pools",
            "cache_evictions",
            "fault_evictions",
            "store_rebuilds",
            "faults",
        ):
            assert key in health
        assert "pool_restarts" in stats and "faults" in stats
        assert "socket-drop" in health["faults"]


class TestCombinedAcceptance:
    """The ISSUE acceptance scenario: one seeded plan combining a worker
    kill, a dropped connection and a corrupted store plane.  Every client
    request either succeeds bitwise-equal to the fault-free answer or
    fails with a structured ServiceError — no hangs, no silent wrong
    answers, no leaked pools or shared-memory segments."""

    def test_combined_faults_end_to_end(self, database, tmp_path):
        directory = str(tmp_path / "store")
        ColumnarStore.save(database, directory)
        golden = mine(
            database, algorithm="uapriori", min_esup=0.2, workers=2, shards=2
        )
        shm_before = _shm_segments()
        spec = "seed=11;worker-crash@1;socket-drop@2;store-corrupt@1"
        with faults.faults_active(spec) as injector:
            _OPEN_STORES.clear()
            with MiningServer(max_workers=2, use_cache=False) as server:
                with MiningClient(
                    *server.address, jitter_seconds=0.0, timeout_seconds=60.0
                ) as client:
                    # register: store-corrupt fires at open; the registry
                    # detects the bad checksum and rebuilds from source
                    client.register(
                        "d",
                        kind="store",
                        directory=directory,
                        source=_inline_spec(database),
                    )
                    # mine: worker-crash kills a pool worker (recovered by a
                    # pool rebuild), socket-drop eats the reply (recovered
                    # by a client retry)
                    reply = client.mine(
                        "d",
                        algorithm="uapriori",
                        min_esup=0.2,
                        workers=2,
                        shards=2,
                        limit=None,
                    )
                    assert client.retries_performed >= 1
                    health = client.health()
            counters = injector.counters()
        assert record_keys(decode_records(reply["itemsets"])) == record_keys(
            golden.itemsets
        )
        assert counters["store-corrupt"]["fired"] == 1
        assert counters["socket-drop"]["fired"] == 1
        assert counters["worker-crash"]["fired"] == 1
        assert health["store_rebuilds"] == 1
        assert health["pool_restarts"] >= 1
        assert live_pool_count() == 0
        assert _shm_segments() == shm_before
        # the repaired store still verifies clean after the dust settles
        assert ColumnarStore.open(directory).verify()["ok"]
