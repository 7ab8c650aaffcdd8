"""Concurrency hardening: hammering, admission, timeouts, leaks, locking.

* an N-thread hammer mixing datasets and algorithms gets every reply
  byte-correct for *its* request (no cross-request result bleed),
* admission is bounded: with workers=1 and queue=1 a third concurrent
  request is rejected immediately with ``overloaded``,
* per-request timeouts produce a structured ``timeout`` reply,
* :class:`~repro.db.cache.ByteBudgetLRU` survives a multi-threaded
  hammer with exact byte accounting — the reentrancy regression test for
  the lock added alongside the service layer.
"""

from __future__ import annotations

import random
import threading
import time

import numpy as np
import pytest

from repro.core.miner import mine
from repro.db.cache import ByteBudgetLRU, _payload_nbytes
from repro.service import (
    MiningClient,
    MiningServer,
    ServiceError,
    decode_records,
    record_keys,
)

from helpers import make_random_database


def _inline_spec(database) -> dict:
    return {
        "kind": "inline",
        "records": [
            [[item, probability] for item, probability in sorted(t.units.items())]
            for t in database.transactions
        ],
    }


@pytest.fixture(scope="module")
def databases():
    # Disjoint item universes: any cross-request bleed is unmissable.
    low = make_random_database(n_transactions=30, n_items=5, density=0.5, seed=21)
    high_raw = make_random_database(n_transactions=25, n_items=5, density=0.6, seed=22)
    from repro.db import UncertainDatabase

    high = UncertainDatabase.from_records(
        [
            {item + 100: probability for item, probability in t.units.items()}
            for t in high_raw.transactions
        ],
        name="high",
    )
    return {"low": low, "high": high}


class TestHammer:
    def test_no_cross_request_bleed(self, databases):
        requests = [
            ("low", {"algorithm": "uapriori", "min_esup": 0.2}),
            ("low", {"algorithm": "dpb", "min_sup": 0.3, "pft": 0.5}),
            ("high", {"algorithm": "uapriori", "min_esup": 0.25}),
            ("high", {"algorithm": "pdu-apriori", "min_sup": 0.3, "pft": 0.6}),
        ]
        expected = {}
        for name, params in requests:
            database = databases[name]
            kwargs = {k: v for k, v in params.items() if k != "algorithm"}
            result = mine(database, algorithm=params["algorithm"], **kwargs)
            expected[(name, tuple(sorted(params.items())))] = record_keys(
                result.itemsets
            )

        failures = []
        with MiningServer(max_workers=4, max_queue=64) as server:
            for name, database in databases.items():
                server.registry.register(name, _inline_spec(database))
            host, port = server.address

            def hammer(seed: int) -> None:
                rng = random.Random(seed)
                try:
                    with MiningClient(host, port) as client:
                        for _ in range(12):
                            name, params = rng.choice(requests)
                            reply = client.mine(name, **params)
                            got = record_keys(decode_records(reply["itemsets"]))
                            want = expected[(name, tuple(sorted(params.items())))]
                            if got != want:
                                failures.append((name, params, reply["cache"]))
                except Exception as error:  # noqa: BLE001 - collected below
                    failures.append(("exception", repr(error), None))

            threads = [threading.Thread(target=hammer, args=(s,)) for s in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    def test_hammer_mixed_with_topk_and_errors(self, databases):
        failures = []
        expected_topk = record_keys(
            __import__("repro.core.topk", fromlist=["mine_topk"])
            .mine_topk(databases["low"], 5, algorithm="esup")
            .itemsets
        )
        with MiningServer(max_workers=4, max_queue=64) as server:
            server.registry.register("low", _inline_spec(databases["low"]))
            host, port = server.address

            def worker(seed: int) -> None:
                rng = random.Random(1000 + seed)
                try:
                    with MiningClient(host, port) as client:
                        for _ in range(10):
                            roll = rng.random()
                            if roll < 0.4:
                                reply = client.mine_topk("low", 5)
                                got = record_keys(decode_records(reply["itemsets"]))
                                if got != expected_topk:
                                    failures.append(("topk", reply["cache"]))
                            elif roll < 0.7:
                                client.mine("low", algorithm="uapriori", min_esup=0.3)
                            else:
                                # Bad requests interleaved with good ones
                                # must produce structured errors only.
                                try:
                                    client.mine("missing-dataset")
                                    failures.append(("no-error", None))
                                except ServiceError as error:
                                    if error.type != "unknown-dataset":
                                        failures.append(("wrong-type", error.type))
                except Exception as error:  # noqa: BLE001
                    failures.append(("exception", repr(error)))

            threads = [threading.Thread(target=worker, args=(s,)) for s in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
        assert failures == []


class TestAdmissionControl:
    def test_bounded_queue_rejects_third_concurrent_request(self):
        with MiningServer(max_workers=1, max_queue=1) as server:
            host, port = server.address
            replies = {}

            def occupy(slot: str) -> None:
                with MiningClient(host, port) as client:
                    replies[slot] = client.ping(delay_seconds=0.6)

            first = threading.Thread(target=occupy, args=("first",))
            second = threading.Thread(target=occupy, args=("second",))
            first.start()
            time.sleep(0.15)
            second.start()
            time.sleep(0.15)
            # workers+queue = 2 slots are now held; the third must bounce.
            # retries=0: the default client retries overloaded rejections
            # (honouring retry-after), which would inflate the rejection
            # counter this test pins.
            with MiningClient(host, port, retries=0) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.ping(delay_seconds=0.1)
                assert excinfo.value.type == "overloaded"
                assert excinfo.value.retry_after_seconds is not None
                started = time.monotonic()
                assert client.ping()["pong"] is True  # light ops bypass admission
                assert time.monotonic() - started < 0.5
            first.join(timeout=10.0)
            second.join(timeout=10.0)
            assert replies["first"]["pong"] and replies["second"]["pong"]
            # Slots were released: heavy requests are admitted again.
            with MiningClient(host, port) as client:
                assert client.ping(delay_seconds=0.01)["pong"] is True
            assert server.requests_rejected == 1

    def test_rejection_does_not_leak_admission_slots(self):
        with MiningServer(max_workers=1, max_queue=0) as server:
            host, port = server.address
            holder = threading.Thread(
                target=lambda: MiningClient(host, port).__enter__().ping(
                    delay_seconds=0.5
                )
            )
            holder.start()
            time.sleep(0.15)
            # retries=0: each rejection must surface, not be retried away.
            with MiningClient(host, port, retries=0) as client:
                for _ in range(5):
                    with pytest.raises(ServiceError):
                        client.ping(delay_seconds=0.05)
            holder.join(timeout=10.0)
            with MiningClient(host, port) as client:
                assert client.ping(delay_seconds=0.01)["pong"] is True


class TestTimeouts:
    def test_server_side_timeout_is_structured(self):
        with MiningServer(max_workers=2, max_queue=2, timeout_seconds=0.2) as server:
            host, port = server.address
            with MiningClient(host, port) as client:
                started = time.monotonic()
                with pytest.raises(ServiceError) as excinfo:
                    client.ping(delay_seconds=1.0)
                elapsed = time.monotonic() - started
                assert excinfo.value.type == "timeout"
                assert elapsed < 0.9  # the reply beat the stranded sleep
                assert server.requests_timed_out == 1

    def test_per_request_timeout_caps_below_server_default(self):
        with MiningServer(max_workers=2, max_queue=2, timeout_seconds=30.0) as server:
            host, port = server.address
            with MiningClient(host, port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.ping(delay_seconds=0.8, timeout_seconds=0.1)
                assert excinfo.value.type == "timeout"


class TestByteBudgetLRUThreadSafety:
    def test_threaded_hammer_keeps_exact_accounting(self):
        cache = ByteBudgetLRU(budget_bytes=4096)
        arrays = [np.zeros(size, dtype=np.uint8) for size in (64, 128, 256, 512)]
        stop = threading.Event()
        errors = []

        def worker(seed: int) -> None:
            rng = random.Random(seed)
            try:
                while not stop.is_set():
                    key = rng.randrange(40)
                    roll = rng.random()
                    if roll < 0.5:
                        cache.put(key, rng.choice(arrays))
                    elif roll < 0.8:
                        cache.get(key)
                    elif roll < 0.9:
                        cache.pop(key)
                    else:
                        cache.peek(key)
            except Exception as error:  # noqa: BLE001
                errors.append(repr(error))

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for thread in threads:
            thread.start()
        time.sleep(0.6)
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)
        assert errors == []
        # The invariant the lock protects: nbytes equals the exact sum of
        # the retained payloads, and never exceeds the budget.
        retained = sum(_payload_nbytes(cache.peek(k)) for k in cache.keys())
        assert cache.nbytes == retained
        assert cache.nbytes <= cache.budget_bytes

    def test_concurrent_put_single_key_no_double_count(self):
        cache = ByteBudgetLRU(budget_bytes=1 << 20)
        value = np.zeros(1024, dtype=np.uint8)
        barrier = threading.Barrier(8)

        def worker() -> None:
            barrier.wait()
            for _ in range(200):
                cache.put("k", value)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert len(cache) == 1
        assert cache.nbytes == value.nbytes


class TestShutdownUnderLoad:
    def test_close_during_hammer_never_hangs_clients(self, databases):
        server = MiningServer(max_workers=4, max_queue=16).start()
        server.registry.register("low", _inline_spec(databases["low"]))
        host, port = server.address
        outcomes = []

        def client_loop(seed: int) -> None:
            rng = random.Random(seed)
            try:
                with MiningClient(host, port, timeout_seconds=15.0) as client:
                    while True:
                        client.mine(
                            "low",
                            algorithm="uapriori",
                            min_esup=0.2 + rng.random() / 4,
                        )
            except ServiceError as error:
                outcomes.append(error.type)  # structured mid-shutdown reply
            except (ConnectionError, OSError):
                outcomes.append("disconnected")  # pre-structured-client net

        threads = [threading.Thread(target=client_loop, args=(s,)) for s in range(4)]
        for thread in threads:
            thread.start()
        time.sleep(0.4)
        server.close()
        for thread in threads:
            thread.join(timeout=20.0)
        assert not any(thread.is_alive() for thread in threads)
        assert len(outcomes) == 4
        # connection-lost: the client now types a mid-request connection
        # death (and its exhausted retries) instead of leaking the raw
        # ConnectionError.
        assert set(outcomes) <= {"shutting-down", "connection-lost", "disconnected"}
