"""Resilience benchmark: serving throughput under dropped connections.

Boots a :class:`repro.service.MiningServer`, then measures the same
request stream twice:

* **Fault-free** — N uncached mines through a retrying client: the
  baseline throughput and the golden (bitwise) answers.
* **Faulted** — an identical stream under a seeded 10% ``socket-drop``
  plan: every tenth reply (deterministically chosen) is eaten by an RST
  and transparently re-requested by the client's retry loop.

Asserted contracts (the acceptance bar of the robustness PR):

* every faulted-run reply is **bitwise identical** to its fault-free
  golden twin (retries never change answers),
* throughput under the 10% fault rate stays >= 0.5x fault-free.

Sizing knobs (environment): ``REPRO_RESILIENCE_BENCH_ROWS`` (default
5000), ``REPRO_RESILIENCE_BENCH_ITEMS`` (default 16),
``REPRO_RESILIENCE_BENCH_REQUESTS`` (default 40),
``REPRO_RESILIENCE_BENCH_DROP_RATE`` (default 0.1).

Usage::

    PYTHONPATH=src python benchmarks/bench_resilience.py [--json]
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import Any, Dict, List, Tuple

from benchio import bench_main

#: thresholds low enough that every request pays for a real level-wise
#: search (recovery must re-do actual work, not a singleton scan)
MIN_ESUP_GRID = [0.08, 0.10, 0.12, 0.15]
HOT_ITEMS = 8

DEFAULT_ROWS = 20_000
DEFAULT_ITEMS = 16
DEFAULT_REQUESTS = 40
DEFAULT_DROP_RATE = 0.1

#: per-request timeout of the server
REQUEST_TIMEOUT_SECONDS = 30.0


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    return int(raw) if raw else default


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name, "").strip()
    return float(raw) if raw else default


def _build_store(directory: str, n_rows: int, n_items: int, seed: int = 29):
    import numpy as np

    from repro.db.store import ColumnarStore

    rng = np.random.default_rng(seed)
    with ColumnarStore.writer(
        directory, n_rows, name=f"resilience-bench-{n_rows}x{n_items}"
    ) as writer:
        for item in range(n_items):
            density = 0.6 if item < HOT_ITEMS else 0.25
            rows = np.flatnonzero(rng.random(n_rows) < density).astype(np.int64)
            probs = 0.5 + 0.4 * rng.random(rows.size)
            writer.add_column(item, rows, probs)
    return ColumnarStore.open(directory)


def _drive(client, requests: List[Dict[str, Any]]) -> Tuple[float, List[Any]]:
    """Issue every request uncached; (wall seconds, reply itemsets)."""
    replies = []
    started = time.perf_counter()
    for params in requests:
        replies.append(client.mine(cache=False, **params)["itemsets"])
    return time.perf_counter() - started, replies


def collect() -> Dict[str, Any]:
    from repro import faults
    from repro.service import MiningClient, MiningServer

    n_rows = _env_int("REPRO_RESILIENCE_BENCH_ROWS", DEFAULT_ROWS)
    n_items = _env_int("REPRO_RESILIENCE_BENCH_ITEMS", DEFAULT_ITEMS)
    n_requests = _env_int("REPRO_RESILIENCE_BENCH_REQUESTS", DEFAULT_REQUESTS)
    drop_rate = _env_float("REPRO_RESILIENCE_BENCH_DROP_RATE", DEFAULT_DROP_RATE)

    requests = [
        {
            "dataset": "bench",
            "algorithm": "uapriori",
            "min_esup": MIN_ESUP_GRID[index % len(MIN_ESUP_GRID)],
        }
        for index in range(n_requests)
    ]

    with tempfile.TemporaryDirectory(prefix="repro-resilience-bench-") as directory:
        store_dir = os.path.join(directory, "store")
        _build_store(store_dir, n_rows, n_items)

        with MiningServer(
            max_workers=4, max_queue=64, timeout_seconds=REQUEST_TIMEOUT_SECONDS
        ) as server:
            host, port = server.address
            with MiningClient(
                host, port, timeout_seconds=300.0, jitter_seconds=0.0
            ) as client:
                client.register("bench", kind="store", directory=store_dir)

                fault_free_seconds, golden = _drive(client, requests)

            # Same stream, same server, 10% of replies deterministically
            # dropped: the client's retry loop must absorb every loss and
            # reproduce the golden answers bit for bit.
            # seed 9 lands 4 fires in the first ~40 probes — right on the
            # 10% expectation, so the retry path is genuinely exercised
            with faults.faults_active(f"seed=9,socket-drop={drop_rate}") as injector:
                with MiningClient(
                    host,
                    port,
                    timeout_seconds=300.0,
                    retries=6,
                    backoff_seconds=0.005,
                    jitter_seconds=0.0,
                ) as client:
                    faulted_seconds, faulted = _drive(client, requests)
                    retries_performed = client.retries_performed
                drops_fired = injector.counters()["socket-drop"]["fired"]
            for index, (fresh, replayed) in enumerate(zip(golden, faulted)):
                assert replayed == fresh, (
                    f"request {index} under {drop_rate:.0%} socket-drop is not "
                    "bitwise identical to its fault-free twin"
                )

    fault_free_rps = len(requests) / fault_free_seconds
    faulted_rps = len(requests) / faulted_seconds
    throughput_ratio = faulted_rps / fault_free_rps
    assert throughput_ratio >= 0.5, (
        f"throughput under {drop_rate:.0%} faults is {throughput_ratio:.2f}x "
        "fault-free; the resilience contract is >= 0.5x"
    )

    return {
        "config": {
            "n_transactions": n_rows,
            "n_items": n_items,
            "n_requests": n_requests,
            "drop_rate": drop_rate,
            "min_esup_grid": MIN_ESUP_GRID,
            "drops_fired": drops_fired,
            "client_retries": retries_performed,
        },
        "timings": {
            "fault_free_seconds": fault_free_seconds,
            "faulted_seconds": faulted_seconds,
        },
        "metrics": {
            "fault_free_throughput_rps": fault_free_rps,
            "faulted_throughput_rps": faulted_rps,
        },
        "speedups": {
            "faulted_vs_fault_free_throughput": throughput_ratio,
        },
    }


if __name__ == "__main__":
    import sys

    sys.exit(bench_main("resilience", collect))
