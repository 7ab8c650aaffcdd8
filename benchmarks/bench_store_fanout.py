"""Out-of-core store benchmark: cold/warm mapped mining, a memory-capped mine.

Two claims of the memory-mapped columnar store are measured and pinned:

* **Mapped mining latency** — a full mine straight off the mapped planes,
  both cold (manifest open + first page faults) and warm (planes mapped,
  caches primed), against the same mine on the in-RAM columnar view, with
  bitwise-identical results (asserted).
* **Out-of-core execution** — with ``--capped`` (or
  ``REPRO_STORE_BENCH_CAP_BYTES`` set), a subprocess locks its data segment
  with ``resource.setrlimit(RLIMIT_DATA)``, builds a store *larger* than
  that cap through the streaming writer, and completes a full mine under
  the cap — possible only because mapped plane pages live in the page
  cache, not the process heap.  The harness proves the cap is enforced
  (a heap allocation of the cap's size must fail) before trusting the run.

Sizing knobs (environment): ``REPRO_STORE_BENCH_ROWS`` (default 150000),
``REPRO_STORE_BENCH_ITEMS`` (default 40), ``REPRO_STORE_BENCH_CAP_ROWS``
(capped-run rows, default 1600000), ``REPRO_STORE_BENCH_CAP_BYTES``
(RLIMIT_DATA of the capped child, default 320 MiB).

Usage::

    PYTHONPATH=src python benchmarks/bench_store_fanout.py [--json] [--capped]
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict

from benchio import REPO_ROOT, bench_main

#: items whose columns are dense enough to stay frequent at MIN_ESUP —
#: keeps the level-wise search at one small pair level regardless of scale
HOT_ITEMS = 6
MIN_ESUP = 0.2

DEFAULT_ROWS = 150_000
DEFAULT_ITEMS = 40
DEFAULT_CAP_ROWS = 1_600_000
DEFAULT_CAP_BYTES = 320 << 20

_CHILD_FLAG = "--capped-child"
_CHILD_MARKER = "CAPPED_RESULT "


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    return int(raw) if raw else default


def build_synthetic_store(directory: str, n_rows: int, n_items: int, seed: int = 7):
    """Stream a deterministic synthetic store to disk, one column at a time.

    Peak memory is one column's scratch (~14 bytes/row), independent of the
    final store size — the property the capped run depends on.
    """
    import numpy as np

    from repro.db.store import ColumnarStore

    rng = np.random.default_rng(seed)
    with ColumnarStore.writer(
        directory, n_rows, name=f"synthetic-{n_rows}x{n_items}"
    ) as writer:
        for item in range(n_items):
            density = 0.5 if item < HOT_ITEMS else 0.3
            rows = np.flatnonzero(rng.random(n_rows) < density).astype(np.int64)
            probs = 0.2 + 0.6 * rng.random(rows.size)
            writer.add_column(item, rows, probs)
    return ColumnarStore.open(directory)


def _mine_store(store) -> Any:
    from repro.core.miner import mine

    return mine(store.database(), algorithm="uapriori", min_esup=MIN_ESUP)


def _result_signature(result) -> list:
    return [
        (record.itemset.items, record.expected_support, record.variance)
        for record in result
    ]


def collect() -> Dict[str, Any]:
    import numpy as np

    from repro.db.columnar import ColumnarView
    from repro.db.store import ColumnarStore
    from repro.db import store as store_module

    n_rows = _env_int("REPRO_STORE_BENCH_ROWS", DEFAULT_ROWS)
    n_items = _env_int("REPRO_STORE_BENCH_ITEMS", DEFAULT_ITEMS)

    with tempfile.TemporaryDirectory(prefix="repro-store-bench-") as directory:
        started = time.perf_counter()
        store = build_synthetic_store(directory, n_rows, n_items)
        build_seconds = time.perf_counter() - started

        # In-RAM twin of the mapped data: the bitwise reference for the
        # mapped mine.
        mapped_view = store.view()
        columns = {
            item: (
                np.asarray(mapped_view.column(item)[0]),
                np.asarray(mapped_view.column(item)[1]),
            )
            for item in mapped_view.items()
        }
        inram_view = ColumnarView.from_columns(columns, n_rows)

        # Cold open: a fresh manifest parse and first-touch page faults.
        store_module._OPEN_STORES.clear()
        started = time.perf_counter()
        cold_result = _mine_store(ColumnarStore.open(directory))
        cold_seconds = time.perf_counter() - started

        # Warm map: same process, planes mapped, caches primed.
        warm_store = ColumnarStore.open(directory)
        _mine_store(warm_store)
        started = time.perf_counter()
        warm_result = _mine_store(warm_store)
        warm_seconds = time.perf_counter() - started

        started = time.perf_counter()
        inram_result = _reference_mine(inram_view)
        inram_seconds = time.perf_counter() - started

        assert _result_signature(cold_result) == _result_signature(inram_result), (
            "mapped mine diverged from in-RAM mine"
        )
        assert _result_signature(warm_result) == _result_signature(inram_result)

        payload: Dict[str, Any] = {
            "config": {
                "n_transactions": n_rows,
                "n_items": n_items,
                "nnz": store.nnz,
                "store_bytes": store.data_nbytes,
                "manifest_bytes": store.manifest_nbytes,
                "min_esup": MIN_ESUP,
                "n_frequent": len(cold_result),
            },
            "timings": {
                "store_build_seconds": build_seconds,
                "cold_open_mine_seconds": cold_seconds,
                "warm_map_mine_seconds": warm_seconds,
                "inram_mine_seconds": inram_seconds,
            },
        }

    if "--capped" in _CLI_EXTRAS or os.environ.get("REPRO_STORE_BENCH_CAP_BYTES"):
        payload["capped"] = run_capped_child()
    return payload


def _reference_mine(view) -> Any:
    """Mine an in-RAM view through a minimal view-serving database."""
    from repro.core.miner import mine
    from repro.db import UncertainDatabase

    class _ViewDatabase(UncertainDatabase):
        """In-RAM analogue of StoreDatabase: serves one prebuilt view."""

        def __init__(self, columnar_view):
            self._columnar = columnar_view
            self.vocabulary = None
            self.name = "inram-reference"

        def __len__(self):
            return len(self._columnar)

        def columnar(self):
            return self._columnar

        def items(self):
            return self._columnar.items()

    return mine(_ViewDatabase(view), algorithm="uapriori", min_esup=MIN_ESUP)


def run_capped_child() -> Dict[str, Any]:
    """Run the out-of-core mine in a child whose data segment is capped."""
    cap_bytes = _env_int("REPRO_STORE_BENCH_CAP_BYTES", DEFAULT_CAP_BYTES)
    cap_rows = _env_int("REPRO_STORE_BENCH_CAP_ROWS", DEFAULT_CAP_ROWS)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part
        for part in (str(REPO_ROOT / "src"), env.get("PYTHONPATH", ""))
        if part
    )
    env["REPRO_STORE_BENCH_CAP_BYTES"] = str(cap_bytes)
    env["REPRO_STORE_BENCH_CAP_ROWS"] = str(cap_rows)
    completed = subprocess.run(
        [sys.executable, os.path.abspath(__file__), _CHILD_FLAG],
        env=env,
        capture_output=True,
        text=True,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"capped out-of-core child failed (exit {completed.returncode}):\n"
            f"{completed.stdout}\n{completed.stderr}"
        )
    for line in reversed(completed.stdout.splitlines()):
        if line.startswith(_CHILD_MARKER):
            return json.loads(line[len(_CHILD_MARKER) :])
    raise RuntimeError(f"capped child produced no result line:\n{completed.stdout}")


def _capped_child_main() -> int:
    """Child body: cap the data segment *before* the heavy imports, then mine."""
    import resource

    cap_bytes = _env_int("REPRO_STORE_BENCH_CAP_BYTES", DEFAULT_CAP_BYTES)
    cap_rows = _env_int("REPRO_STORE_BENCH_CAP_ROWS", DEFAULT_CAP_ROWS)
    resource.setrlimit(resource.RLIMIT_DATA, (cap_bytes, cap_bytes))

    import numpy as np

    # Prove the cap is enforced: a heap allocation of the cap's size must
    # fail (file-backed mappings are exactly what RLIMIT_DATA exempts).
    try:
        scratch = np.ones(cap_bytes // 8, dtype=np.float64)
    except MemoryError:
        scratch = None
    else:
        raise SystemExit("RLIMIT_DATA cap is not enforced on this kernel")
    del scratch

    with tempfile.TemporaryDirectory(prefix="repro-store-capped-") as directory:
        n_items = _env_int("REPRO_STORE_BENCH_ITEMS", DEFAULT_ITEMS)
        started = time.perf_counter()
        store = build_synthetic_store(directory, cap_rows, n_items)
        build_seconds = time.perf_counter() - started
        store_bytes = store.data_nbytes
        if store_bytes <= cap_bytes:
            raise SystemExit(
                f"store ({store_bytes} bytes) does not exceed the RSS cap "
                f"({cap_bytes} bytes); raise REPRO_STORE_BENCH_CAP_ROWS"
            )
        started = time.perf_counter()
        result = _mine_store(store)
        mine_seconds = time.perf_counter() - started
        n_frequent = len(result)
    if n_frequent < HOT_ITEMS:
        raise SystemExit(
            f"capped mine found only {n_frequent} itemsets; expected at "
            f"least the {HOT_ITEMS} hot singletons"
        )
    print(
        _CHILD_MARKER
        + json.dumps(
            {
                "cap_bytes": cap_bytes,
                "n_transactions": cap_rows,
                "store_bytes": store_bytes,
                "store_over_cap": store_bytes / cap_bytes,
                "build_seconds": build_seconds,
                "mine_seconds": mine_seconds,
                "n_frequent": n_frequent,
            }
        )
    )
    return 0


_CLI_EXTRAS: list = []


if __name__ == "__main__":
    if _CHILD_FLAG in sys.argv:
        sys.exit(_capped_child_main())
    _CLI_EXTRAS = [arg for arg in sys.argv[1:] if arg == "--capped"]
    remaining = [arg for arg in sys.argv[1:] if arg != "--capped"]
    sys.exit(bench_main("store_fanout", collect, remaining))
