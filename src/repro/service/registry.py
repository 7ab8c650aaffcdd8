"""The warm dataset registry of the mining service.

A dataset is registered **once** — by benchmark name, by path to an
``item:probability`` file, by out-of-core store directory, or as inline
records — and every subsequent request refers to it by its registered
name.  The registry keeps the expensive derived state *warm* between
requests: the :class:`~repro.db.columnar.ColumnarView` (CSR planes, item
statistics) and, for mapped datasets, the open
:class:`~repro.db.store.ColumnarStore`.

Warmth is budgeted, not unbounded.  The registered *handles* (how to
rebuild a dataset) are tiny and live forever; the warm *payloads* (the
materialised databases and their views) live in a
:class:`~repro.db.cache.ByteBudgetLRU` under ``REPRO_SERVICE_REGISTRY_BYTES``.
When the budget overflows, the least-recently-served dataset degrades to
cold — the next request that names it transparently rebuilds (or re-opens)
it and re-warms the cache.  Mapped datasets are charged a nominal constant
(their plane pages live in the OS page cache, not the process heap), so one
registry can keep many out-of-core stores warm alongside a few in-RAM
datasets.

Every registration — including re-registration under an existing name —
bumps the dataset's **revision**.  The revision is part of every result
cache key, which is what guarantees cached answers are never served across
a re-register boundary (``tests/test_service_cache.py`` pins this).
"""

from __future__ import annotations

import itertools
import os
import threading
from typing import Any, Dict, List, Optional, Tuple

from .. import faults
from ..datasets.registry import dataset_names, load_dataset
from ..db.cache import ByteBudgetLRU, resolve_budget
from ..db.database import UncertainDatabase
from ..db.io import read_uncertain
from ..db.store import MANIFEST_NAME, ColumnarStore, StoreError
from .protocol import ServiceError

__all__ = [
    "REGISTRY_BYTES_ENV",
    "DEFAULT_REGISTRY_BYTES",
    "WARM_ENV",
    "DatasetHandle",
    "DatasetRegistry",
]

#: env override for the warm-payload byte budget
REGISTRY_BYTES_ENV = "REPRO_SERVICE_REGISTRY_BYTES"
#: default warm budget: a few benchmark-scale datasets
DEFAULT_REGISTRY_BYTES = 256 << 20
#: env knob ("on"/"off") for eager view warming at registration time
WARM_ENV = "REPRO_SERVICE_WARM"

#: nominal warm charge of a store-backed dataset (pages are reclaimable)
MAPPED_DATASET_CHARGE_BYTES = 4096


class DatasetHandle:
    """The permanent registration record of one dataset.

    Holds everything needed to rebuild the dataset after its warm payload
    was evicted — never the payload itself.
    """

    __slots__ = ("name", "revision", "spec", "n_transactions", "n_items", "kind")

    def __init__(
        self,
        name: str,
        revision: str,
        spec: Dict[str, Any],
        n_transactions: int,
        n_items: int,
    ) -> None:
        self.name = name
        self.revision = revision
        self.spec = spec
        self.n_transactions = n_transactions
        self.n_items = n_items
        self.kind = spec["kind"]

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "revision": self.revision,
            "kind": self.kind,
            "n_transactions": self.n_transactions,
            "n_items": self.n_items,
        }


class _WarmDataset:
    """A materialised database plus its byte charge for the LRU.

    ``payload_nbytes`` is the duck-typed charge
    :func:`repro.db.cache._payload_nbytes` consults: in-RAM datasets pay
    roughly their columnar footprint (16 bytes per stored unit: CSR row
    index + probability), store-backed datasets pay the nominal mapped
    charge.
    """

    __slots__ = ("database", "payload_nbytes")

    def __init__(self, database: UncertainDatabase, mapped: bool) -> None:
        self.database = database
        if mapped:
            self.payload_nbytes = MAPPED_DATASET_CHARGE_BYTES
        else:
            self.payload_nbytes = 16 * database.columnar().nnz() + 512


class DatasetRegistry:
    """Named datasets with budgeted warm payloads and revisioned lifecycle."""

    def __init__(
        self,
        budget_bytes: Optional[int] = None,
        warm_views: Optional[bool] = None,
    ) -> None:
        if budget_bytes is None:
            budget_bytes = resolve_budget(REGISTRY_BYTES_ENV, DEFAULT_REGISTRY_BYTES)
        if warm_views is None:
            warm_views = os.environ.get(WARM_ENV, "").strip().lower() != "off"
        self.warm_views = bool(warm_views)
        self._warm = ByteBudgetLRU(budget_bytes)
        self._handles: Dict[str, DatasetHandle] = {}
        self._revisions = itertools.count(1)
        self._lock = threading.RLock()
        #: payload rebuilds forced by eviction (cold checkouts)
        self.rebuilds = 0
        #: store-backed datasets rebuilt from their ``source`` spec after
        #: failing checksum verification
        self.store_rebuilds = 0
        #: whole-cache flushes forced by the ``registry-evict`` fault site
        self.fault_evictions = 0

    # -- registration ------------------------------------------------------------
    def register(self, name: str, spec: Dict[str, Any]) -> DatasetHandle:
        """Register (or re-register) ``name`` from a build specification.

        Specs (the ``register`` op's params, minus the name):

        * ``{"kind": "benchmark", "dataset": <registered name>, "scale": s}``
        * ``{"kind": "file", "path": <item:probability file>}``
        * ``{"kind": "store", "directory": <columnar store dir>}``
        * ``{"kind": "inline", "records": [[[item, prob], ...], ...]}``

        The dataset is built immediately (a bad spec fails the register
        call, not some later mine) and enters the warm cache.  Re-registering
        an existing name atomically replaces it under a fresh revision.
        """
        name = str(name)
        if not name:
            raise ServiceError("bad-params", "dataset name must be non-empty")
        database, mapped, revision_suffix = self._build(spec)
        if self.warm_views:
            _warm_database(database)
        with self._lock:
            revision = f"r{next(self._revisions)}{revision_suffix}"
            handle = DatasetHandle(
                name,
                revision,
                dict(spec),
                len(database),
                len(database.items()),
            )
            self._handles[name] = handle
            self._warm.put((name, revision), _WarmDataset(database, mapped))
            return handle

    def unregister(self, name: str) -> bool:
        """Drop ``name`` entirely (handle and warm payload); True if present."""
        with self._lock:
            handle = self._handles.pop(name, None)
            if handle is None:
                return False
            self._warm.pop((name, handle.revision))
            return True

    # -- serving -----------------------------------------------------------------
    def checkout(self, name: str) -> Tuple[DatasetHandle, UncertainDatabase]:
        """Return the handle and (re)warmed database of ``name``.

        Raises:
            ServiceError: ``unknown-dataset`` when the name was never
                registered (or was unregistered).
        """
        with self._lock:
            handle = self._handles.get(name)
            if handle is None:
                raise ServiceError(
                    "unknown-dataset",
                    f"dataset {name!r} is not registered; known: {self.names()}",
                )
            if faults.fire("registry-evict"):
                # Eviction storm: every warm payload degrades to cold at
                # once.  Serving must survive it — checkouts fall through
                # to the rebuild path below, nothing errors.
                self._warm.clear()
                self.fault_evictions += 1
            warm = self._warm.get((name, handle.revision))
            if warm is not None:
                return handle, warm.database
        # Rebuild outside the registry lock: a cold checkout must not
        # serialize every other request behind dataset construction.
        database, mapped, _ = self._build(handle.spec)
        if self.warm_views:
            _warm_database(database)
        with self._lock:
            current = self._handles.get(name)
            if current is not handle:
                # Re-registered (or unregistered) while rebuilding; retry
                # against the new state rather than serving stale data.
                return self.checkout(name)
            self.rebuilds += 1
            self._warm.put((name, handle.revision), _WarmDataset(database, mapped))
            return handle, database

    # -- introspection -----------------------------------------------------------
    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._handles)

    def is_warm(self, name: str) -> bool:
        """Whether ``name`` would serve without a rebuild (no recency touch)."""
        with self._lock:
            handle = self._handles.get(name)
            if handle is None:
                return False
            return (name, handle.revision) in self._warm

    def describe(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "datasets": [self._handles[name].describe() for name in sorted(self._handles)],
                "warm": sorted(name for name in self._handles if self.is_warm(name)),
                "budget_bytes": self._warm.budget_bytes,
                "warm_nbytes": self._warm.nbytes,
                "rebuilds": self.rebuilds,
                "store_rebuilds": self.store_rebuilds,
                "fault_evictions": self.fault_evictions,
            }

    # -- construction ------------------------------------------------------------
    def _build(self, spec: Dict[str, Any]) -> Tuple[UncertainDatabase, bool, str]:
        """Materialise a database from its spec: (db, mapped?, revision suffix)."""
        kind = spec.get("kind")
        try:
            if kind == "benchmark":
                dataset = str(spec["dataset"])
                if dataset not in dataset_names():
                    raise ServiceError(
                        "bad-params",
                        f"unknown benchmark dataset {dataset!r}; known: {dataset_names()}",
                    )
                scale = float(spec.get("scale", 0.002))
                return load_dataset(dataset, scale=scale), False, ""
            if kind == "file":
                return read_uncertain(str(spec["path"]), name=str(spec["path"])), False, ""
            if kind == "store":
                store = self._open_verified_store(spec)
                stamp = store.stamp()
                return store.database(), True, f"-s{stamp[1]:x}-{stamp[2]:x}"
            if kind == "inline":
                records = [
                    {int(item): float(probability) for item, probability in row}
                    for row in spec["records"]
                ]
                return UncertainDatabase.from_records(records, name="inline"), False, ""
        except ServiceError:
            raise
        except (KeyError, TypeError, ValueError, StoreError) as error:
            raise ServiceError(
                "bad-params", f"invalid dataset spec {spec!r}: {error}"
            ) from None
        except OSError as error:
            raise ServiceError("bad-params", f"cannot load dataset: {error}") from None
        raise ServiceError(
            "bad-params",
            f"dataset spec kind must be benchmark/file/store/inline, got {kind!r}",
        )

    def _open_verified_store(self, spec: Dict[str, Any]) -> ColumnarStore:
        """Open a store-backed dataset, verifying plane checksums first.

        A store that fails verification (or fails to open at all) degrades
        to a transparent rebuild when the spec carries a ``source`` sub-spec
        — any other registerable spec describing where the data came from.
        The corrupt store is overwritten in place from the rebuilt database
        and re-verified; without a ``source``, the corruption surfaces as a
        structured ``corrupt-dataset`` error instead of wrong answers.
        """
        directory = str(spec["directory"])
        try:
            store = ColumnarStore.open(directory)
            store.verify(strict=True)
            return store
        except StoreError as error:
            source = spec.get("source")
            if not isinstance(source, dict):
                if not os.path.exists(os.path.join(directory, MANIFEST_NAME)):
                    # Nothing was ever stored here — a bad spec, not
                    # corruption; surfaces as bad-params like any other.
                    raise
                raise ServiceError(
                    "corrupt-dataset",
                    f"store {directory!r} failed verification and the spec "
                    f"carries no 'source' to rebuild from: {error}",
                ) from None
        database, _, _ = self._build(dict(source))
        store = ColumnarStore.save(database, directory)
        store.verify(strict=True)
        with self._lock:
            self.store_rebuilds += 1
        return store


def _warm_database(database: UncertainDatabase) -> None:
    """Eagerly build the derived state a first mine would otherwise pay for."""
    view = database.columnar()
    view.item_statistics()
