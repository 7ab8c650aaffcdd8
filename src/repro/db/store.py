"""Out-of-core columnar store: memory-mapped planes + zero-copy shard fan-out.

The in-RAM :class:`~repro.db.columnar.ColumnarView` keeps every CSR plane as
live NumPy arrays, which caps dataset scale at physical memory and makes
every parallel shard a full pickle through the pool initializer.  This
module removes both limits while preserving the repository's bitwise
contract (rows == columnar == memmap == shared-memory-sharded):

**On-disk layout.**  :meth:`ColumnarStore.save` persists a view into a
directory holding one binary file per CSR plane plus a small JSON manifest::

    manifest.json   format/version, n_transactions, items, offsets,
                    dtypes, per-item statistics, optional vocabulary
    rows.bin        int64   — concatenated per-item row indices
    probs.bin       float64 — concatenated existence probabilities

:meth:`ColumnarStore.open` maps the planes with ``np.memmap(mode="r")`` and
returns a :class:`MappedColumnarView` whose columns are resolved as
*slices* of the mapped planes on demand — no plane is ever read eagerly, so
databases far larger than RAM stream row ranges through the unchanged
bitset cascade while the OS pages plane data in and out.  The layout is
deliberately the cascade's access pattern: per-item contiguous runs, so
column gathers are sequential reads.  Occupancy bitmaps are built from the
columns, like the in-RAM view's.  Stores written before the bitmap plane
was dropped still carry ``bitmaps.bin``: they open, verify it through the
same checksum loop, and never read it.

**Zero-copy fan-out.**  A shard crossing a process boundary travels as an
O(manifest-bytes) descriptor, never as data:

* a :class:`MappedColumnarView` pickles as ``(directory, start, stop)`` and
  re-opens the manifest on arrival (the on-disk case);
* an in-RAM view is packed once into one ``multiprocessing.shared_memory``
  segment (:func:`export_shard_segment`) that every worker attaches to
  read-only (:func:`attach_shard_segment`), so all workers share a single
  physical copy (the in-RAM case).

Both attach paths fail fast with a clear :class:`StoreError` when the
segment or store directory has vanished; segment lifetime is owned by the
coordinating :class:`~repro.core.parallel.ParallelExecutor`, which unlinks
on ``close()``/``terminate()``.

>>> import tempfile
>>> from repro.db import UncertainDatabase
>>> db = UncertainDatabase.from_records([{1: 0.5, 2: 0.8}, {1: 1.0}, {2: 0.4}])
>>> with tempfile.TemporaryDirectory() as directory:
...     store = ColumnarStore.save(db, directory)
...     view = store.view()
...     view.expected_support((1,)) == db.columnar().expected_support((1,))
True
"""

from __future__ import annotations

import json
import os
import secrets
import zlib
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import faults
from .columnar import ColumnarView, ItemColumn, RowCSR
from .database import DatabaseStats, UncertainDatabase
from .vocabulary import Vocabulary

__all__ = [
    "ColumnarStore",
    "MappedColumnarView",
    "StoreDatabase",
    "StoreError",
    "StoreWriter",
    "ShardSegment",
    "attach_shard_segment",
    "export_shard_segment",
    "resolve_store_path",
    "STORE_ENV",
    "STORE_VERIFY_ENV",
    "MANIFEST_NAME",
]

#: environment variable supplying the default store directory (CLI ``--store``)
STORE_ENV = "REPRO_STORE"
#: when truthy, every fresh ``ColumnarStore.open`` checksum-verifies the
#: plane files before returning (reads every byte — a startup cost, paid
#: for integrity; per-process-cached re-opens are not re-verified)
STORE_VERIFY_ENV = "REPRO_STORE_VERIFY"

MANIFEST_NAME = "manifest.json"
STORE_FORMAT = "repro-columnar-store"
STORE_VERSION = 1

_PLANE_FILES = {"rows": "rows.bin", "probs": "probs.bin"}
_PLANE_DTYPES = {"rows": np.int64, "probs": np.float64}

#: shared-memory segment layout: 3 int64 header words (n_transactions,
#: n_items, nnz) followed by the items, offsets, rows and probs planes
_SHM_HEADER_BYTES = 24


class StoreError(RuntimeError):
    """A columnar store (or shared-memory segment) is missing or malformed."""


def resolve_store_path(path: Optional[str] = None) -> str:
    """Resolve a store directory: explicit ``path``, else the ``REPRO_STORE`` env."""
    if path:
        return os.fspath(path)
    raw = os.environ.get(STORE_ENV, "").strip()
    if raw:
        return raw
    raise StoreError(f"no store directory given and {STORE_ENV} is not set")


def _native_dtype_strings() -> Dict[str, str]:
    return {key: np.dtype(dtype).str for key, dtype in _PLANE_DTYPES.items()}


def _file_crc32(path: str, chunk_bytes: int = 1 << 20) -> Tuple[int, int]:
    """``(size, CRC-32)`` of a file, streamed in chunks from disk."""
    crc = 0
    nbytes = 0
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(chunk_bytes)
            if not chunk:
                break
            crc = zlib.crc32(chunk, crc)
            nbytes += len(chunk)
    return nbytes, crc & 0xFFFFFFFF


class StoreWriter:
    """Streaming store builder: one column in memory at a time.

    Columns must be added in strictly ascending item order (the manifest
    records one contiguous ``[offsets[i], offsets[i+1])`` run per item).
    Used as a context manager, an exception aborts the build — plane files
    are closed and **no manifest is written**, so a partial directory can
    never be opened as a store.

    Building through the writer keeps peak memory at one column, which is
    what lets :mod:`benchmarks.bench_store_fanout` build stores larger than
    the enforced RSS cap.
    """

    def __init__(
        self,
        directory: str,
        n_transactions: int,
        *,
        name: str = "",
        vocabulary: Optional[Sequence[str]] = None,
    ) -> None:
        self.directory = os.fspath(directory)
        self._n_transactions = int(n_transactions)
        if self._n_transactions < 0:
            raise StoreError("n_transactions must be >= 0")
        self._name = name
        self._vocabulary = list(vocabulary) if vocabulary is not None else None
        os.makedirs(self.directory, exist_ok=True)
        self._rows_handle = open(os.path.join(self.directory, _PLANE_FILES["rows"]), "wb")
        self._probs_handle = open(os.path.join(self.directory, _PLANE_FILES["probs"]), "wb")
        self._items: List[int] = []
        self._offsets: List[int] = [0]
        self._statistics: List[Tuple[float, float]] = []
        #: running CRC-32 per plane, updated as bytes stream out — the
        #: checksum costs nothing extra at build time (the bytes are in
        #: hand), whereas computing it after the fact would re-read every
        #: plane from disk.
        self._plane_crcs: Dict[str, int] = {"rows": 0, "probs": 0}
        self._finalized = False
        self._closed = False

    @property
    def n_transactions(self) -> int:
        return self._n_transactions

    def add_column(self, item: int, rows: np.ndarray, probs: np.ndarray) -> None:
        """Append the CSR column of ``item`` (row indices strictly increasing)."""
        if self._closed:
            raise StoreError("writer is closed")
        item = int(item)
        if self._items and item <= self._items[-1]:
            raise StoreError(
                f"columns must be added in ascending item order "
                f"(got {item} after {self._items[-1]})"
            )
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        probs = np.ascontiguousarray(probs, dtype=np.float64)
        if rows.ndim != 1 or probs.ndim != 1 or len(rows) != len(probs):
            raise StoreError("rows and probs must be 1-d arrays of equal length")
        if len(rows):
            if int(rows[0]) < 0 or int(rows[-1]) >= self._n_transactions:
                raise StoreError(
                    f"row indices of item {item} fall outside "
                    f"[0, {self._n_transactions})"
                )
            if len(rows) > 1 and not (np.diff(rows) > 0).all():
                raise StoreError(f"row indices of item {item} must be strictly increasing")
        rows_bytes = rows.tobytes()
        probs_bytes = probs.tobytes()
        self._rows_handle.write(rows_bytes)
        self._probs_handle.write(probs_bytes)
        self._plane_crcs["rows"] = zlib.crc32(rows_bytes, self._plane_crcs["rows"])
        self._plane_crcs["probs"] = zlib.crc32(probs_bytes, self._plane_crcs["probs"])
        self._items.append(item)
        self._offsets.append(self._offsets[-1] + len(rows))
        self._statistics.append(
            (float(probs.sum()), float((probs * (1.0 - probs)).sum()))
        )

    def _close_handles(self) -> None:
        for handle in (self._rows_handle, self._probs_handle):
            if not handle.closed:
                handle.close()

    def abort(self) -> None:
        """Close the plane files without writing a manifest (idempotent)."""
        self._close_handles()
        self._closed = True

    def finalize(self) -> "ColumnarStore":
        """Flush the planes, write the manifest atomically and open the store."""
        if self._finalized:
            return ColumnarStore.open(self.directory)
        self._close_handles()
        manifest = {
            "format": STORE_FORMAT,
            "version": STORE_VERSION,
            "name": self._name,
            "n_transactions": self._n_transactions,
            "n_items": len(self._items),
            "nnz": self._offsets[-1],
            "dtypes": _native_dtype_strings(),
            "planes": dict(_PLANE_FILES),
            "items": self._items,
            "offsets": self._offsets,
            "item_statistics": [list(stat) for stat in self._statistics],
            "vocabulary": self._vocabulary,
            "checksums": {
                key: format(crc & 0xFFFFFFFF, "08x")
                for key, crc in self._plane_crcs.items()
            },
        }
        manifest_path = os.path.join(self.directory, MANIFEST_NAME)
        scratch_path = manifest_path + ".tmp"
        with open(scratch_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        os.replace(scratch_path, manifest_path)
        self._finalized = True
        self._closed = True
        return ColumnarStore.open(self.directory)

    def __enter__(self) -> "StoreWriter":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        if exc_type is not None:
            self.abort()
        else:
            self.finalize()


#: per-process cache of opened stores, keyed by real path + manifest stamp so
#: shards of one store share a single manifest parse and memmap set
_OPEN_STORES: Dict[Tuple[str, int, int], "ColumnarStore"] = {}


class ColumnarStore:
    """An opened on-disk columnar store (manifest + lazily mapped planes)."""

    def __init__(self, directory: str, manifest: Dict[str, Any]) -> None:
        self.directory = os.fspath(directory)
        self._manifest = manifest
        self.items: np.ndarray = np.asarray(manifest["items"], dtype=np.int64)
        self.offsets: np.ndarray = np.asarray(manifest["offsets"], dtype=np.int64)
        self.items.flags.writeable = False
        self.offsets.flags.writeable = False
        self._planes: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._item_index: Optional[Dict[int, int]] = None

    # -- construction ------------------------------------------------------------
    @classmethod
    def writer(
        cls,
        directory: str,
        n_transactions: int,
        *,
        name: str = "",
        vocabulary: Optional[Sequence[str]] = None,
    ) -> StoreWriter:
        """A streaming :class:`StoreWriter` for building stores column by column."""
        return StoreWriter(directory, n_transactions, name=name, vocabulary=vocabulary)

    @classmethod
    def save(
        cls,
        source: Any,
        directory: str,
        *,
        name: str = "",
    ) -> "ColumnarStore":
        """Persist a database or columnar view into ``directory`` and open it.

        Args:
            source: An :class:`~repro.db.database.UncertainDatabase` (its
                name and vocabulary are carried into the manifest) or a bare
                :class:`~repro.db.columnar.ColumnarView`.
            directory: Target directory (created if missing; an existing
                store there is overwritten).
            name: Manifest name override.
        """
        vocabulary: Optional[Sequence[str]] = None
        view = source
        if isinstance(source, UncertainDatabase):
            name = name or source.name
            vocabulary = list(source.vocabulary) if source.vocabulary is not None else None
            view = source.columnar()
        with cls.writer(directory, len(view), name=name, vocabulary=vocabulary) as writer:
            for item in view.items():
                rows, probs = view.column(item)
                writer.add_column(item, rows, probs)
        return cls.open(directory)

    @classmethod
    def open(cls, directory: str) -> "ColumnarStore":
        """Open an existing store, validating the manifest.

        With ``REPRO_STORE_VERIFY`` set truthy, a fresh open also
        checksum-verifies every plane file (:meth:`verify` with
        ``strict=True``) before the store is returned or cached — cached
        re-opens are not re-verified.

        Raises:
            StoreError: When the directory or manifest is missing (the
                fail-fast contract of worker re-attachment), the manifest
                is malformed / from an incompatible layout version, or
                verify-on-open finds a corrupt plane.
        """
        directory = os.fspath(directory)
        faults.maybe_corrupt_store(directory)
        manifest_path = os.path.join(directory, MANIFEST_NAME)
        try:
            stat = os.stat(manifest_path)
        except OSError:
            raise StoreError(
                f"no columnar store at {directory!r}: {MANIFEST_NAME} is missing "
                "(directory vanished or was never finalized)"
            ) from None
        key = (os.path.realpath(directory), stat.st_mtime_ns, stat.st_size)
        cached = _OPEN_STORES.get(key)
        if cached is not None:
            return cached
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        if manifest.get("format") != STORE_FORMAT:
            raise StoreError(f"{manifest_path}: not a {STORE_FORMAT} manifest")
        if manifest.get("version") != STORE_VERSION:
            raise StoreError(
                f"{manifest_path}: layout version {manifest.get('version')!r} "
                f"is not supported (expected {STORE_VERSION})"
            )
        native = _native_dtype_strings()
        dtypes = manifest.get("dtypes") or {}
        if {key: dtypes.get(key) for key in native} != native:
            raise StoreError(
                f"{manifest_path}: plane dtypes {manifest.get('dtypes')} do not "
                f"match this platform's native layout {native}"
            )
        if len(manifest["offsets"]) != len(manifest["items"]) + 1:
            raise StoreError(f"{manifest_path}: offsets/items length mismatch")
        store = cls(directory, manifest)
        if os.environ.get(STORE_VERIFY_ENV, "").strip().lower() in (
            "1", "on", "true", "yes",
        ):
            store.verify(strict=True)
        _OPEN_STORES[key] = store
        return store

    # -- manifest properties -----------------------------------------------------
    @property
    def name(self) -> str:
        return self._manifest.get("name") or ""

    @property
    def n_transactions(self) -> int:
        return int(self._manifest["n_transactions"])

    @property
    def n_items(self) -> int:
        return len(self.items)

    @property
    def nnz(self) -> int:
        return int(self._manifest["nnz"])

    @property
    def vocabulary_labels(self) -> Optional[List[str]]:
        return self._manifest.get("vocabulary")

    @property
    def manifest_nbytes(self) -> int:
        """On-disk size of the manifest — the fan-out descriptor scale."""
        return os.path.getsize(os.path.join(self.directory, MANIFEST_NAME))

    def stamp(self) -> Tuple[str, int, int]:
        """Identity of the on-disk state: ``(realpath, mtime_ns, size)``.

        The same key the per-process open-store cache uses.  Two stamps
        compare equal exactly when they refer to the same finalized store
        contents (finalization writes the manifest atomically, so any
        rebuild changes its mtime/size).  The service layer records the
        stamp at dataset-registration time as the revision boundary of its
        result cache: a store rebuilt in place yields a new stamp, and
        results cached under the old one are never served again.
        """
        stat = os.stat(os.path.join(self.directory, MANIFEST_NAME))
        return (os.path.realpath(self.directory), stat.st_mtime_ns, stat.st_size)

    @property
    def data_nbytes(self) -> int:
        """Total on-disk size of the mapped planes."""
        total = 0
        for filename in self._manifest["planes"].values():
            if filename:
                total += os.path.getsize(os.path.join(self.directory, filename))
        return total

    # -- integrity ---------------------------------------------------------------
    def verify(self, strict: bool = False) -> Dict[str, Any]:
        """Checksum every plane file against the manifest.

        Reads each plane back from disk in chunks (deliberately not through
        the memmaps: corruption must be detectable regardless of what this
        process has already mapped or cached) and compares its CRC-32
        against the value recorded at build time.  Stores built before
        checksums existed verify as ok with the plane marked ``skipped``.

        Args:
            strict: Raise :class:`StoreError` naming the corrupt planes
                instead of returning a failing report.

        Returns:
            ``{"directory", "ok", "planes": {plane: {...}}}`` where each
            plane entry carries ``ok``, ``nbytes``, and either
            ``expected``/``actual`` CRC hex digests or a ``skipped`` /
            ``error`` explanation.
        """
        checksums = self._manifest.get("checksums") or {}
        planes: Dict[str, Dict[str, Any]] = {}
        ok = True
        for key, filename in self._manifest["planes"].items():
            if not filename:
                continue
            entry: Dict[str, Any] = {"file": filename}
            path = os.path.join(self.directory, filename)
            try:
                nbytes, crc = _file_crc32(path)
            except OSError as error:
                entry["ok"] = False
                entry["error"] = f"unreadable: {error}"
                ok = False
                planes[key] = entry
                continue
            entry["nbytes"] = nbytes
            expected = checksums.get(key)
            if expected is None:
                entry["ok"] = True
                entry["skipped"] = "manifest predates plane checksums"
            else:
                entry["expected"] = expected
                entry["actual"] = format(crc, "08x")
                entry["ok"] = entry["actual"] == expected
                ok = ok and entry["ok"]
            planes[key] = entry
        report = {"directory": self.directory, "ok": ok, "planes": planes}
        if strict and not ok:
            bad = ", ".join(
                sorted(key for key, entry in planes.items() if not entry["ok"])
            )
            raise StoreError(
                f"store {self.directory!r} failed checksum verification "
                f"(corrupt plane(s): {bad})"
            )
        return report

    def item_statistics_at(self, position: int) -> Tuple[float, float]:
        """(expected support, variance) of the item at manifest ``position``."""
        esup, variance = self._manifest["item_statistics"][position]
        return (float(esup), float(variance))

    def total_probability(self) -> float:
        return float(sum(stat[0] for stat in self._manifest["item_statistics"]))

    def item_index(self) -> Dict[int, int]:
        """``{item: manifest position}``, built lazily."""
        if self._item_index is None:
            self._item_index = {
                int(item): position for position, item in enumerate(self.items)
            }
        return self._item_index

    # -- planes ------------------------------------------------------------------
    def _open_plane(self, key: str, count: int) -> np.ndarray:
        dtype = np.dtype(_PLANE_DTYPES[key])
        if count == 0:
            empty = np.empty(0, dtype=dtype)
            empty.flags.writeable = False
            return empty
        path = os.path.join(self.directory, self._manifest["planes"][key])
        try:
            actual = os.path.getsize(path)
        except OSError:
            raise StoreError(f"store plane missing: {path}") from None
        if actual != count * dtype.itemsize:
            raise StoreError(
                f"store plane {path} is {actual} bytes, "
                f"manifest expects {count * dtype.itemsize}"
            )
        return np.memmap(path, dtype=dtype, mode="r", shape=(count,))

    def planes(self) -> Tuple[np.ndarray, np.ndarray]:
        """The lazily opened ``(rows, probs)`` memmap planes."""
        if self._planes is None:
            self._planes = (
                self._open_plane("rows", self.nnz),
                self._open_plane("probs", self.nnz),
            )
        return self._planes

    # -- views -------------------------------------------------------------------
    def view(self, start: int = 0, stop: Optional[int] = None) -> "MappedColumnarView":
        """A lazily mapped columnar view of rows ``[start, stop)``."""
        return MappedColumnarView(self, start, stop)

    def database(self) -> "StoreDatabase":
        """A database adapter mining straight off the mapped planes."""
        return StoreDatabase(self)


class _MappedColumns(Mapping):
    """Lazy ``{item: (rows, probs)}`` over the CSR planes of an open store.

    Items whose column is empty within the view's row range are absent —
    exactly the observable behaviour of
    :meth:`~repro.db.columnar.ColumnarView.slice_rows`, which drops empty
    columns from its materialised dict.
    """

    __slots__ = ("_view",)

    def __init__(self, view: "MappedColumnarView") -> None:
        self._view = view

    def __getitem__(self, item: int) -> ItemColumn:
        column = self._view._mapped_column(item)
        if column is None:
            raise KeyError(item)
        return column

    def __iter__(self) -> Iterator[int]:
        view = self._view
        for position, item in enumerate(view._store.items):
            lo, hi = view._resolve_bounds(position)
            if hi > lo:
                yield int(item)

    def __len__(self) -> int:
        return sum(1 for _ in iter(self))


class MappedColumnarView(ColumnarView):
    """A :class:`ColumnarView` whose columns lazily map an on-disk store.

    The view holds a row range ``[start, stop)`` of its store; a column
    access performs at most two binary searches into the mapped rows plane
    and returns slices of the mapped planes (full-range views) or re-based
    copies of just that column's in-range run (sharded views).  Everything
    else — the bitset cascade, occupancy bitmaps, prefix caching, batched
    level evaluation — is the unchanged base-class code operating on the
    lazy mapping, which is what keeps mapped results bitwise identical to
    in-RAM results.

    Pickling ships ``(directory, start, stop)`` only; unpickling re-opens
    the manifest (and raises a clear :class:`StoreError` if the store has
    vanished), which is what makes sharded fan-out of mapped views an
    O(manifest-bytes) dispatch.
    """

    def __init__(self, store: ColumnarStore, start: int = 0, stop: Optional[int] = None) -> None:
        self._bind(store, start, stop)

    def _bind(self, store: ColumnarStore, start: int, stop: Optional[int]) -> None:
        total = store.n_transactions
        stop = total if stop is None else int(stop)
        start = int(start)
        if not 0 <= start <= stop <= total:
            raise ValueError(f"invalid row range [{start}, {stop}) for {total} rows")
        self._store = store
        self._start = start
        self._stop = stop
        self._full = start == 0 and stop == total
        self._n_transactions = stop - start
        # Plain-ndarray views of the memmaps: slicing one skips the memmap
        # subclass's per-slice bookkeeping, so a column costs a fifth as much.
        rows_plane, probs_plane = store.planes()
        self._rows_plane = np.asarray(rows_plane)
        self._probs_plane = np.asarray(probs_plane)
        self._bounds_cache: Dict[int, Tuple[int, int]] = {}
        self._init_caches()
        self._columns = _MappedColumns(self)

    # -- pickling ------------------------------------------------------------------
    @property
    def store_source(self) -> Tuple[str, int, int]:
        """``(directory, start, stop)`` — the view's O(1)-size fan-out descriptor."""
        return (self._store.directory, self._start, self._stop)

    def __getstate__(self):
        directory, start, stop = self.store_source
        return {"directory": directory, "start": start, "stop": stop}

    def __setstate__(self, state) -> None:
        store = ColumnarStore.open(state["directory"])
        self._bind(store, state["start"], state["stop"])

    # -- lazy column resolution ------------------------------------------------------
    def _resolve_bounds(self, position: int) -> Tuple[int, int]:
        """Absolute ``[lo, hi)`` run of manifest item ``position`` within the range."""
        offsets = self._store.offsets
        lo, hi = int(offsets[position]), int(offsets[position + 1])
        if self._full:
            return lo, hi
        bounds = self._bounds_cache.get(position)
        if bounds is None:
            run = self._rows_plane[lo:hi]
            bounds = (
                lo + int(np.searchsorted(run, self._start, side="left")),
                lo + int(np.searchsorted(run, self._stop, side="left")),
            )
            self._bounds_cache[position] = bounds
        return bounds

    def _mapped_column(self, item: int) -> Optional[ItemColumn]:
        position = self._store.item_index().get(item)
        if position is None:
            return None
        lo, hi = self._resolve_bounds(position)
        if lo == hi:
            return None
        rows = self._rows_plane[lo:hi]
        if self._start:
            rows = rows - np.int64(self._start)
            rows.flags.writeable = False
        return rows, self._probs_plane[lo:hi]

    # -- shape overrides ---------------------------------------------------------
    def nnz(self) -> int:
        if self._full:
            return self._store.nnz
        return sum(
            hi - lo
            for lo, hi in (
                self._resolve_bounds(position) for position in range(self._store.n_items)
            )
        )

    def item_statistics(self) -> Dict[int, Tuple[float, float]]:
        """Per-item moments — read from the manifest on full-range views.

        The manifest records ``float(probs.sum())`` / the Bernoulli variance
        sum computed at save time from the very arrays now mapped, and JSON
        round-trips IEEE doubles exactly, so the values are bitwise equal to
        recomputing.  Ranged (shard) views fall back to the base-class
        reduction over their lazily resolved columns.
        """
        if not self._full:
            return super().item_statistics()
        offsets = self._store.offsets
        return {
            int(item): self._store.item_statistics_at(position)
            for position, item in enumerate(self._store.items)
            if offsets[position + 1] > offsets[position]
        }

    def slice_rows(self, start: int, stop: int) -> "MappedColumnarView":
        """A lazily mapped shard of rows ``[start, stop)`` (no materialisation)."""
        if not 0 <= start <= stop <= self._n_transactions:
            raise ValueError(
                f"invalid row range [{start}, {stop}) for {self._n_transactions} rows"
            )
        return MappedColumnarView(self._store, self._start + start, self._start + stop)


class StoreDatabase(UncertainDatabase):
    """An :class:`UncertainDatabase` served by an on-disk columnar store.

    Every miner's columnar evaluation runs entirely off the mapped planes;
    shape statistics come from the manifest.  Only consumers of the *row*
    representation (world sampling's transaction trimming, iteration over
    transaction objects) trigger a lazy one-time materialisation of
    transaction objects, which loads the whole database into memory.
    """

    def __init__(self, store: ColumnarStore) -> None:
        self.store = store
        labels = store.vocabulary_labels
        vocabulary = Vocabulary(labels) if labels is not None else None
        self._adopt(store.n_transactions, None, None, vocabulary, store.name)
        self._columnar = store.view()

    def row_csr(self) -> RowCSR:
        """The mapped columns regrouped by row, each row's items ascending."""
        return self._columnar.row_csr()

    # -- manifest-served shape ----------------------------------------------------
    def stats(self) -> DatabaseStats:
        n = self.store.n_transactions
        items = self.items()
        n_items = len(items)
        total_units = self.store.nnz
        total_probability = self.store.total_probability()
        average_length = total_units / n if n else 0.0
        density = average_length / n_items if n_items else 0.0
        average_probability = total_probability / total_units if total_units else 0.0
        return DatabaseStats(n, n_items, average_length, density, average_probability)


# -- shared-memory shard fan-out ---------------------------------------------------


class ShardSegment:
    """Coordinator-side handle of one exported shared-memory shard.

    The coordinator (the parallel executor) owns the segment's lifetime:
    :meth:`destroy` closes and unlinks it, tolerantly and idempotently, on
    ``close()``/``terminate()`` — segments must never outlive their run.
    """

    def __init__(self, shm: Any, descriptor: Dict[str, Any]) -> None:
        self.shm = shm
        self.descriptor = descriptor

    @property
    def name(self) -> str:
        return self.descriptor["name"]

    @property
    def nbytes(self) -> int:
        return int(self.descriptor["size"])

    def destroy(self) -> None:
        if self.shm is None:
            return
        try:
            self.shm.close()
        except Exception:
            pass
        try:
            self.shm.unlink()
        except FileNotFoundError:
            pass
        except Exception:
            pass
        self.shm = None


def export_shard_segment(view: ColumnarView, name_prefix: str = "repro") -> ShardSegment:
    """Pack an in-RAM shard view into one shared-memory segment.

    Layout: three int64 header words ``(n_transactions, n_items, nnz)``
    followed by the items, offsets, rows and probs planes, all naturally
    aligned.  The data is copied exactly once (into the segment); every
    attaching worker then reads the same physical pages.
    """
    from multiprocessing import shared_memory

    items = view.items()
    columns = [view.column(item) for item in items]
    n_transactions = len(view)
    n_items = len(items)
    nnz = sum(len(rows) for rows, _ in columns)
    items_off = _SHM_HEADER_BYTES
    offsets_off = items_off + 8 * n_items
    rows_off = offsets_off + 8 * (n_items + 1)
    probs_off = rows_off + 8 * nnz
    total = probs_off + 8 * nnz
    name = f"{name_prefix}_{os.getpid()}_{secrets.token_hex(4)}"
    shm = shared_memory.SharedMemory(name=name, create=True, size=max(total, 8))
    try:
        header = np.frombuffer(shm.buf, dtype=np.int64, count=3)
        header[:] = (n_transactions, n_items, nnz)
        items_plane = np.frombuffer(shm.buf, np.int64, n_items, items_off)
        items_plane[:] = items
        offsets_plane = np.frombuffer(shm.buf, np.int64, n_items + 1, offsets_off)
        rows_plane = np.frombuffer(shm.buf, np.int64, nnz, rows_off)
        probs_plane = np.frombuffer(shm.buf, np.float64, nnz, probs_off)
        cursor = 0
        offsets_plane[0] = 0
        for position, (rows, probs) in enumerate(columns):
            rows_plane[cursor : cursor + len(rows)] = rows
            probs_plane[cursor : cursor + len(rows)] = probs
            cursor += len(rows)
            offsets_plane[position + 1] = cursor
        # Drop the buffer exports so close() cannot raise BufferError later.
        del header, items_plane, offsets_plane, rows_plane, probs_plane
    except BaseException:
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
        raise
    descriptor = {
        "name": name,
        "n_transactions": n_transactions,
        "n_items": n_items,
        "nnz": nnz,
        "size": total,
    }
    return ShardSegment(shm, descriptor)


#: process-lifetime pins of attached segments.  The attaching process (a
#: pool worker, or the coordinator itself on the in-process fallback path)
#: holds its mapping until exit: letting the ``SharedMemory`` handle be
#: garbage-collected while NumPy column slices still export its buffer
#: would raise ``BufferError`` from its finalizer.  Unlinking remains the
#: coordinator's job — pinning a handle does not keep a segment alive in
#: ``/dev/shm`` past ``ShardSegment.destroy()``.
_ATTACHED_SEGMENTS: List[Any] = []


def attach_shard_segment(descriptor: Dict[str, Any]) -> ColumnarView:
    """Attach a worker-side, read-only view of an exported shard segment.

    Fails fast with a descriptive :class:`StoreError` when the segment has
    vanished (coordinator closed, crashed, or unlinked early) instead of
    letting workers fall over on undefined reads.  The returned view's
    column arrays are zero-copy slices of the shared buffer.

    Resource-tracker ownership: the *creating* process registered the
    segment, and pool children — fork and spawn alike — inherit that same
    tracker through the multiprocessing preparation data, so the implicit
    attach-side ``register`` (pre-3.13, bpo-38119) is an idempotent no-op
    there and must **not** be undone: unregistering would strip the
    creator's only crash-cleanup entry.  On 3.13+ the redundant
    registration is skipped outright with ``track=False``.
    """
    from multiprocessing import shared_memory

    name = descriptor["name"]
    try:
        try:
            shm = shared_memory.SharedMemory(name=name, track=False)
        except TypeError:  # Python < 3.13: no track parameter
            shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        raise StoreError(
            f"shared-memory segment {name!r} has vanished — the coordinating "
            "executor was closed or its segments were unlinked before fan-out"
        ) from None
    if shm.size < descriptor["size"]:
        shm.close()
        raise StoreError(
            f"shared-memory segment {name!r} is {shm.size} bytes, "
            f"descriptor expects {descriptor['size']}"
        )
    n_items = int(descriptor["n_items"])
    nnz = int(descriptor["nnz"])
    n_transactions = int(descriptor["n_transactions"])
    items_off = _SHM_HEADER_BYTES
    offsets_off = items_off + 8 * n_items
    rows_off = offsets_off + 8 * (n_items + 1)
    probs_off = rows_off + 8 * nnz
    header = np.frombuffer(shm.buf, dtype=np.int64, count=3)
    if tuple(header) != (n_transactions, n_items, nnz):
        shm.close()
        raise StoreError(
            f"shared-memory segment {name!r} header {tuple(header)} does not "
            f"match its descriptor ({n_transactions}, {n_items}, {nnz})"
        )
    items_plane = np.frombuffer(shm.buf, np.int64, n_items, items_off)
    offsets_plane = np.frombuffer(shm.buf, np.int64, n_items + 1, offsets_off)
    rows_plane = np.frombuffer(shm.buf, np.int64, nnz, rows_off)
    probs_plane = np.frombuffer(shm.buf, np.float64, nnz, probs_off)
    rows_plane.flags.writeable = False
    probs_plane.flags.writeable = False
    columns: Dict[int, ItemColumn] = {}
    for position in range(n_items):
        lo, hi = int(offsets_plane[position]), int(offsets_plane[position + 1])
        if lo == hi:
            continue
        columns[int(items_plane[position])] = (rows_plane[lo:hi], probs_plane[lo:hi])
    view = ColumnarView.from_columns(columns, n_transactions)
    # The column slices reference the shared buffer, so the mapping must
    # outlive every view carved from it: pin the handle for process
    # lifetime (see _ATTACHED_SEGMENTS) and on the view itself.
    _ATTACHED_SEGMENTS.append(shm)
    view._shm = shm
    return view
