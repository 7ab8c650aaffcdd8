"""Out-of-core columnar store: memory-mapped planes.

The in-RAM :class:`~repro.db.columnar.ColumnarView` keeps every CSR plane as
live NumPy arrays, which caps dataset scale at physical memory.  This
module removes that limit while preserving the repository's bitwise
contract (rows == columnar == memmap):

**On-disk layout.**  :meth:`ColumnarStore.save` persists a view into a
directory holding one binary file per CSR plane plus a small JSON manifest::

    manifest.json   format/version, n_transactions, items, offsets,
                    dtypes, per-item statistics, optional vocabulary
    rows.bin        int64   — concatenated per-item row indices
    probs.bin       float64 — concatenated existence probabilities

:meth:`ColumnarStore.open` maps the planes with ``np.memmap(mode="r")`` and
returns a :class:`MappedColumnarView` whose columns are resolved as
*slices* of the mapped planes on demand — no plane is ever read eagerly, so
databases far larger than RAM stream through the unchanged bitset cascade
while the OS pages plane data in and out.  The layout is deliberately the
cascade's access pattern: per-item contiguous runs, so column gathers are
sequential reads.  Occupancy bitmaps are built from the columns, like the
in-RAM view's.  Stores written before the bitmap plane was dropped still
carry ``bitmaps.bin``: they open, verify it through the same checksum
loop, and never read it.

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

class StoreError(RuntimeError):
    """A columnar store is missing or malformed."""


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
#: re-opens of one store share a single manifest parse and memmap set
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
    def view(self) -> "MappedColumnarView":
        """A lazily mapped columnar view of the whole store."""
        return MappedColumnarView(self)

    def database(self) -> "StoreDatabase":
        """A database adapter mining straight off the mapped planes."""
        return StoreDatabase(self)


class _MappedColumns(Mapping):
    """Lazy ``{item: (rows, probs)}`` over the CSR planes of an open store.

    Items whose column is empty are absent, as in an in-RAM view.
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
        offsets = self._view._store.offsets
        for position, item in enumerate(self._view._store.items):
            if offsets[position + 1] > offsets[position]:
                yield int(item)

    def __len__(self) -> int:
        return sum(1 for _ in iter(self))


class MappedColumnarView(ColumnarView):
    """A :class:`ColumnarView` whose columns lazily map an on-disk store.

    A column access returns slices of the mapped planes.  Everything
    else — the bitset cascade, occupancy bitmaps, prefix caching, batched
    level evaluation — is the unchanged base-class code operating on the
    lazy mapping, which is what keeps mapped results bitwise identical to
    in-RAM results.
    """

    def __init__(self, store: ColumnarStore) -> None:
        self._store = store
        self._n_transactions = store.n_transactions
        # Plain-ndarray views of the memmaps: slicing one skips the memmap
        # subclass's per-slice bookkeeping, so a column costs a fifth as much.
        rows_plane, probs_plane = store.planes()
        self._rows_plane = np.asarray(rows_plane)
        self._probs_plane = np.asarray(probs_plane)
        self._init_caches()
        self._columns = _MappedColumns(self)
        # A column is a slice of the planes: seed blocks span them.
        offsets = store.offsets.tolist()
        self._units = (
            self._rows_plane,
            self._probs_plane,
            {
                int(item): (offsets[position], offsets[position + 1])
                for position, item in enumerate(store.items.tolist())
            },
        )

    # -- lazy column resolution ------------------------------------------------------
    def _mapped_column(self, item: int) -> Optional[ItemColumn]:
        position = self._store.item_index().get(item)
        if position is None:
            return None
        offsets = self._store.offsets
        lo, hi = int(offsets[position]), int(offsets[position + 1])
        if lo == hi:
            return None
        return self._rows_plane[lo:hi], self._probs_plane[lo:hi]

    # -- shape overrides ---------------------------------------------------------
    def nnz(self) -> int:
        return self._store.nnz

    def item_statistics(self) -> Mapping[int, Tuple[float, float]]:
        """Per-item moments, read from the manifest once per view.

        Memoised like the base view's; :meth:`_compute_item_statistics`
        does the reading.  The method stays on this class so that tracing
        by class (``perfbench/tracer.py`` looks it up here) still finds it.
        """
        return super().item_statistics()

    def _compute_item_statistics(self) -> Dict[int, Tuple[float, float]]:
        """Per-item moments, read from the manifest.

        The manifest records ``float(probs.sum())`` / the Bernoulli variance
        sum computed at save time from the very arrays now mapped, and JSON
        round-trips IEEE doubles exactly, so the values are bitwise equal to
        recomputing.
        """
        offsets = self._store.offsets
        return {
            int(item): self._store.item_statistics_at(position)
            for position, item in enumerate(self._store.items)
            if offsets[position + 1] > offsets[position]
        }


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
