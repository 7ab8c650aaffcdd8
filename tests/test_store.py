"""Out-of-core columnar store: round-trips, mapped views, miner equivalence.

The store's contract is *bitwise*: a database persisted with
:meth:`ColumnarStore.save` and reopened as a lazily mapped view must be
indistinguishable — columns, statistics, bitmaps and every miner's
output — from the in-RAM :class:`ColumnarView` it was built from.  The
equivalence grid at the bottom runs every registered miner on the store
against the in-RAM run (bitwise), which ``test_reference_equivalence``
pins to the brute-force references.
"""

from __future__ import annotations

import json
import os
import shutil
import zlib

import numpy as np
import pytest

from repro.core.miner import mine
from repro.core.registry import algorithm_names, get_algorithm
from repro.core.topk import mine_topk
from repro.db import UncertainDatabase
from repro.db.store import (
    STORE_ENV,
    ColumnarStore,
    MappedColumnarView,
    StoreDatabase,
    StoreError,
    resolve_store_path,
)

from helpers import make_random_database


@pytest.fixture(scope="module")
def database():
    return make_random_database(n_transactions=60, n_items=8, density=0.5, seed=21)


@pytest.fixture(scope="module")
def store(database, tmp_path_factory):
    directory = tmp_path_factory.mktemp("store") / "db-store"
    return ColumnarStore.save(database, str(directory))


class TestRoundTrip:
    def test_columns_bitwise(self, database, store):
        view = database.columnar()
        mapped = store.view()
        assert mapped.items() == view.items()
        for item in view.items():
            rows, probs = view.column(item)
            mapped_rows, mapped_probs = mapped.column(item)
            assert np.array_equal(np.asarray(mapped_rows), rows)
            assert np.array_equal(np.asarray(mapped_probs), probs)

    def test_statistics_served_from_manifest_bitwise(self, database, store):
        # JSON round-trips IEEE doubles exactly, so the manifest statistics
        # must equal the in-RAM reductions bit for bit.
        assert store.view().item_statistics() == database.columnar().item_statistics()

    def test_bitmaps_bitwise(self, database, store):
        view = database.columnar()
        mapped = store.view()
        for item in view.items():
            assert np.array_equal(
                np.asarray(mapped.item_bitmap(item)), view.item_bitmap(item)
            )

    def test_sizes_and_identity(self, database, store):
        view = database.columnar()
        assert len(store.view()) == len(view)
        assert store.n_transactions == len(database)
        assert store.view().nnz() == view.nnz()
        assert store.nnz == view.nnz()
        assert store.name == database.name

    def test_reopen_is_cached_per_process(self, store):
        assert ColumnarStore.open(store.directory) is ColumnarStore.open(
            store.directory
        )

    def test_open_missing_directory_raises(self, tmp_path):
        with pytest.raises(StoreError, match="manifest.json is missing"):
            ColumnarStore.open(str(tmp_path / "nowhere"))

    def test_open_rejects_foreign_manifest(self, store, tmp_path):
        clone = tmp_path / "clone"
        shutil.copytree(store.directory, clone)
        manifest_path = clone / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format"] = "not-a-store"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="not a repro-columnar-store manifest"):
            ColumnarStore.open(str(clone))

    def test_resolve_store_path(self, store, monkeypatch):
        assert resolve_store_path(store.directory) == store.directory
        monkeypatch.setenv(STORE_ENV, store.directory)
        assert resolve_store_path() == store.directory
        monkeypatch.delenv(STORE_ENV)
        with pytest.raises(StoreError):
            resolve_store_path()


class TestWriterErrors:
    def test_items_must_ascend(self, tmp_path):
        with pytest.raises(StoreError, match="ascending item order"):
            with ColumnarStore.writer(str(tmp_path / "s"), 4) as writer:
                writer.add_column(2, np.array([0]), np.array([0.5]))
                writer.add_column(1, np.array([1]), np.array([0.5]))

    def test_rows_must_fit_database(self, tmp_path):
        with pytest.raises(StoreError, match="outside"):
            with ColumnarStore.writer(str(tmp_path / "s"), 4) as writer:
                writer.add_column(1, np.array([0, 4]), np.array([0.5, 0.5]))

    def test_rows_and_probs_must_align(self, tmp_path):
        with pytest.raises(StoreError, match="equal length"):
            with ColumnarStore.writer(str(tmp_path / "s"), 4) as writer:
                writer.add_column(1, np.array([0, 1]), np.array([0.5]))

    def test_rows_must_strictly_increase(self, tmp_path):
        with pytest.raises(StoreError, match="strictly increasing"):
            with ColumnarStore.writer(str(tmp_path / "s"), 4) as writer:
                writer.add_column(1, np.array([1, 1]), np.array([0.5, 0.5]))

    def test_aborted_writer_leaves_no_manifest(self, tmp_path):
        directory = tmp_path / "aborted"
        with pytest.raises(RuntimeError, match="boom"):
            with ColumnarStore.writer(str(directory), 4) as writer:
                writer.add_column(1, np.array([0]), np.array([0.5]))
                raise RuntimeError("boom")
        assert not (directory / "manifest.json").exists()
        with pytest.raises(StoreError, match="manifest.json is missing"):
            ColumnarStore.open(str(directory))


class TestMappedView:
    def test_full_view_columns_are_file_backed(self, store):
        rows_plane, probs_plane = store.planes()
        rows, probs = store.view().column(store.view().items()[0])
        assert type(rows) is np.ndarray and type(probs) is np.ndarray
        assert np.shares_memory(rows, rows_plane)
        assert np.shares_memory(probs, probs_plane)
        assert not rows.flags.writeable and not probs.flags.writeable


def _add_legacy_bitmap_plane(directory) -> None:
    """Give a store the ``bitmaps.bin`` plane that older writers emitted.

    One ``np.packbits`` occupancy row per manifest item, plus the manifest's
    plane entry, dtype, width and CRC-32, exactly as those writers laid
    them out.
    """
    manifest_path = os.path.join(directory, "manifest.json")
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    n_transactions = manifest["n_transactions"]
    rows_plane = np.fromfile(os.path.join(directory, "rows.bin"), dtype=np.int64)
    offsets = manifest["offsets"]
    payload = b""
    for position in range(len(manifest["items"])):
        occupied = np.zeros(n_transactions, dtype=bool)
        occupied[rows_plane[offsets[position] : offsets[position + 1]]] = True
        payload += np.packbits(occupied).tobytes()
    with open(os.path.join(directory, "bitmaps.bin"), "wb") as handle:
        handle.write(payload)
    manifest["planes"]["bitmaps"] = "bitmaps.bin"
    manifest["dtypes"]["bitmaps"] = np.dtype(np.uint8).str
    manifest["bitmap_width"] = (n_transactions + 7) // 8
    manifest["checksums"]["bitmaps"] = format(zlib.crc32(payload) & 0xFFFFFFFF, "08x")
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)


class TestPlaneLayout:
    def test_new_store_holds_only_rows_and_probs(self, store):
        assert sorted(os.listdir(store.directory)) == [
            "manifest.json", "probs.bin", "rows.bin",
        ]
        assert set(store.verify()["planes"]) == {"rows", "probs"}

    def test_store_with_bitmap_plane_opens_verifies_and_mines_bitwise(
        self, store, tmp_path
    ):
        legacy = tmp_path / "legacy"
        shutil.copytree(store.directory, legacy)
        _add_legacy_bitmap_plane(str(legacy))
        old = ColumnarStore.open(str(legacy))
        report = old.verify(strict=True)
        assert report["ok"] and report["planes"]["bitmaps"]["ok"]
        for algorithm, params in (
            ("uapriori", {"min_esup": 0.1}),
            ("dpb", {"min_sup": 0.2, "pft": 0.7}),
            ("uh-mine", {"min_esup": 0.1}),
        ):
            ours = mine(old.database(), algorithm=algorithm, **params)
            theirs = mine(store.database(), algorithm=algorithm, **params)
            assert len(ours) > 0
            _assert_bitwise(ours, theirs)

    def test_bitmap_plane_corruption_is_still_detected(self, store, tmp_path):
        legacy = tmp_path / "legacy-corrupt"
        shutil.copytree(store.directory, legacy)
        _add_legacy_bitmap_plane(str(legacy))
        with open(legacy / "bitmaps.bin", "r+b") as handle:
            first = handle.read(1)
            handle.seek(0)
            handle.write(bytes([first[0] ^ 0xFF]))
        report = ColumnarStore.open(str(legacy)).verify()
        assert not report["ok"]
        assert not report["planes"]["bitmaps"]["ok"]
        assert report["planes"]["probs"]["ok"]


class TestStoreDatabase:
    def test_transactions_match_source(self, database, store):
        store_db = store.database()
        assert isinstance(store_db, StoreDatabase)
        assert isinstance(store_db, UncertainDatabase)
        assert len(store_db) == len(database)
        assert store_db.items() == database.items()
        for ours, theirs in zip(store_db, database):
            assert ours.units == theirs.units

    def test_stats_served_from_manifest(self, database, store):
        ours = store.database().stats()
        theirs = database.stats()
        assert ours.n_transactions == theirs.n_transactions
        assert ours.n_items == theirs.n_items
        assert ours.average_length == pytest.approx(theirs.average_length)
        assert ours.density == pytest.approx(theirs.density)
        assert ours.average_probability == pytest.approx(theirs.average_probability)

    def test_columnar_is_mapped(self, store):
        assert isinstance(store.database().columnar(), MappedColumnarView)


def _thresholds(algorithm: str) -> dict:
    if get_algorithm(algorithm).family == "expected":
        return {"min_esup": 0.2}
    return {"min_sup": 0.3, "pft": 0.7}


def _assert_bitwise(result, reference):
    assert result.itemset_keys() == reference.itemset_keys()
    twins = {record.itemset.items: record for record in reference}
    for record in result:
        twin = twins[record.itemset.items]
        assert record.expected_support == twin.expected_support
        assert record.variance == twin.variance
        assert record.frequent_probability == twin.frequent_probability


class TestMinerEquivalenceGrid:
    """in-RAM columnar == memmap-store for every registered miner and
    top-k evaluator."""

    @pytest.mark.parametrize("algorithm", algorithm_names())
    def test_store_grid(self, database, store, algorithm):
        thresholds = _thresholds(algorithm)
        columnar = mine(database, algorithm=algorithm, **thresholds)
        mapped = mine(store.database(), algorithm=algorithm, **thresholds)
        _assert_bitwise(mapped, columnar)

    @pytest.mark.parametrize("evaluator", ["esup", "dp", "dc", "normal", "poisson"])
    def test_store_topk_grid(self, database, store, evaluator):
        min_sup = None if evaluator == "esup" else 0.3
        columnar = mine_topk(database, 8, algorithm=evaluator, min_sup=min_sup)
        mapped = mine_topk(store.database(), 8, algorithm=evaluator, min_sup=min_sup)
        assert mapped.ranked_keys() == columnar.ranked_keys()
        _assert_bitwise(mapped, columnar)
