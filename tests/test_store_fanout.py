"""Zero-copy shard fan-out: segments, payload size, lifecycle, fail-fast.

Pins the three safety properties of the shared-memory dispatch path:

* attach/export is bitwise faithful and payloads stay descriptor-sized,
* every segment an executor exports is unlinked by ``close()`` and
  ``terminate()`` — nothing may leak into ``/dev/shm``,
* a vanished source (unlinked segment, deleted store directory) fails
  fast with a diagnosable error instead of a worker respawn storm.
"""

from __future__ import annotations

import glob
import os
import pickle
import shutil

import numpy as np
import pytest

from repro import faults
from repro.core import parallel
from repro.core.miner import mine
from repro.core.parallel import ParallelExecutor
from repro.db.store import (
    ColumnarStore,
    StoreError,
    attach_shard_segment,
    export_shard_segment,
)

from helpers import make_random_database


@pytest.fixture(scope="module")
def database():
    return make_random_database(n_transactions=50, n_items=7, density=0.5, seed=33)


def _shm_segments() -> set:
    return set(glob.glob("/dev/shm/repro_*"))


class TestSegmentRoundTrip:
    def test_attach_is_bitwise(self, database):
        view = database.columnar()
        segment = export_shard_segment(view)
        try:
            attached = attach_shard_segment(segment.descriptor)
            assert attached.items() == view.items()
            assert len(attached) == len(view)
            for item in view.items():
                rows, probs = view.column(item)
                attached_rows, attached_probs = attached.column(item)
                assert np.array_equal(np.asarray(attached_rows), rows)
                assert np.array_equal(np.asarray(attached_probs), probs)
        finally:
            segment.destroy()

    def test_destroy_is_idempotent(self, database):
        segment = export_shard_segment(database.columnar())
        segment.destroy()
        segment.destroy()
        assert segment.name not in {os.path.basename(p) for p in _shm_segments()}

    def test_attach_vanished_segment_raises(self, database):
        segment = export_shard_segment(database.columnar())
        descriptor = dict(segment.descriptor)
        segment.destroy()
        with pytest.raises(StoreError, match="has vanished"):
            attach_shard_segment(descriptor)


class TestDispatchPayload:
    def test_shm_payload_is_descriptor_sized(self, database):
        shards = database.partition(3).shards
        pickle_bytes = len(pickle.dumps(shards))  # shipping the views whole
        with ParallelExecutor(2, shard_views=shards) as executor:
            shm_bytes = executor.dispatch_payload_nbytes()
        assert shm_bytes < 2048
        assert shm_bytes < pickle_bytes

    def test_mapped_shards_ship_as_store_sources(self, database, tmp_path):
        store = ColumnarStore.save(database, str(tmp_path / "store"))
        n = len(database)
        shards = [store.view(0, n // 2), store.view(n // 2, n)]
        with ParallelExecutor(2, shard_views=shards) as executor:
            assert executor.dispatch_payload_nbytes() < 2048


class TestSegmentLifecycle:
    def test_close_unlinks_segments(self, database):
        before = _shm_segments()
        shards = database.partition(2).shards
        executor = ParallelExecutor(2, shard_views=shards)
        executor.map_shard_method("nnz")
        executor.close()
        assert _shm_segments() == before

    def test_terminate_unlinks_segments(self, database):
        before = _shm_segments()
        shards = database.partition(2).shards
        executor = ParallelExecutor(2, shard_views=shards)
        executor.map_shard_method("nnz")
        executor.terminate()
        assert _shm_segments() == before

    def test_exception_inside_context_unlinks_segments(self, database):
        before = _shm_segments()
        shards = database.partition(2).shards
        with pytest.raises(RuntimeError, match="boom"):
            with ParallelExecutor(2, shard_views=shards) as executor:
                executor.map_shard_method("nnz")
                raise RuntimeError("boom")
        assert _shm_segments() == before

    def test_parallel_mine_leaves_no_segments(self, database):
        before = _shm_segments()
        serial = mine(database, algorithm="uapriori", min_esup=0.2)
        sharded = mine(
            database, algorithm="uapriori", min_esup=0.2, workers=2, shards=3
        )
        assert sharded.itemset_keys() == serial.itemset_keys()
        assert _shm_segments() == before


class TestFailFast:
    def test_vanished_store_directory_fails_before_fanout(self, database, tmp_path):
        directory = str(tmp_path / "doomed")
        store = ColumnarStore.save(database, directory)
        n = len(database)
        shards = [store.view(0, n // 2), store.view(n // 2, n)]
        executor = ParallelExecutor(2, shard_views=shards)
        try:
            shutil.rmtree(directory)
            with pytest.raises(RuntimeError, match="store directory vanished"):
                executor.map_shard_method("nnz")
        finally:
            executor.close()

    def test_worker_reports_vanished_segment(self, database, monkeypatch):
        # The pool initializer disables fault injection for its process;
        # run here, in the pytest process, that must be undone afterwards.
        monkeypatch.setattr(faults, "_DISABLED", faults._DISABLED)
        segment = export_shard_segment(database.columnar())
        descriptor = dict(segment.descriptor)
        segment.destroy()
        try:
            parallel._install_worker_shards([("shm", descriptor)])
            assert parallel._WORKER_ATTACH_ERROR is not None
            assert "vanished" in parallel._WORKER_ATTACH_ERROR
            with pytest.raises(RuntimeError, match="shard attachment failed"):
                parallel._shard_method_task((0, "nnz", (), {}))
        finally:
            parallel._install_worker_shards(None)
