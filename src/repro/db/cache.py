"""Byte-budgeted LRU caches for the columnar view.

The columnar view memoises three kinds of derived arrays — dense per-item
probability columns, packed occupancy bitmaps and cross-level prefix
columns.  All three are pure functions of the (immutable) database, so a
cache hit can never change a result; the only question is how much memory
the memos may pin.  :class:`ByteBudgetLRU` answers it uniformly: every
cache holds at most ``budget_bytes`` of NumPy payload and evicts in strict
least-recently-used order, so one unlucky workload (many distinct items,
deep levels, huge databases) degrades to recomputation instead of
unbounded growth.

The view's budgets are module constants of :mod:`repro.db.columnar`
(``DENSE_CACHE_BYTES``, ``BITMAP_CACHE_BYTES``, ``PREFIX_CACHE_BYTES``); the
service layer sizes its caches from ``REPRO_SERVICE_*`` variables through
:func:`resolve_budget`.

>>> cache = ByteBudgetLRU(budget_bytes=64)
>>> import numpy as np
>>> cache.put("a", np.zeros(4))          # 32 bytes
>>> cache.put("b", np.zeros(4))          # 64 bytes total: at budget
>>> cache.put("c", np.zeros(4))          # evicts "a" (least recently used)
>>> cache.get("a") is None, cache.get("b") is not None
(True, True)
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Any, Hashable, Optional

import numpy as np

__all__ = [
    "ByteBudgetLRU",
    "resolve_budget",
]


def resolve_budget(env_name: str, default: int) -> int:
    """Read a byte budget from the environment (missing/empty → default)."""
    raw = os.environ.get(env_name, "").strip()
    if not raw:
        return int(default)
    budget = int(raw)
    if budget < 0:
        raise ValueError(f"{env_name} must be >= 0, got {budget}")
    return budget


def _payload_nbytes(value: Any) -> int:
    """Byte size of a cached value: an ndarray or a tuple/list of ndarrays.

    Arrays are charged their full ``nbytes``.  Non-array values may opt in
    by exposing a ``payload_nbytes`` attribute (the service layer's
    warm-dataset and cached-result wrappers do), which is taken at face
    value.
    """
    declared = getattr(value, "payload_nbytes", None)
    if declared is not None and not isinstance(value, np.ndarray):
        return int(declared)
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (tuple, list)):
        return sum(_payload_nbytes(part) for part in value)
    return 0


class ByteBudgetLRU:
    """An LRU mapping bounded by the total NumPy payload it retains.

    All operations are thread-safe: a single re-entrant lock guards the
    recency order and the byte accounting.  Without it, two service threads
    interleaving ``put`` could leave ``nbytes`` permanently out of sync with
    the retained entries (the ``pop``/``insert``/evict sequence is not
    atomic), and a ``get`` racing an eviction could ``move_to_end`` a key
    that no longer exists.

    Parameters
    ----------
    budget_bytes:
        Maximum total payload (``ndarray.nbytes``, summed over tuple/list
        values).  ``0`` disables the cache entirely (every ``get`` misses,
        every ``put`` is dropped), which keeps call sites branch-free.
    """

    __slots__ = (
        "budget_bytes",
        "nbytes",
        "hits",
        "misses",
        "evictions",
        "_entries",
        "_lock",
    )

    def __init__(self, budget_bytes: int) -> None:
        self.budget_bytes = int(budget_bytes)
        #: current total payload of the retained values
        self.nbytes = 0
        self.hits = 0
        self.misses = 0
        #: entries dropped by budget pressure (``clear`` and ``pop`` do not
        #: count — only LRU evictions forced by ``put``)
        self.evictions = 0
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> list:
        """The retained keys, least- to most-recently used (a snapshot)."""
        with self._lock:
            return list(self._entries)

    def peek(self, key: Hashable) -> Optional[Any]:
        """Return the cached value without touching recency or hit counters.

        For index scans (the service result cache walks whole key groups to
        find a filter source): a scan that ``get``-refreshed every candidate
        would promote entries the caller never served.
        """
        with self._lock:
            return self._entries.get(key)

    def get(self, key: Hashable) -> Optional[Any]:
        """Return the cached value (refreshing its recency) or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
            self._entries.move_to_end(key)
            return entry

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``value``, evicting least-recently-used entries over budget.

        A value larger than the whole budget is not retained at all (it
        would immediately evict everything else for a single-use entry).
        """
        size = _payload_nbytes(value)
        if size > self.budget_bytes:
            return
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self.nbytes -= _payload_nbytes(previous)
            self._entries[key] = value
            self.nbytes += size
            while self.nbytes > self.budget_bytes and self._entries:
                _, evicted = self._entries.popitem(last=False)
                self.nbytes -= _payload_nbytes(evicted)
                self.evictions += 1

    def pop(self, key: Hashable) -> Optional[Any]:
        """Remove and return the value cached under ``key`` (``None`` if absent)."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is not None:
                self.nbytes -= _payload_nbytes(entry)
            return entry

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.nbytes = 0
