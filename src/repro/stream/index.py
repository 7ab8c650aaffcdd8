"""Incremental support statistics over a sliding window.

Every moment the miners consume has an exact merge operator over disjoint
row sets: expectations and variances add, maximum attainable supports add.
:class:`IncrementalSupportIndex` keeps a perfect binary segment tree of
those sums whose leaves are the window's ring-buffer slots.  A leaf holds a
candidate's single-transaction statistics for whatever transaction
currently occupies the slot (zero while the slot is empty); an internal
node holds the sum of its children, so the root is the candidate's
statistics over the whole window.  When the window slides by ``k``
transactions exactly ``k`` leaves change, and re-merging only their
ancestors refreshes the root in ``O(k + log W)`` node merges.  The moment
trees of all registered candidates live in ``(2 * size, n_candidates)``
arrays, so a dirty level re-merge is one NumPy addition covering every
candidate.

Exact tails ``Pr[sup(X) >= c]`` come from two stacks of DP states, the
two-stacks sliding-window aggregation of Tangwongsan, Hirzel and
Schneider (PVLDB 8(7), 2015) with the paper's DP step as its operator.
The resident rows, in arrival order, are split into a *front* (the oldest
rows, resident at the last *flip*) and a *back* (every row that arrived
since):

* the back holds one tail state ``T[j] = Pr[sup_back >= j]``, ``j = 0..m``,
  per candidate; an arrival is one step of the batch DP recurrence
  (:func:`~repro.core.support.frequent_probabilities_dp_batch`);
* the front holds capped suffix PMFs ``P[0..m-1], P[>=m]`` of its rows,
  computed newest to oldest at the flip, one state kept every
  ``B = ceil(sqrt(W))`` rows; after evictions the front's state is
  re-derived from the nearest kept state in at most ``B - 1`` steps;
* a query is one non-negative dot product,
  ``sum_{i<c} P[i] * T[c - i] + sum_{i>=c} P[i]``.

The steps run through the compiled kernels of :mod:`repro.core.kernels`
when they build (a slide's arrivals, or a run of front rows between kept
states, in one call), and through the NumPy steps otherwise: the same
bits either way.

``m`` is the largest ``min_count`` queried so far.  A query *flips* —
every resident row moves to the front and the back restarts empty — when
the front is spent under a full window, or after a change that is not
first-in-first-out (or an eviction that found the front empty) marked the
states stale.  A full window sliding by ``k`` flips once every ``W / k``
slides.  Tail states are opt-in per candidate (:meth:`ensure_pmfs`): the
expected-support miners never pay for them.

Two exactness properties hold by construction:

* **rebuild equivalence** — every tree node is a pure function of its
  children, so incremental moments are *bitwise identical* to rebuilding
  the tree from the same slot states;
* **batch agreement** — leaf probabilities multiply in candidate order
  exactly like the columnar view, moments add exactly, and every tail
  step is the batch DP's own arithmetic, so streaming decisions match
  batch decisions (bitwise on windows whose probabilities are exactly
  representable; within DP round-off otherwise).

>>> index = IncrementalSupportIndex(capacity=4)
>>> index.ensure([(1,)])
1
>>> index.apply([(0, {1: 0.5}), (1, {1: 0.5})])
>>> index.expected_supports([(1,)]).tolist()
[1.0]
>>> index.frequent_probabilities([(1,)], 1).tolist()
[0.75]
>>> index.apply([(0, {2: 1.0})])        # slot 0 evicts item 1
>>> index.expected_supports([(1,)]).tolist()
[0.5]
"""

from __future__ import annotations

import math
from collections import deque
from itertools import islice
from typing import Deque, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core import kernels

__all__ = ["IncrementalSupportIndex"]

Candidate = Tuple[int, ...]


def _tail_step(tails: np.ndarray, p: np.ndarray, rows: int) -> None:
    """Add one row to tail states ``T[j] = Pr[sup >= j]`` of ``rows`` rows.

    The step of :func:`~repro.core.support.frequent_probabilities_dp_batch`,
    operand for operand; ``p`` is a ``(n, 1)`` column.  Entries above
    ``rows + 1`` are zero and stay zero, so they are skipped.
    """
    upper = min(rows + 1, tails.shape[1] - 1)
    tails[:, 1 : upper + 1] = tails[:, :upper] * p + tails[:, 1 : upper + 1] * (1.0 - p)


def _pmf_step(pmfs: np.ndarray, p: np.ndarray, rows: int) -> None:
    """Add one row to capped PMFs ``P[0..m-1], P[>=m]`` of ``rows`` rows.

    The step of :func:`~repro.core.support.exact_pmf_dynamic_programming`,
    with the mass shifted past ``m - 1`` collected in the last entry.
    """
    cap = pmfs.shape[1] - 1
    q = 1.0 - p
    if rows + 1 >= cap:
        pmfs[:, cap : cap + 1] += pmfs[:, cap - 1 : cap] * p
    upper = min(rows + 1, cap - 1)
    pmfs[:, 1 : upper + 1] = pmfs[:, 1 : upper + 1] * q + pmfs[:, :upper] * p
    pmfs[:, :1] *= q


def _tail_steps(tails: np.ndarray, probabilities: np.ndarray, rows: int) -> None:
    """:func:`_tail_step` for each row of the ``(steps, n)`` ``probabilities``, in order.

    One call of the compiled kernel (:mod:`repro.core.kernels`) when it is
    available, the NumPy steps otherwise; the bits are the same.
    """
    if kernels.library() is not None:
        kernels.tail_steps(tails, probabilities, rows)
        return
    for offset, p in enumerate(probabilities):
        _tail_step(tails, p[:, None], rows + offset)


def _pmf_steps(pmfs: np.ndarray, probabilities: np.ndarray, rows: int) -> None:
    """:func:`_pmf_step` for each row of the ``(steps, n)`` ``probabilities``, in order."""
    if kernels.library() is not None:
        kernels.pmf_steps(pmfs, probabilities, rows)
        return
    for offset, p in enumerate(probabilities):
        _pmf_step(pmfs, p[:, None], rows + offset)


class IncrementalSupportIndex:
    """Per-candidate support statistics of a sliding window, maintained in place.

    Parameters
    ----------
    capacity:
        The window capacity ``W`` (one tree leaf per ring-buffer slot).
    with_pmfs:
        Maintain exact tail states for *every* registered candidate.  The
        streaming miners leave this off and opt candidates in selectively
        through :meth:`ensure_pmfs`; turning it on is convenient for direct
        index users and the equivalence tests.

    The index stores the current slot contents itself (one ``{item:
    probability}`` mapping per slot), so candidates registered mid-stream
    are back-filled from the resident transactions without consulting the
    window.  The order in which changes reach :meth:`apply` is the arrival
    order of the tail stacks.
    """

    def __init__(
        self,
        capacity: int,
        with_pmfs: bool = False,
        track_variance: bool = True,
        track_nonzero: bool = True,
    ) -> None:
        capacity = int(capacity)
        if capacity < 1:
            raise ValueError(f"index capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.with_pmfs = with_pmfs
        # Expected support is always maintained; the variance and non-zero
        # trees are opt-out so consumers that never ask (the streaming
        # expected-support miner) skip two thirds of the merge work.
        self.track_variance = track_variance
        self.track_nonzero = track_nonzero
        #: tree size: capacity rounded up to a power of two (all leaves on
        #: one level, so dirty sets propagate level by level)
        self.size = 1 << (capacity - 1).bit_length() if capacity > 1 else 1
        self._slots: List[Optional[Mapping[int, float]]] = [None] * capacity

        # -- item compaction: window items -> columns of the slot-probability
        # matrix.  Column 0 is a constant 1.0 (the padding column candidate
        # item lists point at beyond their length).
        self._item_column: Dict[int, int] = {}
        self._slot_probs = np.zeros((capacity, 8), dtype=float)
        self._slot_probs[:, 0] = 1.0

        # -- moment trees, one column per registered candidate.  The tracked
        # statistics live as planes of one stacked array so a level re-merge
        # is a single sliced addition covering every plane; ``expected``,
        # ``variance`` and ``nonzero`` are views into the planes (non-zero
        # counts are exact small integers, safely represented in floats).
        self._columns: Dict[Candidate, int] = {}
        self._free: List[int] = []
        self._n_allocated = 0
        self._cand_items = np.zeros((0, 1), dtype=np.int64)
        self._n_planes = 1 + int(track_variance) + int(track_nonzero)
        self._variance_plane = 1 if track_variance else None
        self._nonzero_plane = (
            1 + int(track_variance) if track_nonzero else None
        )
        self._moments = np.zeros((self._n_planes, 2 * self.size, 0), dtype=float)
        self._bind_moment_views()

        # -- tail stacks.  ``_order`` lists the occupied slots oldest first;
        # while the states are fresh it is ``_front[_evicted:]`` followed by
        # the back rows.  ``_states`` holds one row per allocated PMF
        # column; ``_spans`` are its column ranges: span 0 is the back's tail
        # state, span 1 the front's PMF at row ``_front_at``, and span 2 + t
        # the front's PMF at row ``min(t * B, len(_front))``, cut to the at
        # most ``W - t * B`` rows it can hold.
        self._pmf_columns: Dict[Candidate, int] = {}
        self._pmf_free: List[int] = []
        self._pmf_allocated = 0
        #: the moment column of every PMF column (one entry per state row)
        self._pmf_moment = np.zeros(0, dtype=np.int64)
        self._order: Deque[int] = deque()
        self._front: List[int] = []
        self._evicted = 0
        self._front_at = 0
        self._stale = False
        #: rows between kept front states, ``ceil(sqrt(W))``
        self._block = math.isqrt(capacity - 1) + 1
        #: ``m``: the states cap supports at the largest ``min_count`` queried
        self._width = 0
        self._spans = self._layout(0)
        self._states = np.zeros((0, self._spans[-1].stop), dtype=float)

        #: lifetime counters (benchmark/test introspection)
        self.node_merges = 0
        #: tail DP steps, one per (row, PMF candidate)
        self.pmf_steps = 0
        #: times every resident row moved to the front stack
        self.flips = 0

    def _bind_moment_views(self) -> None:
        self.expected = self._moments[0]
        self.variance = (
            self._moments[self._variance_plane]
            if self._variance_plane is not None
            else None
        )
        self.nonzero = (
            self._moments[self._nonzero_plane]
            if self._nonzero_plane is not None
            else None
        )

    # -- candidate registry ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._columns)

    def __contains__(self, candidate: Iterable[int]) -> bool:
        return tuple(candidate) in self._columns

    def registered(self) -> List[Candidate]:
        """The registered candidates (no particular order)."""
        return list(self._columns)

    def _item_columns(self, candidate: Candidate) -> List[int]:
        columns = []
        for item in candidate:
            column = self._item_column.get(item)
            if column is None:
                column = len(self._item_column) + 1
                if column >= self._slot_probs.shape[1]:
                    grown = np.zeros(
                        (self.capacity, 2 * self._slot_probs.shape[1]), dtype=float
                    )
                    grown[:, : self._slot_probs.shape[1]] = self._slot_probs
                    self._slot_probs = grown
                # Back-fill the new item's column from the resident slots.
                self._slot_probs[:, column] = [
                    units.get(item, 0.0) if units is not None else 0.0
                    for units in self._slots
                ]
                self._item_column[item] = column
            columns.append(column)
        return columns

    def _leaf_probabilities(
        self, slot_rows: np.ndarray, columns: np.ndarray
    ) -> np.ndarray:
        """``p_i(X)`` for the given slots x candidate columns, in candidate order.

        The product is accumulated item by item in candidate order starting
        from 1.0, exactly like the columnar view and the per-transaction
        reference (an absent item's 0.0 annihilates the product, matching
        their early exit).
        """
        gathered = self._slot_probs[slot_rows]
        probabilities = np.ones((len(slot_rows), len(columns)), dtype=float)
        items = self._cand_items[columns]
        for position in range(items.shape[1]):
            probabilities *= gathered[:, items[:, position]]
        return probabilities

    def _allocate_column(self, candidate: Candidate) -> int:
        if self._free:
            column = self._free.pop()
        else:
            column = self._n_allocated
            self._n_allocated += 1
            if column >= self._moments.shape[2]:
                grown_width = max(8, 2 * (column + 1))
                grown = np.zeros(
                    (self._n_planes, 2 * self.size, grown_width), dtype=float
                )
                grown[:, :, : self._moments.shape[2]] = self._moments
                self._moments = grown
                self._bind_moment_views()
                items_grown = np.zeros(
                    (grown_width, self._cand_items.shape[1]), dtype=np.int64
                )
                items_grown[: self._cand_items.shape[0]] = self._cand_items
                self._cand_items = items_grown
        self._columns[candidate] = column
        return column

    def ensure(self, candidates: Sequence[Iterable[int]]) -> int:
        """Register any unregistered candidates, back-filled from the slots.

        Registration costs one ``O(W)`` tree build per new candidate
        (vectorized across the batch); from then on the candidate rides the
        incremental ``O(k log W)`` moment updates.  Returns the number of
        candidates newly registered.
        """
        fresh: List[int] = []
        for candidate in candidates:
            key = tuple(candidate)
            if key in self._columns:
                continue
            item_columns = self._item_columns(key)
            if len(item_columns) > self._cand_items.shape[1]:
                items_grown = np.zeros(
                    (self._cand_items.shape[0], len(item_columns)), dtype=np.int64
                )
                items_grown[:, : self._cand_items.shape[1]] = self._cand_items
                self._cand_items = items_grown
            column = self._allocate_column(key)
            self._cand_items[column] = 0
            self._cand_items[column, : len(item_columns)] = item_columns
            fresh.append(column)
        if not fresh:
            return 0
        columns = np.asarray(fresh, dtype=np.int64)
        slots = np.arange(self.capacity, dtype=np.int64)
        occupied = np.array(
            [units is not None for units in self._slots], dtype=bool
        )
        probabilities = self._leaf_probabilities(slots, columns)
        probabilities[~occupied] = 0.0
        self._set_moment_leaves(slots, columns, probabilities)
        self._rebuild_moments(columns)
        if self.with_pmfs:
            self.ensure_pmfs([tuple(candidate) for candidate in candidates])
        return len(fresh)

    def ensure_pmfs(self, candidates: Sequence[Iterable[int]]) -> int:
        """Opt candidates into exact tail maintenance (registering if needed).

        New candidates are back-filled from the leaf probabilities the
        moment trees already hold, taking the steps the existing ones took
        since the last flip, so their states are the same bits.  Returns
        the number of candidates newly opted in.
        """
        self.ensure(candidates)
        fresh: List[int] = []
        for candidate in candidates:
            key = tuple(candidate)
            if key in self._pmf_columns:
                continue
            if self._pmf_free:
                pmf_column = self._pmf_free.pop()
            else:
                pmf_column = self._pmf_allocated
                self._pmf_allocated += 1
                if pmf_column >= len(self._states):
                    grown = np.zeros(
                        (max(4, 2 * (pmf_column + 1)), self._states.shape[1])
                    )
                    grown[: len(self._states)] = self._states
                    self._states = grown
                    moment = np.zeros(len(grown), dtype=np.int64)
                    moment[: len(self._pmf_moment)] = self._pmf_moment
                    self._pmf_moment = moment
            self._pmf_columns[key] = pmf_column
            self._pmf_moment[pmf_column] = self._columns[key]
            fresh.append(pmf_column)
        if fresh and self._width and not self._flip_due():
            columns = np.asarray(fresh, dtype=np.int64)
            self._build_front(columns)
            self._build_back(columns)
        return len(fresh)

    def _layout(self, width: int) -> List[slice]:
        """The column spans of the back, the front and each kept state at cap ``width``."""
        sizes = [width + 1, width + 1] + [
            min(width, max(self.capacity - kept * self._block, 0)) + 1
            for kept in range(-(-self.capacity // self._block) + 1)
        ]
        stops = np.cumsum(sizes).tolist()
        return [slice(stop - size, stop) for size, stop in zip(sizes, stops)]

    def discard(self, candidates: Sequence[Iterable[int]]) -> None:
        """Drop candidates from the index (their trees stop being maintained)."""
        for candidate in candidates:
            key = tuple(candidate)
            column = self._columns.pop(key, None)
            if column is not None:
                self._free.append(column)
            pmf_column = self._pmf_columns.pop(key, None)
            if pmf_column is not None:
                self._pmf_free.append(pmf_column)

    def retain(self, keep: Iterable[Iterable[int]]) -> int:
        """Drop every registered candidate not in ``keep``; return the drop count.

        The streaming miners call this after each slide with the candidates
        they actually queried, so the per-slide update cost tracks the live
        candidate frontier instead of growing monotonically.
        """
        keep_keys = {tuple(candidate) for candidate in keep}
        stale = [key for key in self._columns if key not in keep_keys]
        self.discard(stale)
        self._maybe_compact()
        return len(stale)

    def retain_pmfs(self, keep: Iterable[Iterable[int]]) -> int:
        """Stop PMF maintenance for candidates outside ``keep`` (stay registered)."""
        keep_keys = {tuple(candidate) for candidate in keep}
        stale = [key for key in self._pmf_columns if key not in keep_keys]
        for key in stale:
            self._pmf_free.append(self._pmf_columns.pop(key))
        self._maybe_compact()
        return len(stale)

    def _maybe_compact(self) -> None:
        """Shrink the column spaces when over half of them are free.

        The per-slide updates run over the full allocated width (contiguous
        slices beat per-column gathers), so a large free list would tax
        every subsequent slide; compaction renumbers the live columns into a
        dense prefix.  Column copies are bit-preserving, so compaction never
        perturbs any statistic.
        """
        if len(self._free) > max(4, len(self._columns) // 2):
            order = sorted(self._columns, key=self._columns.__getitem__)
            remap = np.array([self._columns[key] for key in order], dtype=np.int64)
            width = len(order) + max(4, len(order) // 4)  # headroom vs re-grow thrash
            moments = np.zeros(
                (self._n_planes, 2 * self.size, width), dtype=float
            )
            moments[:, :, : len(order)] = self._moments[:, :, remap]
            self._moments = moments
            self._bind_moment_views()
            items = np.zeros((width, self._cand_items.shape[1]), dtype=np.int64)
            items[: len(order)] = self._cand_items[remap]
            self._cand_items = items
            self._columns = {key: position for position, key in enumerate(order)}
            moved = np.zeros(self._n_allocated, dtype=np.int64)
            moved[remap] = np.arange(len(order))
            self._pmf_moment = moved[self._pmf_moment]
            self._free = []
            self._n_allocated = len(order)
        if len(self._pmf_free) > max(4, len(self._pmf_columns) // 2):
            order = sorted(self._pmf_columns, key=self._pmf_columns.__getitem__)
            remap = np.array(
                [self._pmf_columns[key] for key in order], dtype=np.int64
            )
            width = len(order) + max(4, len(order) // 4)
            states = np.zeros((width, self._states.shape[1]), dtype=float)
            states[: len(order)] = self._states[remap]
            self._states = states
            moment = np.zeros(width, dtype=np.int64)
            moment[: len(order)] = self._pmf_moment[remap]
            self._pmf_moment = moment
            self._pmf_columns = {
                key: position for position, key in enumerate(order)
            }
            self._pmf_free = []
            self._pmf_allocated = len(order)
        self._maybe_retire_items()

    def _maybe_retire_items(self) -> None:
        """Drop slot-probability columns of items no registered candidate uses.

        Item columns are created on demand and, on a stream with a rotating
        item universe, would otherwise grow without bound — every slot reset
        and leaf-probability gather pays the full lifetime width.  When the
        stale columns outnumber the live ones, rebuild the matrix around the
        items the current candidates reference (values are copied verbatim,
        so no statistic changes).
        """
        if self._columns:
            live = np.fromiter(
                self._columns.values(), dtype=np.int64, count=len(self._columns)
            )
            used = set(np.unique(self._cand_items[live]).tolist()) - {0}
        else:
            used = set()
        if len(self._item_column) - len(used) <= max(16, len(used)):
            return
        keep = [item for item, column in self._item_column.items() if column in used]
        width = 1 + len(keep) + max(4, len(keep) // 4)
        slot_probs = np.zeros((self.capacity, width), dtype=float)
        slot_probs[:, 0] = 1.0
        remap = np.zeros(self._slot_probs.shape[1], dtype=np.int64)
        new_index: Dict[int, int] = {}
        for position, item in enumerate(keep, start=1):
            old = self._item_column[item]
            slot_probs[:, position] = self._slot_probs[:, old]
            remap[old] = position
            new_index[item] = position
        # Retired columns remap to the constant pad column; only free
        # candidate rows can reference them and those are rewritten on
        # allocation.
        self._cand_items = remap[self._cand_items]
        self._slot_probs = slot_probs
        self._item_column = new_index

    # -- tree maintenance --------------------------------------------------------------
    def _set_moment_leaves(
        self, slots: np.ndarray, columns: np.ndarray, probabilities: np.ndarray
    ) -> None:
        rows = self.size + slots
        grid = np.ix_(rows, columns)
        self.expected[grid] = probabilities
        if self._variance_plane is not None:
            self.variance[grid] = probabilities * (1.0 - probabilities)
        if self._nonzero_plane is not None:
            self.nonzero[grid] = probabilities > 0.0

    @staticmethod
    def _node_runs(nodes: np.ndarray) -> List[Tuple[int, int]]:
        """Split sorted node indices into maximal contiguous ``[start, stop)`` runs.

        A slide's dirty slots are consecutive arrivals modulo the capacity,
        so each level's dirty set is one run (two when the ring wraps);
        contiguous runs let the level pulls work on array *slices* instead
        of fancy-index gathers.
        """
        if not len(nodes):
            return []
        breaks = np.nonzero(np.diff(nodes) > 1)[0]
        starts = np.concatenate(([0], breaks + 1))
        stops = np.concatenate((breaks + 1, [len(nodes)]))
        return [(int(nodes[a]), int(nodes[b - 1]) + 1) for a, b in zip(starts, stops)]

    @staticmethod
    def _parent_runs(runs: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
        """The (merged) runs of the parents of the given node runs."""
        parents = sorted(
            ((start >> 1, ((stop - 1) >> 1) + 1) for start, stop in runs)
        )
        merged: List[Tuple[int, int]] = []
        for start, stop in parents:
            if merged and start <= merged[-1][1]:
                if stop > merged[-1][1]:
                    merged[-1] = (merged[-1][0], stop)
            else:
                merged.append((start, stop))
        return merged

    def _pull_moment_run(self, start: int, stop: int) -> None:
        """Re-merge the contiguous global node range ``[start, stop)`` (all columns).

        One sliced addition over the stacked planes refreshes every tracked
        statistic of every candidate at once.
        """
        self._moments[:, start:stop] = (
            self._moments[:, 2 * start : 2 * stop : 2]
            + self._moments[:, 2 * start + 1 : 2 * stop : 2]
        )
        self.node_merges += (stop - start) * len(self._columns)

    def _rebuild_moments(self, columns: np.ndarray) -> None:
        """Build the given columns' whole moment trees from their leaves.

        The fresh columns are copied into a compact scratch buffer so every
        level merge is a contiguous sliced addition (fancy-gathering full
        levels out of the wide shared array costs more than the rebuild
        itself), then the finished trees are scattered back.
        """
        scratch = np.ascontiguousarray(self._moments[:, :, columns])
        half = self.size >> 1
        while half >= 1:
            scratch[:, half : 2 * half] = (
                scratch[:, 2 * half : 4 * half : 2]
                + scratch[:, 2 * half + 1 : 4 * half : 2]
            )
            half >>= 1
        self._moments[:, :, columns] = scratch
        self.node_merges += (self.size - 1) * len(columns)

    # -- tail stacks --------------------------------------------------------------------
    def _pmf_leaves(self, slots: Sequence[int], columns) -> np.ndarray:
        """``p_i(X)`` of the given slots (rows) x PMF columns, off the moment leaves."""
        rows = self.size + np.asarray(slots, dtype=np.int64)
        return self.expected[rows][:, self._pmf_moment[columns]]

    def _build_front(self, columns) -> None:
        """Kept front states of ``columns`` (a slice or an index array).

        Walks the resident front rows newest to oldest from the empty
        suffix, keeping the state at every multiple of ``B`` and leaving the
        state at the oldest resident row in span 1.
        """
        n, start = len(self._front), self._evicted
        probabilities = self._pmf_leaves(self._front[start:], columns)
        state = np.zeros((probabilities.shape[1], self._width + 1), dtype=float)
        state[:, 0] = 1.0

        def keep(kept: int) -> None:
            span = self._spans[2 + kept]
            self._states[columns, span] = state[:, : span.stop - span.start]

        keep(-(-n // self._block))
        row = n
        while row > start:
            # one run of steps, newest first, down to the next kept row
            low = max(start, (row - 1) // self._block * self._block)
            _pmf_steps(state, probabilities[low - start : row - start][::-1], n - row)
            if low % self._block == 0:
                keep(low // self._block)
            row = low
        self._states[columns, self._spans[1]] = state
        self.pmf_steps += (n - start) * len(state)

    def _build_back(self, columns) -> None:
        """The back's tail states of ``columns``, replayed oldest first."""
        back = list(islice(self._order, len(self._front) - self._evicted, None))
        probabilities = self._pmf_leaves(back, columns)
        state = np.zeros((probabilities.shape[1], self._width + 1), dtype=float)
        state[:, 0] = 1.0
        _tail_steps(state, probabilities, 0)
        self._states[columns, self._spans[0]] = state
        self.pmf_steps += len(back) * len(state)

    def _flip_due(self) -> bool:
        """Stale, or the front is spent and the next arrival evicts a back row.

        A filling window therefore flips at the query that fills it instead
        of building its back and flipping one slide later.  Once due, a flip
        stays due until a query makes it.
        """
        return self._stale or (
            self._evicted == len(self._front) and len(self._order) == self.capacity
        )

    def _flip(self) -> None:
        """Move every resident row to the front; the back restarts empty."""
        columns = slice(0, self._pmf_allocated)
        self._front = list(self._order)
        self._evicted = 0
        self._front_at = 0
        back = self._states[columns, self._spans[0]]
        back[:] = 0.0
        back[:, 0] = 1.0
        self._build_front(columns)
        self._stale = False
        self.flips += 1

    def _refresh_front(self) -> None:
        """Step span 1 down to the oldest resident front row, from a kept state."""
        start = self._evicted
        if self._front_at == start:
            return
        n = len(self._front)
        kept = -(-start // self._block)
        stop = min(kept * self._block, n)
        columns = slice(0, self._pmf_allocated)
        state = self._states[columns, self._spans[1]]
        span = self._spans[2 + kept]
        state[:, : span.stop - span.start] = self._states[columns, span]
        state[:, span.stop - span.start :] = 0.0
        probabilities = self._pmf_leaves(self._front[start:stop], columns)
        _pmf_steps(state, probabilities[::-1], n - stop)
        self._front_at = start
        self.pmf_steps += (stop - start) * len(state)

    def _arrive(self, slot: int, units: Optional[Mapping[int, float]]) -> bool:
        """Record a change in the arrival order; True when it pushes a back row.

        A change to the oldest resident slot evicts it (from the front, or
        it goes stale when the front is empty) and pushes the new row; a
        change to an empty slot only pushes.  Any other change is not
        first-in-first-out and marks the states stale.
        """
        order = self._order
        if units is None:
            if self._slots[slot] is not None:
                order.remove(slot)
                self._stale = True
            return False
        if self._slots[slot] is not None:
            if order[0] == slot:
                order.popleft()
                if self._evicted < len(self._front):
                    self._evicted += 1
                else:
                    self._stale = True
            else:
                order.remove(slot)
                self._stale = True
        order.append(slot)
        return True

    # -- slot maintenance --------------------------------------------------------------
    def apply(
        self, changes: Sequence[Tuple[int, Optional[Mapping[int, float]]]]
    ) -> None:
        """Install new slot contents and re-merge every registered candidate.

        ``changes`` holds ``(slot, units)`` pairs, in arrival order — the
        units of the transaction now occupying the slot, or ``None`` to
        clear it.  This is the per-slide entry point: pass the units of each
        change record a :meth:`~repro.stream.window.SlidingWindow.slide`
        returned.  Dirty tree ancestors are re-merged level by level, each
        exactly once, across all candidates at a time, and every arrival
        takes one DP step on the back stack.
        """
        for slot, _ in changes:
            if not 0 <= slot < self.capacity:
                raise ValueError(f"slot {slot} outside capacity {self.capacity}")
        deduped: Dict[int, Optional[Mapping[int, float]]] = {}
        pushed: List[int] = []
        for slot, units in changes:
            if self._arrive(slot, units):
                pushed.append(slot)
            self._slots[slot] = units
            deduped[slot] = units
        if not deduped:
            return
        for slot, units in deduped.items():
            row = self._slot_probs[slot]
            row[:] = 0.0
            row[0] = 1.0
            if units is not None:
                for item, probability in units.items():
                    column = self._item_column.get(item)
                    if column is not None:
                        row[column] = probability

        slots = np.sort(
            np.fromiter(deduped.keys(), dtype=np.int64, count=len(deduped))
        )
        occupied = np.array(
            [deduped[int(slot)] is not None for slot in slots], dtype=bool
        )
        if self._columns:
            columns = np.arange(self.expected.shape[1], dtype=np.int64)
            probabilities = self._leaf_probabilities(slots, columns)
            probabilities[~occupied] = 0.0
            # Sorted slots make the leaf rows contiguous runs, so the leaf
            # writes are sliced assignments like the level pulls.
            leaf_runs = self._node_runs(self.size + slots)
            row = 0
            for start, stop in leaf_runs:
                block = probabilities[row : row + stop - start]
                self._moments[0, start:stop] = block
                if self._variance_plane is not None:
                    self._moments[self._variance_plane, start:stop] = block * (
                        1.0 - block
                    )
                if self._nonzero_plane is not None:
                    self._moments[self._nonzero_plane, start:stop] = block > 0.0
                row += stop - start
            # Dirty ancestors, one level at a time (global tree index runs).
            runs = self._parent_runs(leaf_runs)
            while runs and runs[0][0] >= 1:
                for start, stop in runs:
                    self._pull_moment_run(start, stop)
                runs = self._parent_runs(runs)
        if self._pmf_columns and self._width and not self._stale and pushed:
            columns = slice(0, self._pmf_allocated)
            back = self._states[columns, self._spans[0]]
            rows = len(self._order) - (len(self._front) - self._evicted) - len(pushed)
            _tail_steps(back, self._pmf_leaves(pushed, columns), rows)
            self.pmf_steps += len(pushed) * len(back)

    def apply_window_changes(self, changes: Sequence[Tuple]) -> None:
        """Consume :meth:`SlidingWindow.slide` change records directly."""
        self.apply([(slot, admitted.units) for slot, _, admitted in changes])

    def slot_units(self) -> List[Optional[Mapping[int, float]]]:
        """The current per-slot contents (the rebuild-equivalence test input)."""
        return list(self._slots)

    # -- statistics queries ------------------------------------------------------------
    #: the root of the implicit tree layout is node 1 (for ``size == 1``
    #: the single leaf lives at index 1 and is its own root)
    ROOT = 1

    def _column_of(self, candidate: Iterable[int]) -> int:
        key = tuple(candidate)
        column = self._columns.get(key)
        if column is None:
            raise KeyError(f"candidate {key} is not registered; call ensure() first")
        return column

    def expected_supports(self, candidates: Sequence[Iterable[int]]) -> np.ndarray:
        """``esup(X)`` of every candidate over the current window."""
        columns = [self._column_of(candidate) for candidate in candidates]
        return self.expected[self.ROOT, columns].astype(float, copy=True)

    def variances(self, candidates: Sequence[Iterable[int]]) -> np.ndarray:
        """``Var[sup(X)]`` of every candidate over the current window."""
        if not self.track_variance:
            raise ValueError("index was built with track_variance=False")
        columns = [self._column_of(candidate) for candidate in candidates]
        return self.variance[self.ROOT, columns].astype(float, copy=True)

    def max_supports(self, candidates: Sequence[Iterable[int]]) -> np.ndarray:
        """Maximum attainable support (non-zero transaction count) per candidate."""
        if not self.track_nonzero:
            raise ValueError("index was built with track_nonzero=False")
        columns = [self._column_of(candidate) for candidate in candidates]
        return self.nonzero[self.ROOT, columns].astype(np.int64)

    def root_stats(
        self, candidates: Sequence[Iterable[int]]
    ) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
        """``(expected, variance, max_support)`` of every candidate, in one lookup.

        The per-candidate column resolution is shared across the three
        statistics (the miners query all of them per level); untracked
        statistics come back as ``None``.
        """
        columns = [self._column_of(candidate) for candidate in candidates]
        stats = self._moments[:, self.ROOT, :][:, columns]
        expected = stats[0].astype(float, copy=True)
        variance = (
            stats[self._variance_plane].astype(float, copy=True)
            if self._variance_plane is not None
            else None
        )
        max_support = (
            stats[self._nonzero_plane].astype(np.int64)
            if self._nonzero_plane is not None
            else None
        )
        return expected, variance, max_support

    def frequent_probabilities(
        self, candidates: Sequence[Iterable[int]], min_count: int
    ) -> np.ndarray:
        """Exact ``Pr[sup(X) >= min_count]`` per candidate from the two stacks.

        Candidates are opted into tail maintenance on first query.  With
        the front's capped PMF ``P`` and the back's tail ``T``, the tail is
        ``sum_{i<c} P[i] * T[c - i] + sum_{i>=c} P[i]``: non-negative terms,
        nothing subtracted.  A ``min_count`` above every earlier one (and
        within the capacity) rebuilds the states at the wider cap.
        """
        min_count = int(min_count)
        self.ensure_pmfs(candidates)
        if min_count <= 0:
            return np.ones(len(candidates), dtype=float)
        if min_count > self.capacity:
            return np.zeros(len(candidates), dtype=float)
        widen = min_count > self._width
        if widen:
            self._width = min_count
            self._spans = self._layout(min_count)
            self._states = np.zeros((len(self._states), self._spans[-1].stop))
        if self._flip_due():
            self._flip()
        elif widen:
            columns = slice(0, self._pmf_allocated)
            self._build_front(columns)
            self._build_back(columns)
            self._front_at = self._evicted
        self._refresh_front()
        columns = [self._pmf_columns[tuple(candidate)] for candidate in candidates]
        front = self._states[columns, self._spans[1]]
        back = self._states[columns, self._spans[0]]
        return (front[:, :min_count] * back[:, min_count:0:-1]).sum(axis=1) + front[
            :, min_count:
        ].sum(axis=1)
