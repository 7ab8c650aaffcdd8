"""Incremental support statistics over a sliding window: a segment tree of buckets.

Every support statistic the miners consume has an exact merge operator over
disjoint row sets: expectations and variances add, maximum attainable
supports add, exact PMFs convolve.  This module's buckets are that merge,
applied to the row *slots* of a sliding window.

:class:`IncrementalSupportIndex` keeps a perfect binary segment tree whose
leaves are the window's ring-buffer slots.  A leaf holds a candidate's
single-transaction statistics for whatever transaction currently occupies
the slot (the identity bucket while the slot is empty); an internal node
holds the merge of its children — addition for the moments and non-zero
counts, convolution for the exact PMFs.  The root is therefore the
candidate's statistics over the whole window.  When the window slides by
``k`` transactions exactly ``k`` leaves change, and re-merging only their
ancestors — every dirty node recomputed once, level by level — refreshes
the root in ``O(k + log W)`` node merges instead of the ``O(W)`` (moments)
or ``O(W * min_count)`` (exact tail) of a from-scratch evaluation.

The maintenance is vectorized across candidates: the moment trees of all
registered candidates live in ``(2 * size, n_candidates)`` arrays (a dirty
level re-merge is one fancy-indexed NumPy addition covering every
candidate), and the PMF trees are stored per level as dense
``(n_candidates, n_nodes, span + 1)`` blocks so a level's dirty
convolutions run as one batched direct convolution (spans up to
:data:`DENSE_SPAN`) or one batched FFT (larger spans — the same two
kernels as :func:`~repro.core.support.convolve_pmfs`, so the bits do not
depend on the CPU).  PMF trees are opt-in per
candidate (:meth:`ensure_pmfs`): the expected-support miners never pay for
them, and the exact miner maintains them only for candidates that survive
its cheap filters.

Two exactness properties hold by construction:

* **rebuild equivalence** — every node is a pure function of its children,
  so incremental maintenance is *bitwise identical* to rebuilding the tree
  from the same slot states (pinned by the stream tests for arbitrary
  probability values);
* **batch agreement** — leaf probabilities multiply in candidate order
  exactly like the columnar view, and all merges are exact
  arithmetic re-orderings of the batch reductions, so streaming decisions
  match batch decisions (bitwise on windows whose probabilities are exactly
  representable; within convolution round-off otherwise).

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

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.support import shift_convolve, spectrum_product

__all__ = ["DENSE_SPAN", "IncrementalSupportIndex"]

#: node span up to which the PMF levels stay dense.  Above it a level is
#: stored as spectra: about ``2 * size**2 / DENSE_SPAN`` floats per PMF
#: candidate against ``size * log2(DENSE_SPAN)`` for the dense levels, so a
#: smaller span buys faster slides with memory that grows with the square
#: of the window (at ``W = 1000``: about 120 KB per candidate at 512, 580 KB
#: at 32).  This is the index's own trade-off, not the ``conv_span`` knob
#: of the batch kernels.
DENSE_SPAN = 512

Candidate = Tuple[int, ...]


class IncrementalSupportIndex:
    """Per-candidate support statistics of a sliding window, maintained in place.

    Parameters
    ----------
    capacity:
        The window capacity ``W`` (one tree leaf per ring-buffer slot).
    with_pmfs:
        Maintain exact PMF trees for *every* registered candidate.  The
        streaming miners leave this off and opt candidates in selectively
        through :meth:`ensure_pmfs`; turning it on is convenient for direct
        index users and the equivalence tests.

    PMF merges of segments longer than :data:`DENSE_SPAN` run in the
    frequency domain.

    The index stores the current slot contents itself (one ``{item:
    probability}`` mapping per slot), so candidates registered mid-stream
    are back-filled from the resident transactions without consulting the
    window.
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
        self._height = self.size.bit_length() - 1
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

        # -- PMF trees, stored per level.  Levels whose node span is within
        # ``DENSE_SPAN`` (the FFT cutoff) hold dense PMF blocks of shape
        # (allocated pmf columns, size >> h, (1 << h) + 1) and merge by
        # direct (exact) convolution, the shared fixed-order
        # ``shift_convolve``.  Above the cutoff, nodes are kept in the
        # *frequency domain*: each node stores its PMF's real FFT at the
        # root transform size, so an upper-level merge is one pointwise
        # ``spectrum_product`` (real arithmetic, the same bits on every
        # SIMD level) — per slide only the dirty
        # cutoff-level nodes pay an rfft, and one batched irfft materialises
        # the root PMFs on query.
        self._pmf_columns: Dict[Candidate, int] = {}
        self._pmf_free: List[int] = []
        self._pmf_allocated = 0
        #: highest level stored as dense PMFs
        self._dense_height = min(
            self._height, DENSE_SPAN.bit_length() - 1
        )
        self._pmf_levels: List[np.ndarray] = [
            np.zeros((0, self.size >> h, (1 << h) + 1), dtype=float)
            for h in range(self._dense_height + 1)
        ]
        #: real-FFT length covering the root PMF.  The root polynomial has
        #: at most ``capacity + 1`` coefficients (identity leaves are the
        #: constant 1), so the transform only needs the next power of two
        #: above that — half of ``2 * size`` whenever the capacity is a
        #: power of two.
        self._fft_size = 1 << int(capacity).bit_length()
        if self._fft_size < capacity + 1:  # pragma: no cover - capacity pow2-1
            self._fft_size *= 2
        #: per-level node spectra for levels dense_height .. height
        self._pmf_spectra: Dict[int, np.ndarray] = {
            h: np.zeros(
                (0, self.size >> h, self._fft_size // 2 + 1), dtype=complex
            )
            for h in range(self._dense_height, self._height + 1)
        } if self._dense_height < self._height else {}

        #: lifetime counters (benchmark/test introspection)
        self.leaf_updates = 0
        self.node_merges = 0
        self.pmf_node_merges = 0
        self.registrations = 0

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
        incremental ``O(k log W)`` slide updates.  Returns the number of
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
        self.registrations += len(fresh)
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
        """Opt candidates into exact PMF maintenance (registering if needed).

        Returns the number of candidates whose PMF trees were newly built.
        """
        self.ensure(candidates)
        fresh: List[Tuple[int, int]] = []  # (pmf column, moment column)
        for candidate in candidates:
            key = tuple(candidate)
            if key in self._pmf_columns:
                continue
            if self._pmf_free:
                pmf_column = self._pmf_free.pop()
            else:
                pmf_column = self._pmf_allocated
                self._pmf_allocated += 1
                if pmf_column >= self._pmf_levels[0].shape[0]:
                    grown = max(4, 2 * (pmf_column + 1))
                    self._pmf_levels = [
                        self._grow_pmf(level, grown) for level in self._pmf_levels
                    ]
                    self._pmf_spectra = {
                        h: self._grow_pmf(level, grown)
                        for h, level in self._pmf_spectra.items()
                    }
            self._pmf_columns[key] = pmf_column
            fresh.append((pmf_column, self._columns[key]))
        if not fresh:
            return 0
        pmf_columns = np.asarray([pair[0] for pair in fresh], dtype=np.int64)
        moment_columns = np.asarray([pair[1] for pair in fresh], dtype=np.int64)
        # The moment tree's leaf rows already hold every slot's p_i(X);
        # leaves beyond the capacity stay at probability 0 (identity PMF).
        probabilities = np.zeros((len(fresh), self.size), dtype=float)
        probabilities[:, : self.capacity] = self.expected[
            self.size : self.size + self.capacity
        ][:, moment_columns].T
        self._set_pmf_leaves(
            pmf_columns, np.arange(self.size, dtype=np.int64), probabilities
        )
        for height in range(1, self._dense_height + 1):
            nodes = np.arange(self.size >> height, dtype=np.int64)
            self._pull_pmf_level(height, nodes, pmf_columns)
        if self._pmf_spectra:
            nodes = np.arange(self.size >> self._dense_height, dtype=np.int64)
            self._lift_spectra(nodes, pmf_columns)
            for height in range(self._dense_height + 1, self._height + 1):
                nodes = np.arange(self.size >> height, dtype=np.int64)
                self._pull_spectrum_level(height, nodes, pmf_columns)
        return len(fresh)

    @staticmethod
    def _grow_pmf(level: np.ndarray, n_columns: int) -> np.ndarray:
        if level.shape[0] >= n_columns:
            return level
        grown = np.zeros((n_columns,) + level.shape[1:], dtype=level.dtype)
        grown[: level.shape[0]] = level
        return grown

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
            self._free = []
            self._n_allocated = len(order)
        if len(self._pmf_free) > max(4, len(self._pmf_columns) // 2):
            order = sorted(self._pmf_columns, key=self._pmf_columns.__getitem__)
            remap = np.array(
                [self._pmf_columns[key] for key in order], dtype=np.int64
            )
            width = len(order) + max(4, len(order) // 4)

            def shrink(level: np.ndarray) -> np.ndarray:
                compacted = np.zeros((width,) + level.shape[1:], dtype=level.dtype)
                compacted[: len(order)] = level[remap]
                return compacted

            self._pmf_levels = [shrink(level) for level in self._pmf_levels]
            self._pmf_spectra = {
                h: shrink(level) for h, level in self._pmf_spectra.items()
            }
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

    def _set_pmf_leaves(
        self, pmf_columns: np.ndarray, slots: np.ndarray, probabilities: np.ndarray
    ) -> None:
        """``probabilities`` has shape (len(pmf_columns), len(slots))."""
        leaves = self._pmf_levels[0]
        leaves[np.ix_(pmf_columns, slots, [0])] = (1.0 - probabilities)[..., None]
        leaves[np.ix_(pmf_columns, slots, [1])] = probabilities[..., None]

    def _pull_pmf_level(
        self, height: int, nodes, pmf_columns: Optional[np.ndarray]
    ) -> None:
        """Re-merge the dense-PMF nodes at ``height`` for the given tree columns.

        One batched direct convolution (exact, no FFT round-off) covers
        every (candidate, node) pair — dense levels only exist for node
        spans within the FFT cutoff.  ``nodes`` is a list of level-local
        ``(start, stop)`` runs when ``pmf_columns`` is None (the all-columns
        incremental path), otherwise an index array.
        """
        child = self._pmf_levels[height - 1]
        if pmf_columns is None:
            for start, stop in nodes:
                left = child[:, 2 * start : 2 * stop : 2, :]
                right = child[:, 2 * start + 1 : 2 * stop : 2, :]
                self._pmf_levels[height][:, start:stop, :] = shift_convolve(left, right)
                self.pmf_node_merges += (stop - start) * len(self._pmf_columns)
        else:
            left = child[np.ix_(pmf_columns, 2 * nodes)]
            right = child[np.ix_(pmf_columns, 2 * nodes + 1)]
            self._pmf_levels[height][
                np.ix_(pmf_columns, nodes)
            ] = shift_convolve(left, right)
            self.pmf_node_merges += len(nodes) * len(pmf_columns)

    def _lift_spectra(
        self, nodes, pmf_columns: Optional[np.ndarray]
    ) -> None:
        """Refresh the cached spectra of dense-height nodes after a PMF change.

        One batched real FFT at the root transform size; the frequency-
        domain levels above combine these by pointwise multiplication.
        ``nodes`` follows the :meth:`_pull_pmf_level` convention.
        """
        dense = self._pmf_levels[self._dense_height]
        spectra = self._pmf_spectra[self._dense_height]
        if pmf_columns is None:
            for start, stop in nodes:
                spectra[:, start:stop, :] = np.fft.rfft(
                    dense[:, start:stop, :], self._fft_size
                )
        else:
            spectra[np.ix_(pmf_columns, nodes)] = np.fft.rfft(
                dense[np.ix_(pmf_columns, nodes)], self._fft_size
            )

    def _pull_spectrum_level(
        self, height: int, nodes, pmf_columns: Optional[np.ndarray]
    ) -> None:
        """Merge frequency-domain nodes: convolution is pointwise multiplication.

        The transform length covers the root PMF, so no level ever wraps
        (circular aliasing needs coefficient count > fft size); ``nodes``
        follows the :meth:`_pull_pmf_level` convention.
        """
        child = self._pmf_spectra[height - 1]
        if pmf_columns is None:
            for start, stop in nodes:
                self._pmf_spectra[height][:, start:stop, :] = spectrum_product(
                    child[:, 2 * start : 2 * stop : 2, :],
                    child[:, 2 * start + 1 : 2 * stop : 2, :],
                )
                self.pmf_node_merges += (stop - start) * len(self._pmf_columns)
        else:
            merged = spectrum_product(
                child[np.ix_(pmf_columns, 2 * nodes)],
                child[np.ix_(pmf_columns, 2 * nodes + 1)],
            )
            self._pmf_spectra[height][np.ix_(pmf_columns, nodes)] = merged
            self.pmf_node_merges += len(nodes) * len(pmf_columns)

    # -- slot maintenance --------------------------------------------------------------
    def apply(
        self, changes: Sequence[Tuple[int, Optional[Mapping[int, float]]]]
    ) -> None:
        """Install new slot contents and re-merge every registered candidate.

        ``changes`` holds ``(slot, units)`` pairs — the units of the
        transaction now occupying the slot, or ``None`` to clear it.  This
        is the per-slide entry point: pass the units of each change record a
        :meth:`~repro.stream.window.SlidingWindow.slide` returned.  Dirty
        ancestors are re-merged level by level, each exactly once, across
        all candidates at a time.
        """
        deduped: Dict[int, Optional[Mapping[int, float]]] = {}
        for slot, units in changes:
            if not 0 <= slot < self.capacity:
                raise ValueError(f"slot {slot} outside capacity {self.capacity}")
            deduped[slot] = units
        if not deduped:
            return
        for slot, units in deduped.items():
            self._slots[slot] = units
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
            self.leaf_updates += len(slots) * len(self._columns)
            if self._pmf_columns:
                moment_columns = np.fromiter(
                    (self._columns[key] for key in self._pmf_columns),
                    dtype=np.int64,
                    count=len(self._pmf_columns),
                )
                pmf_columns = np.fromiter(
                    self._pmf_columns.values(),
                    dtype=np.int64,
                    count=len(self._pmf_columns),
                )
                pmf_probabilities = probabilities[:, moment_columns]
                leaves = self._pmf_levels[0]
                row = 0
                for start, stop in leaf_runs:
                    block = pmf_probabilities[row : row + stop - start].T
                    local = slice(start - self.size, stop - self.size)
                    leaves[pmf_columns, local, 0] = 1.0 - block
                    leaves[pmf_columns, local, 1] = block
                    row += stop - start
            # Dirty ancestors, one level at a time.  The runs hold *global*
            # tree index ranges for the moment arrays; the per-level PMF
            # blocks are addressed by the level-local offset.
            runs = self._parent_runs(leaf_runs)
            height = 1
            while runs and runs[0][0] >= 1:
                for start, stop in runs:
                    self._pull_moment_run(start, stop)
                if self._pmf_columns and height <= self._height:
                    offset = self.size >> height
                    local = [(start - offset, stop - offset) for start, stop in runs]
                    if height <= self._dense_height:
                        self._pull_pmf_level(height, local, None)
                        if self._pmf_spectra and height == self._dense_height:
                            self._lift_spectra(local, None)
                    else:
                        self._pull_spectrum_level(height, local, None)
                runs = self._parent_runs(runs)
                height += 1

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
        """Exact ``Pr[sup(X) >= min_count]`` per candidate from the merged PMFs.

        Candidates are opted into PMF maintenance on first query.
        """
        min_count = int(min_count)
        self.ensure_pmfs(candidates)
        pmf_columns = np.array(
            [self._pmf_columns[tuple(candidate)] for candidate in candidates],
            dtype=np.int64,
        )
        roots = self.root_pmfs(pmf_columns)
        results = np.empty(len(candidates), dtype=float)
        for position in range(len(candidates)):
            pmf = roots[position]
            if min_count <= 0:
                results[position] = 1.0
            elif min_count >= len(pmf):
                results[position] = 0.0
            else:
                results[position] = max(0.0, min(1.0, float(pmf[min_count:].sum())))
        return results

    def root_pmfs(self, pmf_columns: np.ndarray) -> np.ndarray:
        """Window-level PMFs of the given PMF columns, one row each.

        Dense trees read the root block directly; frequency-domain trees
        materialise the roots with one batched inverse FFT (clipping the
        round-off negatives, as :func:`convolve_pmfs` does).
        """
        if not self._pmf_spectra:
            return self._pmf_levels[self._height][pmf_columns, 0, :]
        spectra = self._pmf_spectra[self._height][pmf_columns, 0, :]
        pmfs = np.fft.irfft(spectra, self._fft_size)[..., : self.capacity + 1]
        np.clip(pmfs, 0.0, None, out=pmfs)
        return pmfs
