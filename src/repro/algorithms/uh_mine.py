"""UH-Mine: the uncertain extension of H-Mine (Aggarwal et al., 2009).

UH-Mine keeps the whole (trimmed) database in a flat in-memory structure,
the *UH-Struct*.  Here it is three per-cell arrays, row-major with each
row's cells in ascending global frequent-item rank: the cell's ``rank``,
its ``prob`` and its ``row_end`` (the exclusive end of its row).  Mining is
depth-first: a prefix itemset ``P`` holds one *projection* per row that
contains it — the cell of ``P``'s last item and the probability of ``P`` in
that row — and builds a head table holding, for every rank to the right of
a projection, the expected support of ``P ∪ {item}``.  The cells right of
all projections are gathered in one pass and the head table is one
``np.bincount`` over their ranks; ``bincount`` adds its weights in input
order into bins that start at ``0.0``, so every entry equals the
left-to-right sum of a per-cell loop bit for bit.  Frequent extensions are
recursed into; no conditional trees are ever materialised, which is why
UH-Mine wins on sparse databases and low thresholds in the paper.

The depth-first growth plugs into :class:`~repro.core.search.LevelwiseSearch`
through the spec's ``expander`` hook — :func:`uh_mine_expand` — so the
driver still owns the item-statistics seeding, the thresholds, and the
statistics accounting, and NDUH-Mine (the paper's proposal) reuses the
same expander under its Normal-approximation spec.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from ..core.search import MinerSpec, SearchContext
from ..db.columnar import ColumnarView
from .base import ExpectedSupportMiner

__all__ = ["UHMine", "UHStruct", "build_uh_struct_columnar", "uh_mine_expand"]


class UHStruct(NamedTuple):
    """The UH-Struct: per-cell arrays, row-major, rank-ascending in a row."""

    #: global frequent-item rank of every cell (int64)
    rank: np.ndarray
    #: existential probability of every cell (float64)
    prob: np.ndarray
    #: exclusive end of every cell's row, as a cell index (int64)
    row_end: np.ndarray
    #: the item of every rank
    items: List[int]


def build_uh_struct_columnar(
    view: ColumnarView, item_order: Dict[int, int]
) -> UHStruct:
    """Project the database onto the ordered frequent items (the UH-Struct).

    The item columns are concatenated in rank order and stably sorted by
    row, so each row's cells come out already in rank order.  Rows without
    any ordered item hold no cells.
    """
    items = sorted(item_order, key=item_order.__getitem__)
    columns = [view.column(item) for item in items]
    lengths = [len(rows) for rows, _ in columns]
    rows = np.concatenate([np.empty(0, np.int64)] + [rows for rows, _ in columns])
    probs = np.concatenate([np.empty(0, np.float64)] + [probs for _, probs in columns])
    ranks = np.repeat(np.arange(len(items), dtype=np.int64), lengths)
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    return UHStruct(
        rank=ranks[order],
        prob=probs[order],
        row_end=np.searchsorted(rows, rows, side="right"),
        items=items,
    )


def uh_mine_expand(ctx: SearchContext) -> None:
    """The UH-Mine depth-first growth (a :class:`MinerSpec` ``expander``).

    Builds the UH-Struct over the driver's seed items (one database scan)
    and starts one depth-first branch per seed item in global frequent-item
    order.  Head-table extensions are charged to ``candidates_generated``;
    rejections to ``candidates_pruned``.
    """
    frequent_items = ctx.seed_items
    if not frequent_items:
        return
    statistics = ctx.statistics

    item_order = {
        item: rank
        for rank, (item, _) in enumerate(
            sorted(frequent_items.items(), key=lambda kv: (-kv[1][0], kv[0]))
        )
    }
    struct = build_uh_struct_columnar(ctx.database.columnar(), item_order)
    statistics.database_scans += 1
    statistics.notes["uh_struct_cells"] = float(len(struct.rank))

    # The initial projections: every item starts its own depth-first branch.
    # A stable sort by rank lists each item's cells in row order.
    by_rank = np.argsort(struct.rank, kind="stable")
    ends = np.cumsum(np.bincount(struct.rank, minlength=len(struct.items)))
    start = 0
    for rank, end in enumerate(ends.tolist()):
        cells = by_rank[start:end]
        _expand_prefix(ctx, struct, (struct.items[rank],), cells, struct.prob[cells])
        start = end


def _expand_prefix(
    ctx: SearchContext,
    struct: UHStruct,
    prefix: Tuple[int, ...],
    cells: np.ndarray,
    prefix_probability: np.ndarray,
) -> None:
    """Recursively extend ``prefix`` by the items right of its projections.

    ``cells`` holds the struct cell of ``prefix``'s last item in each row
    that contains ``prefix``, in row order; ``prefix_probability`` holds the
    probability of ``prefix`` in those rows.
    """
    # The cells right of every projection, projection-major.
    starts = cells + 1
    lengths = struct.row_end[cells] - starts
    total = int(lengths.sum())
    if total == 0:
        return
    offsets = np.cumsum(lengths) - lengths
    right = np.repeat(starts - offsets, lengths) + np.arange(total)
    ranks = struct.rank[right]
    joint = np.repeat(prefix_probability, lengths) * struct.prob[right]

    # Head table for this prefix: rank -> expected support (and variance).
    counts = np.bincount(ranks)
    expected = np.bincount(ranks, weights=joint)
    present = np.flatnonzero(counts)
    frequent = present[expected[present] >= ctx.search_min_esup]
    statistics = ctx.statistics
    statistics.candidates_generated += len(present)
    statistics.candidates_pruned += len(present) - len(frequent)
    if not len(frequent):
        return
    variance = (
        np.bincount(ranks, weights=joint * (1.0 - joint))
        if ctx.spec.track_variance
        else None
    )

    # The projections of each extension are its entries in ``right``: a
    # stable sort of the frequent ranks' entries keeps them in row order.
    is_frequent = np.zeros(len(counts), dtype=bool)
    is_frequent[frequent] = True
    entries = np.flatnonzero(is_frequent[ranks])
    entries = entries[np.argsort(ranks[entries], kind="stable")]
    start = 0
    for rank, count in zip(frequent.tolist(), counts[frequent].tolist()):
        extended = prefix + (struct.items[rank],)
        ctx.record(
            extended,
            float(expected[rank]),
            float(variance[rank]) if variance is not None else None,
        )
        selected = entries[start : start + count]
        start += count
        _expand_prefix(ctx, struct, extended, right[selected], joint[selected])


class UHMine(ExpectedSupportMiner):
    """Depth-first expected-support miner over the UH-Struct.

    Parameters
    ----------
    track_variance:
        Also accumulate the support variance of every frequent itemset.
        This is the hook the paper's NDUH-Mine proposal relies on: variance
        costs one extra multiply-add per visited cell, keeping the O(N)
        per-itemset complexity intact.
    """

    name = "uh-mine"

    def __init__(
        self,
        track_variance: bool = False,
        track_memory: bool = False,
        plan=None,
    ) -> None:
        super().__init__(track_memory=track_memory, plan=plan)
        self.track_variance = track_variance

    def spec(self, threshold) -> MinerSpec:
        return MinerSpec(
            name=self.name,
            definition="expected",
            threshold=threshold,
            seed_mode="statistics",
            track_variance=self.track_variance,
            expander=uh_mine_expand,
        )
