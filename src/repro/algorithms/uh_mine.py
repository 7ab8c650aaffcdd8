"""UH-Mine: the uncertain extension of H-Mine (Aggarwal et al., 2009).

UH-Mine keeps the whole (trimmed) database in a flat in-memory structure,
the *UH-Struct*: each transaction is an array of ``(item, probability)``
cells ordered by the global frequent-item order.  Mining is depth-first:
for a prefix itemset ``P`` the algorithm holds a list of *projections* —
``(transaction, position, probability of P in that transaction)`` — and
builds a head table accumulating, for every item appearing to the right of
``position``, the expected support of ``P ∪ {item}``.  Frequent extensions
are recursed into; no conditional trees are ever materialised, which is
why UH-Mine wins on sparse databases and low thresholds in the paper.

The depth-first growth plugs into :class:`~repro.core.search.LevelwiseSearch`
through the spec's ``expander`` hook — :func:`uh_mine_expand` — so the
driver still owns the item-statistics seeding, the thresholds, and the
statistics accounting, and NDUH-Mine (the paper's proposal) reuses the
same expander under its Normal-approximation spec.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.search import MinerSpec, SearchContext
from ..db.columnar import ColumnarView
from .base import ExpectedSupportMiner

__all__ = ["UHMine", "build_uh_struct_columnar", "uh_mine_expand"]

#: One stored transaction: a tuple of (item, probability) cells in global order.
UHTransaction = Tuple[Tuple[int, float], ...]
#: One projection: (index of the transaction in the UH-Struct, position after
#: which extensions may start, probability of the current prefix).
Projection = Tuple[int, int, float]


def build_uh_struct_columnar(
    view: ColumnarView, item_order: Dict[int, int]
) -> List[UHTransaction]:
    """Project the database onto the ordered frequent items (the UH-Struct).

    Walking the item columns in global order appends each transaction's
    cells already sorted, so no per-transaction sort is needed.
    Transactions without any ordered item are left out.
    """
    return [
        tuple(cells) for cells in view.rows_as_ordered_units(item_order) if cells
    ]


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
    if ctx.executor.n_shards > 1:
        # Each shard yields its rows' ordered unit lists; shard order is row
        # order, so the concatenation matches the serial struct exactly.
        struct: List[UHTransaction] = []
        for shard_units in ctx.executor.map_shard_method(
            "rows_as_ordered_units", item_order
        ):
            struct.extend(tuple(cells) for cells in shard_units if cells)
    else:
        struct = build_uh_struct_columnar(ctx.database.columnar(), item_order)
    statistics.database_scans += 1
    statistics.notes["uh_struct_cells"] = float(sum(len(cells) for cells in struct))

    # The initial projections: every item starts its own depth-first branch.
    for item in sorted(frequent_items, key=lambda i: item_order[i]):
        projections: List[Projection] = []
        for index, cells in enumerate(struct):
            for position, (cell_item, probability) in enumerate(cells):
                if cell_item == item:
                    projections.append((index, position, probability))
                    break
                if item_order[cell_item] > item_order[item]:
                    break
        _expand_prefix(ctx, struct, (item,), projections, item_order)


def _expand_prefix(
    ctx: SearchContext,
    struct: List[UHTransaction],
    prefix: Tuple[int, ...],
    projections: List[Projection],
    item_order: Dict[int, int],
) -> None:
    """Recursively extend ``prefix`` by items occurring after its projections."""
    # Head table for this prefix: item -> [expected support, variance].
    head: Dict[int, List[float]] = {}
    for index, position, prefix_probability in projections:
        cells = struct[index]
        for cell_item, probability in cells[position + 1 :]:
            joint = prefix_probability * probability
            entry = head.get(cell_item)
            if entry is None:
                head[cell_item] = [joint, joint * (1.0 - joint)]
            else:
                entry[0] += joint
                entry[1] += joint * (1.0 - joint)

    statistics = ctx.statistics
    bar = ctx.search_min_esup
    track_variance = ctx.spec.track_variance
    statistics.candidates_generated += len(head)
    for item in sorted(head, key=lambda i: item_order[i]):
        expected, variance = head[item]
        if expected < bar:
            statistics.candidates_pruned += 1
            continue
        extended = prefix + (item,)
        ctx.record(extended, expected, variance if track_variance else None)
        # Build the projections of the extended prefix.
        extended_projections: List[Projection] = []
        for index, position, prefix_probability in projections:
            cells = struct[index]
            for offset in range(position + 1, len(cells)):
                cell_item, probability = cells[offset]
                if cell_item == item:
                    extended_projections.append(
                        (index, offset, prefix_probability * probability)
                    )
                    break
                if item_order[cell_item] > item_order[item]:
                    break
        _expand_prefix(ctx, struct, extended, extended_projections, item_order)


class UHMine(ExpectedSupportMiner):
    """Depth-first expected-support miner over the UH-Struct.

    Parameters
    ----------
    track_variance:
        Also accumulate the support variance of every frequent itemset.
        This is the hook the paper's NDUH-Mine proposal relies on: variance
        costs one extra multiply-add per visited cell, keeping the O(N)
        per-itemset complexity intact.
    workers, shards:
        Partition-parallel knobs (see :class:`MinerBase`).  The UH-Struct
        is assembled from per-shard row ranges — concatenating them in
        shard order reproduces the serial struct exactly — while the
        depth-first search itself stays sequential (it walks one shared
        in-memory structure).
    """

    name = "uh-mine"

    def __init__(
        self,
        track_variance: bool = False,
        track_memory: bool = False,
        workers: Optional[int] = None,
        shards: Optional[int] = None,
        plan=None,
    ) -> None:
        super().__init__(
            track_memory=track_memory,
            workers=workers,
            shards=shards,
            plan=plan,
        )
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
