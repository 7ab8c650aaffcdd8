"""UFP-growth: the uncertain extension of FP-growth (Leung et al., 2008).

The algorithm builds a *UFP-tree*: transactions are projected onto the
frequent items, sorted by descending expected item support and inserted
into a prefix tree.  Unlike the deterministic FP-tree, two units can share
a node only when both the item *and* its existence probability are equal —
otherwise the expected-support arithmetic along the path would be wrong.
As the paper stresses, this drastically limits prefix sharing: probability
values rarely coincide, so the tree degenerates towards one path per
transaction and mining it requires building a large number of conditional
subtrees.  That behaviour is exactly why UFP-growth loses to both UApriori
and UH-Mine throughout the paper's experiments, and this implementation
deliberately preserves it.

Mining follows FP-growth's divide-and-conquer recursion: for every frequent
item (bottom of the order), the conditional pattern base is extracted, a
conditional UFP-tree is built, and the recursion continues with the item
appended to the current suffix.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.itemset import Itemset
from ..core.results import FrequentItemset
from ..core.search import MinerSpec, SearchContext
from ..db.database import UncertainDatabase
from .base import ExpectedSupportMiner

__all__ = ["UFPGrowth", "UFPTree", "UFPNode"]


class UFPNode:
    """One node of a UFP-tree: an item with a specific existence probability.

    ``count`` is the number of (conditional) transactions sharing the prefix
    path down to this node; ``weight`` is the probability mass each of those
    transactions carries for the current conditional pattern base (1.0 in
    the global tree).
    """

    __slots__ = ("item", "probability", "count", "weight", "parent", "children", "node_link")

    def __init__(
        self,
        item: Optional[int],
        probability: float,
        parent: Optional["UFPNode"] = None,
    ) -> None:
        self.item = item
        self.probability = probability
        self.count = 0
        self.weight = 0.0
        self.parent = parent
        self.children: Dict[Tuple[int, float], "UFPNode"] = {}
        self.node_link: Optional["UFPNode"] = None

    def child_for(self, item: int, probability: float) -> Optional["UFPNode"]:
        """Return the child sharing ``(item, probability)``, if any."""
        return self.children.get((item, probability))

    def add_child(self, item: int, probability: float) -> "UFPNode":
        """Create (or fetch) the child node for ``(item, probability)``."""
        key = (item, probability)
        child = self.children.get(key)
        if child is None:
            child = UFPNode(item, probability, parent=self)
            self.children[key] = child
        return child


class UFPTree:
    """A UFP-tree with its header table of node links."""

    def __init__(self, item_order: Dict[int, int]) -> None:
        self.root = UFPNode(None, 1.0)
        self.item_order = item_order
        self.header: Dict[int, UFPNode] = {}
        #: expected support of each item restricted to this (conditional) tree
        self.item_expected_support: Dict[int, float] = {}
        self.node_count = 0

    def insert(self, units: List[Tuple[int, float]], count: int = 1, weight: float = 1.0) -> None:
        """Insert one (conditional) transaction.

        ``units`` must already be restricted to this tree's frequent items
        and sorted by the global item order.  ``weight`` is the probability
        that the conditional suffix occurs in the originating transaction —
        1.0 in the global tree, a product of probabilities in conditional
        trees.
        """
        node = self.root
        for item, probability in units:
            child = node.child_for(item, probability)
            if child is None:
                child = node.add_child(item, probability)
                self.node_count += 1
                # Thread the node into the header list of its item.
                child.node_link = self.header.get(item)
                self.header[item] = child
            child.count += count
            child.weight += weight * count
            contribution = probability * weight * count
            self.item_expected_support[item] = (
                self.item_expected_support.get(item, 0.0) + contribution
            )
            node = child

    def nodes_of(self, item: int) -> List[UFPNode]:
        """Return every node of ``item`` through the header links."""
        nodes: List[UFPNode] = []
        node = self.header.get(item)
        while node is not None:
            nodes.append(node)
            node = node.node_link
        return nodes

    def prefix_path(self, node: UFPNode) -> List[Tuple[int, float]]:
        """Return the (item, probability) path from just below the root to ``node``'s parent."""
        path: List[Tuple[int, float]] = []
        current = node.parent
        while current is not None and current.item is not None:
            path.append((current.item, current.probability))
            current = current.parent
        path.reverse()
        return path


class UFPGrowth(ExpectedSupportMiner):
    """Depth-first expected-support miner over a UFP-tree.

    Parameters
    ----------
    probability_precision:
        Number of decimal digits two probabilities must share to be
        considered equal for node sharing.  The reference implementation
        compares raw floats (effectively no rounding); a smaller precision
        increases sharing at the cost of approximating expected supports,
        which is exposed here only for the ablation benchmarks.  Rounded
        values are clamped into ``(0, 1]`` so rounding can never silently
        delete a unit (or merge a sub-grid probability with zero).
    track_variance:
        Also report the support variance of every frequent itemset.
        Variance requires per-path bookkeeping identical to the expected
        support, so the overhead is marginal.
    """

    name = "ufp-growth"

    def __init__(
        self,
        probability_precision: Optional[int] = None,
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
        if probability_precision is not None and probability_precision < 1:
            # At precision 0 the rounding grid is the whole unit interval:
            # every probability would clamp to 1.0, silently making the
            # database certain.
            raise ValueError(
                f"probability_precision must be >= 1 (or None), got {probability_precision}"
            )
        self.probability_precision = probability_precision
        self.track_variance = track_variance

    # -- helpers -----------------------------------------------------------------------
    def _rounded(self, probability: float) -> float:
        """Round for node sharing, clamped into ``(0, 1]``.

        A bare ``round`` can push an existential probability outside the
        meaningful range: a unit below half the precision grid rounds to
        ``0.0`` — silently deleting the unit from the tree and shrinking
        every expected support its path contributes to — so such values are
        clamped up to the smallest grid step instead, keeping the rounding
        error per unit below ``10**-precision`` (UFP-growth then still
        agrees with UApriori within that tolerance, pinned by the tests).
        """
        if self.probability_precision is None:
            return probability
        rounded = round(probability, self.probability_precision)
        grid_step = 10.0 ** -self.probability_precision
        return min(max(rounded, grid_step), 1.0)

    def _build_global_tree(
        self,
        database: UncertainDatabase,
        frequent_items: Dict[int, Tuple[float, float]],
        executor=None,
    ) -> UFPTree:
        order = {
            item: rank
            for rank, (item, _) in enumerate(
                sorted(frequent_items.items(), key=lambda kv: (-kv[1][0], kv[0]))
            )
        }
        tree = UFPTree(order)
        # Shard-parallel projection: each shard returns its rows' rank-ordered
        # unit lists; the concatenation in shard order is exactly the serial
        # projection, so the tree inserts (which stay sequential — the tree
        # is one shared structure) see identical input either way.
        if executor is not None and executor.n_shards > 1:
            rows_in_order = [
                units
                for shard_units in executor.map_shard_method(
                    "rows_as_ordered_units", order
                )
                for units in shard_units
            ]
        else:
            rows_in_order = database.columnar().rows_as_ordered_units(order)
        for units in rows_in_order:
            if not units:
                continue
            if self.probability_precision is not None:
                units = [
                    (item, self._rounded(probability)) for item, probability in units
                ]
            tree.insert(units)
        return tree

    def _conditional_tree(
        self, tree: UFPTree, item: int, min_expected_support: float
    ) -> Tuple[UFPTree, Dict[int, float]]:
        """Build the conditional UFP-tree of ``item``.

        Every path above an ``item`` node becomes a conditional transaction
        whose weight is multiplied by the probability of ``item`` in that
        node (the probability that the suffix itemset actually occurs).
        """
        # First pass: conditional expected support of every prefix item.
        conditional_support: Dict[int, float] = {}
        pattern_base: List[Tuple[List[Tuple[int, float]], int, float]] = []
        for node in tree.nodes_of(item):
            path = tree.prefix_path(node)
            if not path:
                continue
            weight = (node.weight / node.count if node.count else 0.0) * node.probability
            pattern_base.append((path, node.count, weight))
            for path_item, path_probability in path:
                conditional_support[path_item] = (
                    conditional_support.get(path_item, 0.0)
                    + path_probability * weight * node.count
                )

        keep = {
            path_item
            for path_item, support in conditional_support.items()
            if support >= min_expected_support
        }
        conditional = UFPTree(tree.item_order)
        for path, count, weight in pattern_base:
            units = [unit for unit in path if unit[0] in keep]
            if units:
                conditional.insert(units, count=count, weight=weight)
        return conditional, conditional_support

    def _variance_of(self, tree: UFPTree, item: int) -> float:
        """Support variance of the itemset ``suffix + {item}`` in the conditional tree."""
        variance = 0.0
        for node in tree.nodes_of(item):
            per_transaction = (
                node.weight / node.count if node.count else 0.0
            ) * node.probability
            variance += node.count * per_transaction * (1.0 - per_transaction)
        return variance

    def _mine_tree(
        self,
        tree: UFPTree,
        suffix: Tuple[int, ...],
        min_expected_support: float,
        records: List[FrequentItemset],
        statistics,
    ) -> None:
        # Visit items bottom-up in the global frequency order.  Every item
        # of a (conditional) tree is one candidate extension of the suffix:
        # charged to candidates_generated, and to candidates_pruned when its
        # conditional expected support rejects it.
        items = sorted(
            tree.item_expected_support,
            key=lambda item: tree.item_order[item],
            reverse=True,
        )
        statistics.candidates_generated += len(items)
        for item in items:
            expected = tree.item_expected_support[item]
            if expected < min_expected_support:
                statistics.candidates_pruned += 1
                continue
            itemset = tuple(sorted(suffix + (item,)))
            variance = self._variance_of(tree, item) if self.track_variance else None
            records.append(FrequentItemset(Itemset(itemset), expected, variance))
            conditional, _ = self._conditional_tree(tree, item, min_expected_support)
            statistics.notes["conditional_trees"] = (
                statistics.notes.get("conditional_trees", 0.0) + 1.0
            )
            if conditional.item_expected_support:
                self._mine_tree(
                    conditional, suffix + (item,), min_expected_support, records, statistics
                )

    # -- declarative search ------------------------------------------------------------
    def _expand(self, ctx: SearchContext) -> None:
        """Tree construction + FP-growth recursion (the spec's ``expander``).

        UFP-growth has no statistics-seeded 1-itemsets: the singletons are
        recorded from the *tree's* accumulation (whose floats can differ
        from the item-statistics scan under probability rounding), so the
        spec seeds nothing and the whole frequent set — singletons included
        — comes out of :meth:`_mine_tree` on the global tree.
        """
        if not ctx.seed_items:
            return
        tree = self._build_global_tree(ctx.database, ctx.seed_items, ctx.executor)
        ctx.statistics.database_scans += 1  # the tree-construction pass
        ctx.statistics.notes["global_tree_nodes"] = float(tree.node_count)
        self._mine_tree(
            tree, (), ctx.search_min_esup, ctx.records, ctx.statistics
        )

    def spec(self, threshold) -> MinerSpec:
        return MinerSpec(
            name=self.name,
            definition="expected",
            threshold=threshold,
            seed_mode="none",
            track_variance=self.track_variance,
            expander=self._expand,
        )
