"""Itemset representation.

An itemset is an immutable, hashable, sorted collection of item
identifiers.  Keeping items sorted gives a canonical form, so two itemsets
built from differently-ordered inputs compare and hash identically — the
property every candidate-generation step relies on.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Tuple, Union

__all__ = ["Itemset"]

ItemsLike = Union["Itemset", Iterable[int], int]


class Itemset:
    """An immutable set of item identifiers with a canonical (sorted) order."""

    __slots__ = ("_items",)

    def __init__(self, items: ItemsLike = ()) -> None:
        if isinstance(items, Itemset):
            self._items: Tuple[int, ...] = items._items
            return
        if isinstance(items, int):
            items = (items,)
        unique = sorted({int(item) for item in items})
        for item in unique:
            if item < 0:
                raise ValueError(f"item identifiers must be non-negative, got {item}")
        self._items = tuple(unique)

    @classmethod
    def _canonical(cls, items: Tuple[int, ...]) -> "Itemset":
        """The itemset of ``items``, which must already be distinct non-negative ints, ascending.

        Unchecked: the search records itemsets whose items come from the
        database's validated columns, so de-duplicating and re-validating
        them would only cost time.
        """
        itemset = cls.__new__(cls)
        itemset._items = items
        return itemset

    # -- container protocol ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[int]:
        return iter(self._items)

    def __contains__(self, item: int) -> bool:
        return item in self._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Itemset):
            return self._items == other._items
        if isinstance(other, (tuple, list, set, frozenset)):
            return self._items == tuple(sorted(int(i) for i in other))
        return NotImplemented

    def __lt__(self, other: "Itemset") -> bool:
        return self._items < other._items

    def __repr__(self) -> str:
        return f"Itemset({list(self._items)})"

    # -- set algebra -----------------------------------------------------------------
    @property
    def items(self) -> Tuple[int, ...]:
        """The items in ascending order."""
        return self._items

    def union(self, other: ItemsLike) -> "Itemset":
        """Return the union of this itemset and ``other``."""
        return Itemset(tuple(self._items) + tuple(Itemset(other)._items))

    def intersection(self, other: ItemsLike) -> "Itemset":
        """Return the intersection of this itemset and ``other``."""
        other_set = set(Itemset(other)._items)
        return Itemset(item for item in self._items if item in other_set)

    def difference(self, other: ItemsLike) -> "Itemset":
        """Return the items of this itemset not present in ``other``."""
        other_set = set(Itemset(other)._items)
        return Itemset(item for item in self._items if item not in other_set)

    def issubset(self, other: ItemsLike) -> bool:
        """Return True if every item of this itemset appears in ``other``."""
        other_set = set(Itemset(other)._items)
        return all(item in other_set for item in self._items)

    def issuperset(self, other: ItemsLike) -> bool:
        """Return True if this itemset contains every item of ``other``."""
        return Itemset(other).issubset(self)

    def with_item(self, item: int) -> "Itemset":
        """Return a new itemset with ``item`` added."""
        return Itemset(self._items + (int(item),))

    def subsets_of_size(self, size: int) -> Iterator["Itemset"]:
        """Yield every subset of the given size (used by Apriori-style pruning)."""
        from itertools import combinations

        for combination in combinations(self._items, size):
            yield Itemset(combination)

    def prefix(self, length: int) -> "Itemset":
        """Return the itemset made of the first ``length`` items in canonical order."""
        return Itemset(self._items[:length])
