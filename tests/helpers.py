"""Shared test helpers, imported explicitly by test modules.

This module exists (instead of putting helpers in ``conftest.py``) because
``conftest`` is an ambiguous import target: both ``tests/`` and
``benchmarks/`` carry a conftest, and whichever directory lands first on
``sys.path`` wins, shadowing the other.  ``tests/helpers.py`` has a name of
its own, so ``from helpers import make_random_database`` always resolves
here.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.db import UncertainDatabase

__all__ = ["make_random_database"]


def make_random_database(
    n_transactions: int = 30,
    n_items: int = 8,
    density: float = 0.4,
    seed: int = 0,
    name: str = "random",
) -> UncertainDatabase:
    """Build a reproducible random uncertain database for consistency tests."""
    rng = random.Random(seed)
    records: List[Dict[int, float]] = []
    for _ in range(n_transactions):
        units: Dict[int, float] = {}
        for item in range(n_items):
            if rng.random() < density:
                units[item] = round(rng.uniform(0.05, 1.0), 3)
        records.append(units)
    return UncertainDatabase.from_records(records, name=name)


def column_built_view(database: UncertainDatabase):
    """``database``'s view rebuilt from its columns: it knows no unit arrays,
    so its seed blocks and item spans are copies, not spans of shared arrays."""
    from repro.db.columnar import ColumnarView

    view = ColumnarView(database)
    columns = {item: view.column(item) for item in view.items()}
    return ColumnarView.from_columns(columns, len(database))
