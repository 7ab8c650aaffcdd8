"""Unified mining front-end.

:func:`mine` dispatches to any registered algorithm by name, resolving the
threshold arguments according to the algorithm's family.  This is the
"single entry point" a downstream user of the library is expected to call::

    from repro import mine, datasets

    db = datasets.make_accident(scale=0.01)
    result = mine(db, algorithm="uapriori", min_esup=0.3)
    result = mine(db, algorithm="dcb", min_sup=0.3, pft=0.9)
"""

from __future__ import annotations

from typing import Optional

from ..db.database import UncertainDatabase
from .registry import get_algorithm
from .results import MiningResult

__all__ = ["mine"]


def mine(
    database: UncertainDatabase,
    algorithm: str = "uapriori",
    min_esup: Optional[float] = None,
    min_sup: Optional[float] = None,
    pft: float = 0.9,
    **options,
) -> MiningResult:
    """Mine frequent itemsets from ``database`` with the named algorithm.

    Parameters
    ----------
    database:
        The uncertain database to mine.
    algorithm:
        Registered algorithm name; see
        :func:`repro.core.registry.algorithm_names`.
    min_esup:
        Minimum expected support (ratio in ``(0, 1]`` or absolute value).
        Required by expected-support algorithms.
    min_sup:
        Minimum support (ratio or absolute count).  Required by exact and
        approximate probabilistic algorithms.
    pft:
        Probabilistic frequentness threshold used by probabilistic
        algorithms (default 0.9, the paper's default).
    options:
        Extra keyword arguments forwarded to the algorithm constructor
        (e.g. ``use_pruning=False`` for the exact miners,
        ``track_memory=True`` or ``plan="conv_span=64"`` for any miner).

    Returns
    -------
    MiningResult
        The frequent itemsets and run statistics.
    """
    info = get_algorithm(algorithm)
    miner = info.factory(**options)
    if info.family == "expected":
        if min_esup is None:
            raise ValueError(f"algorithm {algorithm!r} requires min_esup")
        return miner.mine(database, min_esup=min_esup)
    if min_sup is None:
        raise ValueError(f"algorithm {algorithm!r} requires min_sup")
    return miner.mine(database, min_sup=min_sup, pft=pft)
