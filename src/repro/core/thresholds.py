"""Mining thresholds shared by every algorithm.

The paper expresses thresholds as *ratios* of the database size —
``min_esup`` for expected-support mining and ``(min_sup, pft)`` for
probabilistic mining — but the algorithms internally work with absolute
counts (``N * ratio``).  These helpers centralise the conversion so the
rounding convention is identical across all miners, one of the "uniform
baseline implementation" points the paper insists on.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

__all__ = [
    "ExpectedSupportThreshold",
    "ProbabilisticThreshold",
]


def _absolute_count(ratio_or_count: float, n_transactions: int) -> float:
    """Interpret a threshold given either as a ratio in [0, 1] or as a count.

    The boundary value ``1.0`` is inherently ambiguous: it could mean the
    ratio 1.0 ("in every transaction", i.e. ``N``) or the absolute count 1.
    It is deliberately kept on the **ratio** side — ``1.0 -> 1.0 * N`` —
    because ``0 < x <= 1`` reads as a ratio everywhere else in the library,
    but a :class:`UserWarning` flags the ambiguous input so a caller who
    meant "one transaction" notices; the first value on the count side is
    anything strictly above 1 (e.g. ``1.0 + 1e-9``).
    """
    if ratio_or_count < 0:
        raise ValueError("thresholds must be non-negative")
    if ratio_or_count == 1.0:
        warnings.warn(
            "threshold 1.0 is ambiguous and is interpreted as the ratio 1.0 "
            "(i.e. N, every transaction), not as the absolute count 1; pass "
            "a value > 1 for absolute counts or a ratio < 1",
            UserWarning,
            stacklevel=3,
        )
    if ratio_or_count <= 1.0:
        return ratio_or_count * n_transactions
    return float(ratio_or_count)


@dataclass(frozen=True)
class ExpectedSupportThreshold:
    """The ``min_esup`` threshold of Definition 2.

    ``value`` may be a ratio (``0 < value <= 1``) or an absolute expected
    support (``value > 1``); :meth:`absolute` resolves it for a database of
    ``n_transactions`` transactions.  The boundary ``value == 1.0`` is read
    as the **ratio** interpretation (``1.0 * N``, every transaction), not
    as the absolute expected support 1 — the exact-1.0 input additionally
    emits a :class:`UserWarning` because it is ambiguous; the smallest
    absolute input is anything strictly above 1.
    """

    value: float

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError("min_esup must be non-negative")

    def absolute(self, n_transactions: int) -> float:
        """Minimum expected support as an absolute value."""
        return _absolute_count(self.value, n_transactions)


@dataclass(frozen=True)
class ProbabilisticThreshold:
    """The ``(min_sup, pft)`` pair of Definition 4.

    ``min_sup`` may be a ratio (``0 < min_sup <= 1``) or an absolute count
    (``min_sup > 1``); ``pft`` is the probabilistic frequentness threshold
    in ``(0, 1)``.  The boundary ``min_sup == 1.0`` is read as the
    **ratio** interpretation (``1.0 * N``, every transaction), not as the
    absolute count 1 — the exact-1.0 input additionally emits a
    :class:`UserWarning` because it is ambiguous; the smallest absolute
    input is anything strictly above 1.
    """

    min_sup: float
    pft: float = 0.9

    def __post_init__(self) -> None:
        if self.min_sup < 0:
            raise ValueError("min_sup must be non-negative")
        if not 0.0 < self.pft < 1.0:
            raise ValueError("pft must lie strictly between 0 and 1")

    def min_count(self, n_transactions: int) -> int:
        """Minimum support as an absolute transaction count.

        The paper requires ``sup(X) >= N * min_sup``; the smallest integer
        support satisfying that inequality is ``ceil(N * min_sup)``.
        """
        absolute = _absolute_count(self.min_sup, n_transactions)
        return int(math.ceil(absolute - 1e-12))
