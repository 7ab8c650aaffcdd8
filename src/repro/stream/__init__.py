"""Sliding-window streaming layer: live ingest over the static mining stack.

The batch library mines a fixed :class:`~repro.db.database.UncertainDatabase`;
this package mines the *most recent* ``W`` transactions of an unbounded
arrival stream, re-emitting the frequent set after every slide:

* :mod:`repro.stream.window` — :class:`TransactionStream` (arrival-ordered,
  sequence-id-stamped transactions) and :class:`SlidingWindow` (ring-buffer
  window with stable slots; append + evict in O(1), change records per
  slide).
* :mod:`repro.stream.index` — :class:`IncrementalSupportIndex`: a segment
  tree of moment sums per candidate (a slide re-merges O(k log W) nodes)
  and two stacks of DP states for the exact tails (a slide takes O(k)
  DP steps, plus one O(W) flip every W / k slides).
* :mod:`repro.stream.miners` — :class:`StreamingUApriori` (Definition 2)
  and :class:`StreamingDP` (Definition 4), level-wise Apriori searches fed
  by the index; their per-slide frequent sets match batch-mining the same
  window contents.
"""

from .index import IncrementalSupportIndex
from .miners import (
    BATCH_EQUIVALENTS,
    STREAMING_MINERS,
    StreamingDP,
    StreamingMiner,
    StreamingTopK,
    StreamingUApriori,
    make_streaming_miner,
)
from .window import SlidingWindow, TransactionStream

__all__ = [
    "BATCH_EQUIVALENTS",
    "IncrementalSupportIndex",
    "STREAMING_MINERS",
    "SlidingWindow",
    "StreamingDP",
    "StreamingMiner",
    "StreamingTopK",
    "StreamingUApriori",
    "TransactionStream",
    "make_streaming_miner",
]
