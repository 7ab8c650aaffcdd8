"""Top-k ranked mining: the ranking algebra and the threshold-raising search.

Threshold mining answers "every itemset above ``min_esup`` (Definition 2)
or ``(min_sup, pft)`` (Definition 4)"; a serving-scale consumer more often
asks "the ``k`` best itemsets" without knowing a good threshold for the
data.  This module houses everything the top-k subsystem shares between the
batch miner (:mod:`repro.algorithms.topk`) and the streaming miner
(:class:`repro.stream.miners.StreamingTopK`):

* the two **rankings** — expected support (Definition 2 ordering) and
  frequentness probability at a fixed ``min_sup`` (Definition 4 ordering) —
  with the deterministic tie-break *score desc, size asc, lexicographic
  items* shared by every consumer;
* :class:`TopKBuffer`, the result buffer whose running k-th best score is
  the **dynamically raised support floor**: once ``k`` itemsets are held,
  any candidate scoring strictly below the floor can never enter (the score
  is the primary sort key), and by anti-monotonicity neither can any of its
  supersets — so the floor prunes exactly like a threshold, but tightens as
  better itemsets arrive;
* :func:`run_topk_search`, the best-first levelwise driver: a priority
  queue of expansion nodes ordered by their descendant score bound; popping
  a node evaluates all of its lexicographic extensions in one batch.  The
  search terminates as soon as the best remaining bound falls below the
  floor;
* :func:`topk_scorer`, the one level scorer of that batch for all five
  evaluators, batch and streaming alike: it reads the level's statistics
  (a :class:`~repro.core.support.SupportEngine` or the streaming index's
  adapter) and runs the same bound chain as the threshold miners, with the
  floor as the bar;
* :class:`TopKResult` plus the mine-then-truncate helpers
  (:func:`rank_itemsets`, :func:`truncate_result`,
  :func:`truncation_baseline`) that pin top-k output byte-identical to
  full mining followed by truncation — the same fair-baseline discipline
  the paper applies to its protocol comparisons.

Only itemsets with a strictly positive score are ranked: an itemset that
cannot occur (zero expected support, or fewer than ``min_count`` possible
transactions under the probabilistic ranking) is never reported, matching
the threshold miners' conventions.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .itemset import Itemset
from .results import FrequentItemset, MiningResult, MiningStatistics

__all__ = [
    "ALGORITHM_EVALUATORS",
    "CANONICAL_ALGORITHMS",
    "EVALUATOR_RANKINGS",
    "RANKINGS",
    "ScoredCandidate",
    "TopKBuffer",
    "TopKResult",
    "mine_topk",
    "normal_descendant_bound",
    "rank_itemsets",
    "ranking_of",
    "resolve_evaluator",
    "run_topk_search",
    "score_of",
    "topk_scorer",
    "truncate_result",
    "truncation_baseline",
]

Candidate = Tuple[int, ...]

#: the two ranking orders: Definition 2 (expected support) and Definition 4
#: (frequentness probability at a fixed ``min_sup``)
RANKINGS = ("esup", "probability")

#: evaluator -> ranking it scores under
EVALUATOR_RANKINGS: Dict[str, str] = {
    "esup": "esup",
    "dp": "probability",
    "dc": "probability",
    "normal": "probability",
    "poisson": "probability",
}

#: registered algorithm name -> the evaluator that reproduces its scoring
ALGORITHM_EVALUATORS: Dict[str, str] = {
    "uapriori": "esup",
    "ufp-growth": "esup",
    "uh-mine": "esup",
    "dpb": "dp",
    "dpnb": "dp",
    "dcb": "dc",
    "dcnb": "dc",
    "ndu-apriori": "normal",
    "nduh-mine": "normal",
    "pdu-apriori": "poisson",
}

#: evaluator -> the registered threshold miner used as the
#: mine-then-truncate verification baseline
CANONICAL_ALGORITHMS: Dict[str, str] = {
    "esup": "uapriori",
    "dp": "dpb",
    "dc": "dcb",
    "normal": "ndu-apriori",
    "poisson": "pdu-apriori",
}


def resolve_evaluator(name: str) -> str:
    """Map an evaluator or registered algorithm name to its evaluator key."""
    key = name.lower()
    if key in EVALUATOR_RANKINGS:
        return key
    if key in ALGORITHM_EVALUATORS:
        return ALGORITHM_EVALUATORS[key]
    raise KeyError(
        f"unknown top-k evaluator {name!r}; known evaluators: "
        f"{sorted(EVALUATOR_RANKINGS)}, known algorithms: "
        f"{sorted(ALGORITHM_EVALUATORS)}"
    )


def ranking_of(evaluator: str) -> str:
    """The ranking (``"esup"`` / ``"probability"``) an evaluator scores under."""
    return EVALUATOR_RANKINGS[resolve_evaluator(evaluator)]


def score_of(record: FrequentItemset, ranking: str) -> float:
    """Extract a record's ranking score (esup or frequent probability)."""
    if ranking == "esup":
        return float(record.expected_support)
    if ranking == "probability":
        if record.frequent_probability is None:
            raise ValueError(
                f"record {record.itemset.items} carries no frequent probability; "
                "it cannot be ranked probabilistically"
            )
        return float(record.frequent_probability)
    raise ValueError(f"unknown ranking {ranking!r}; known: {RANKINGS}")


def _rank_key(score: float, items: Candidate) -> Tuple[float, int, Candidate]:
    """Deterministic total order: score desc, then size asc, then lexicographic."""
    return (-score, len(items), items)


class TopKBuffer:
    """The k best records seen so far, with the threshold-raising floor.

    Records are kept sorted by the deterministic rank key (score desc, size
    asc, lexicographic items).  Once ``k`` records are held, :attr:`floor`
    is the k-th best score: a candidate scoring *strictly* below it can
    never displace a held record (the score is the primary key), while a
    candidate tying the floor still can (via the size / lexicographic
    tie-break) and must not be pruned.  The floor never decreases, which is
    what makes it sound as a dynamically raised mining threshold.
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self._entries: List[Tuple[Tuple[float, int, Candidate], FrequentItemset]] = []

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.k

    @property
    def floor(self) -> float:
        """The current prune threshold: the k-th best score (0 until full)."""
        if not self.full:
            return 0.0
        return -self._entries[-1][0][0]

    def offer(self, score: float, record: FrequentItemset) -> bool:
        """Admit ``record`` if it ranks among the k best seen so far."""
        key = _rank_key(float(score), record.itemset.items)
        if self.full and key >= self._entries[-1][0]:
            return False
        bisect.insort(self._entries, (key, record))
        if len(self._entries) > self.k:
            self._entries.pop()
        return True

    def records(self) -> List[FrequentItemset]:
        """The held records in rank order (best first)."""
        return [record for _, record in self._entries]


@dataclass(frozen=True)
class ScoredCandidate:
    """One evaluated candidate of the best-first search.

    ``score`` is the candidate's own ranking score; ``bound`` is an upper
    bound on the score of **every proper superset** (for the exact and
    Poisson evaluators the score itself, by anti-monotonicity; the Normal
    approximation is not anti-monotone, so its bound is coarser).
    ``record`` is ``None`` when the score is not positive (the candidate is
    unrankable but its subtree may still be live).
    """

    items: Candidate
    score: float
    bound: float
    record: Optional[FrequentItemset]


#: evaluate(candidates, buffer) -> one Optional[ScoredCandidate] per input;
#: ``None`` marks a candidate whose whole subtree is provably dead
EvaluateFn = Callable[[List[Candidate], TopKBuffer], List[Optional[ScoredCandidate]]]


def run_topk_search(
    universe: Sequence[int],
    evaluate: EvaluateFn,
    k: int,
    use_floor: bool = True,
    statistics: Optional[MiningStatistics] = None,
) -> TopKBuffer:
    """Best-first levelwise top-k search over lexicographic extensions.

    Every itemset over ``universe`` is generated at most once, as an
    extension of its lexicographic prefix (``(a1 < ... < an)`` is reached
    only from ``(a1 < ... < a_{n-1})``).  A priority queue orders the
    expansion frontier by descendant score bound, best first; popping a node
    evaluates all of its extensions in one batch through ``evaluate``.

    Pruning is driven by the buffer's rising floor (disabled with
    ``use_floor=False``, which turns the search into the exhaustive
    mine-everything reference):

    * a candidate whose *bound* falls strictly below the floor is not
      expanded — no superset can beat the current k-th best, and the floor
      only rises;
    * the search stops outright when the best remaining frontier bound
      falls strictly below the floor;
    * candidates tying the floor stay live: an equal score can still win
      the size / lexicographic tie-break.

    ``evaluate`` receives the live buffer so it can apply its own cheap
    bound filters (Markov / Chernoff) against the current floor before
    paying for an exact evaluation (see :func:`topk_scorer`).
    """
    buffer = TopKBuffer(k)
    ordered = sorted(set(int(item) for item in universe))
    if not ordered:
        return buffer
    last_item = ordered[-1]
    frontier: List[Tuple[float, int, Candidate]] = []

    def admit(batch: List[Optional[ScoredCandidate]]) -> None:
        # Offer the whole batch before pushing: the floor each push is
        # checked against is then as tight as this batch can make it.
        for scored in batch:
            if scored is not None and scored.record is not None and scored.score > 0.0:
                buffer.offer(scored.score, scored.record)
        for scored in batch:
            if scored is None or scored.bound <= 0.0:
                continue
            if scored.items[-1] == last_item:
                continue  # no lexicographic extensions exist
            if use_floor and buffer.full and scored.bound < buffer.floor:
                if statistics is not None:
                    statistics.candidates_pruned += 1
                continue
            heapq.heappush(
                frontier, (-scored.bound, len(scored.items), scored.items)
            )

    seeds: List[Candidate] = [(item,) for item in ordered]
    if statistics is not None:
        statistics.candidates_generated += len(seeds)
    admit(evaluate(seeds, buffer))

    while frontier:
        negative_bound, _, items = heapq.heappop(frontier)
        if use_floor and buffer.full and -negative_bound < buffer.floor:
            # The frontier is bound-ordered: nothing left can beat the
            # k-th best, and the floor only rises from here.
            break
        children = [items + (item,) for item in ordered if item > items[-1]]
        if not children:
            continue
        if statistics is not None:
            statistics.candidates_generated += len(children)
        admit(evaluate(children, buffer))
    return buffer


#: evaluator -> the exact-tail method of a level's statistics; the bound
#: chain applies to these evaluators only, because their scores are
#: anti-monotone and the Markov / Chernoff bounds bound them
_TAIL_METHODS: Dict[str, str] = {"dp": "dynamic_programming", "dc": "divide_conquer"}


def normal_descendant_bound(expected_support: float, min_count: int) -> float:
    """Sound upper bound on any superset's Normal-approximation score.

    Supersets only lower the expected support, but their variance can move
    either way, so the Normal score is not anti-monotone.  The envelope over
    every possible variance: once ``esup < min_count - 0.5`` the z-score is
    negative for every superset, capping the approximation below ``Phi(0) =
    0.5``; above that the bound is uninformative.
    """
    return 1.0 if expected_support >= min_count - 0.5 else 0.5


def topk_scorer(
    level: Callable,
    evaluator: str,
    min_count: Optional[int],
    statistics: MiningStatistics,
    use_pruning: bool = True,
    track_variance: bool = False,
) -> EvaluateFn:
    """The one level scorer of the best-first search (batch and streaming).

    ``level(candidates, kill)`` returns the level's statistics:
    ``expected_supports``, ``variances``, ``undecided_after_bounds``,
    ``subset`` and the tails of the survivor batch.  The floor (the
    running k-th best score, ``0`` until the buffer is full or with
    ``use_pruning=False``) drives every cut, exactly as ``pft`` does for
    the threshold miners:

    * ``esup`` — the expected support is its own descendant bound; the
      floor doubles as the stage-1 kill (``esup <= count``);
    * ``dp`` / ``dc`` — the count cut at ``min_count``, then Markov and
      Chernoff while the floor is positive, killing a bound strictly below
      it (``bar = nextafter(floor, 0)``), then the exact tail;
    * ``normal`` — the count cut only (the bounds bound the exact tail,
      not the approximation), and the coarser
      :func:`normal_descendant_bound`, the score not being anti-monotone;
    * ``poisson`` — no cut at all: its score is positive below
      ``min_count``, as PDUApriori's is.

    Every candidate whose score kernel runs counts as one exact evaluation
    (the :class:`~repro.core.results.MiningStatistics` contract); every cut
    candidate as pruned.
    """
    def floor_of(buffer: TopKBuffer) -> float:
        return buffer.floor if (use_pruning and buffer.full) else 0.0

    def count_batch() -> None:
        # One batch per expanded node, not per Apriori level: counted apart
        # so database_scans keeps its cross-miner meaning.
        statistics.notes["engine_batches"] = (
            statistics.notes.get("engine_batches", 0.0) + 1.0
        )

    if evaluator == "esup":

        def evaluate_esup(candidates, buffer):
            floor = floor_of(buffer)
            stats = level(candidates, floor)
            expected = stats.expected_supports()
            variances = stats.variances() if track_variance else None
            count_batch()
            scored: List[Optional[ScoredCandidate]] = []
            for index, candidate in enumerate(candidates):
                score = float(expected[index])
                if score <= 0.0 or score < floor:
                    # Anti-monotone: no superset can score higher, and the
                    # floor only rises — the whole subtree is dead.
                    statistics.candidates_pruned += 1
                    scored.append(None)
                    continue
                record = FrequentItemset(
                    Itemset(candidate),
                    score,
                    float(variances[index]) if variances is not None else None,
                )
                scored.append(ScoredCandidate(candidate, score, score, record))
            return scored

        return evaluate_esup

    min_count = int(min_count)
    count_cut = evaluator != "poisson"
    bounds = use_pruning and evaluator in _TAIL_METHODS

    def evaluate(candidates, buffer):
        floor = floor_of(buffer)
        stats = level(candidates, min_count if count_cut else 0.0)
        expected = stats.expected_supports()
        variances = stats.variances()
        count_batch()
        if count_cut:
            alive = stats.undecided_after_bounds(
                min_count,
                math.nextafter(floor, 0.0),
                use_bounds=bounds and floor > 0.0,
                notes=statistics.notes,
            )
        else:
            alive = list(range(len(candidates)))
        statistics.candidates_pruned += len(candidates) - len(alive)
        scored: List[Optional[ScoredCandidate]] = [None] * len(candidates)
        if not alive:
            return scored

        statistics.exact_evaluations += len(alive)
        batch = stats.subset(alive)
        if evaluator == "normal":
            probabilities = batch.normal_frequent_probabilities(min_count)
        elif evaluator == "poisson":
            probabilities = batch.poisson_frequent_probabilities(min_count)
        else:
            probabilities = batch.frequent_probabilities(
                min_count, method=_TAIL_METHODS[evaluator]
            )
        for index, probability in zip(alive, probabilities):
            candidate = candidates[index]
            score = float(probability)
            if evaluator == "normal":
                bound = normal_descendant_bound(float(expected[index]), min_count)
            else:
                # Exact and Poisson scores are anti-monotone: the
                # candidate's own score bounds every superset's.
                bound = score
            record = None
            if score > 0.0:
                record = FrequentItemset(
                    Itemset(candidate),
                    float(expected[index]),
                    float(variances[index]),
                    score,
                )
            scored[index] = ScoredCandidate(candidate, score, bound, record)
        return scored

    return evaluate


class TopKResult:
    """The ranked outcome of a top-k mining run.

    Unlike :class:`~repro.core.results.MiningResult` (which canonicalises
    by itemset size and items), the records here are in **rank order**:
    score descending, size ascending, lexicographic items — the order the
    serving workload consumes.
    """

    def __init__(
        self,
        records: Sequence[FrequentItemset],
        k: int,
        ranking: str,
        min_count: Optional[int] = None,
        statistics: Optional[MiningStatistics] = None,
    ) -> None:
        self._records = list(records)
        self.k = int(k)
        self.ranking = ranking
        self.min_count = min_count
        self.statistics = statistics or MiningStatistics()

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[FrequentItemset]:
        return iter(self._records)

    def __getitem__(self, position: int) -> FrequentItemset:
        return self._records[position]

    @property
    def itemsets(self) -> List[FrequentItemset]:
        """All records in rank order (best first)."""
        return list(self._records)

    def itemset_keys(self) -> Set[Itemset]:
        return {record.itemset for record in self._records}

    def scores(self) -> List[float]:
        """The ranking scores, best first."""
        return [score_of(record, self.ranking) for record in self._records]

    def ranked_keys(self) -> List[Tuple[Candidate, float]]:
        """``(items, score)`` pairs in rank order — the equality-test view."""
        return [
            (record.itemset.items, score_of(record, self.ranking))
            for record in self._records
        ]

    def as_mining_result(self) -> MiningResult:
        """Repackage as a canonical :class:`MiningResult` (rank order lost)."""
        return MiningResult(self._records, self.statistics)


def rank_itemsets(
    records: Sequence[FrequentItemset], ranking: str, k: Optional[int] = None
) -> List[FrequentItemset]:
    """Sort records by the deterministic rank key, optionally truncating to ``k``.

    Records whose score is not strictly positive are dropped — they are
    unrankable under the positive-score convention shared with the search.
    """
    ranked = sorted(
        (record for record in records if score_of(record, ranking) > 0.0),
        key=lambda record: _rank_key(score_of(record, ranking), record.itemset.items),
    )
    return ranked if k is None else ranked[: int(k)]


def truncate_result(result, k: int, ranking: str) -> TopKResult:
    """Mine-then-truncate: rank a full mining result and keep the k best."""
    records = rank_itemsets(list(result), ranking, k)
    statistics = getattr(result, "statistics", None)
    return TopKResult(records, k, ranking, statistics=statistics)


def mine_topk(
    database,
    k: int,
    algorithm: str = "uapriori",
    min_sup: Optional[float] = None,
    **options,
) -> TopKResult:
    """Mine the ``k`` highest-ranked itemsets of ``database``.

    Parameters
    ----------
    database:
        The uncertain database to mine.
    k:
        How many itemsets to return (the actual result may be shorter when
        fewer than ``k`` itemsets have a positive score).
    algorithm:
        A registered algorithm name (``"uapriori"``, ``"dpb"``, ...) or an
        evaluator key (``"esup"``, ``"dp"``, ``"dc"``, ``"normal"``,
        ``"poisson"``).  Expected-support algorithms rank by Definition 2
        (expected support); probabilistic algorithms rank by Definition 4
        (frequentness probability at ``min_sup``) using their own
        evaluation strategy.
    min_sup:
        The fixed support level of the probabilistic ranking (ratio or
        absolute count); required for probability evaluators, ignored for
        expected-support ones.
    options:
        Forwarded to :class:`~repro.algorithms.topk.TopKMiner`
        (``workers=``, ``shards=``, ``use_pruning=``, ...).

    Returns
    -------
    TopKResult
        The ranked itemsets, byte-identical to full threshold-free mining
        followed by truncation under the deterministic tie-break.
    """
    from ..algorithms.topk import TopKMiner  # deferred: avoids import cycle

    miner = TopKMiner(evaluator=resolve_evaluator(algorithm), **options)
    return miner.mine(database, k, min_sup=min_sup)


def truncation_baseline(
    database,
    k: int,
    evaluator: str,
    min_sup: Optional[float] = None,
    reference: Optional[TopKResult] = None,
    min_esup: Optional[float] = None,
    pft: Optional[float] = None,
    **options,
) -> TopKResult:
    """Mine-then-truncate through the registered threshold miner.

    The fair baseline the subsystem is pinned against: run the canonical
    threshold miner of ``evaluator`` (see :data:`CANONICAL_ALGORITHMS`),
    rank its full result and truncate to ``k``.  The mining threshold must
    lie below the k-th best score for the truncation to equal threshold-free
    top-k; pass an explicit ``min_esup`` / ``pft``, or pass the top-k
    result being verified as ``reference`` and the threshold is
    self-calibrated just below its worst held score (with a relative margin
    absorbing the ratio/absolute round-trip).

    The ``normal`` evaluator is the exception: its score is not
    anti-monotone, so NDUApriori's own prefilter and downward closure are
    unsound as a verification oracle — that family is verified against the
    exhaustive same-kernel search instead
    (:func:`repro.algorithms.topk.exhaustive_topk`).
    """
    from .miner import mine  # deferred: avoids import cycle

    evaluator = resolve_evaluator(evaluator)
    ranking = EVALUATOR_RANKINGS[evaluator]
    algorithm = CANONICAL_ALGORITHMS[evaluator]
    n_transactions = len(database)

    if evaluator == "normal":
        # NDUApriori's Markov item prefilter and its Apriori downward
        # closure both assume an anti-monotone score; the Normal
        # approximation is not (a superset's variance can shrink faster
        # than its expectation), so a threshold run at the calibrated pft
        # can legitimately miss genuine top-k members.  The sound
        # mine-everything oracle for this family is the exhaustive search
        # over the same scoring kernels with the floor disabled.
        from ..algorithms.topk import exhaustive_topk  # deferred: import cycle

        if min_sup is None:
            raise ValueError("the probabilistic baseline requires min_sup")
        return exhaustive_topk(
            database, k, evaluator="normal", min_sup=min_sup, **options
        )

    calibration: Optional[float] = None
    if reference is not None and len(reference):
        calibration = min(reference.scores())

    if ranking == "esup":
        if min_esup is None:
            if calibration is not None:
                # Ratio strictly below the worst held score; the margin
                # covers the ratio -> absolute float round-trip, and the
                # nextafter fallback keeps the threshold valid (positive)
                # even for denormal k-th scores.
                ratio = min(
                    calibration * (1.0 - 1e-9) / max(n_transactions, 1), 1.0
                )
                min_esup = ratio if ratio > 0.0 else math.nextafter(0.0, 1.0)
            else:
                min_esup = 1e-12
        result = mine(database, algorithm=algorithm, min_esup=min_esup, **options)
    else:
        if min_sup is None:
            raise ValueError("the probabilistic baseline requires min_sup")
        if pft is None:
            if calibration is not None:
                # Strictly below the k-th score: Definition 4 thresholds
                # with `Pr > pft`, so a pft that rounds back up to the
                # calibration score would exclude the k-th record.  The
                # nextafter term guarantees strictness even when the
                # relative margin underflows (denormal scores).
                pft = min(
                    calibration * (1.0 - 1e-9),
                    math.nextafter(calibration, 0.0),
                    1.0 - 1e-12,
                )
                if pft <= 0.0:
                    pft = math.nextafter(0.0, 1.0)
            else:
                pft = 1e-12
        if evaluator == "poisson":
            options = {"report_probabilities": True, **options}
        result = mine(
            database, algorithm=algorithm, min_sup=min_sup, pft=pft, **options
        )
    return truncate_result(result, k, ranking)
