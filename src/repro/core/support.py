"""The support distribution of an itemset over an uncertain database.

Under the independence assumption, the support of an itemset ``X`` is the
sum of ``N`` independent Bernoulli variables — one per transaction, with
success probability ``p_i(X)`` — i.e. a **Poisson-Binomial** random
variable.  Every algorithm in the paper reduces to a different way of
querying this distribution:

* expected-support miners use only its expectation,
* exact probabilistic miners evaluate its upper tail exactly
  (dynamic programming or divide-and-conquer convolution),
* approximate miners replace the tail with a Poisson or Normal
  approximation parameterised by the expectation (and variance),
* the Chernoff bound gives a cheap upper bound on the tail used for
  pruning.

:class:`SupportDistribution` packages all of these views behind one object;
the module-level functions expose the raw numerics for reuse and testing.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence

import numpy as np

from ..plan.spec import resolve_knob

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .parallel import ParallelExecutor

__all__ = [
    "SupportDistribution",
    "SupportEngine",
    "convolve_pmfs",
    "resolve_conv_span",
    "dc_tail_probabilities",
    "exact_pmf_dynamic_programming",
    "exact_pmf_divide_conquer",
    "frequent_probability_dynamic_programming",
    "frequent_probabilities_dp_batch",
    "pack_probability_matrix",
    "resolve_dp_block_bytes",
    "PMF_RENORMALIZE_TOLERANCE",
    "poisson_tail_probability",
    "normal_tail_probability",
    "chernoff_upper_bound",
    "markov_upper_bound",
    "cheap_tail_upper_bound",
    "staged_tail_filter",
    "poisson_lambda_for_threshold",
]

# The Normal CDF is evaluated via math.erf to avoid importing scipy in the
# hot path; scipy is still used by the higher-level statistics helpers.
_SQRT2 = math.sqrt(2.0)


def _standard_normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / _SQRT2))


def exact_pmf_dynamic_programming(probabilities: Sequence[float]) -> np.ndarray:
    """Exact Poisson-Binomial PMF by the classic O(N^2) dynamic programme.

    Implements the incremental convolution ``f_j = f_{j-1} * [1 - p_j, p_j]``:
    after absorbing transaction ``j``, ``f_j[k]`` is the probability that
    exactly ``k`` of the first ``j`` transactions contain the itemset.

    Args:
        probabilities: Per-transaction occurrence probabilities ``p_i(X)``
            (zeros may be omitted — they shift nothing).

    Returns:
        Array of length ``N + 1``; ``result[k] = Pr[sup(X) = k]``.

    >>> exact_pmf_dynamic_programming([0.5, 0.5]).tolist()
    [0.25, 0.5, 0.25]
    """
    probabilities = np.asarray(probabilities, dtype=float)
    n = len(probabilities)
    pmf = np.zeros(n + 1, dtype=float)
    pmf[0] = 1.0
    for index, probability in enumerate(probabilities):
        # Shift the distribution by one with probability `probability`.
        upper = index + 1
        pmf[1 : upper + 1] = (
            pmf[1 : upper + 1] * (1.0 - probability) + pmf[:upper] * probability
        )
        pmf[0] *= 1.0 - probability
    return pmf


def resolve_conv_span(span: Optional[int] = None) -> int:
    """Resolve the direct-vs-FFT convolution crossover (``conv_span`` knob).

    Operands up to this length convolve directly (exactly); strictly longer
    ones go through the FFT.  The default of 512 is the measured crossover
    (``benchmarks/bench_ablation_convolution.py`` span sweep: direct wins
    up to ~512-entry operands on this NumPy, the FFT wins 3-6x above it).
    """
    return resolve_knob("conv_span", span)


def convolve_pmfs(
    left: np.ndarray,
    right: np.ndarray,
    use_fft: bool = True,
    span: Optional[int] = None,
) -> np.ndarray:
    """Convolve two support PMFs (the merge of independent disjoint row sets).

    The shared kernel of the DC miner and the streaming
    :class:`~repro.stream.index.IncrementalSupportIndex`.
    Operands longer than the ``conv_span`` plan knob (default 512 — the
    measured crossover) go through the FFT when ``use_fft`` is set; shorter
    ones use exact direct convolution.  ``span`` pins the crossover
    explicitly (batch callers resolve the knob once and pass it down).

    >>> convolve_pmfs(np.array([0.5, 0.5]), np.array([0.5, 0.5])).tolist()
    [0.25, 0.5, 0.25]
    """
    if use_fft:
        if span is None:
            span = resolve_conv_span()
        use_fft = len(left) > span or len(right) > span
    if use_fft:
        size = len(left) + len(right) - 1
        fft_size = 1 << (size - 1).bit_length()
        spectrum = np.fft.rfft(left, fft_size) * np.fft.rfft(right, fft_size)
        result = np.fft.irfft(spectrum, fft_size)[:size]
        # FFT round-off can produce tiny negative values; clip them away.
        np.clip(result, 0.0, None, out=result)
        return result
    return np.convolve(left, right)


#: relative mass drift beyond which :func:`exact_pmf_divide_conquer`
#: renormalises its result (drift below this is left untouched so the DC
#: tails stay directly comparable with the DP recurrence's)
PMF_RENORMALIZE_TOLERANCE = 1e-9


@functools.lru_cache(maxsize=1024)
def _dc_program(size: int, bottom: int) -> bytes:
    """Post-order stack program of the midpoint tree over ``size`` rows.

    The tree splits a run of transactions at ``size // 2`` until a run
    holds at most ``bottom`` of them.  A non-zero byte pushes the next such
    bottom node (its byte is its row count, bottom nodes tile the rows left
    to right); a zero byte pops two nodes and pushes their convolution.

    >>> list(_dc_program(5, 3))
    [2, 3, 0]
    """
    if size <= bottom:
        return bytes((size,))
    middle = size // 2
    return _dc_program(middle, bottom) + _dc_program(size - middle, bottom) + b"\x00"


def _bottom_pmfs(flat: np.ndarray, starts: np.ndarray, size: int) -> np.ndarray:
    """PMFs of every bottom node of ``size`` rows beginning at ``starts``.

    A node of one row ``p`` is ``[1-p, p]``; a node of two rows ``p, q``
    is ``[1-p, p] * [1-q, q]``; a node of three rows ``r, p, q`` is
    ``[1-r, r] * node2(p, q)`` (the tree splits three as one plus two).
    Each entry sums at most two products, and IEEE addition is
    commutative, so these closed forms equal :func:`np.convolve` of the
    same operands bitwise, whatever its summation order.
    """
    nodes = np.empty((len(starts), size + 1), dtype=float)
    q = flat[starts + size - 1]
    if size == 1:
        nodes[:, 0] = 1.0 - q
        nodes[:, 1] = q
        return nodes
    p = flat[starts + size - 2]
    pair = ((1.0 - p) * (1.0 - q), (1.0 - p) * q + p * (1.0 - q), p * q)
    if size == 2:
        for column, value in enumerate(pair):
            nodes[:, column] = value
        return nodes
    r = flat[starts]
    nodes[:, 0] = (1.0 - r) * pair[0]
    nodes[:, 1] = (1.0 - r) * pair[1] + r * pair[0]
    nodes[:, 2] = (1.0 - r) * pair[2] + r * pair[1]
    nodes[:, 3] = r * pair[2]
    return nodes


def _dc_pmfs(
    vectors: Sequence[np.ndarray],
    use_fft: bool = True,
    span: Optional[int] = None,
) -> Iterator[np.ndarray]:
    """The divide-and-conquer walker: each vector's PMF, in order.

    Every vector's midpoint tree is planned up front.  The bottom nodes of
    all trees (up to three rows each) are computed together in a few array
    operations by :func:`_bottom_pmfs`; the remaining merges run through
    :func:`convolve_pmfs` per vector, with the operands and order of the
    recursive definition, so the FFT still engages above ``span``.  The
    merges inside a bottom node of ``s`` rows have operands of at most
    ``s`` entries, and ``s`` is capped at ``span``, so each of them would
    have been a direct convolution.
    """
    if use_fft and span is None:
        span = resolve_conv_span()
    bottom = min(3, max(1, span)) if use_fft else 3
    programs = [_dc_program(len(vector), bottom) if len(vector) else b"" for vector in vectors]
    sizes = np.frombuffer(
        b"".join(program.replace(b"\x00", b"") for program in programs), dtype=np.uint8
    ).astype(np.intp)
    starts = np.cumsum(sizes) - sizes
    flat = np.concatenate(vectors) if len(sizes) else np.zeros(0)
    # next_node[s]() is the next bottom node of s rows, in walk order
    next_node = [None] + [
        iter(_bottom_pmfs(flat, starts[sizes == size], size)).__next__
        for size in range(1, bottom + 1)
    ]
    for program in programs:
        if not program:
            yield np.array([1.0])
            continue
        stack = []
        for token in program:
            if token:
                stack.append(next_node[token]())
            else:
                right = stack.pop()
                stack[-1] = convolve_pmfs(stack[-1], right, use_fft, span=span)
        pmf = stack[0]
        total = pmf.sum()
        if total > 0 and abs(total - 1.0) > PMF_RENORMALIZE_TOLERANCE:
            pmf = pmf / total
        yield pmf


def exact_pmf_divide_conquer(
    probabilities: Sequence[float],
    use_fft: bool = True,
    span: Optional[int] = None,
) -> np.ndarray:
    """Exact Poisson-Binomial PMF by divide-and-conquer convolution.

    The database is split recursively; the PMFs of the halves are combined
    by polynomial multiplication ``pmf = pmf_left (*) pmf_right`` (support
    of a union of disjoint transaction sets is the sum of independent
    supports).  With FFT-based convolution the total cost is O(N log^2 N),
    the strategy behind the paper's DC algorithm.

    Negative FFT round-off is always clipped away, but the total mass is
    renormalised only when it drifts from 1 by more than
    :data:`PMF_RENORMALIZE_TOLERANCE`.  An unconditional renormalisation
    would silently mask genuine FFT accuracy loss *and* perturb every entry
    of well-conditioned results, making DC tails disagree with DP tails by
    far more than the convolution round-off itself; with the tolerance gate
    the two exact methods agree within 1e-12 on dense inputs (pinned by the
    regression tests) while a pathologically drifted PMF still gets
    repaired.

    The split is at the midpoint (``n // 2`` rows on the left) down to
    single transactions ``[1 - p, p]``; the walker shared with
    :func:`dc_tail_probabilities` evaluates that tree without recursion.

    Args:
        probabilities: Per-transaction occurrence probabilities ``p_i(X)``.
        use_fft: Convolve halves longer than the ``conv_span`` knob via
            FFT; disabling falls back to quadratic direct convolution (the
            paper's DC ablation).
        span: Explicit crossover, resolved once through
            :func:`resolve_conv_span` when omitted.

    Returns:
        Array of length ``N + 1``; ``result[k] = Pr[sup(X) = k]``.

    >>> exact_pmf_divide_conquer([0.5, 0.5]).tolist()
    [0.25, 0.5, 0.25]
    """
    probabilities = np.asarray(probabilities, dtype=float)
    return next(_dc_pmfs([probabilities], use_fft, span))


def frequent_probability_dynamic_programming(
    probabilities: Sequence[float], min_count: int
) -> float:
    """``Pr[sup(X) >= min_count]`` via the paper's DP recurrence.

    This follows the recurrence of Bernecker et al. used by the DP miner:
    ``Pr_{>=i,j} = Pr_{>=i-1,j-1} * p_j + Pr_{>=i,j-1} * (1 - p_j)`` with the
    boundary cases ``Pr_{>=0,j} = 1`` and ``Pr_{>=i,j} = 0`` for ``i > j``.
    The cost is O(N * min_count), cheaper than the full PMF when
    ``min_count`` is small.

    Args:
        probabilities: Per-transaction occurrence probabilities ``p_i(X)``.
        min_count: Absolute support threshold ``minsup`` (``i`` above).

    Returns:
        The exact frequent probability ``Pr[sup(X) >= min_count]``.

    >>> frequent_probability_dynamic_programming([0.5, 0.5], 1)
    0.75
    >>> frequent_probability_dynamic_programming([0.5, 0.5], 3)
    0.0
    """
    probabilities = np.asarray(probabilities, dtype=float)
    n = len(probabilities)
    min_count = int(min_count)
    if min_count <= 0:
        return 1.0
    if min_count > n:
        return 0.0
    # previous[i] = Pr[at least i occurrences among the first j transactions]
    previous = np.zeros(min_count + 1, dtype=float)
    previous[0] = 1.0
    for j in range(1, n + 1):
        p = probabilities[j - 1]
        current = np.empty_like(previous)
        current[0] = 1.0
        upper = min(j, min_count)
        current[1 : upper + 1] = (
            previous[: upper] * p + previous[1 : upper + 1] * (1.0 - p)
        )
        if upper < min_count:
            current[upper + 1 :] = 0.0
        previous = current
    return float(previous[min_count])


def poisson_tail_probability(expected_support: float, min_count: int) -> float:
    """Poisson approximation of ``Pr[sup(X) >= min_count]``.

    The Poisson-Binomial variable is approximated by a Poisson variable with
    rate ``lambda = esup(X)`` (Le Cam's theorem); the tail is
    ``1 - F_Poisson(min_count - 1; lambda)
    = 1 - sum_{k < min_count} e^{-lambda} lambda^k / k!``,
    the formula behind the paper's PDUApriori.

    Args:
        expected_support: The rate ``lambda = esup(X)``.
        min_count: Absolute support threshold.

    Returns:
        The approximate frequent probability, clipped to ``[0, 1]``.

    >>> round(poisson_tail_probability(1.0, 1), 12)
    0.632120558829
    >>> poisson_tail_probability(0.0, 1)
    0.0
    """
    if min_count <= 0:
        return 1.0
    lam = max(float(expected_support), 0.0)
    if lam == 0.0:
        return 0.0
    # Survival function computed with a numerically stable running term.
    term = math.exp(-lam)
    cdf = term
    for k in range(1, int(min_count)):
        term *= lam / k
        cdf += term
    return float(max(0.0, min(1.0, 1.0 - cdf)))


def normal_tail_probability(
    expected_support: float, variance: float, min_count: int
) -> float:
    """Normal approximation of ``Pr[sup(X) >= min_count]`` with continuity correction.

    Follows the paper's formula (central limit theorem on the Poisson-
    Binomial support, used by NDUApriori and NDUH-Mine):
    ``Pr(X) ~ Phi((esup(X) - (min_count - 0.5)) / sqrt(Var[sup(X)]))``.

    Args:
        expected_support: First moment ``esup(X)``.
        variance: Second central moment ``Var[sup(X)]``.
        min_count: Absolute support threshold (continuity-corrected by 0.5).

    Returns:
        The approximate frequent probability.

    >>> normal_tail_probability(1.0, 0.5, 1)  # threshold exactly at the mean
    0.7602499389065233
    >>> normal_tail_probability(2.0, 0.0, 1)  # degenerate: all mass at esup
    1.0
    """
    if min_count <= 0:
        return 1.0
    if variance <= 0.0:
        # Degenerate distribution: all mass at the expectation.
        return 1.0 if expected_support >= min_count - 0.5 else 0.0
    z = (expected_support - (min_count - 0.5)) / math.sqrt(variance)
    return float(_standard_normal_cdf(z))


def chernoff_upper_bound(expected_support: float, min_count: int) -> float:
    """Chernoff upper bound on ``Pr[sup(X) >= min_count]`` (Lemma 1).

    With ``mu = esup(X)`` and ``delta = (min_count - mu - 1) / mu`` the bound
    is ``2^{-delta * mu}`` when ``delta > 2e - 1`` and
    ``e^{-delta^2 mu / 4}`` otherwise — the cheap pre-filter of the paper's
    DPB/DCB configurations.

    Args:
        expected_support: First moment ``mu = esup(X)``.
        min_count: Absolute support threshold.

    Returns:
        An upper bound on the frequent probability; 1.0 when the bound is
        uninformative (``min_count`` does not exceed the expectation), so
        callers can use the value directly as a conservative estimate.

    >>> chernoff_upper_bound(10.0, 5)   # threshold below the mean: no information
    1.0
    >>> chernoff_upper_bound(1.0, 40) == 2.0 ** -38
    True
    """
    mu = float(expected_support)
    if mu <= 0.0:
        return 0.0 if min_count > 0 else 1.0
    delta = (min_count - mu - 1.0) / mu
    if delta <= 0.0:
        return 1.0
    if delta > 2.0 * math.e - 1.0:
        return float(2.0 ** (-delta * mu))
    return float(math.exp(-(delta * delta) * mu / 4.0))


def markov_upper_bound(expected_support: float, min_count: int) -> float:
    """Markov's inequality on the support tail: ``Pr[sup >= m] <= esup / m``.

    The cheapest sound bound of the filter-verify cascade — one division
    from the already-computed expected support, no exponentials.  It is the
    inequality behind the miners' item prefilter, applied here per
    candidate as the first verify stage.

    >>> markov_upper_bound(2.0, 8)
    0.25
    >>> markov_upper_bound(5.0, 0)
    1.0
    """
    if min_count <= 0:
        return 1.0
    return min(1.0, max(float(expected_support), 0.0) / min_count)


def cheap_tail_upper_bound(expected_support: float, min_count: int) -> float:
    """Cheapest sound upper bound on ``Pr[sup(X) >= min_count]``.

    The minimum of the Chernoff bound (Lemma 1) and Markov's inequality
    (``Pr <= esup / min_count``), both O(1) from the expected support — the
    shared pre-filter of the top-k miners (batch and streaming), applied
    against the rising k-th-best floor exactly as the threshold miners
    apply the Chernoff bound against ``pft``.

    >>> cheap_tail_upper_bound(1.0, 10) <= 0.1
    True
    >>> cheap_tail_upper_bound(5.0, 0)
    1.0
    """
    if min_count <= 0:
        return 1.0
    return min(
        1.0,
        chernoff_upper_bound(expected_support, min_count),
        float(expected_support) / min_count,
    )


def staged_tail_filter(
    expected_support: float, min_count: int, floor: float
) -> bool:
    """Bound-ordered kill test: is the exact tail certainly below ``floor``?

    Evaluates the cheap upper bounds in cost order and stops at the first
    decisive one — Markov (one division) before Chernoff (exponentials) —
    instead of always paying for both.  The decision is identical to
    ``cheap_tail_upper_bound(...) < floor`` because
    ``min(a, b) < floor  ⇔  a < floor or b < floor``; only the work is
    staged.  The shared kill stage of the top-k miners (batch and
    streaming), applied against the rising k-th-best floor.

    >>> staged_tail_filter(1.0, 10, 0.2)   # Markov alone decides: 0.1 < 0.2
    True
    >>> staged_tail_filter(1.0, 10, 0.05)  # Chernoff decides: 2^-8ish < 0.05
    True
    >>> staged_tail_filter(9.0, 10, 0.5)   # bounds uninformative near the mean
    False
    """
    if floor <= 0.0 or min_count <= 0:
        return False
    if markov_upper_bound(expected_support, min_count) < floor:
        return True
    return chernoff_upper_bound(expected_support, min_count) < floor


def poisson_lambda_for_threshold(min_count: int, pft: float) -> float:
    """Smallest Poisson rate whose tail at ``min_count`` exceeds ``pft``.

    PDUApriori converts the probabilistic threshold ``(min_count, pft)`` into
    an equivalent *expected support* threshold: because the Poisson tail is
    monotonically increasing in ``lambda``, a binary search finds the rate at
    which ``Pr[Poisson(lambda) >= min_count] = pft``; itemsets whose expected
    support reaches that rate are (approximately) probabilistic frequent.

    Args:
        min_count: Absolute support threshold.
        pft: Probabilistic frequentness threshold, strictly inside (0, 1).

    Returns:
        The smallest rate ``lambda*`` with
        ``Pr[Poisson(lambda*) >= min_count] > pft`` (up to bisection
        precision).

    Raises:
        ValueError: If ``pft`` is not strictly between 0 and 1.

    >>> lam = poisson_lambda_for_threshold(3, 0.9)
    >>> poisson_tail_probability(lam, 3) > 0.9
    True
    >>> poisson_tail_probability(lam * 0.99, 3) > 0.9
    False
    """
    if not 0.0 < pft < 1.0:
        raise ValueError("pft must lie strictly between 0 and 1")
    if min_count <= 0:
        return 0.0
    low, high = 0.0, float(max(min_count, 1))
    while poisson_tail_probability(high, min_count) <= pft:
        high *= 2.0
        if high > 1e9:  # pragma: no cover - defensive guard
            break
    for _ in range(80):
        middle = 0.5 * (low + high)
        if poisson_tail_probability(middle, min_count) > pft:
            high = middle
        else:
            low = middle
    return high



def resolve_dp_block_bytes(value: Optional[int] = None) -> int:
    """The serial DP's per-block byte budget (``dp_block_bytes`` knob)."""
    return resolve_knob("dp_block_bytes", value)


def pack_probability_matrix(vectors: Sequence[Sequence[float]]) -> np.ndarray:
    """Zero-pad per-candidate probability vectors into one matrix.

    A padded zero is a Bernoulli(0) transaction, the identity of every
    support-distribution recurrence, so evaluations over the rows of the
    padded matrix agree bitwise with per-vector evaluations.

    Args:
        vectors: One probability vector per candidate (ragged lengths).

    Returns:
        A ``(n_candidates, max_len)`` float matrix, each row zero-padded.

    >>> pack_probability_matrix([[0.5], [0.25, 1.0]]).tolist()
    [[0.5, 0.0], [0.25, 1.0]]
    """
    arrays = [np.asarray(vector, dtype=float) for vector in vectors]
    width = max((len(array) for array in arrays), default=0)
    matrix = np.zeros((len(arrays), width), dtype=float)
    for index, array in enumerate(arrays):
        matrix[index, : len(array)] = array
    return matrix


def frequent_probabilities_dp_batch(
    vectors: Sequence[Sequence[float]], min_count: int
) -> np.ndarray:
    """Batched ``Pr[sup(X) >= min_count]`` via the DP recurrence.

    The classic O(N * min_count) recurrence
    ``Pr_{>=i,j} = Pr_{>=i-1,j-1} * p_j + Pr_{>=i,j-1} * (1 - p_j)``
    is advanced over the transaction axis with every candidate updated in
    one vectorized step, turning the per-candidate Python loop into
    ``max_len`` NumPy operations shared by the whole level.

    The sweep does no identity work.  Candidates are ranked longest first
    (stable), and step ``j`` updates only the prefix of rows that still
    have a ``j``-th transaction, and only the columns
    ``1..min(j + 1, min_count)``: a skipped row would take a Bernoulli(0)
    step (``x * 1.0 + y * 0.0 == x``) and a skipped column is
    ``0 * p + 0 * (1 - p) == 0``.  Every real step does the per-cell
    arithmetic of :func:`frequent_probability_dynamic_programming`, so the
    results are bitwise identical to it applied vector by vector.  The
    probabilities live in one step-major ragged buffer (step ``j`` holds
    ``flat[start[j] : start[j] + active[j]]``) of the vectors' total
    length, never a padded ``(n_candidates, max_len)`` matrix.

    Args:
        vectors: One probability vector per candidate (ragged lengths,
            zeros omitted or not), or a padded matrix whose rows are such
            vectors.
        min_count: Absolute support threshold.

    Returns:
        Array of ``Pr[sup(X) >= min_count]``, one entry per candidate.

    >>> frequent_probabilities_dp_batch([[0.5, 0.5], [1.0]], 1).tolist()
    [0.75, 1.0]
    """
    if isinstance(vectors, np.ndarray):
        vectors = np.atleast_2d(vectors)
    arrays = [np.asarray(vector, dtype=float) for vector in vectors]
    n_candidates = len(arrays)
    lengths = np.array([len(array) for array in arrays], dtype=np.intp)
    width = int(lengths.max()) if n_candidates else 0
    min_count = int(min_count)
    if min_count <= 0:
        return np.ones(n_candidates, dtype=float)
    if min_count > width:
        return np.zeros(n_candidates, dtype=float)
    order = np.argsort(-lengths, kind="stable")
    ranked = lengths[order].tolist()
    # active[j] = rows (longest first) that still have a j-th transaction;
    # start[j] = where step j begins in the step-major buffer
    active = np.cumsum(np.bincount(lengths, minlength=width)[:width])
    np.subtract(n_candidates, active, out=active)
    start = np.cumsum(active)
    start -= active
    del active
    flat = np.empty(int(lengths.sum()), dtype=float)
    for row, index in enumerate(order.tolist()):
        # element j of the row-th longest vector lands at flat[start[j] + row]
        flat[start[: ranked[row]] + row] = arrays[index]
    del start
    # state[c, i] = Pr[at least i occurrences among the transactions seen so far]
    state = np.zeros((n_candidates, min_count + 1), dtype=float)
    state[:, 0] = 1.0
    offset, rows = 0, n_candidates
    for j in range(width):
        while ranked[rows - 1] <= j:
            rows -= 1
        upper = min(j + 1, min_count)
        p = flat[offset : offset + rows, None]
        live = state[:rows]
        live[:, 1 : upper + 1] = live[:, :upper] * p + live[:, 1 : upper + 1] * (1.0 - p)
        offset += rows
    results = np.empty(n_candidates, dtype=float)
    results[order] = state[:, min_count]
    return results


def dc_tail_probabilities(
    vectors: Sequence[np.ndarray],
    min_count: int,
    span: Optional[int] = None,
) -> np.ndarray:
    """Per-candidate ``Pr[sup(X) >= min_count]`` via divide-and-conquer PMFs.

    The single kernel shared by the serial engine path and the parallel
    executor's candidate chunks — one implementation, so the two paths
    cannot drift apart.  Every candidate that can reach ``min_count`` goes
    through one walk of :func:`exact_pmf_divide_conquer`'s midpoint trees,
    whose bottom nodes are computed for the whole batch at once.

    Args:
        vectors: One zeros-omitted probability vector per candidate.
        min_count: Absolute support threshold.
        span: Explicit direct-vs-FFT crossover; resolved once through
            :func:`resolve_conv_span` when omitted.  The parallel executor
            resolves it on the coordinator and ships it inside the task
            payloads, so worker processes use the coordinator's plan even
            though contextvar scopes do not cross the fork.

    Returns:
        Array of exact frequent probabilities, clipped to ``[0, 1]``.

    >>> import numpy as np
    >>> dc_tail_probabilities([np.array([0.5, 0.5]), np.array([1.0])], 1).tolist()
    [0.75, 1.0]
    """
    min_count = int(min_count)
    if min_count <= 0:
        return np.ones(len(vectors), dtype=float)
    if span is None:
        span = resolve_conv_span()
    results = np.zeros(len(vectors), dtype=float)
    live = [index for index, vector in enumerate(vectors) if len(vector) >= min_count]
    pmfs = _dc_pmfs([np.asarray(vectors[index], dtype=float) for index in live], span=span)
    for index, pmf in zip(live, pmfs):
        results[index] = max(0.0, min(1.0, float(pmf[min_count:].sum())))
    return results


class SupportEngine:
    """Batched support-distribution queries for one level of candidates.

    The engine is the shared numerical substrate of every miner: it takes
    the per-candidate probability vectors of a whole Apriori level (one
    ragged vector per candidate) and answers every question the
    eight algorithms ask — expected support, variance, exact DP /
    divide-and-conquer tails, and the Normal / Poisson / Chernoff
    approximations — with the expensive paths vectorized across candidates.

    Parameters
    ----------
    vectors:
        One probability vector per candidate.  Compressed (zeros-omitted)
        vectors are accepted and preferred: padding zeros are identity
        elements of every computation, and the non-zero count doubles as the
        maximum attainable support of each candidate.
    expected, variances:
        Optional precomputed per-candidate moments.  A caller subsetting an
        already-evaluated level (the survivor batch of the Apriori miners)
        passes them to avoid re-deriving the reductions.
    executor:
        Optional :class:`~repro.core.parallel.ParallelExecutor`.  When it is
        present and parallel, the exact tail evaluations are distributed as
        candidate chunks across its worker pool; every chunk runs the same
        serial kernel, so the results stay bitwise identical to the
        single-process path.
    """

    def __init__(
        self,
        vectors: Sequence[Sequence[float]],
        expected: Optional[Sequence[float]] = None,
        variances: Optional[Sequence[float]] = None,
        executor: Optional["ParallelExecutor"] = None,
    ) -> None:
        self._vectors = [np.asarray(vector, dtype=float) for vector in vectors]
        self._matrix: Optional[np.ndarray] = None
        self._expected: Optional[np.ndarray] = (
            np.asarray(expected, dtype=float) if expected is not None else None
        )
        self._variance: Optional[np.ndarray] = (
            np.asarray(variances, dtype=float) if variances is not None else None
        )
        self._executor = executor

    def __len__(self) -> int:
        return len(self._vectors)

    @property
    def vectors(self) -> Sequence[np.ndarray]:
        return self._vectors

    @property
    def matrix(self) -> np.ndarray:
        """The zero-padded probability matrix (one row per candidate)."""
        if self._matrix is None:
            self._matrix = pack_probability_matrix(self._vectors)
        return self._matrix

    # -- moments (vectorized) ----------------------------------------------------------
    # The reductions special-case empty vectors (stage-1 kills arrive as
    # empty vectors): the empty sum is exactly 0.0, so skipping the NumPy
    # call is bitwise-neutral and saves one dispatch per killed candidate.
    def expected_supports(self) -> np.ndarray:
        """``esup(X)`` of every candidate."""
        if self._expected is None:
            self._expected = np.array(
                [float(vector.sum()) if vector.size else 0.0 for vector in self._vectors],
                dtype=float,
            )
        return self._expected

    def variances(self) -> np.ndarray:
        """``Var[sup(X)]`` of every candidate."""
        if self._variance is None:
            self._variance = np.array(
                [
                    float((vector * (1.0 - vector)).sum()) if vector.size else 0.0
                    for vector in self._vectors
                ],
                dtype=float,
            )
        return self._variance

    def nonzero_counts(self) -> np.ndarray:
        """Number of transactions that can contain each candidate at all.

        This is the maximum attainable support: candidates whose count falls
        below ``min_count`` have frequent probability exactly zero, the
        cheap filter every probabilistic miner applies first.
        """
        return np.array(
            [
                int(np.count_nonzero(vector)) if vector.size else 0
                for vector in self._vectors
            ],
            dtype=np.int64,
        )

    # -- exact tails -------------------------------------------------------------------
    def frequent_probabilities(
        self, min_count: int, method: str = "dynamic_programming"
    ) -> np.ndarray:
        """Exact ``Pr[sup(X) >= min_count]`` of every candidate.

        ``"dynamic_programming"`` advances the whole level through the
        ragged DP sweep of :func:`frequent_probabilities_dp_batch`;
        ``"divide_conquer"`` walks every candidate's convolution tree
        through :func:`dc_tail_probabilities`, which computes the trees'
        bottom nodes for the whole level at once and runs the larger
        merges (FFT above the ``conv_span`` knob) per candidate.  With a
        parallel executor attached, either evaluation is split into
        candidate chunks across the worker pool (bitwise-identical
        results).
        """
        min_count = int(min_count)
        distribute = self._executor is not None and self._executor.should_distribute(
            len(self._vectors)
        )
        if method == "dynamic_programming":
            if distribute:
                return self._executor.dp_tails(self._vectors, min_count)
            # The sweep's transient buffer holds the block's total vector
            # length; on out-of-core databases (``repro.db.store``) vector
            # lengths scale with the full row count, so the level is
            # blocked over candidates to keep block * max_len * 8 bytes
            # within the dp_block_bytes knob.  Every candidate's result is
            # independent of its block, so the blocks concatenate bitwise.
            width = max((len(vector) for vector in self._vectors), default=0)
            block = max(1, resolve_dp_block_bytes() // (8 * max(width, 1)))
            if len(self._vectors) <= block:
                return frequent_probabilities_dp_batch(self._vectors, min_count)
            return np.concatenate(
                [
                    frequent_probabilities_dp_batch(
                        self._vectors[start : start + block], min_count
                    )
                    for start in range(0, len(self._vectors), block)
                ]
            )
        if method == "divide_conquer":
            if distribute:
                return self._executor.dc_tails(self._vectors, min_count)
            return dc_tail_probabilities(self._vectors, min_count)
        raise ValueError(f"unknown method {method!r}")

    # -- approximations ----------------------------------------------------------------
    # The approximation tails are O(1) per candidate once the moments exist;
    # the batched win comes from the vectorized moment reductions above.  The
    # tails themselves deliberately reuse the scalar kernels so the values
    # stay bitwise identical to the per-candidate path.
    def normal_frequent_probabilities(self, min_count: int) -> np.ndarray:
        """Normal approximation (continuity-corrected) of every candidate's tail."""
        expected = self.expected_supports()
        variance = self.variances()
        return np.array(
            [
                normal_tail_probability(float(e), float(v), min_count)
                for e, v in zip(expected, variance)
            ],
            dtype=float,
        )

    def poisson_frequent_probabilities(self, min_count: int) -> np.ndarray:
        """Poisson approximation of every candidate's tail."""
        return np.array(
            [
                poisson_tail_probability(float(e), min_count)
                for e in self.expected_supports()
            ],
            dtype=float,
        )

    def chernoff_bounds(self, min_count: int) -> np.ndarray:
        """Chernoff upper bound on every candidate's frequent probability."""
        return np.array(
            [
                chernoff_upper_bound(float(e), min_count)
                for e in self.expected_supports()
            ],
            dtype=float,
        )

    def markov_bounds(self, min_count: int) -> np.ndarray:
        """Markov upper bound on every candidate's frequent probability."""
        expected = self.expected_supports()
        if min_count <= 0:
            return np.ones(len(expected), dtype=float)
        return np.minimum(1.0, np.maximum(expected, 0.0) / float(min_count))

    def undecided_after_bounds(
        self,
        min_count: int,
        pft: float,
        counts: Optional[np.ndarray] = None,
        use_bounds: bool = True,
        pruner=None,
        notes: Optional[Dict[str, float]] = None,
    ) -> List[int]:
        """Stage 3 of the cascade: the filter half of filter-verify.

        Applies the cheap sound upper bounds to one evaluated level in cost
        order and returns the indices the bounds could *not* decide — the
        only candidates the caller's exact DP/DC (or approximation) tail
        still has to verify:

        1. **occupancy count** — a candidate with fewer than ``min_count``
           possible occurrences has frequent probability exactly zero
           (always applied; it mirrors the semantic filter every registered
           miner already runs, and it is free when stage 1 killed the
           candidate into an empty vector);
        2. **Markov** — ``esup / min_count <= pft`` decides *infrequent*
           from a single division;
        3. **Chernoff** — Lemma 1 of the paper, evaluated only for the
           candidates Markov left undecided.

        The Poisson tail joins this cascade only where it is itself the
        scoring kernel (PDUApriori's ``lambda*`` translation and the top-k
        Poisson ranking): it approximates — but does not bound — the exact
        tail, so using it to kill here could change exact results.

        Args:
            min_count: Absolute support threshold.
            pft: Decision threshold (Definition 4 keeps ``Pr > pft``); a
                bound ``<= pft`` is decisive.
            counts: Optional per-candidate maximum attainable supports (the
                stage-1 popcounts); ``None`` derives them from the vectors.
            use_bounds: When False (the paper's *NB* configurations) only
                the semantic count filter runs.
            pruner: Optional
                :class:`~repro.algorithms.pruning.ChernoffPruner`-style
                accountant; every candidate reaching the Chernoff stage is
                fed through ``pruner.register`` so the tested/pruned
                statistics match the historical per-candidate path.
            notes: Optional mutable mapping; ``markov_tested`` /
                ``markov_pruned`` are accumulated into it.

        Returns:
            Indices of the undecided candidates, in candidate order.
        """
        min_count = int(min_count)
        counts = self.nonzero_counts() if counts is None else counts
        expected = self.expected_supports()
        markov = self.markov_bounds(min_count) if use_bounds else None
        markov_tested = 0
        markov_pruned = 0
        undecided: List[int] = []
        for index in range(len(self._vectors)):
            if counts[index] < min_count:
                continue
            if markov is not None:
                markov_tested += 1
                if markov[index] <= pft:
                    markov_pruned += 1
                    continue
                bound = chernoff_upper_bound(float(expected[index]), min_count)
                if pruner is not None:
                    if pruner.register(bound, pft):
                        continue
                elif bound <= pft:
                    continue
            undecided.append(index)
        if notes is not None and use_bounds:
            notes["markov_tested"] = notes.get("markov_tested", 0.0) + markov_tested
            notes["markov_pruned"] = notes.get("markov_pruned", 0.0) + markov_pruned
        return undecided


class SupportDistribution:
    """All views of the support distribution of one itemset.

    Parameters
    ----------
    probabilities:
        Vector of per-transaction occurrence probabilities ``p_i(X)``.
    """

    def __init__(self, probabilities: Sequence[float]) -> None:
        self._probabilities = np.asarray(probabilities, dtype=float)
        if np.any((self._probabilities < 0.0) | (self._probabilities > 1.0)):
            raise ValueError("per-transaction probabilities must lie in [0, 1]")
        self._pmf: Optional[np.ndarray] = None

    # -- moments ---------------------------------------------------------------------
    @property
    def n_transactions(self) -> int:
        return len(self._probabilities)

    @property
    def probabilities(self) -> np.ndarray:
        return self._probabilities

    @property
    def expected_support(self) -> float:
        """First moment: ``esup(X)``."""
        return float(self._probabilities.sum())

    @property
    def variance(self) -> float:
        """Second central moment of the support."""
        return float((self._probabilities * (1.0 - self._probabilities)).sum())

    # -- exact distribution ------------------------------------------------------------
    def pmf(self, method: str = "divide_conquer") -> np.ndarray:
        """Exact probability mass function of the support.

        ``method`` is ``"divide_conquer"`` (FFT-accelerated, default) or
        ``"dynamic_programming"``.  The result is cached.
        """
        if self._pmf is None:
            if method == "dynamic_programming":
                self._pmf = exact_pmf_dynamic_programming(self._probabilities)
            elif method == "divide_conquer":
                self._pmf = exact_pmf_divide_conquer(self._probabilities)
            else:
                raise ValueError(f"unknown method {method!r}")
        return self._pmf

    def pmf_as_dict(self) -> Dict[int, float]:
        """The PMF as ``{support: probability}`` with negligible entries removed."""
        return {
            support: float(probability)
            for support, probability in enumerate(self.pmf())
            if probability > 1e-12
        }

    def frequent_probability(self, min_count: int, method: str = "divide_conquer") -> float:
        """Exact ``Pr[sup(X) >= min_count]``.

        ``method`` selects the evaluation strategy: ``"divide_conquer"``
        (full PMF, then tail sum), ``"dynamic_programming"`` (the paper's DP
        recurrence, does not materialise the full PMF).
        """
        min_count = int(min_count)
        if min_count <= 0:
            return 1.0
        if min_count > self.n_transactions:
            return 0.0
        if method == "dynamic_programming":
            return frequent_probability_dynamic_programming(self._probabilities, min_count)
        tail = float(self.pmf(method)[min_count:].sum())
        return float(max(0.0, min(1.0, tail)))

    # -- approximations -----------------------------------------------------------------
    def poisson_frequent_probability(self, min_count: int) -> float:
        """Poisson approximation of the frequent probability."""
        return poisson_tail_probability(self.expected_support, min_count)

    def normal_frequent_probability(self, min_count: int) -> float:
        """Normal approximation (with continuity correction) of the frequent probability."""
        return normal_tail_probability(self.expected_support, self.variance, min_count)

    def chernoff_bound(self, min_count: int) -> float:
        """Chernoff upper bound on the frequent probability."""
        return chernoff_upper_bound(self.expected_support, min_count)
