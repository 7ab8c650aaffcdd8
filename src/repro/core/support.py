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

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from ..plan.spec import resolve_knob
from . import kernels

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .parallel import ParallelExecutor

__all__ = [
    "SupportDistribution",
    "SupportEngine",
    "convolve_pmfs",
    "shift_convolve",
    "spectrum_product",
    "resolve_conv_span",
    "dc_tail_probabilities",
    "exact_pmf_dynamic_programming",
    "exact_pmf_divide_conquer",
    "frequent_probability_dynamic_programming",
    "frequent_probabilities_dp_batch",
    "pack_probability_matrix",
    "DP_BLOCK_BYTES",
    "PMF_RENORMALIZE_TOLERANCE",
    "poisson_tail_probability",
    "normal_tail_probability",
    "chernoff_upper_bound",
    "markov_upper_bound",
    "undecided_after_bounds",
    "poisson_lambda_for_threshold",
]

# The Normal CDF is evaluated via math.erf; the runtime depends on numpy only.
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
    ones go through the FFT.  The default of 32 is the measured crossover
    of the height-batched DC walker: on an Accident-shaped batch of
    candidates (``benchmarks/bench_ablation_convolution.py``) spans 16-64
    run within about 10% of each other and 512 runs about 3.5x slower.
    Of that plateau, 32 keeps trees of fewer than 64 rows (the goldens'
    50) free of FFT round-off.
    """
    return resolve_knob("conv_span", span)


def shift_convolve(left: np.ndarray, right: np.ndarray, axis: int = -1) -> np.ndarray:
    """Direct convolution along ``axis``, in one fixed summation order.

    ``out[k : k + b] += left[k] * right`` along ``axis`` for ``k``
    ascending, batched over the other axes.  A Python loop sets the order
    and every step is an elementwise ufunc (no reduction, no fused
    multiply-add), so the bits depend on neither the BLAS kernel nor
    NumPy's SIMD level, nor on the memory layout.  Trailing zeros in
    either operand only add ``+0.0`` steps, so padding finite
    non-negative PMFs never changes a bit.

    Non-empty float operands of equal batch shape run through the compiled
    kernel (:mod:`repro.core.kernels`), which does the same per-cell
    sequence; anything else, or no compiler, runs the NumPy loop.

    >>> shift_convolve(np.array([0.5, 0.5]), np.array([0.25, 0.75])).tolist()
    [0.125, 0.5, 0.375]
    """
    left = np.moveaxis(left, axis, 0)
    right = np.moveaxis(right, axis, 0)
    width = len(right)
    if (
        len(left)
        and width
        and left.shape[1:] == right.shape[1:]
        and left.dtype == right.dtype == np.float64
        and kernels.library() is not None
    ):
        batch = left.shape[1:]
        out = kernels.shift_convolve(
            left.reshape(len(left), -1), right.reshape(width, -1)
        )
        return np.moveaxis(out.reshape((len(out),) + batch), 0, axis)
    out = np.zeros(
        (len(left) + width - 1,) + np.broadcast_shapes(left.shape[1:], right.shape[1:]),
        dtype=float,
    )
    term = np.empty((width,) + out.shape[1:], dtype=float)
    for k in range(len(left)):
        np.multiply(left[k], right, out=term)
        out[k : k + width] += term
    return np.moveaxis(out, 0, axis)


def spectrum_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x * y`` for complex spectra, computed with real ufuncs only.

    ``(a + ib)(c + id) = (ac - bd) + i(ad + bc)``, each product and sum a
    separate correctly rounded ufunc.  NumPy's complex ``*`` has SIMD
    loops that round differently from its baseline loop; this does not.

    >>> spectrum_product(np.array([1 + 2j]), np.array([3 - 1j])).tolist()
    [(5+5j)]
    """
    a, b, c, d = x.real, x.imag, y.real, y.imag
    product = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=complex)
    np.subtract(a * c, b * d, out=product.real)
    np.add(a * d, b * c, out=product.imag)
    return product


def _fft_convolve(
    left: np.ndarray, right: np.ndarray, size: int, fft_size: int
) -> np.ndarray:
    """The FFT branch: the first ``size`` entries of each convolution.

    Operands are coefficient-major (axis 0), batched over the other axes;
    ``fft_size`` must cover every full convolution.  Round-off negatives
    are clipped to zero, as in every exact PMF.
    """
    spectrum = spectrum_product(
        np.fft.rfft(left, fft_size, axis=0), np.fft.rfft(right, fft_size, axis=0)
    )
    result = np.fft.irfft(spectrum, fft_size, axis=0)[:size]
    np.clip(result, 0.0, None, out=result)
    return result


def convolve_pmfs(
    left: np.ndarray, right: np.ndarray, span: Optional[int] = None
) -> np.ndarray:
    """Convolve two support PMFs (the merge of independent disjoint row sets).

    One merge through the two kernels of the DC walker.  Operands
    longer than the ``conv_span`` plan knob go through the FFT (with
    :func:`spectrum_product`); shorter ones through :func:`shift_convolve`.
    ``span`` pins the crossover explicitly (batch callers resolve the knob
    once and pass it down; ``sys.maxsize`` convolves everything directly).
    Both branches give the same bits on every BLAS kernel and NumPy SIMD
    level.

    >>> convolve_pmfs(np.array([0.5, 0.5]), np.array([0.5, 0.5])).tolist()
    [0.25, 0.5, 0.25]
    """
    if span is None:
        span = resolve_conv_span()
    if len(left) > span or len(right) > span:
        size = len(left) + len(right) - 1
        return _fft_convolve(left, right, size, 1 << (size - 1).bit_length())
    return shift_convolve(left, right)


#: relative mass drift beyond which :func:`exact_pmf_divide_conquer`
#: renormalises its result (drift below this is left untouched so the DC
#: tails stay directly comparable with the DP recurrence's)
PMF_RENORMALIZE_TOLERANCE = 1e-9

#: byte budget of one batch of FFT merges' spectra; rows are independent,
#: so the split never changes a bit
_FFT_BATCH_BYTES = 1 << 20


def _bottom_pmfs(flat: np.ndarray, starts: np.ndarray, size: int) -> np.ndarray:
    """PMFs of every bottom node of ``size`` rows beginning at ``starts``.

    Coefficient-major: column ``i`` is the node at ``starts[i]``.  A node
    of one row ``p`` is ``[1-p, p]``; a node of two rows ``p, q`` is
    ``[1-p, p] * [1-q, q]``; a node of three rows ``r, p, q`` is
    ``[1-r, r] * node2(p, q)`` (the tree splits three as one plus two).
    Each entry is the sum :func:`shift_convolve` forms for the same
    operands, term for term and in the same order, so these closed forms
    equal its merges bitwise.
    """
    nodes = np.empty((size + 1, len(starts)), dtype=float)
    q = flat[starts + size - 1]
    if size == 1:
        np.subtract(1.0, q, out=nodes[0])
        nodes[1] = q
        return nodes
    p = flat[starts + size - 2]
    pair = ((1.0 - p) * (1.0 - q), (1.0 - p) * q + p * (1.0 - q), p * q)
    if size == 2:
        nodes[:] = pair
        return nodes
    r = flat[starts]
    nodes[0] = (1.0 - r) * pair[0]
    nodes[1] = (1.0 - r) * pair[1] + r * pair[0]
    nodes[2] = (1.0 - r) * pair[2] + r * pair[1]
    nodes[3] = r * pair[2]
    return nodes


def _dc_plan(lengths: np.ndarray, bottom: int):
    """Every midpoint tree over runs of ``lengths`` rows, as node arrays.

    A run splits at ``n // 2`` rows until it holds at most ``bottom``.
    Returns ``(start, rows, left, right)`` indexed by node: the first
    ``len(lengths)`` nodes are the roots, ``start`` indexes the runs laid
    end to end, and ``left``/``right`` name each internal node's children
    (``-1`` at a bottom node).
    """
    start = np.cumsum(lengths) - lengths
    rows = lengths
    ids = np.arange(len(lengths))
    starts, counts, splits = [start], [rows], []
    total = len(lengths)
    while True:
        split = rows > bottom
        if not split.any():
            break
        parents, start, rows = ids[split], start[split], rows[split]
        half = rows // 2
        ids = total + np.arange(2 * len(rows))
        total += len(ids)
        splits.append((parents, ids))
        start = np.concatenate((start, start + half))
        rows = np.concatenate((half, rows - half))
        starts.append(start)
        counts.append(rows)
    left = np.full(total, -1, dtype=np.intp)
    right = left.copy()
    for parents, children in splits:
        left[parents] = children[: len(parents)]
        right[parents] = children[len(parents) :]
    return np.concatenate(starts), np.concatenate(counts), left, right


def _dc_pmfs(
    vectors: Sequence[np.ndarray], span: Optional[int] = None
) -> List[np.ndarray]:
    """The divide-and-conquer walker: each vector's PMF, in order.

    Every vector's midpoint tree is planned up front with array operations
    (:func:`_dc_plan`).  A node's height depends only on its row count:
    bottom nodes (at most three rows) are height 0 and come from the
    closed forms of :func:`_bottom_pmfs`; an internal node is one above its
    larger (right) child.  The walker then merges height by height across
    all vectors: every direct merge of a height in one zero-padded
    :func:`shift_convolve`, every FFT merge (right operand longer than
    ``span``) in batches of one FFT size.  Padding only adds ``+0.0`` steps
    to non-negative PMFs, ``rfft`` pads with zeros anyway, and FFT
    round-off beyond each node's true length is zeroed, so every PMF is
    bitwise the recursive definition over :func:`convolve_pmfs` — whatever
    the batch, and so whatever the parallel executor's candidate chunks.
    A height's buffer (coefficient-major: one column per node) is freed
    once its parents, at most two heights up, have been merged.  Bottom
    nodes are capped at ``span`` rows, so they never hide an FFT merge.
    """
    if span is None:
        span = resolve_conv_span()
    bottom = min(3, max(1, span))
    lengths = np.array([len(vector) for vector in vectors], dtype=np.intp)
    pmfs = [np.ones(1) for _ in vectors]
    live = np.flatnonzero(lengths)
    if not len(live):
        return pmfs
    flat = np.concatenate([np.asarray(vectors[index], dtype=float) for index in live])
    start, rows, left, right = _dc_plan(lengths[live], bottom)
    height = np.frexp((rows - 1) // bottom)[1]
    # A height's batches: bottom nodes by row count; above them the direct
    # merges (class 0), then the FFT merges by FFT size (its exponent).
    fft = (height > 0) & (rows - rows // 2 + 1 > span)
    batch = np.where(height == 0, rows, np.where(fft, np.frexp(rows)[1], 0))
    order = np.argsort((height << 6 | batch).astype(np.uint16), kind="stable")
    # Relabel the nodes by that order: a height's nodes are then one range
    # and each batch one sub-range.
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    start, rows, height, batch = start[order], rows[order], height[order], batch[order]
    left = np.where(left[order] >= 0, position[left[order]], -1)
    right = np.where(right[order] >= 0, position[right[order]], -1)
    roots = position[: len(live)]
    bounds = np.searchsorted(height, np.arange(height[-1] + 2))
    # slot[node] = the node's column in its height's buffer
    slot = np.arange(len(order)) - bounds[height]
    levels: Dict[int, np.ndarray] = {}

    def gather(nodes: np.ndarray) -> np.ndarray:
        """The nodes' PMFs as columns, zero-padded to the longest one."""
        width = int(rows[nodes].max()) + 1
        heights = height[nodes]
        low, high = int(heights.min()), int(heights.max())
        if low == high:
            return levels[low][:width, slot[nodes]]
        padded = np.zeros((width, len(nodes)), dtype=float)
        for level in (low, high):
            chosen = np.flatnonzero(heights == level)
            source = levels[level][:width]
            padded[: len(source), chosen] = source[:, slot[nodes[chosen]]]
        return padded

    for level in range(len(bounds) - 1):
        first, last = int(bounds[level]), int(bounds[level + 1])
        sizes = rows[first:last] + 1
        breaks = first + 1 + np.flatnonzero(np.diff(batch[first:last]))
        edges = [first, *breaks.tolist(), last]
        merged = np.zeros((int(sizes.max()), last - first), dtype=float)
        for begin, end in zip(edges[:-1], edges[1:]):
            kind = int(batch[begin])
            columns = slice(begin - first, end - first)
            if level == 0:
                merged[: kind + 1, columns] = _bottom_pmfs(flat, start[begin:end], kind)
            elif not kind:
                product = shift_convolve(
                    gather(left[begin:end]), gather(right[begin:end]), axis=0
                )
                merged[: len(product), columns] = product[: len(merged)]
            else:
                fft_size = 1 << kind
                step = max(1, _FFT_BATCH_BYTES // (16 * (fft_size // 2 + 1)))
                for at in range(begin, end, step):
                    chunk = slice(at, min(at + step, end))
                    true = rows[chunk] + 1
                    low, size = int(true.min()), int(true.max())
                    product = _fft_convolve(
                        gather(left[chunk]), gather(right[chunk]), size, fft_size
                    )
                    # zero the round-off past each node's true length
                    tail = product[low:]
                    tail[np.arange(low, size)[:, None] >= true] = 0.0
                    merged[:size, chunk.start - first : chunk.stop - first] = product
        levels[level] = merged
        levels.pop(level - 2, None)
        for index in np.flatnonzero(height[roots] == level).tolist():
            node = roots[index]
            pmf = merged[: rows[node] + 1, slot[node]].copy()
            total = pmf.sum()
            if total > 0 and abs(total - 1.0) > PMF_RENORMALIZE_TOLERANCE:
                pmf = pmf / total
            pmfs[live[index]] = pmf
    return pmfs


def exact_pmf_divide_conquer(
    probabilities: Sequence[float], span: Optional[int] = None
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
        span: Explicit crossover: halves longer than it convolve via FFT.
            Resolved once through :func:`resolve_conv_span` when omitted;
            ``sys.maxsize`` gives the quadratic direct convolution (the
            paper's DC ablation).

    Returns:
        Array of length ``N + 1``; ``result[k] = Pr[sup(X) = k]``.

    >>> exact_pmf_divide_conquer([0.5, 0.5]).tolist()
    [0.25, 0.5, 0.25]
    """
    probabilities = np.asarray(probabilities, dtype=float)
    return _dc_pmfs([probabilities], span)[0]


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


def undecided_after_bounds(
    expected: Sequence[float],
    counts: Sequence[int],
    min_count: int,
    bar: float,
    use_bounds: bool = True,
    notes: Optional[Dict[str, float]] = None,
) -> List[int]:
    """The bound chain: the filter half of filter-verify, in cost order.

    Returns the indices of the candidates no cheap sound bound could
    decide — the only ones whose exact tail (or approximation) still has
    to be evaluated:

    1. **occupancy count** — a candidate with fewer than ``min_count``
       possible occurrences has frequent probability exactly zero (always
       applied; it is the semantic filter of every probabilistic miner);
    2. **Markov** — :func:`markov_upper_bound`, one division;
    3. **Chernoff** — :func:`chernoff_upper_bound` (Lemma 1), only for the
       candidates Markov left undecided.

    A bound ``<= bar`` kills.  Threshold miners pass ``bar = pft``
    (Definition 4 keeps ``Pr > pft``).  Top-k kills a bound strictly below
    its floor, so it passes ``math.nextafter(floor, 0.0)``: for floats,
    ``bound <= nextafter(floor, 0)`` is exactly ``bound < floor``.  The
    Poisson and Normal tails approximate but do not bound the exact tail,
    so they never join the chain.

    Args:
        expected: Per-candidate expected supports.
        counts: Per-candidate maximum attainable supports (non-zero counts).
        min_count: Absolute support threshold.
        bar: The decision bar a bound must not exceed to kill.
        use_bounds: When False (the paper's *NB* configurations) only the
            count cut runs.
        notes: Optional mutable mapping; ``markov_tested``,
            ``markov_pruned``, ``chernoff_tested`` and ``chernoff_pruned``
            are accumulated into it when the bounds run.

    Returns:
        Indices of the undecided candidates, in candidate order.

    >>> undecided_after_bounds([1.0, 9.0, 20.0], [12, 1, 30], 10, 0.5)
    [2]
    """
    min_count = int(min_count)
    markov_tested = markov_pruned = chernoff_tested = chernoff_pruned = 0
    undecided: List[int] = []
    for index in range(len(expected)):
        if counts[index] < min_count:
            continue
        if use_bounds:
            value = float(expected[index])
            markov_tested += 1
            if markov_upper_bound(value, min_count) <= bar:
                markov_pruned += 1
                continue
            chernoff_tested += 1
            if chernoff_upper_bound(value, min_count) <= bar:
                chernoff_pruned += 1
                continue
        undecided.append(index)
    if notes is not None and use_bounds:
        for key, value in (
            ("markov_tested", markov_tested),
            ("markov_pruned", markov_pruned),
            ("chernoff_tested", chernoff_tested),
            ("chernoff_pruned", chernoff_pruned),
        ):
            notes[key] = notes.get(key, 0.0) + value
    return undecided


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


#: byte budget of one block of the serial DP sweep's ragged buffer.  128 MiB
#: holds a full level of every in-RAM workload in one block while capping
#: the transient on out-of-core databases, whose vector widths scale with
#: the mapped row count.
DP_BLOCK_BYTES = 128 << 20


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

    With the compiled kernels (:mod:`repro.core.kernels`) the vectors go
    end to end to one C call that takes them candidate by candidate,
    updating the state in place, columns descending, with the same
    per-cell arithmetic.  It also skips the cells whose candidate has too
    few rows left to carry them to ``min_count`` (at step ``j`` of ``L``
    rows, columns below ``min_count - (L - j) + 1``): they never feed
    ``state[min_count]``, so the results are the same bits.

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
    if kernels.library() is not None:
        offsets = np.zeros(n_candidates + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return kernels.dp_tails(np.concatenate(arrays), offsets, min_count)
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
    merged a tree height at a time across the whole batch.  Each PMF is
    bitwise independent of the batch it came in, so the executor's chunks
    agree with the serial path, and of the CPU: no step goes through BLAS
    or a SIMD-dependent complex multiply.

    Args:
        vectors: One zeros-omitted probability vector per candidate.
        min_count: Absolute support threshold.
        span: Explicit direct-vs-FFT crossover; resolved once through
            :func:`resolve_conv_span` when omitted.  The parallel executor
            resolves it on the coordinator and ships it inside the task
            payloads, so worker processes use the coordinator's plan even
            though contextvar scopes do not cross the fork.

    Far below the mean the FFT merges' round-off can exceed the true tail
    by orders of magnitude, so each tail is capped by the candidate's own
    Markov and Chernoff bounds.  A value above a sound upper bound is
    provably round-off: the cap moves no correct value, and it keeps the
    DC tails consistent with the bound chain that prunes on the same bounds.

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
    arrays = [np.asarray(vectors[index], dtype=float) for index in live]
    for index, array, pmf in zip(live, arrays, _dc_pmfs(arrays, span=span)):
        expected = float(array.sum())
        results[index] = max(
            0.0,
            min(
                float(pmf[min_count:].sum()),
                markov_upper_bound(expected, min_count),
                chernoff_upper_bound(expected, min_count),
            ),
        )
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
        self._counts: Optional[np.ndarray] = None
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
        if self._counts is None:
            self._counts = np.array(
                [
                    int(np.count_nonzero(vector)) if vector.size else 0
                    for vector in self._vectors
                ],
                dtype=np.int64,
            )
        return self._counts

    # -- exact tails -------------------------------------------------------------------
    def frequent_probabilities(
        self, min_count: int, method: str = "dynamic_programming"
    ) -> np.ndarray:
        """Exact ``Pr[sup(X) >= min_count]`` of every candidate.

        ``"dynamic_programming"`` advances the whole level through the
        ragged DP sweep of :func:`frequent_probabilities_dp_batch`;
        ``"divide_conquer"`` walks every candidate's convolution tree
        through :func:`dc_tail_probabilities`, which merges the whole
        level's trees a height at a time (FFT above the ``conv_span``
        knob).  With a
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
            # within DP_BLOCK_BYTES.  Every candidate's result is
            # independent of its block, so the blocks concatenate bitwise.
            width = max((len(vector) for vector in self._vectors), default=0)
            block = max(1, DP_BLOCK_BYTES // (8 * max(width, 1)))
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

    # -- the bound chain and the survivor batch ---------------------------------------
    def undecided_after_bounds(
        self,
        min_count: int,
        bar: float,
        use_bounds: bool = True,
        notes: Optional[Dict[str, float]] = None,
    ) -> List[int]:
        """The indices :func:`undecided_after_bounds` leaves for the exact tail.

        Runs the one bound chain (occupancy count, Markov, Chernoff) over
        this level's moments; see the module function for ``bar``,
        ``use_bounds`` and the ``notes`` it accumulates.
        """
        return undecided_after_bounds(
            self.expected_supports(),
            self.nonzero_counts(),
            min_count,
            bar,
            use_bounds,
            notes,
        )

    def subset(self, indices: Sequence[int]) -> "SupportEngine":
        """The engine over the candidates at ``indices`` (the survivor batch).

        The moments are sliced, not re-derived, and the executor carries
        over to the batch's exact tails.
        """
        return SupportEngine(
            [self._vectors[index] for index in indices],
            expected=self.expected_supports()[indices],
            variances=self.variances()[indices],
            executor=self._executor,
        )


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
