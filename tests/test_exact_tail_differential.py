"""Differential checks of the exact-tail kernels against their references.

The batched kernels skip work that cannot change a bit: the DP sweep
updates only the rows that still have a transaction and the columns the
step can reach, and the divide-and-conquer walker computes the bottom
nodes of every candidate's midpoint tree with closed forms.  Each must
equal its reference bitwise, on vectors built from boundary
probabilities:

* the DP batch against :func:`frequent_probability_dynamic_programming`
  applied vector by vector;
* the DC tails and PMFs against :func:`_recursive_pmf`, a frozen copy of
  the recursive divide-and-conquer the walker replaced;
* the parallel executor's candidate chunks against the serial kernels.
"""

from __future__ import annotations

import sys
from typing import Optional

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import support
from repro.core.parallel import ParallelExecutor
from repro.core.support import (
    SupportDistribution,
    chernoff_upper_bound,
    dc_tail_probabilities,
    exact_pmf_divide_conquer,
    frequent_probabilities_dp_batch,
    frequent_probability_dynamic_programming,
    markov_upper_bound,
    pack_probability_matrix,
)
from repro.plan import plan_scope


def _recursive_pmf(probabilities, span: Optional[int] = None) -> np.ndarray:
    """The recursive divide-and-conquer PMF, frozen as the DC reference."""
    probabilities = np.asarray(probabilities, dtype=float)
    if span is None:
        span = support.resolve_conv_span()

    def _recurse(chunk: np.ndarray) -> np.ndarray:
        if len(chunk) == 0:
            return np.array([1.0])
        if len(chunk) == 1:
            p = float(chunk[0])
            return np.array([1.0 - p, p])
        middle = len(chunk) // 2
        return support.convolve_pmfs(
            _recurse(chunk[:middle]), _recurse(chunk[middle:]), span=span
        )

    pmf = _recurse(probabilities)
    total = pmf.sum()
    if total > 0 and abs(total - 1.0) > support.PMF_RENORMALIZE_TOLERANCE:
        pmf = pmf / total
    return pmf


def _reference_dc_tail(vector, min_count: int, span: int) -> float:
    if min_count <= 0:
        return 1.0
    if min_count > len(vector):
        return 0.0
    tail = float(_recursive_pmf(vector, span=span)[min_count:].sum())
    # dc_tail_probabilities caps FFT round-off at the candidate's own
    # Markov and Chernoff bounds.
    expected = float(np.asarray(vector, dtype=float).sum())
    return max(
        0.0,
        min(
            tail,
            markov_upper_bound(expected, min_count),
            chernoff_upper_bound(expected, min_count),
        ),
    )


#: certain, impossible, dyadic, tiny normal and the smallest subnormal
_BOUNDARY_PROBABILITIES = [0.0, 1.0, 0.5, 0.25, 0.75, 0.125, 0.375, 1e-160, 5e-324]

_probability = st.one_of(
    st.sampled_from(_BOUNDARY_PROBABILITIES),
    st.floats(min_value=0.0, max_value=1.0),
)

#: 0-2 cap the closed-form bottom nodes below three rows, 4 puts the FFT
#: inside small trees, 512 convolves every tree of these batches directly
#: (the default crossover is 32, see ``resolve_conv_span``)
_SPANS = [0, 1, 2, 4, 512]


@st.composite
def batches(draw, min_size: int = 1):
    """Ragged vectors of 0-80 entries plus a min_count at a length boundary."""
    vectors = draw(
        st.lists(
            st.lists(_probability, max_size=80).map(lambda v: np.array(v, dtype=float)),
            min_size=min_size,
            max_size=6,
        )
    )
    lengths = [len(vector) for vector in vectors]
    min_count = draw(
        st.sampled_from(sorted({0, 1, *lengths, *(length + 1 for length in lengths)}))
    )
    return vectors, min_count


_LONG = np.array(([0.5, 1e-160, 0.25, 5e-324, 1.0, 0.0] * 14)[:80])
_WIDE_AND_NARROW = ([_LONG, np.array([]), np.array([0.75]), _LONG[:3]], 80)


@given(batches())
@example(_WIDE_AND_NARROW)
@example(([np.array([5e-324, 5e-324]), np.array([1e-160, 1e-160, 1e-160])], 2))
@settings(max_examples=300, deadline=None)
def test_dp_batch_equals_per_vector_dp(batch):
    vectors, min_count = batch
    expected = np.array(
        [frequent_probability_dynamic_programming(v, min_count) for v in vectors]
    )
    assert np.array_equal(frequent_probabilities_dp_batch(vectors, min_count), expected)
    # A padded matrix is accepted too: its rows are vectors with trailing zeros.
    padded = pack_probability_matrix(vectors)
    assert np.array_equal(frequent_probabilities_dp_batch(padded, min_count), expected)


@given(batches(), st.sampled_from(_SPANS))
@example(_WIDE_AND_NARROW, 4)
@example(([np.full(7, 0.5), np.full(3, 5e-324)], 3), 2)
@settings(max_examples=300, deadline=None)
def test_dc_tails_equal_the_recursive_reference(batch, span):
    vectors, min_count = batch
    expected = np.array([_reference_dc_tail(v, min_count, span) for v in vectors])
    assert np.array_equal(dc_tail_probabilities(vectors, min_count, span=span), expected)


@given(batches(), st.sampled_from(_SPANS))
@example(_WIDE_AND_NARROW, 4)
@settings(max_examples=200, deadline=None)
def test_dc_pmfs_equal_the_recursive_reference(batch, span):
    vectors, _ = batch
    for vector in vectors:
        assert np.array_equal(
            exact_pmf_divide_conquer(vector, span=span), _recursive_pmf(vector, span=span)
        )
        assert np.array_equal(
            exact_pmf_divide_conquer(vector, span=sys.maxsize),
            _recursive_pmf(vector, span=sys.maxsize),
        )
    with plan_scope(f"conv_span={span}"):
        for vector, pmf in zip(vectors, list(support._dc_pmfs(vectors))):
            assert np.array_equal(pmf, _recursive_pmf(vector))
            assert np.array_equal(SupportDistribution(vector).pmf(), pmf)


@pytest.fixture(scope="module")
def executor():
    with ParallelExecutor(workers=2) as pool:
        yield pool


@given(batches(min_size=2), st.sampled_from([4, 512]))
@example(_WIDE_AND_NARROW, 4)
@settings(max_examples=25, deadline=None)
def test_parallel_chunks_equal_the_serial_kernels(executor, batch, span):
    vectors, min_count = batch
    assert np.array_equal(
        executor.dp_tails(vectors, min_count),
        frequent_probabilities_dp_batch(vectors, min_count),
    )
    with plan_scope(f"conv_span={span}"):
        assert np.array_equal(
            executor.dc_tails(vectors, min_count),
            dc_tail_probabilities(vectors, min_count, span=span),
        )
