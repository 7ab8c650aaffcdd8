"""Compiled fixed-order kernels: the exact-tail recurrences, the level kill and gather.

The exact miners spend their time in the Poisson-binomial recurrence: the
DP sweep of :func:`~repro.core.support.frequent_probabilities_dp_batch`,
the DC walker's direct merges (:func:`~repro.core.support.shift_convolve`)
and the streaming index's tail and PMF steps.  The level-wise miners spend
theirs on a joined level's candidates: the occupancy kill of
:meth:`~repro.db.columnar.ColumnarView._child_counts`, which ANDs each
parent's occupancy bitmap with its extension item's and counts the bits
(:func:`child_counts`, both bitmaps packed from the columns' spans), and
the gather of :meth:`~repro.db.columnar.ColumnarView._gather`, which
meets each surviving parent column with its item's column and multiplies
the common rows (:func:`gather`, a two-pointer merge that gallops over a
long span).  In NumPy each of them is a chain of small ufunc calls and
index arrays, so the cost is dispatch and temporaries, not arithmetic.
This module holds the same loops in C, performing every cell's operations
on the same operands in the same order, so every result is bitwise the
NumPy kernel's:

* no fused multiply-add (``-ffp-contract=off``) and never ``-ffast-math``
  (which would reassociate sums and flush subnormals to zero);
* no ``-march=native``: the library is built for the baseline of the
  compiler's target.  Two-lane vectors (SSE2 on x86-64) take two cells
  per instruction, each lane an ordinary IEEE multiply or add, so they
  round exactly like the scalar loop.  The kill's bit counts are integer
  work, done by one portable loop (no ``popcnt`` instruction, which the
  x86-64 baseline lacks).

The source is compiled on first use, never at import, with the system C
compiler (``/usr/bin/cc``, else ``cc`` on ``PATH``; GCC or Clang, whose
vector extension the source uses), into
``$XDG_CACHE_HOME/repro`` (``~/.cache/repro`` when the variable is unset;
a fresh temporary directory, removed once the library is loaded, when
neither is writable).  The file name
carries a hash of the source, the flags and the machine type, and a
build is written to a temporary file and moved into place with
``os.replace``, so concurrent processes never load a half-written
library.  It is loaded with :mod:`ctypes`.  With no compiler, or a build
or load that fails, :func:`library` returns ``None`` and every caller runs
its NumPy kernel, which stays the differential reference
(``tests/test_kernels.py``).
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from typing import Iterator, Optional

import numpy as np

__all__ = [
    "library", "dp_tails", "shift_convolve", "tail_steps", "pmf_steps", "gather", "child_counts"
]

SOURCE = r"""
#include <stdint.h>

/* Two doubles per operation: SSE2 (the x86-64 baseline) or NEON lanes,
   each lane an ordinary IEEE multiply or add, so the bits are the
   scalar loop's. */
typedef double pair __attribute__((vector_size(16)));

static inline pair load(const double *x)
{
    pair v;
    __builtin_memcpy(&v, x, sizeof v);
    return v;
}

static inline void store(double *x, pair v)
{
    __builtin_memcpy(x, &v, sizeof v);
}

/* s[i] = s[i - 1] * p + s[i] * (1 - p) for i = upper down to lower, in
   place: two cells at a time read only cells not yet written.  Products
   and sums of two operands are exact-rounded and commute, so this is also
   the PMF step's P[i] * (1 - p) + P[i - 1] * p. */
static void step_down(double *s, int64_t lower, int64_t upper, double p, double q)
{
    pair vp = {p, p}, vq = {q, q};
    int64_t i = upper;
    for (; i - 1 >= lower; i -= 2)
        store(s + i - 1, load(s + i - 2) * vp + load(s + i - 1) * vq);
    for (; i >= lower; i--)
        s[i] = s[i - 1] * p + s[i] * q;
}

/* Pr[sup >= m] of each candidate by the DP recurrence, candidate by
   candidate.  Candidate c's probabilities are flat[offsets[c] ..
   offsets[c + 1]); state holds m + 1 doubles of scratch.  Step j updates
   the columns 1..min(j + 1, m), descending, and only those from which the
   remaining len - j - 1 rows can still reach m. */
void repro_dp_tails(const double *flat, const int64_t *offsets, int64_t n,
                    int64_t m, double *state, double *out)
{
    for (int64_t c = 0; c < n; c++) {
        const double *p = flat + offsets[c];
        int64_t len = offsets[c + 1] - offsets[c];
        if (len < m) {
            out[c] = 0.0;
            continue;
        }
        state[0] = 1.0;
        for (int64_t i = 1; i <= m; i++)
            state[i] = 0.0;
        for (int64_t j = 0; j < len; j++) {
            int64_t upper = j + 1 < m ? j + 1 : m;
            int64_t lower = m - (len - j) + 1;
            step_down(state, lower < 1 ? 1 : lower, upper, p[j], 1.0 - p[j]);
        }
        out[c] = state[m];
    }
}

/* out[k + t] += left[k] * right[t] for k ascending, then t ascending, over
   coefficient-major operands of n columns: left is (a, n), right (b, n),
   out (a + b - 1, n) and zeroed by the caller. */
void repro_shift_convolve(const double *left, int64_t a, const double *right,
                          int64_t b, int64_t n, double *out)
{
    for (int64_t k = 0; k < a; k++) {
        const double *l = left + k * n;
        for (int64_t t = 0; t < b; t++) {
            const double *r = right + t * n;
            double *o = out + (k + t) * n;
            int64_t c = 0;
            for (; c + 1 < n; c += 2)
                store(o + c, load(o + c) + load(l + c) * load(r + c));
            for (; c < n; c++)
                o[c] += l[c] * r[c];
        }
    }
}

/* Add `steps` rows to the tail states T[0..m] of n candidates (row c at
   states + c * stride) that already hold `rows` rows.  p is step-major:
   the probability of step s for candidate c is p[s * n + c]. */
void repro_tail_steps(double *states, int64_t n, int64_t stride, int64_t m,
                      const double *p, int64_t steps, int64_t rows)
{
    for (int64_t c = 0; c < n; c++) {
        double *t = states + c * stride;
        for (int64_t s = 0; s < steps; s++) {
            int64_t upper = rows + s + 1 < m ? rows + s + 1 : m;
            step_down(t, 1, upper, p[s * n + c], 1.0 - p[s * n + c]);
        }
    }
}

/* Add `steps` rows to the capped PMFs P[0..cap-1], P[>=cap] of n
   candidates, laid out as in repro_tail_steps: first the mass leaving
   P[cap - 1] joins P[cap], then the shift, then P[0] *= 1 - p. */
void repro_pmf_steps(double *states, int64_t n, int64_t stride, int64_t cap,
                     const double *p, int64_t steps, int64_t rows)
{
    for (int64_t c = 0; c < n; c++) {
        double *f = states + c * stride;
        for (int64_t s = 0; s < steps; s++) {
            double ps = p[s * n + c], qs = 1.0 - ps;
            int64_t seen = rows + s;
            if (seen + 1 >= cap)
                f[cap] += f[cap - 1] * ps;
            step_down(f, 1, seen + 1 < cap - 1 ? seen + 1 : cap - 1, ps, qs);
            f[0] *= qs;
        }
    }
}

/* First position in [lo, hi) of the ascending a whose value is >= key:
   steps of 1, 2, 4, ... from lo, then a binary search of the last step. */
static int64_t gallop(const int64_t *a, int64_t lo, int64_t hi, int64_t key)
{
    if (lo >= hi || a[lo] >= key)
        return lo;
    int64_t step = 1;
    while (lo + step < hi && a[lo + step] < key) {
        lo += step;
        step <<= 1;
    }
    int64_t top = lo + step < hi ? lo + step : hi;
    for (lo++; lo < top;) {
        int64_t mid = lo + (top - lo) / 2;
        if (a[mid] < key)
            lo = mid + 1;
        else
            top = mid;
    }
    return lo;
}

/* Candidate c is the parent span [parent_starts[c], parent_ends[c]) times
   the item span [item_starts[c], item_ends[c]), both ascending in row.
   Their common rows whose item probability is not zero are written in row
   order, with the products parent * item, to the counts[c] places from
   out_starts[c].  Spans within 8x of each other meet by a branch-free
   two-pointer merge, which stores every step's row and product at the
   next place and moves on from it only on a hit; otherwise the shorter
   span steps row by row and the longer one gallops.  Returns the first
   candidate whose hits are not counts[c] (having written nothing past its
   places), else -1. */
int64_t repro_gather(const int64_t *parent_rows, const double *parent_probs,
                     const int64_t *parent_starts, const int64_t *parent_ends,
                     const int64_t *item_rows, const double *item_probs,
                     const int64_t *item_starts, const int64_t *item_ends,
                     int64_t n, const int64_t *out_starts, const int64_t *counts,
                     int64_t *out_rows, double *out_probs)
{
    for (int64_t c = 0; c < n; c++) {
        int64_t p = parent_starts[c], p_end = parent_ends[c];
        int64_t i = item_starts[c], i_end = item_ends[c];
        int64_t o = out_starts[c], o_end = o + counts[c];
        int64_t p_length = p_end - p, i_length = i_end - i;
        if (p_length > 8 * i_length || i_length > 8 * p_length) {
            int parent_steps = p_length < i_length;
            while (p < p_end && i < i_end) {
                if (parent_steps)
                    i = gallop(item_rows, i, i_end, parent_rows[p]);
                else
                    p = gallop(parent_rows, p, p_end, item_rows[i]);
                if (p == p_end || i == i_end)
                    break;
                if (parent_rows[p] != item_rows[i]) {
                    p += parent_steps;
                    i += !parent_steps;
                    continue;
                }
                if (item_probs[i] != 0.0) {
                    if (o == o_end)
                        return c;
                    out_rows[o] = parent_rows[p];
                    out_probs[o] = parent_probs[p] * item_probs[i];
                    o++;
                }
                p++;
                i++;
            }
        } else {
            /* o passes o_end only on a hit with no place left; from then on
               nothing is stored and the count check below fails */
            while (p < p_end && i < i_end) {
                int64_t a = parent_rows[p], b = item_rows[i];
                double product = parent_probs[p] * item_probs[i];
                if (o < o_end) {
                    out_rows[o] = a;
                    out_probs[o] = product;
                }
                o += (a == b) & (item_probs[i] != 0.0);
                p += a <= b;
                i += b <= a;
            }
        }
        if (o != o_end)
            return c;
    }
    return -1;
}

/* Occupancy bitmaps are np.packbits rows (bit 7 of byte 0 is row 0) of
   `words` uint64 words, zero past the last row.  Sets the bits of
   rows[lo .. hi) and widens [*first, *last] to the words they touch;
   returns 0, or 1 (having set nothing more) at a row outside [0, n_rows). */
static int set_rows(uint64_t *bitmap, const int64_t *rows, int64_t lo, int64_t hi,
                    int64_t n_rows, int64_t *first, int64_t *last)
{
    uint8_t *bytes = (uint8_t *)bitmap;
    for (int64_t u = lo; u < hi; u++) {
        int64_t r = rows[u];
        if ((uint64_t)r >= (uint64_t)n_rows)
            return 1;
        bytes[r >> 3] |= (uint8_t)(0x80u >> (r & 7));
        if (r >> 6 < *first)
            *first = r >> 6;
        if (r >> 6 > *last)
            *last = r >> 6;
    }
    return 0;
}

/* The set bits of a AND b over words [first, last]. */
static int64_t and_count(const uint64_t *a, const uint64_t *b, int64_t first, int64_t last)
{
    int64_t total = 0;
    for (int64_t w = first; w <= last; w++) {
        uint64_t x = a[w] & b[w];
        x -= (x >> 1) & 0x5555555555555555ull;
        x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
        x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
        total += (int64_t)((x * 0x0101010101010101ull) >> 56);
    }
    return total;
}

/* counts[c] = the rows of parent parents[c] that item which[c] occupies.
   Parent p's rows are parent_rows[parent_starts[p] .. parent_ends[p]) and
   item i's are item_rows[item_starts[i] .. item_ends[i]).  Every item's
   bitmap is built first, in item_bitmaps (n_items * words, zeroed by the
   caller); then each run of candidates sharing a parent sets the parent's
   rows in parent_bitmap (words, zeroed), ANDs it with each candidate's
   item bitmap over the words the parent touches, counts the bits, and
   clears them again.  Returns 0, or 1 at a row outside [0, n_rows). */
int64_t repro_child_counts(const int64_t *parent_rows, const int64_t *parent_starts,
                           const int64_t *parent_ends, const int64_t *parents,
                           const int64_t *item_rows, const int64_t *item_starts,
                           const int64_t *item_ends, int64_t n_items, const int64_t *which,
                           int64_t n, int64_t n_rows, uint64_t *parent_bitmap,
                           uint64_t *item_bitmaps, int64_t *counts)
{
    int64_t words = (n_rows + 63) >> 6, first = words, last = -1;
    for (int64_t i = 0; i < n_items; i++)
        if (set_rows(item_bitmaps + i * words, item_rows, item_starts[i], item_ends[i], n_rows,
                     &first, &last))
            return 1;
    for (int64_t c = 0; c < n;) {
        int64_t p = parents[c];
        first = words;
        last = -1;
        if (set_rows(parent_bitmap, parent_rows, parent_starts[p], parent_ends[p], n_rows,
                     &first, &last))
            return 1;
        for (; c < n && parents[c] == p; c++)
            counts[c] = and_count(parent_bitmap, item_bitmaps + which[c] * words, first, last);
        for (int64_t w = first; w <= last; w++)
            parent_bitmap[w] = 0;
    }
    return 0;
}
"""

#: the only flags the library is built with; see the module docstring
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

#: compilers tried in order (an absolute path, then a name looked up on PATH)
COMPILERS = ("/usr/bin/cc", "cc")

_POINTER, _INT = ctypes.c_void_p, ctypes.c_int64
#: each function's argument types and return type
_SIGNATURES = {
    "repro_dp_tails": ((_POINTER, _POINTER, _INT, _INT, _POINTER, _POINTER), None),
    "repro_shift_convolve": ((_POINTER, _INT, _POINTER, _INT, _INT, _POINTER), None),
    "repro_tail_steps": ((_POINTER, _INT, _INT, _INT, _POINTER, _INT, _INT), None),
    "repro_pmf_steps": ((_POINTER, _INT, _INT, _INT, _POINTER, _INT, _INT), None),
    "repro_gather": ((_POINTER,) * 8 + (_INT,) + (_POINTER,) * 4, _INT),
    "repro_child_counts": ((_POINTER,) * 7 + (_INT, _POINTER, _INT, _INT) + (_POINTER,) * 3, _INT),
}

_UNLOADED = object()
#: the loaded library; ``None`` once a build or load has failed (tests set
#: it to ``None`` to force the NumPy kernels)
_library = _UNLOADED
_lock = threading.Lock()


def library() -> Optional[ctypes.CDLL]:
    """The compiled kernels, built and loaded on the first call; ``None`` without them."""
    global _library
    if _library is _UNLOADED:
        with _lock:
            if _library is _UNLOADED:
                _library = _load()
    return _library


def _cache_dirs() -> Iterator[str]:
    """The cache directory, then (if it is not writable) a temporary one.

    The temporary directory is removed once the caller is done with it:
    a loaded library stays mapped after its file is gone, so nothing is
    left behind by a process that could not use the cache.
    """
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    yield os.path.join(base, "repro")
    temporary = tempfile.mkdtemp(prefix="repro-kernels-")
    try:
        yield temporary
    finally:
        shutil.rmtree(temporary, ignore_errors=True)


def _load() -> Optional[ctypes.CDLL]:
    key = hashlib.sha256(
        "\0".join((SOURCE, *FLAGS, platform.machine())).encode()
    ).hexdigest()[:16]
    compiler = next(filter(None, map(shutil.which, COMPILERS)), None)
    with contextlib.closing(_cache_dirs()) as directories:
        for directory in directories:
            path = os.path.join(directory, f"kernels-{key}.so")
            if os.path.exists(path):
                try:
                    return _bind(ctypes.CDLL(path))
                except OSError:
                    pass  # a foreign or damaged file: build it again
            if compiler is None:
                return None
            try:
                os.makedirs(directory, exist_ok=True)
                handle, partial = tempfile.mkstemp(suffix=".so", dir=directory)
            except OSError:
                continue
            os.close(handle)
            try:
                subprocess.run(
                    [compiler, *FLAGS, "-x", "c", "-o", partial, "-"],
                    input=SOURCE,
                    text=True,
                    capture_output=True,
                    check=True,
                    timeout=120,
                )
                os.replace(partial, path)
                return _bind(ctypes.CDLL(path))
            except (OSError, subprocess.SubprocessError):
                return None
            finally:
                if os.path.exists(partial):
                    os.unlink(partial)
    return None


def _bind(handle: ctypes.CDLL) -> ctypes.CDLL:
    for name, (argtypes, restype) in _SIGNATURES.items():
        function = getattr(handle, name)
        function.argtypes = argtypes
        function.restype = restype
    return handle


def _address(array: np.ndarray) -> int:
    return array.__array_interface__["data"][0]


def _check_arrays(arrays) -> None:
    """Refuse any of ``{name: (array, dtype)}`` that is not a contiguous 1-D array of its dtype."""
    for name, (array, dtype) in arrays.items():
        if not (
            isinstance(array, np.ndarray)
            and array.ndim == 1
            and array.dtype == dtype
            and array.flags.c_contiguous
        ):
            raise ValueError(f"{name} must be a contiguous one-dimensional {np.dtype(dtype)} array")


def _check_spans(starts: np.ndarray, ends: np.ndarray, length: int) -> None:
    """Refuse spans ``[starts[j], ends[j])`` that do not lie inside ``length`` places."""
    if len(starts) and not (
        (starts >= 0).all() and (starts <= ends).all() and (ends <= length).all()
    ):
        raise ValueError("a span lies outside its arrays")


def dp_tails(flat: np.ndarray, offsets: np.ndarray, min_count: int) -> np.ndarray:
    """``Pr[sup >= min_count]`` of candidates laid end to end in ``flat``.

    Candidate ``c`` is ``flat[offsets[c] : offsets[c + 1]]``; ``min_count``
    must be at least 1.  Bitwise equal to the NumPy sweep of
    :func:`~repro.core.support.frequent_probabilities_dp_batch`.
    """
    flat = np.ascontiguousarray(flat, dtype=np.float64)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    n = len(offsets) - 1
    if (
        min_count < 1
        or n < 0
        or offsets[0] != 0
        or offsets[-1] != len(flat)
        or (np.diff(offsets) < 0).any()
    ):
        raise ValueError("offsets must rise from 0 to len(flat) and min_count be >= 1")
    out = np.empty(n, dtype=np.float64)
    state = np.empty(min_count + 1, dtype=np.float64)
    library().repro_dp_tails(
        _address(flat), _address(offsets), n, min_count, _address(state), _address(out)
    )
    return out


def shift_convolve(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Direct convolution along axis 0 of ``(a, n)`` and ``(b, n)`` float arrays.

    Bitwise equal to :func:`~repro.core.support.shift_convolve` with
    ``axis=0``; both operands must be non-empty.
    """
    left = np.ascontiguousarray(left, dtype=np.float64)
    right = np.ascontiguousarray(right, dtype=np.float64)
    if left.ndim != 2 or right.ndim != 2 or left.shape[1] != right.shape[1]:
        raise ValueError("operands must be (a, n) and (b, n)")
    (a, n), b = left.shape, len(right)
    if not a or not b:
        raise ValueError("operands must be non-empty")
    out = np.zeros((a + b - 1, n), dtype=np.float64)
    library().repro_shift_convolve(_address(left), a, _address(right), b, n, _address(out))
    return out


def _steps(name: str, states: np.ndarray, probabilities: np.ndarray, rows: int) -> None:
    n, width = states.shape
    steps = len(probabilities)
    if probabilities.shape != (steps, n) or width < 2:
        raise ValueError("states must be (n, m + 1) with m >= 1, probabilities (steps, n)")
    if not n or not steps:
        return
    # rows of contiguous doubles, a whole number of doubles apart, not overlapping
    if not (
        states.dtype == np.float64
        and states.flags.writeable
        and states.strides[1] == 8
        and states.strides[0] % 8 == 0
        and states.strides[0] >= 8 * width
    ):
        raise ValueError("states must be writable rows of contiguous float64")
    probabilities = np.ascontiguousarray(probabilities, dtype=np.float64)
    getattr(library(), name)(
        _address(states), n, states.strides[0] // 8, width - 1,
        _address(probabilities), steps, rows,
    )


def tail_steps(states: np.ndarray, probabilities: np.ndarray, rows: int) -> None:
    """Add ``len(probabilities)`` rows, in order, to tail states holding ``rows`` rows.

    ``states`` is ``(n, m + 1)`` float64, updated in place: contiguous
    rows, which may be spans of a wider array's rows.  Row ``s`` of the
    ``(steps, n)`` ``probabilities`` is step ``s``.  Bitwise equal to
    repeated ``repro.stream.index._tail_step``.
    """
    _steps("repro_tail_steps", states, probabilities, rows)


def pmf_steps(states: np.ndarray, probabilities: np.ndarray, rows: int) -> None:
    """As :func:`tail_steps`, for capped PMFs ``P[0..m-1], P[>=m]``.

    Bitwise equal to repeated ``repro.stream.index._pmf_step``.
    """
    _steps("repro_pmf_steps", states, probabilities, rows)


def gather(
    parent_rows: np.ndarray,
    parent_probs: np.ndarray,
    parent_starts: np.ndarray,
    parent_ends: np.ndarray,
    item_rows: np.ndarray,
    item_probs: np.ndarray,
    item_starts: np.ndarray,
    item_ends: np.ndarray,
    out_rows: np.ndarray,
    out_probs: np.ndarray,
    out_starts: np.ndarray,
    counts: np.ndarray,
) -> int:
    """Merge each candidate's parent span with its item span into its output places.

    Candidate ``c`` meets ``parent_rows[parent_starts[c]:parent_ends[c]]``
    with ``item_rows[item_starts[c]:item_ends[c]]`` (both ascending) and
    writes every common row whose item probability is not zero, with the
    product ``parent * item``, to the ``counts[c]`` places of ``out_rows``
    and ``out_probs`` from ``out_starts[c]``.  Returns the first candidate
    whose hits are not ``counts[c]``, or ``-1``; nothing is written past a
    candidate's places.  Bitwise equal to the NumPy gathers of
    :meth:`~repro.db.columnar.ColumnarView._gather`.

    Every array must already be one-dimensional and contiguous, rows and
    spans int64 and probabilities float64, and every span must lie inside
    its arrays: anything else raises ``ValueError`` before C reads a byte.
    """
    arrays = {
        "parent_rows": (parent_rows, np.int64),
        "parent_probs": (parent_probs, np.float64),
        "parent_starts": (parent_starts, np.int64),
        "parent_ends": (parent_ends, np.int64),
        "item_rows": (item_rows, np.int64),
        "item_probs": (item_probs, np.float64),
        "item_starts": (item_starts, np.int64),
        "item_ends": (item_ends, np.int64),
        "out_rows": (out_rows, np.int64),
        "out_probs": (out_probs, np.float64),
        "out_starts": (out_starts, np.int64),
        "counts": (counts, np.int64),
    }
    _check_arrays(arrays)
    if not (out_rows.flags.writeable and out_probs.flags.writeable):
        raise ValueError("the output arrays must be writable")
    n = len(counts)
    spans = (
        (parent_starts, parent_ends, parent_rows, parent_probs),
        (item_starts, item_ends, item_rows, item_probs),
        (out_starts, out_starts + counts, out_rows, out_probs),
    )
    for starts, ends, rows, probs in spans:
        if len(starts) != n or len(ends) != n or len(rows) != len(probs):
            raise ValueError("spans need one entry per candidate, rows one per probability")
        _check_spans(starts, ends, len(rows))
    if not n:
        return -1
    return library().repro_gather(
        *map(_address, (parent_rows, parent_probs, parent_starts, parent_ends)),
        *map(_address, (item_rows, item_probs, item_starts, item_ends)),
        n,
        *map(_address, (out_starts, counts, out_rows, out_probs)),
    )


def child_counts(
    parent_rows: np.ndarray,
    parent_starts: np.ndarray,
    parent_ends: np.ndarray,
    parents: np.ndarray,
    item_rows: np.ndarray,
    item_starts: np.ndarray,
    item_ends: np.ndarray,
    which: np.ndarray,
    n_rows: int,
) -> np.ndarray:
    """The rows of parent ``parents[c]`` that item ``which[c]`` occupies, per candidate ``c``.

    Parent ``p`` is ``parent_rows[parent_starts[p]:parent_ends[p]]`` and
    item ``i`` is ``item_rows[item_starts[i]:item_ends[i]]``, both
    ascending rows in ``[0, n_rows)``.  One C loop packs every item's
    occupancy bitmap, then ANDs each parent's bitmap with its candidates'
    item bitmaps and counts the bits; candidates grouped by parent pack
    each parent once.  Equal to
    :meth:`~repro.db.columnar.ColumnarView._child_counts`'s NumPy count.

    Every array must already be one-dimensional, contiguous and int64,
    every span must lie inside its rows, every parent and item index
    inside its spans and the first and last row of every span inside
    ``[0, n_rows)``: anything else raises ``ValueError`` before C reads a
    byte.  A row out of range inside a span that is not ascending makes C
    stop before it writes out of its bitmaps, and raises too.
    """
    arrays = {
        "parent_rows": parent_rows,
        "parent_starts": parent_starts,
        "parent_ends": parent_ends,
        "parents": parents,
        "item_rows": item_rows,
        "item_starts": item_starts,
        "item_ends": item_ends,
        "which": which,
    }
    _check_arrays({name: (array, np.int64) for name, array in arrays.items()})
    n, n_rows = len(parents), int(n_rows)
    if len(which) != n:
        raise ValueError("parents and which need one entry per candidate")
    for starts, ends, rows, indices in (
        (parent_starts, parent_ends, parent_rows, parents),
        (item_starts, item_ends, item_rows, which),
    ):
        if len(starts) != len(ends):
            raise ValueError("spans need a start and an end each")
        _check_spans(starts, ends, len(rows))
        if n and not (indices.min() >= 0 and indices.max() < len(starts)):
            raise ValueError("a parent or item index lies outside its spans")
        filled = starts < ends
        if filled.any():
            edges = np.concatenate((rows[starts[filled]], rows[ends[filled] - 1]))
            if not (edges.min() >= 0 and edges.max() < n_rows):
                raise ValueError(f"a row lies outside [0, {n_rows})")
    counts = np.zeros(n, dtype=np.int64)
    if not n:
        return counts
    words = (n_rows + 63) // 64
    parent_bitmap = np.zeros(words, dtype=np.uint64)
    item_bitmaps = np.zeros(len(item_starts) * words, dtype=np.uint64)
    if library().repro_child_counts(
        *map(_address, (parent_rows, parent_starts, parent_ends, parents)),
        *map(_address, (item_rows, item_starts, item_ends)),
        len(item_starts),
        _address(which),
        n,
        n_rows,
        *map(_address, (parent_bitmap, item_bitmaps, counts)),
    ):
        raise ValueError(f"a row lies outside [0, {n_rows})")
    return counts
