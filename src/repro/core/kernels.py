"""Compiled fixed-order kernels for the exact-tail recurrences.

The exact miners spend their time in the Poisson-binomial recurrence: the
DP sweep of :func:`~repro.core.support.frequent_probabilities_dp_batch`,
the DC walker's direct merges (:func:`~repro.core.support.shift_convolve`)
and the streaming index's tail and PMF steps.  In NumPy each of them is a
chain of small ufunc calls, so the cost is dispatch and temporaries, not
arithmetic.  This module holds the same loops in C, performing every
cell's operations on the same operands in the same order, so every result
is bitwise the NumPy kernel's:

* no fused multiply-add (``-ffp-contract=off``) and never ``-ffast-math``
  (which would reassociate sums and flush subnormals to zero);
* no ``-march=native``: the library is built for the baseline of the
  compiler's target.  Two-lane vectors (SSE2 on x86-64) take two cells
  per instruction, each lane an ordinary IEEE multiply or add, so they
  round exactly like the scalar loop.

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

__all__ = ["library", "dp_tails", "shift_convolve", "tail_steps", "pmf_steps"]

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
"""

#: the only flags the library is built with; see the module docstring
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

#: compilers tried in order (an absolute path, then a name looked up on PATH)
COMPILERS = ("/usr/bin/cc", "cc")

_POINTER, _INT = ctypes.c_void_p, ctypes.c_int64
_SIGNATURES = {
    "repro_dp_tails": (_POINTER, _POINTER, _INT, _INT, _POINTER, _POINTER),
    "repro_shift_convolve": (_POINTER, _INT, _POINTER, _INT, _INT, _POINTER),
    "repro_tail_steps": (_POINTER, _INT, _INT, _INT, _POINTER, _INT, _INT),
    "repro_pmf_steps": (_POINTER, _INT, _INT, _INT, _POINTER, _INT, _INT),
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
    for name, argtypes in _SIGNATURES.items():
        function = getattr(handle, name)
        function.argtypes = argtypes
        function.restype = None
    return handle


def _address(array: np.ndarray) -> int:
    return array.__array_interface__["data"][0]


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
