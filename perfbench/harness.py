"""Shared pieces of the benchmark: summaries, references, run stamp, host probe."""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: relative tolerance of every score against its recorded reference
SCORE_RTOL = 1e-9
#: significant digits a reference keeps per score: rounding moves a value
#: by at most 5e-12 relative, far inside SCORE_RTOL
REFERENCE_DIGITS = 11
#: the tail percentile is the highest one with this many samples beyond it
TAIL_SAMPLES = 10
#: the quantile a run reports for a time: the fastest of its ops.  On a
#: shared 2-core VM, co-tenants slow memory-bound work by up to 1.8x in
#: phases lasting from a second to half a minute.  That noise only ever
#: slows an op down, so a run's median or quartiles follow the share of
#: the run spent in slow phases, while its minimum needs one op in a fast one.
FAST_QUANTILE = 0.0

#: one frequent itemset as compared: (items, esup, variance, probability)
Record = Tuple[Tuple[int, ...], float, Optional[float], Optional[float]]
SCORE_FIELDS = ("esup", "var", "pr")


# -- summaries ---------------------------------------------------------------------------
def summary(values: Sequence[float], quantile: float = 0.5) -> Dict[str, float]:
    """``quantile`` (as ``value``), median, interquartile range and count of ``values``."""
    values = list(values)
    if not values:
        nan = float("nan")
        return {"value": nan, "median": nan, "iqr": nan, "n": 0}
    if len(values) == 1:
        return {"value": float(values[0]), "median": float(values[0]), "iqr": 0.0, "n": 1}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {
        "value": float(np.quantile(values, quantile)),
        "median": float(statistics.median(values)),
        "iqr": float(q3 - q1),
        "n": len(values),
    }


def quantile_label(quantile: float) -> str:
    return {0.0: "min", 1.0: "max"}.get(quantile, f"p{quantile * 100:.3g}")


def tail_quantile(samples_per_round: int) -> float:
    """The highest quantile with TAIL_SAMPLES samples beyond it, never below the median."""
    if samples_per_round <= 0:
        return 0.5
    return max(0.5, 1.0 - TAIL_SAMPLES / samples_per_round)


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- references --------------------------------------------------------------------------
def records_of_result(result: Iterable[Any]) -> List[Record]:
    """The comparable records of a :class:`repro.MiningResult`."""
    return [
        (
            tuple(record.itemset.items),
            record.expected_support,
            record.variance,
            record.frequent_probability,
        )
        for record in result
    ]


def records_of_reply(reply: Dict[str, Any]) -> List[Record]:
    """The comparable records of a service ``mine`` reply."""
    return [
        (tuple(entry["items"]), entry["esup"], entry.get("var"), entry.get("pr"))
        for entry in reply["itemsets"]
    ]


def answer_of(records: Sequence[Record], digits: Optional[int] = None) -> Dict[str, Any]:
    """Canonical form of one answer: count, digest of the itemsets, scores in order."""
    ordered = sorted(records, key=lambda record: (len(record[0]), record[0]))
    digest = hashlib.sha256(repr([record[0] for record in ordered]).encode()).hexdigest()
    answer: Dict[str, Any] = {"n": len(ordered), "items_sha256": digest}
    for position, field in enumerate(SCORE_FIELDS, start=1):
        values = [record[position] for record in ordered]
        if all(value is None for value in values):
            answer[field] = None
        elif digits is None:
            answer[field] = values
        else:
            answer[field] = [
                None if value is None else float(format(value, f".{digits}g"))
                for value in values
            ]
    return answer


def compare(expected: Dict[str, Any], records: Sequence[Record]) -> Optional[str]:
    """``None`` when ``records`` match the reference answer, else what differs."""
    actual = answer_of(records)
    if actual["n"] != expected["n"]:
        return f"{actual['n']} itemsets, reference has {expected['n']}"
    if actual["items_sha256"] != expected["items_sha256"]:
        return "itemsets differ from the reference"
    for field in SCORE_FIELDS:
        want, got = expected[field], actual[field]
        if want is None or got is None:
            if (want is None) != (got is None):
                return f"{field} is {'missing' if got is None else 'unexpected'}"
            continue
        if any((w is None) != (g is None) for w, g in zip(want, got)):
            return f"{field} presence differs from the reference"
        w = np.array([np.nan if v is None else v for v in want], dtype=float)
        g = np.array([np.nan if v is None else v for v in got], dtype=float)
        present = ~np.isnan(w)
        w, g = w[present], g[present]
        bad = np.abs(g - w) > SCORE_RTOL * np.maximum(np.abs(g), np.abs(w))
        if bad.any():
            index = int(np.flatnonzero(bad)[0])
            return f"{field} #{index} is {g[index]!r}, reference {w[index]!r}"
    return None


def reference_path(directory: str, workload: str, data_seed: int, tiny: bool) -> str:
    size = "tiny" if tiny else "full"
    return os.path.join(directory, f"{workload}.{size}.seed{data_seed}.json.gz")


def load_references(path: str) -> Dict[str, Any]:
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        return json.load(handle)


def save_references(path: str, document: Dict[str, Any]) -> None:
    """Write a reference deterministically (sorted keys, zero gzip mtime)."""
    payload = json.dumps(document, sort_keys=True, separators=(",", ":")).encode("utf-8")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as raw, gzip.GzipFile(
        filename="", mode="wb", fileobj=raw, mtime=0
    ) as handle:
        handle.write(payload)


# -- run stamp ---------------------------------------------------------------------------
def git_sha(root: str) -> str:
    """The checked-out commit, read from ``.git`` files (no subprocess, no search upward)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        with open(os.path.join(git, ref), encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def resolved_plan() -> Dict[str, Any]:
    """The fully resolved default ExecutionPlan the ops run under."""
    try:
        from repro.plan.spec import resolve_all

        return resolve_all().to_dict()
    except (ImportError, AttributeError) as error:
        return {"unavailable": f"{type(error).__name__}: {error}"}


def host() -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def host_probe(repeats: int = 3) -> List[float]:
    """Seconds of a fixed, memory-touching reference loop (a host-drift diagnostic).

    A random gather over 8 MiB plus a short pure-Python loop: it does not
    touch the program, so a shift in it between two sets of runs points
    at the host, not at a change in the code.
    """
    rng = np.random.default_rng(20120911)
    data = rng.random(1 << 20)
    index = rng.permutation(data.size).astype(np.int32)
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        checksum = float(data[index].sum())
        accumulator = 0
        for value in range(200_000):
            accumulator += value & 7
        times.append(time.perf_counter() - started)
        if checksum <= 0 or accumulator <= 0:
            raise AssertionError("host probe computed nothing")
    return times
