"""Parameter-sweep runner turning experiment specs into measurement rows.

The runner is the layer behind every benchmark script: given an
:class:`~repro.eval.scenarios.ExperimentSpec`, it builds the dataset,
dispatches the listed algorithms at every point of the sweep and collects a
:class:`SweepPoint` per (algorithm, value) pair — running time, peak memory
and result size, the uniform measures of the paper.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.miner import mine
from ..core.registry import get_algorithm
from ..core.results import MiningResult
from ..core.topk import mine_topk, truncation_baseline
from ..datasets.registry import load_dataset
from ..db.database import UncertainDatabase
from ..stream import BATCH_EQUIVALENTS, TransactionStream, make_streaming_miner
from .metrics import compare_results
from .scenarios import ExperimentSpec, StreamingScenario, TopKScenario


__all__ = [
    "SweepPoint",
    "AccuracyPoint",
    "StreamPoint",
    "TopKPoint",
    "BATCH_EQUIVALENTS",
    "run_experiment",
    "run_accuracy_experiment",
    "run_streaming_scenario",
    "run_topk_scenario",
]


@dataclass(frozen=True)
class SweepPoint:
    """One measurement: one algorithm at one value of the swept parameter."""

    experiment_id: str
    dataset: str
    algorithm: str
    parameter: str
    value: float
    elapsed_seconds: float
    peak_memory_bytes: int
    n_itemsets: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "experiment_id": self.experiment_id,
            "dataset": self.dataset,
            "algorithm": self.algorithm,
            "parameter": self.parameter,
            "value": self.value,
            "elapsed_seconds": self.elapsed_seconds,
            "peak_memory_bytes": self.peak_memory_bytes,
            "n_itemsets": self.n_itemsets,
        }


@dataclass(frozen=True)
class AccuracyPoint:
    """Precision/recall of one approximate algorithm at one parameter value."""

    experiment_id: str
    dataset: str
    algorithm: str
    parameter: str
    value: float
    precision: float
    recall: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "experiment_id": self.experiment_id,
            "dataset": self.dataset,
            "algorithm": self.algorithm,
            "parameter": self.parameter,
            "value": self.value,
            "precision": self.precision,
            "recall": self.recall,
        }


@dataclass(frozen=True)
class StreamPoint:
    """One slide of a streaming scenario: timing and (optionally) verification."""

    scenario_id: str
    dataset: str
    algorithm: str
    slide: int
    window_fill: int
    n_itemsets: int
    elapsed_seconds: float
    batch_seconds: float = math.nan
    matches_batch: Optional[bool] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "scenario_id": self.scenario_id,
            "dataset": self.dataset,
            "algorithm": self.algorithm,
            "slide": self.slide,
            "window_fill": self.window_fill,
            "n_itemsets": self.n_itemsets,
            "elapsed_seconds": self.elapsed_seconds,
            "batch_seconds": self.batch_seconds,
            "matches_batch": "" if self.matches_batch is None else self.matches_batch,
        }


@dataclass(frozen=True)
class TopKPoint:
    """One top-k measurement: one evaluator at one value of k."""

    scenario_id: str
    dataset: str
    algorithm: str
    k: int
    n_itemsets: int
    kth_score: float
    elapsed_seconds: float
    baseline_seconds: float = math.nan
    matches_truncation: Optional[bool] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "scenario_id": self.scenario_id,
            "dataset": self.dataset,
            "algorithm": self.algorithm,
            "k": self.k,
            "n_itemsets": self.n_itemsets,
            "kth_score": self.kth_score,
            "elapsed_seconds": self.elapsed_seconds,
            "baseline_seconds": self.baseline_seconds,
            "matches_truncation": (
                "" if self.matches_truncation is None else self.matches_truncation
            ),
        }


def _build_dataset(spec: ExperimentSpec, value: float) -> UncertainDatabase:
    """Build the dataset for one sweep point.

    Dataset-shaping parameters (``n_transactions`` and ``skew``) force a
    rebuild per point; threshold parameters reuse the kwargs untouched.
    """
    kwargs = dict(spec.dataset_kwargs)
    if spec.parameter == "n_transactions":
        kwargs["n_transactions"] = int(value)
    elif spec.parameter == "skew":
        kwargs["skew"] = float(value)
    return load_dataset(spec.dataset, **kwargs)


def _thresholds_for(spec: ExperimentSpec, value: float) -> Dict[str, float]:
    """Resolve the threshold keyword arguments for one sweep point."""
    thresholds: Dict[str, float] = dict(spec.fixed)
    if spec.parameter in ("min_esup", "min_sup", "pft"):
        thresholds[spec.parameter] = float(value)
    return thresholds


def _mine_point(
    database: UncertainDatabase,
    algorithm: str,
    thresholds: Dict[str, float],
    track_memory: bool,
    plan=None,
) -> MiningResult:
    info = get_algorithm(algorithm)
    # Warm the shared columnar view outside the instrumented run so the
    # one-time build cost is not charged to whichever algorithm happens to
    # mine the database first (the sweep compares algorithms).
    database.columnar()
    kwargs: Dict[str, float] = {}
    if info.family == "expected":
        kwargs["min_esup"] = thresholds.get("min_esup", thresholds.get("min_sup", 0.5))
    else:
        kwargs["min_sup"] = thresholds.get("min_sup", thresholds.get("min_esup", 0.5))
        kwargs["pft"] = thresholds.get("pft", 0.9)
    return mine(
        database,
        algorithm=algorithm,
        track_memory=track_memory,
        plan=plan,
        **kwargs,
    )


def run_experiment(
    spec: ExperimentSpec,
    max_points: Optional[int] = None,
    plan=None,
) -> List[SweepPoint]:
    """Run the full sweep of ``spec`` and return one row per (algorithm, value).

    ``max_points`` truncates the sweep (used by the smoke tests and by
    benchmark quick modes).
    """
    values = list(spec.values)
    if max_points is not None:
        values = values[:max_points]

    points: List[SweepPoint] = []
    shared_database: Optional[UncertainDatabase] = None
    if spec.parameter not in ("n_transactions", "skew"):
        shared_database = _build_dataset(spec, values[0]) if values else None

    for value in values:
        database = shared_database or _build_dataset(spec, value)
        thresholds = _thresholds_for(spec, value)
        for algorithm in spec.algorithms:
            result = _mine_point(
                database,
                algorithm,
                thresholds,
                spec.track_memory,
                plan=plan,
            )
            points.append(
                SweepPoint(
                    experiment_id=spec.experiment_id,
                    dataset=spec.dataset,
                    algorithm=algorithm,
                    parameter=spec.parameter,
                    value=float(value),
                    elapsed_seconds=result.statistics.elapsed_seconds,
                    peak_memory_bytes=result.statistics.peak_memory_bytes,
                    n_itemsets=len(result),
                )
            )
    return points


def run_streaming_scenario(
    spec: StreamingScenario,
    verify: bool = False,
    max_slides: Optional[int] = None,
    plan=None,
) -> List[StreamPoint]:
    """Replay ``spec``'s dataset through a sliding window and mine every slide.

    The dataset's transactions become the arrival stream; the first point is
    the initial window fill, subsequent points are slides of ``spec.step``
    arrivals.  With ``verify=True`` every slide is additionally batch-mined
    from scratch over the window contents (``BATCH_EQUIVALENTS`` names the
    static counterpart), recording the batch wall-clock and whether the
    frequent sets agree — the incremental-vs-recompute comparison of the
    windowed benchmark, available on live scenarios.
    """
    database = load_dataset(spec.dataset, **spec.dataset_kwargs)
    stream = TransactionStream.from_database(database)
    miner = make_streaming_miner(spec.algorithm, spec.window, plan=plan, **spec.thresholds)

    slides = spec.max_slides if max_slides is None else min(spec.max_slides, max_slides)
    points: List[StreamPoint] = []
    for slide in range(slides + 1):
        step = spec.window if slide == 0 else spec.step
        result = miner.advance(stream, step)
        if result is None:
            break
        batch_seconds = math.nan
        matches: Optional[bool] = None
        if verify:
            contents = miner.window.contents()
            batch_algorithm = BATCH_EQUIVALENTS[spec.algorithm]
            started = time.perf_counter()
            batch = _mine_point(
                contents,
                batch_algorithm,
                dict(spec.thresholds),
                False,
                plan=plan,
            )
            batch_seconds = time.perf_counter() - started
            matches = {r.itemset.items for r in result} == {
                r.itemset.items for r in batch
            }
        points.append(
            StreamPoint(
                scenario_id=spec.scenario_id,
                dataset=spec.dataset,
                algorithm=spec.algorithm,
                slide=slide,
                window_fill=len(miner.window),
                n_itemsets=len(result),
                elapsed_seconds=result.statistics.elapsed_seconds,
                batch_seconds=batch_seconds,
                matches_batch=matches,
            )
        )
    return points


def run_topk_scenario(
    spec: TopKScenario,
    verify: bool = False,
    max_points: Optional[int] = None,
    plan=None,
) -> List[TopKPoint]:
    """Run the k-sweep of ``spec`` and return one row per value of k.

    With ``verify=True`` every point is additionally mined through the
    corresponding *threshold* miner (everything above a floor self-calibrated
    just below the k-th best score), truncated to k, and compared against the
    top-k result — recording the baseline wall-clock and the agreement flag.
    ``max_points`` truncates the k grid (smoke runs).
    """
    database = load_dataset(spec.dataset, **spec.dataset_kwargs)
    # Warm the shared view outside the timed mining, as the sweep runner
    # does for the threshold algorithms.
    database.columnar()

    ks = list(spec.ks)
    if max_points is not None:
        ks = ks[:max_points]

    points: List[TopKPoint] = []
    for k in ks:
        result = mine_topk(
            database,
            int(k),
            algorithm=spec.algorithm,
            min_sup=spec.min_sup,
            plan=plan,
        )
        scores = result.scores()
        baseline_seconds = math.nan
        matches: Optional[bool] = None
        if verify:
            started = time.perf_counter()
            baseline = truncation_baseline(
                database,
                int(k),
                spec.algorithm,
                min_sup=spec.min_sup,
                reference=result,
                plan=plan,
            )
            baseline_seconds = time.perf_counter() - started
            matches = result.ranked_keys() == baseline.ranked_keys()
        points.append(
            TopKPoint(
                scenario_id=spec.scenario_id,
                dataset=spec.dataset,
                algorithm=spec.algorithm,
                k=int(k),
                n_itemsets=len(result),
                kth_score=scores[-1] if scores else math.nan,
                elapsed_seconds=result.statistics.elapsed_seconds,
                baseline_seconds=baseline_seconds,
                matches_truncation=matches,
            )
        )
    return points


def run_accuracy_experiment(
    spec: ExperimentSpec,
    reference_algorithm: str = "dcb",
    max_points: Optional[int] = None,
    plan=None,
) -> List[AccuracyPoint]:
    """Run an accuracy sweep (Tables 8/9): approximate miners vs an exact reference."""
    values = list(spec.values)
    if max_points is not None:
        values = values[:max_points]

    points: List[AccuracyPoint] = []
    shared_database: Optional[UncertainDatabase] = None
    if spec.parameter not in ("n_transactions", "skew"):
        shared_database = _build_dataset(spec, values[0]) if values else None

    for value in values:
        database = shared_database or _build_dataset(spec, value)
        thresholds = _thresholds_for(spec, value)
        exact = _mine_point(
            database,
            reference_algorithm,
            thresholds,
            False,
            plan=plan,
        )
        for algorithm in spec.algorithms:
            approximate = _mine_point(
                database,
                algorithm,
                thresholds,
                False,
                plan=plan,
            )
            report = compare_results(approximate, exact)
            points.append(
                AccuracyPoint(
                    experiment_id=spec.experiment_id,
                    dataset=spec.dataset,
                    algorithm=algorithm,
                    parameter=spec.parameter,
                    value=float(value),
                    precision=report.precision,
                    recall=report.recall,
                )
            )
    return points
