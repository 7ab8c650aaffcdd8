"""Shared fixtures and helpers for the benchmark harness.

Every benchmark module regenerates one figure panel or table of the paper.
Two kinds of benchmarks exist:

* *point benchmarks* — pytest-benchmark timings of a single algorithm at a
  representative parameter value (the individual points of a figure);
* *report benchmarks* — a single run of the full sweep behind a panel/table,
  printing the same rows/series the paper reports and writing them to
  ``benchmarks/results/*.csv``.

Run them with ``pytest benchmarks/ --benchmark-only``.  The ``REPRO_SCALE``
environment variable scales the datasets (default 0.002, i.e. 0.2% of the
published sizes); raise it to approach the paper's scale at the cost of a
much longer run.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.datasets import registry as dataset_registry
from repro.eval import reporting

#: default dataset scale for benchmark runs (fraction of the published size)
SCALE = float(os.environ.get("REPRO_SCALE", "0.002"))

RESULTS_DIR = Path(__file__).parent / "results"


def pytest_configure(config):
    """Trim pytest-benchmark's calibration so the full harness stays quick.

    Users can still override both knobs on the command line; the defaults are
    only replaced when they match the plugin's own defaults.
    """
    if getattr(config.option, "benchmark_min_rounds", None) == 5:
        config.option.benchmark_min_rounds = 3
    if getattr(config.option, "benchmark_max_time", None) == 1.0:
        config.option.benchmark_max_time = 0.25


def save_and_render(
    points, name: str, kind: str = "sweep", measure: str = "elapsed_seconds"
) -> str:
    """Persist sweep/accuracy points to CSV and return the formatted table."""
    RESULTS_DIR.mkdir(exist_ok=True)
    reporting.write_csv(points, RESULTS_DIR / f"{name}.csv")
    if kind == "accuracy":
        return reporting.format_accuracy_table(points)
    return reporting.format_sweep_table(points, measure=measure)


def emit(title: str, table: str) -> None:
    """Print a labelled table (visible with ``pytest -s``; always in the CSVs)."""
    print(f"\n=== {title} ===\n{table}")


@pytest.fixture(scope="session")
def scale() -> float:
    return SCALE


@pytest.fixture(scope="session")
def connect_db():
    return dataset_registry.load_dataset("connect", scale=SCALE)


@pytest.fixture(scope="session")
def accident_db():
    return dataset_registry.load_dataset("accident", scale=SCALE)


@pytest.fixture(scope="session")
def kosarak_db():
    return dataset_registry.load_dataset("kosarak", scale=SCALE)


@pytest.fixture(scope="session")
def gazelle_db():
    return dataset_registry.load_dataset("gazelle", scale=SCALE)


@pytest.fixture(scope="session")
def quest_db():
    return dataset_registry.load_dataset("t25i15d", n_transactions=800)
