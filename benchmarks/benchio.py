"""Machine-readable benchmark output: the ``--json`` flag of every bench.

Every ``benchmarks/bench_*.py`` module exposes a ``json_payload()`` callable
returning a plain dictionary — ``config`` (the parameters the numbers were
measured under), ``timings`` (seconds), and, where the benchmark measures a
ratio, ``speedups`` — and routes its ``__main__`` through
:func:`bench_main`, which adds a uniform command line::

    python benchmarks/bench_<name>.py --json [--json-dir DIR]

``--json`` writes ``BENCH_<name>.json`` (default directory:
``benchmarks/results``).  ``benchmarks/run_all.py`` drives any subset of
the benchmarks in this mode and folds the individual documents into a
repo-root ``BENCH_summary.json`` so the performance trajectory of the
repository is tracked in one machine-readable place across PRs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

#: repository root (two levels up from this file)
REPO_ROOT = Path(__file__).resolve().parent.parent
#: default landing directory of the per-benchmark JSON documents
RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: schema version of the BENCH_*.json documents
SCHEMA_VERSION = 1


def _jsonable(value: Any) -> Any:
    """Coerce NumPy scalars/arrays and other oddballs into JSON types."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if hasattr(value, "tolist"):  # ndarray / numpy scalar
        return _jsonable(value.tolist())
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        return value.item()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def environment_stamp() -> Dict[str, Any]:
    """The measurement context recorded into every document."""
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "scale": os.environ.get("REPRO_SCALE", "0.002"),
        "plan": os.environ.get("REPRO_PLAN", ""),
    }


def make_dense_database(
    n_transactions: int = 2000,
    n_items: int = 24,
    density: float = 0.5,
    seed: int = 0,
):
    """A dense uniform-probability database (the paper's dense regime).

    The shared workload of the parallel, streaming and top-k benchmarks.
    """
    from repro.db import UncertainDatabase

    rng = random.Random(seed)
    records: List[Dict[int, float]] = []
    for _ in range(n_transactions):
        units = {
            item: round(rng.uniform(0.3, 1.0), 3)
            for item in range(n_items)
            if rng.random() < density
        }
        records.append(units)
    return UncertainDatabase.from_records(records, name="dense-synthetic")


def write_bench_json(
    name: str, payload: Dict[str, Any], directory: Optional[os.PathLike] = None
) -> Path:
    """Write one benchmark's ``BENCH_<name>.json`` document and return its path."""
    target_dir = Path(directory) if directory is not None else RESULTS_DIR
    target_dir.mkdir(parents=True, exist_ok=True)
    document = {
        "bench": name,
        "schema": SCHEMA_VERSION,
        "environment": environment_stamp(),
    }
    document.update(_jsonable(payload))
    path = target_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


def _print_payload(payload: Dict[str, Any]) -> None:
    for section in ("config", "timings", "speedups"):
        values = payload.get(section)
        if not values:
            continue
        print(f"[{section}]")
        for key, value in values.items():
            print(f"  {key:32s} {value}")
    points = payload.get("points")
    if points:
        print(f"[points] {len(points)} rows")


def split_measurements(measurements: Dict[str, Any]) -> Dict[str, Any]:
    """Split a flat measurement dict into config / timings / speedups sections.

    Keys mentioning ``seconds`` are timings, keys mentioning ``speedup``
    are speedups, everything else is configuration/shape — the convention
    of the ``run_benchmark()``-style micro-benchmarks.
    """
    sections = {"config": {}, "timings": {}, "speedups": {}}
    for key, value in measurements.items():
        if "speedup" in key:
            sections["speedups"][key] = value
        elif "seconds" in key:
            sections["timings"][key] = value
        else:
            sections["config"][key] = value
    return sections


def bench_main(
    name: str,
    collect: Callable[..., Dict[str, Any]],
    argv: Optional[list] = None,
) -> int:
    """Uniform ``__main__`` of a benchmark module.

    Args:
        name: Benchmark name (the ``BENCH_<name>.json`` stem).
        collect: Callable running the measurement and returning the payload
            dictionary; if it accepts a ``max_points`` keyword, the
            ``--max-points`` flag is forwarded.
        argv: Command line (default ``sys.argv[1:]``).
    """
    parser = argparse.ArgumentParser(prog=f"bench_{name}")
    parser.add_argument(
        "--json",
        action="store_true",
        help=f"write BENCH_{name}.json (machine-readable: config, timings, speedups)",
    )
    parser.add_argument(
        "--json-dir",
        default=None,
        help="directory for the JSON document (default: benchmarks/results)",
    )
    parser.add_argument(
        "--max-points",
        type=int,
        default=None,
        help="truncate parameter sweeps to this many points (quick mode)",
    )
    args = parser.parse_args(argv)
    import inspect

    if "max_points" in inspect.signature(collect).parameters:
        payload = collect(max_points=args.max_points)
    else:
        payload = collect()
    _print_payload(payload)
    if args.json:
        path = write_bench_json(name, payload, args.json_dir)
        print(f"wrote {path}")
    return 0


def sweep_payload(specs, runner, max_points: Optional[int] = None, **kwargs) -> Dict[str, Any]:
    """Shared collector for the figure/table sweep benchmarks.

    Runs ``runner(spec, max_points=..., **kwargs)`` (one of the
    ``repro.eval.runner`` entry points) over every spec and flattens the
    measurement points.  ``timings`` aggregates total wall-clock per
    experiment so trajectory diffs have one headline number per panel.
    """
    points = []
    timings: Dict[str, float] = {}
    spec_ids = []
    for spec in specs:
        spec_id = getattr(spec, "experiment_id", getattr(spec, "scenario_id", ""))
        spec_ids.append(spec_id)
        rows = [point.as_dict() for point in runner(spec, max_points=max_points, **kwargs)]
        points.extend(rows)
        timings[spec_id] = float(
            sum(row.get("elapsed_seconds", 0.0) or 0.0 for row in rows)
        )
    return {
        "config": {"specs": spec_ids, "max_points": max_points},
        "timings": timings,
        "points": points,
    }


if __name__ == "__main__":  # pragma: no cover - helper module
    sys.exit("benchio is a helper; run one of the bench_*.py modules instead")
