"""Benchmark trajectory driver: run bench modules in --json mode, aggregate.

Runs any subset of the ``bench_*.py`` modules through their uniform
``--json`` entry points (each writes ``BENCH_<name>.json`` under
``benchmarks/results``) and folds the documents of the benches that ran
into one repo-root ``BENCH_summary.json`` — the machine-readable record
future PRs diff to track performance over time.  A history point holds only
the benches its invocation ran; a document left over from an earlier run is
never folded into a new point.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py            # quick set
    PYTHONPATH=src python benchmarks/run_all.py --all      # every benchmark
    PYTHONPATH=src python benchmarks/run_all.py --only store_fanout topk
    PYTHONPATH=src python benchmarks/run_all.py --aggregate-only

The quick set covers the micro-benchmarks with asserted floors (seconds
each); the full set also replays every figure/table sweep (minutes at the
default ``REPRO_SCALE``).  ``--max-points`` is forwarded to the sweeps.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from benchio import REPO_ROOT, RESULTS_DIR, SCHEMA_VERSION, environment_stamp

BENCH_DIR = Path(__file__).resolve().parent

#: module stem -> BENCH_<name>.json stem
BENCHES = {
    "bench_parallel_scaling": "parallel_scaling",
    "bench_stream_window": "stream_window",
    "bench_store_fanout": "store_fanout",
    "bench_service": "service",
    "bench_resilience": "resilience",
    "bench_topk": "topk",
    "bench_table4_probability_methods": "table4_probability_methods",
    "bench_ablation_convolution": "ablation_convolution",
    "bench_definition_unification": "definition_unification",
    "bench_fig4_expected_time": "fig4_expected_time",
    "bench_fig4_expected_memory": "fig4_expected_memory",
    "bench_fig4_scalability": "fig4_scalability",
    "bench_fig4_zipf": "fig4_zipf",
    "bench_fig5_exact_minsup": "fig5_exact_minsup",
    "bench_fig5_exact_pft": "fig5_exact_pft",
    "bench_fig5_scalability": "fig5_scalability",
    "bench_fig5_zipf": "fig5_zipf",
    "bench_fig6_approx_minsup": "fig6_approx_minsup",
    "bench_fig6_approx_pft": "fig6_approx_pft",
    "bench_fig6_scalability": "fig6_scalability",
    "bench_fig6_zipf": "fig6_zipf",
    "bench_table8_accuracy_dense": "table8_accuracy_dense",
    "bench_table9_accuracy_sparse": "table9_accuracy_sparse",
    "bench_table10_summary": "table10_summary",
}

#: fast modules with asserted floors or sub-minute runtimes
QUICK = [
    "bench_store_fanout",
    "bench_service",
    "bench_resilience",
    "bench_table4_probability_methods",
    "bench_ablation_convolution",
    "bench_definition_unification",
]


def run_bench(module: str, max_points: int | None) -> bool:
    """Run one bench module in --json mode; True on success."""
    command = [sys.executable, str(BENCH_DIR / f"{module}.py"), "--json"]
    if max_points is not None:
        command += ["--max-points", str(max_points)]
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, str(BENCH_DIR), env.get("PYTHONPATH", "")) if part
    )
    print(f"== {module}")
    completed = subprocess.run(command, env=env, cwd=str(BENCH_DIR))
    return completed.returncode == 0


def _condense(document: dict) -> dict:
    """The trajectory-relevant slice of one benchmark document.

    History points keep only the measured numbers (timings, speedups and
    any asserted ratios); the full latest documents — configs included —
    live under the summary's ``benches`` key.
    """
    return {
        key: document[key]
        for key in ("timings", "speedups", "ratios", "metrics")
        if key in document
    }


def _documents(names) -> dict:
    """The ``BENCH_<name>.json`` documents of ``names`` that exist."""
    documents = {}
    for name in names:
        path = RESULTS_DIR / f"BENCH_{name}.json"
        if path.exists():
            documents[name] = json.loads(path.read_text())
    return documents


def aggregate(
    summary_path: Path, ran: list | None, max_points: int | None = None
) -> int:
    """Fold the documents of the benches that ran into the summary.

    ``ran`` lists the short names of the benches this invocation ran
    successfully; their documents replace the latest ones under ``benches``
    and form one condensed point *appended* under ``history`` with a
    monotonically increasing ``run`` index.  ``ran=None`` (aggregate-only)
    refreshes ``benches`` from every known bench's document on disk and
    appends no point.  Entries of benches no longer in :data:`BENCHES` are
    dropped.  ``max_points`` (the ``--max-history`` flag — distinct from
    ``--max-points``, which truncates the *sweeps*) trims the history to its
    most recent points.
    """
    known = set(BENCHES.values())
    benches, history = {}, []
    if summary_path.exists():
        try:
            previous = json.loads(summary_path.read_text())
            benches = dict(previous.get("benches", {}))
            history = list(previous.get("history", []))
        except (json.JSONDecodeError, AttributeError):
            benches, history = {}, []
    benches = {name: doc for name, doc in benches.items() if name in known}
    fresh = _documents(sorted(known) if ran is None else ran)
    benches.update(fresh)
    if ran is not None:
        last_run = max((int(point.get("run", 0)) for point in history), default=0)
        history.append(
            {
                "run": last_run + 1,
                "environment": environment_stamp(),
                "benches": {name: _condense(doc) for name, doc in fresh.items()},
            }
        )
    if max_points is not None and max_points > 0:
        history = history[-max_points:]
    summary = {
        "schema": SCHEMA_VERSION,
        "environment": environment_stamp(),
        "n_benches": len(benches),
        "benches": benches,
        "history": history,
    }
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(
        f"folded {len(fresh)} benchmark documents into {summary_path} "
        f"({len(history)} history points retained)"
    )
    return len(fresh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="run_all")
    parser.add_argument("--all", action="store_true", help="run every benchmark")
    parser.add_argument(
        "--only",
        nargs="+",
        default=None,
        metavar="NAME",
        help="run only these benches (module stem or short name)",
    )
    parser.add_argument(
        "--aggregate-only",
        action="store_true",
        help="skip running; only refresh the latest documents from BENCH_*.json",
    )
    parser.add_argument(
        "--max-points", type=int, default=None, help="truncate sweeps (quick mode)"
    )
    parser.add_argument(
        "--max-history",
        type=int,
        default=50,
        help="retain at most this many trajectory points in the summary history",
    )
    parser.add_argument(
        "--summary",
        default=str(REPO_ROOT / "BENCH_summary.json"),
        help="summary path (default: repo-root BENCH_summary.json)",
    )
    args = parser.parse_args(argv)

    failures = []
    ran = None
    if not args.aggregate_only:
        if args.only:
            by_short = {short: module for module, short in BENCHES.items()}
            selected = []
            for name in args.only:
                module = name if name in BENCHES else by_short.get(name)
                if module is None:
                    parser.error(f"unknown benchmark {name!r}")
                selected.append(module)
        elif args.all:
            selected = list(BENCHES)
        else:
            selected = list(QUICK)
        ran = []
        for module in selected:
            if run_bench(module, args.max_points):
                ran.append(BENCHES[module])
            else:
                failures.append(module)

    aggregate(Path(args.summary), ran, args.max_history)
    if failures:
        print(f"FAILED: {', '.join(failures)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
