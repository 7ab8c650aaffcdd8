"""Benchmark driver: run bench modules in --json mode.

Runs any subset of the ``bench_*.py`` modules through their uniform
``--json`` entry points; each writes ``BENCH_<name>.json`` under
``benchmarks/results`` (git-ignored: every document is a fresh run on the
machine at hand, never a record carried between commits).

Usage::

    PYTHONPATH=src python benchmarks/run_all.py            # quick set
    PYTHONPATH=src python benchmarks/run_all.py --all      # every benchmark
    PYTHONPATH=src python benchmarks/run_all.py --only store_fanout topk

The quick set covers the micro-benchmarks with asserted floors (seconds
each); the full set also replays every figure/table sweep (minutes at the
default ``REPRO_SCALE``).  ``--max-points`` is forwarded to the sweeps.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

from benchio import REPO_ROOT

BENCH_DIR = Path(__file__).resolve().parent

#: module stem -> BENCH_<name>.json stem
BENCHES = {
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
        "--max-points", type=int, default=None, help="truncate sweeps (quick mode)"
    )
    args = parser.parse_args(argv)

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
    failures = [module for module in selected if not run_bench(module, args.max_points)]
    if failures:
        print(f"FAILED: {', '.join(failures)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
