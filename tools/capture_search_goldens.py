"""Capture the golden-result grid pinning the MinerSpec engine migration.

Runs every registered miner, the top-k evaluators and the streaming
miners (per-slide records) on a fixed seeded database, and serializes every ``MiningResult`` record
with exact ``repr`` floats (``repr`` round-trips binary64, so equality of
the serialized form is bitwise equality of the results).

``tests/test_search_engine.py`` replays the grid against the checked-in
``tests/goldens/search_engine_goldens.json``.  Engine changes are held to
the bitwise contract, so a re-capture is legitimate only when a kernel
change *intends* to move bits (for example a new summation order), and
every changed key is then documented with the scores it moved and the
largest deviation.  ``--check`` prints exactly that report against the
checked-in file, writes nothing and exits 1 when any key would change; a
plain run rewrites the file:

    PYTHONPATH=src:tests python tools/capture_search_goldens.py --check
    PYTHONPATH=src:tests python tools/capture_search_goldens.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, os.path.join(REPO_ROOT, "tests"))

GOLDEN_PATH = os.path.join(REPO_ROOT, "tests", "goldens", "search_engine_goldens.json")

#: the fixed dataset every golden is captured on
DATASET = dict(n_transactions=50, n_items=9, density=0.7, seed=7, name="golden")

#: thresholds chosen so every family yields a multi-level frequent set
MIN_ESUP = 0.05
MIN_SUP = 0.07
PFT = 0.5

#: registered miners and the per-miner constructor options the grid uses
MINER_OPTIONS: Dict[str, Dict[str, object]] = {
    "uapriori": {},
    "ufp-growth": {},
    "uh-mine": {},
    "dpb": {},
    "dpnb": {},
    "dcb": {},
    "dcnb": {},
    "pdu-apriori": {"report_probabilities": True},
    "ndu-apriori": {},
    "nduh-mine": {},
    "world-sampling": {"n_worlds": 120, "seed": 3},
}

TOPK_EVALUATORS = ("esup", "dp", "dc", "normal", "poisson")
TOPK_K = 10

STREAM_WINDOW = 32
STREAM_STEP = 8
STREAM_SLIDES = 4


def _maybe_repr(value: Optional[float]) -> Optional[str]:
    return None if value is None else repr(float(value))


def serialize_records(records) -> List[List[object]]:
    """Exact serialized view of an iterable of ``FrequentItemset`` records."""
    return [
        [
            list(record.itemset.items),
            _maybe_repr(record.expected_support),
            _maybe_repr(record.variance),
            _maybe_repr(record.frequent_probability),
        ]
        for record in records
    ]


def config_key(algorithm: str) -> str:
    # "columnar", "w1s1" and the trailing "|bitset=on" are fixed labels kept
    # from the grid's former backend, (workers, shards) and bitset axes, so
    # the checked-in key names stay unchanged.
    return f"{algorithm}|columnar|w1s1|bitset=on"


def make_database():
    from helpers import make_random_database

    return make_random_database(**DATASET)


def capture_threshold_grid(database) -> Dict[str, List[List[object]]]:
    from repro.core.miner import mine
    from repro.core.registry import get_algorithm

    goldens: Dict[str, List[List[object]]] = {}
    for algorithm, options in MINER_OPTIONS.items():
        if get_algorithm(algorithm).family == "expected":
            result = mine(database, algorithm, min_esup=MIN_ESUP, **options)
        else:
            result = mine(database, algorithm, min_sup=MIN_SUP, pft=PFT, **options)
        goldens[config_key(algorithm)] = serialize_records(result)
        print(f"  {config_key(algorithm)}: {len(result)} records")
    return goldens


def capture_topk(database) -> Dict[str, List[List[object]]]:
    from repro.algorithms.topk import TopKMiner

    goldens: Dict[str, List[List[object]]] = {}
    for evaluator in TOPK_EVALUATORS:
        min_sup = None if evaluator == "esup" else MIN_SUP
        result = TopKMiner(evaluator=evaluator).mine(database, TOPK_K, min_sup=min_sup)
        goldens[config_key(f"topk-{evaluator}")] = serialize_records(result.itemsets)
        print(f"  {config_key(f'topk-{evaluator}')}: {len(result)} records")
    return goldens


def capture_streaming(database) -> Dict[str, List[List[List[object]]]]:
    from repro.stream import (
        StreamingDP,
        StreamingTopK,
        StreamingUApriori,
        TransactionStream,
    )

    rows = [dict(transaction.units) for transaction in database]

    def slides_of(miner):
        stream = TransactionStream.from_records(rows)
        per_slide = []
        for result in miner.results(stream, STREAM_STEP, max_slides=STREAM_SLIDES):
            per_slide.append(serialize_records(result))
        return per_slide

    goldens: Dict[str, List[List[List[object]]]] = {
        "stream-uapriori": slides_of(StreamingUApriori(STREAM_WINDOW, MIN_ESUP)),
        "stream-dp": slides_of(StreamingDP(STREAM_WINDOW, MIN_SUP, PFT)),
        "stream-topk-esup": slides_of(StreamingTopK(STREAM_WINDOW, k=5)),
        "stream-topk-dp": slides_of(
            StreamingTopK(STREAM_WINDOW, k=5, evaluator="dp", min_sup=MIN_SUP)
        ),
    }
    for key, slides in goldens.items():
        print(f"  {key}: {[len(records) for records in slides]} records/slide")
    return goldens


def build_payload() -> Dict[str, object]:
    database = make_database()
    print(f"dataset: {DATASET}")
    print("threshold grid:")
    threshold = capture_threshold_grid(database)
    print("top-k grid:")
    topk = capture_topk(database)
    print("streaming:")
    streaming = capture_streaming(database)
    return {
        "dataset": DATASET,
        "thresholds": {"min_esup": MIN_ESUP, "min_sup": MIN_SUP, "pft": PFT},
        "stream": {
            "window": STREAM_WINDOW,
            "step": STREAM_STEP,
            "slides": STREAM_SLIDES,
        },
        "topk_k": TOPK_K,
        "threshold_grid": threshold,
        "topk_grid": topk,
        "streaming": streaming,
    }


#: payload sections holding serialized records (streaming: one list per slide)
RECORD_SECTIONS = ("threshold_grid", "topk_grid", "streaming")


def _score_moves(old, new, per_slide: bool) -> Tuple[int, float, int]:
    """(moved scores, largest absolute deviation, records added or dropped)."""
    moved, deviation, changed_records = 0, 0.0, 0
    pairs = zip(old, new) if per_slide else [(old, new)]
    for old_records, new_records in pairs:
        before = {tuple(record[0]): record[1:] for record in old_records}
        after = {tuple(record[0]): record[1:] for record in new_records}
        changed_records += len(before.keys() ^ after.keys())
        for items in before.keys() & after.keys():
            for was, now in zip(before[items], after[items]):
                if was != now:
                    moved += 1
                    if was is not None and now is not None:
                        deviation = max(deviation, abs(float(now) - float(was)))
    return moved, deviation, changed_records


def check(payload: Dict[str, object]) -> int:
    """Print every key whose records would change; return how many."""
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        golden = json.load(handle)
    changed = 0
    for section in sorted(payload.keys() | golden.keys()):
        old, new = golden.get(section), payload.get(section)
        if section not in RECORD_SECTIONS:
            if old != new:
                changed += 1
                print(f"CHANGED {section}: {old!r} -> {new!r}")
            continue
        old, new = old or {}, new or {}
        for key in sorted(old.keys() | new.keys()):
            if key not in old or key not in new:
                changed += 1
                print(f"CHANGED {section}/{key}: {'added' if key in new else 'removed'}")
            elif old[key] != new[key]:
                changed += 1
                moved, deviation, records = _score_moves(
                    old[key], new[key], per_slide=section == "streaming"
                )
                print(
                    f"CHANGED {section}/{key}: {moved} scores moved, "
                    f"largest deviation {deviation:.3g}, {records} records added or dropped"
                )
    print(f"{changed} key(s) would change" if changed else "no key would change")
    return changed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="report the keys a re-capture would change and write nothing",
    )
    args = parser.parse_args(argv)
    payload = build_payload()
    if args.check:
        return 1 if check(payload) else 0
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
