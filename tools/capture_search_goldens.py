"""Capture the golden-result grid pinning the MinerSpec engine migration.

Runs every registered miner over the equivalence grid

    miner x (workers, shards) {(1,1), (2,2)}

plus the streaming miners (per-slide records) and the top-k evaluators,
on a fixed seeded database, and serializes every ``MiningResult`` record
with exact ``repr`` floats (``repr`` round-trips binary64, so equality of
the serialized form is bitwise equality of the results).

The checked-in ``tests/goldens/search_engine_goldens.json`` was captured at
the last pre-refactor commit; ``tests/test_search_engine.py`` replays the
grid against it.  Re-run this script only when a change *intends* to alter
mining results (there should be none — every engine change is held to the
bitwise contract):

    PYTHONPATH=src:tests python tools/capture_search_goldens.py
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Optional

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

GRID = [
    {"workers": 1, "shards": 1},
    {"workers": 2, "shards": 2},
]

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


def config_key(algorithm: str, config: Dict[str, object]) -> str:
    # "columnar" and the trailing "|bitset=on" are fixed labels kept from
    # the grid's former backend and bitset axes, so the checked-in key
    # names stay unchanged.
    return f"{algorithm}|columnar|w{config['workers']}s{config['shards']}|bitset=on"


def make_database():
    from helpers import make_random_database

    return make_random_database(**DATASET)


def capture_threshold_grid(database) -> Dict[str, List[List[object]]]:
    from repro.core.miner import mine
    from repro.core.registry import get_algorithm

    goldens: Dict[str, List[List[object]]] = {}
    for algorithm, options in MINER_OPTIONS.items():
        family = get_algorithm(algorithm).family
        for config in GRID:
            kwargs = dict(options, workers=config["workers"], shards=config["shards"])
            if family == "expected":
                result = mine(database, algorithm, min_esup=MIN_ESUP, **kwargs)
            else:
                result = mine(database, algorithm, min_sup=MIN_SUP, pft=PFT, **kwargs)
            goldens[config_key(algorithm, config)] = serialize_records(result)
            print(f"  {config_key(algorithm, config)}: {len(result)} records")
    return goldens


def capture_topk(database) -> Dict[str, List[List[object]]]:
    from repro.algorithms.topk import TopKMiner

    goldens: Dict[str, List[List[object]]] = {}
    for evaluator in TOPK_EVALUATORS:
        for config in GRID:
            miner = TopKMiner(
                evaluator=evaluator,
                workers=config["workers"],
                shards=config["shards"],
            )
            min_sup = None if evaluator == "esup" else MIN_SUP
            result = miner.mine(database, TOPK_K, min_sup=min_sup)
            goldens[config_key(f"topk-{evaluator}", config)] = serialize_records(
                result.itemsets
            )
            print(f"  {config_key(f'topk-{evaluator}', config)}: {len(result)} records")
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


def main() -> int:
    database = make_database()
    print(f"dataset: {DATASET}")
    print("threshold grid:")
    threshold = capture_threshold_grid(database)
    print("top-k grid:")
    topk = capture_topk(database)
    print("streaming:")
    streaming = capture_streaming(database)
    payload = {
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
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
