"""Wire protocol of the mining service: newline-delimited JSON.

One request is one JSON object on one line; one response is one JSON
object on one line.  The framing is deliberately primitive — any language
with a socket and a JSON parser is a client — and the schema is small:

Request::

    {"id": 7, "op": "mine", "params": {"dataset": "accident", ...}}

Success response::

    {"id": 7, "ok": true, "result": {...}}

Error response (the server **always** replies; a client never hangs on a
bad request)::

    {"id": 7, "ok": false, "error": {"type": "unknown-dataset",
                                     "message": "..."}}

Floats round-trip bitwise: Python's ``json`` emits ``repr``-shortest
decimal forms, which parse back to the identical IEEE-754 double — the
property the result cache's "bitwise-equal to a fresh mine" contract
rides on (pinned by ``tests/test_service.py``).

Pre-encoded ``itemsets``: a ``mine`` or ``mine-topk`` answer's record list
is the bulk of its reply, so it travels as an :class:`EncodedRecords` — a
list of records that memoizes its :func:`encode_itemsets` bytes.  The
result cache encodes an answer once, when it is stored, and every later
reply reuses those bytes.  A document returned by the server's
``handle_line`` may therefore carry one as ``result.itemsets``;
:func:`encode_line` splices its bytes between the separately encoded keys
before and after it, so the framed line is byte-identical to encoding the
whole document with the records in their :func:`encode_records` form.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from ..core.itemset import Itemset
from ..core.results import FrequentItemset

__all__ = [
    "MAX_LINE_BYTES",
    "ERROR_TYPES",
    "ServiceError",
    "EncodedRecords",
    "encode_line",
    "decode_line",
    "error_reply",
    "ok_reply",
    "encode_records",
    "encode_itemsets",
    "decode_records",
    "encode_statistics",
    "record_keys",
]

#: hard cap on one framed line (requests beyond it are malformed — the
#: inline-records register op stays well under this for test datasets)
MAX_LINE_BYTES = 32 << 20

#: the structured error vocabulary of the service
ERROR_TYPES = (
    "malformed-request",
    "bad-request",
    "unknown-op",
    "unknown-dataset",
    "unknown-algorithm",
    "bad-params",
    "overloaded",
    "timeout",
    "shutting-down",
    "connection-lost",
    "corrupt-dataset",
    "internal",
)


class ServiceError(Exception):
    """A structured service failure: a machine-readable type plus a message.

    Raised server-side to produce an error reply, and raised client-side
    when an error reply is received — the ``type`` survives the round-trip.
    (``connection-lost`` is the exception: it is minted client-side when
    the transport dies before a reply arrives, so *every* client failure
    is a ServiceError with a typed cause.)

    ``retry_after_seconds`` is an optional server hint carried with
    retryable errors (today: ``overloaded`` admission rejections); a
    retrying client sleeps that long before its next attempt instead of
    guessing.
    """

    def __init__(
        self,
        error_type: str,
        message: str,
        retry_after_seconds: Optional[float] = None,
    ) -> None:
        if error_type not in ERROR_TYPES:
            raise ValueError(f"unknown error type {error_type!r}; known: {ERROR_TYPES}")
        super().__init__(message)
        self.type = error_type
        self.message = message
        self.retry_after_seconds = (
            None if retry_after_seconds is None else float(retry_after_seconds)
        )

    def as_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"type": self.type, "message": self.message}
        if self.retry_after_seconds is not None:
            payload["retry_after_seconds"] = self.retry_after_seconds
        return payload


def _dumps(value: Any) -> str:
    return json.dumps(value, separators=(",", ":"))


def encode_line(document: Dict[str, Any]) -> bytes:
    """Frame one protocol document as a single JSON line (UTF-8).

    An :class:`EncodedRecords` at ``document["result"]["itemsets"]`` is
    written as its memoized :func:`encode_itemsets` bytes; the keys around
    it keep their order and their own encoding.
    """
    result = document.get("result")
    itemsets = result.get("itemsets") if isinstance(result, dict) else None
    if not isinstance(itemsets, EncodedRecords):
        return (_dumps(document) + "\n").encode("utf-8")
    body = _splice(result, "itemsets", itemsets.encoded)
    return _splice(document, "result", body) + b"\n"


def _splice(mapping: Dict[str, Any], key: str, encoded: bytes) -> bytes:
    """``mapping`` as a JSON object whose ``key`` holds the ``encoded`` bytes.

    The keys before and after ``key`` are encoded as two objects of their
    own and joined around it — no marker is searched for, so no string in
    the document can collide with the splice point.
    """
    before: Dict[str, Any] = {}
    after: Dict[str, Any] = {}
    side = before
    for name, value in mapping.items():
        if name == key:
            side = after
        else:
            side[name] = value
    return b"".join(
        (
            _dumps(before)[:-1].encode("utf-8"),
            b"," if before else b"",
            _dumps(key).encode("utf-8"),
            b":",
            encoded,
            b"," if after else b"",
            _dumps(after)[1:].encode("utf-8"),
        )
    )


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one framed line into a request/response document.

    Raises:
        ServiceError: ``malformed-request`` when the line is not a JSON
            object (the caller turns this into a structured error reply).
    """
    try:
        document = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ServiceError("malformed-request", f"not a JSON line: {error}") from None
    if not isinstance(document, dict):
        raise ServiceError(
            "malformed-request",
            f"expected a JSON object, got {type(document).__name__}",
        )
    return document


def ok_reply(request_id: Any, result: Dict[str, Any]) -> Dict[str, Any]:
    return {"id": request_id, "ok": True, "result": result}


def error_reply(request_id: Any, error: ServiceError) -> Dict[str, Any]:
    return {"id": request_id, "ok": False, "error": error.as_payload()}


def encode_records(records) -> List[Dict[str, Any]]:
    """Serialize mining records, preserving order and float identity.

    Works on any iterable of :class:`~repro.core.results.FrequentItemset`
    — a canonical :class:`MiningResult` (size/lexicographic order) or a
    :class:`TopKResult` (rank order).
    """
    return [
        {
            "items": list(record.itemset.items),
            "esup": record.expected_support,
            "var": record.variance,
            "pr": record.frequent_probability,
        }
        for record in records
    ]


def encode_itemsets(records) -> bytes:
    """The JSON bytes of :func:`encode_records`, as a reply carries them."""
    return _dumps(encode_records(records)).encode("utf-8")


class EncodedRecords(list):
    """Mining records that memoize their :func:`encode_itemsets` bytes.

    A plain list to every reader; :attr:`encoded` is computed on first use
    and kept, so the list must not change once it has been encoded.  The
    result cache stores these, which is what lets a repeated answer reuse
    its bytes.
    """

    __slots__ = ("_encoded",)

    def __init__(self, records=()) -> None:
        super().__init__(records)
        self._encoded: Optional[bytes] = None

    @property
    def encoded(self) -> bytes:
        if self._encoded is None:
            self._encoded = encode_itemsets(self)
        return self._encoded


def decode_records(payload: List[Dict[str, Any]]) -> List[FrequentItemset]:
    """Rebuild :class:`FrequentItemset` records from their wire form."""
    return [
        FrequentItemset(
            Itemset(tuple(int(item) for item in entry["items"])),
            float(entry["esup"]),
            None if entry.get("var") is None else float(entry["var"]),
            None if entry.get("pr") is None else float(entry["pr"]),
        )
        for entry in payload
    ]


def encode_statistics(statistics) -> Dict[str, Any]:
    """The statistics slice a serving client cares about."""
    return {
        "algorithm": statistics.algorithm,
        "elapsed_seconds": statistics.elapsed_seconds,
        "candidates_generated": statistics.candidates_generated,
        "candidates_pruned": statistics.candidates_pruned,
        "exact_evaluations": statistics.exact_evaluations,
    }


def record_keys(records: List[FrequentItemset]) -> List[Tuple[Tuple[int, ...], float, Optional[float], Optional[float]]]:
    """The bitwise-comparison view of a record list (tests and --verify)."""
    return [
        (
            record.itemset.items,
            record.expected_support,
            record.variance,
            record.frequent_probability,
        )
        for record in records
    ]
