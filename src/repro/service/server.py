"""The mining server: a threaded JSON-over-socket serving layer.

Architecture (one box per component, see ``docs/ARCHITECTURE.md``)::

    client --- TCP ---> connection thread (framing, structured errors)
                           |  admission: bounded semaphore (workers+queue)
                           v
                        worker pool (ThreadPoolExecutor, per-request timeout)
                           |  checkout             |  fetch/store
                           v                       v
                        DatasetRegistry         ResultCache
                        (warm views, LRU)       (monotone filters, LRU)
                           |
                           v
                        repro.core.miner.mine / core.topk.mine_topk

The serving contract, pinned by ``tests/test_service*.py``:

* **Never a hung client.**  Every received request gets exactly one reply
  — malformed lines, unknown ops/datasets/algorithms, overload rejections
  and per-request timeouts all come back as structured errors.
* **Bounded admission.**  At most ``max_workers`` requests execute and
  ``max_queue`` wait; anything beyond is rejected immediately with an
  ``overloaded`` error instead of queuing unboundedly.
* **Graceful shutdown.**  ``close()`` stops accepting, lets in-flight
  requests finish and reply, then joins every connection thread and the
  worker pool.  Requests arriving mid-shutdown get a ``shutting-down``
  error.
* **Bitwise answers.**  Cached (exact-hit or monotone-filtered) responses
  are byte-identical to a fresh mine of the same request.

A reply's ``itemsets`` travel as an
:class:`~repro.service.protocol.EncodedRecords`: an exact hit carries the
bytes the result cache made when it stored the answer, a miss carries the
bytes its store just made, and a ``cache: false`` answer or a ``limit``
cut is encoded once, by ``encode_line``, as it is written.
``encode_records`` stays importable from this module, where callers and
tracers have always found it.
"""

from __future__ import annotations

import os
import socket
import socketserver
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from typing import Any, Dict, Optional, Tuple

from .. import faults
from ..core.miner import mine
from ..core.registry import get_algorithm
from ..core.topk import mine_topk, ranking_of, resolve_evaluator
from ..plan import ExecutionPlan, materialize_plan
from .cache import ResultCache, plan_mine, plan_topk
from .protocol import (
    MAX_LINE_BYTES,
    EncodedRecords,
    ServiceError,
    decode_line,
    encode_line,
    encode_records,  # noqa: F401 - kept importable from this module
    encode_statistics,
    error_reply,
    ok_reply,
)
from .registry import DatasetRegistry

__all__ = [
    "HOST_ENV",
    "PORT_ENV",
    "WORKERS_ENV",
    "QUEUE_ENV",
    "TIMEOUT_ENV",
    "MAX_FRAME_ENV",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "DEFAULT_WORKERS",
    "DEFAULT_QUEUE",
    "DEFAULT_TIMEOUT_SECONDS",
    "MiningServer",
]

#: env knobs of the serving layer (see the README knob table)
HOST_ENV = "REPRO_SERVICE_HOST"
PORT_ENV = "REPRO_SERVICE_PORT"
WORKERS_ENV = "REPRO_SERVICE_WORKERS"
QUEUE_ENV = "REPRO_SERVICE_QUEUE"
TIMEOUT_ENV = "REPRO_SERVICE_TIMEOUT_SECONDS"
#: cap on one inbound request frame; oversize frames are rejected with a
#: structured ``bad-request`` error (never silently dropped)
MAX_FRAME_ENV = "REPRO_SERVICE_MAX_FRAME_BYTES"

DEFAULT_HOST = "127.0.0.1"
#: 0 = bind an ephemeral port (read it back from ``server.address``)
DEFAULT_PORT = 0
DEFAULT_WORKERS = 4
DEFAULT_QUEUE = 16
DEFAULT_TIMEOUT_SECONDS = 30.0

#: how often an idle connection thread re-checks the shutdown flag
_POLL_SECONDS = 0.05

#: ops that execute on the worker pool under admission control
_HEAVY_OPS = frozenset({"mine", "mine-topk", "register"})

#: the ``retry_after_seconds`` hint attached to ``overloaded`` rejections —
#: long enough for a worker slot to plausibly free, short enough that a
#: retrying client adds little latency when the burst clears immediately
_OVERLOAD_RETRY_AFTER_SECONDS = 0.1


def _env_str(name: str, default: str) -> str:
    value = os.environ.get(name, "").strip()
    return value or default


def _env_int(name: str, default: int) -> int:
    value = os.environ.get(name, "").strip()
    return int(value) if value else default


def _env_float(name: str, default: float) -> float:
    value = os.environ.get(name, "").strip()
    return float(value) if value else default


class _ServiceTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = False  # server_close() joins connection threads
    block_on_close = True

    def __init__(self, address, handler, mining_server: "MiningServer") -> None:
        self.mining_server = mining_server
        super().__init__(address, handler)


class _ConnectionHandler(socketserver.BaseRequestHandler):
    """One thread per client connection: framing loop + reply writing."""

    def handle(self) -> None:  # pragma: no cover - exercised via sockets
        server = self.server.mining_server
        sock = self.request
        sock.settimeout(_POLL_SECONDS)
        buffer = b""
        while True:
            if server.stopping and not buffer:
                return
            try:
                chunk = sock.recv(1 << 16)
            except socket.timeout:
                continue
            except OSError:
                return
            if not chunk:
                return
            buffer += chunk
            if len(buffer) > server.max_frame_bytes:
                reply = error_reply(
                    None,
                    ServiceError(
                        "bad-request",
                        f"request frame exceeds {server.max_frame_bytes} bytes",
                    ),
                )
                self._send(sock, encode_line(reply))
                return
            while b"\n" in buffer:
                line, buffer = buffer.split(b"\n", 1)
                if not line.strip():
                    continue
                reply_bytes = encode_line(server.handle_line(line))
                # Fault-injection sites of the reply path (no-ops unless a
                # FaultPlan is active): a dropped connection discards the
                # whole reply with an RST; a truncated frame flushes half a
                # line then aborts — both exercise the client's typed
                # connection-lost handling end to end.
                if faults.fire("socket-drop"):
                    self._abort(sock)
                    return
                if faults.fire("socket-truncate"):
                    self._send(sock, reply_bytes[: max(1, len(reply_bytes) // 2)])
                    self._abort(sock)
                    return
                if not self._send(sock, reply_bytes):
                    return
                if server.stopping:
                    return

    @staticmethod
    def _send(sock, payload: bytes) -> bool:
        try:
            sock.sendall(payload)
            return True
        except OSError:
            return False

    @staticmethod
    def _abort(sock) -> None:
        """Hard-close: SO_LINGER(on, 0) turns close() into an RST, so the
        client sees an immediate reset instead of an orderly EOF."""
        try:
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
        except OSError:
            pass
        try:
            sock.close()
        except OSError:
            pass


class MiningServer:
    """A long-lived, multi-tenant frequent-itemset mining server.

    Parameters (each ``None`` falls back to its ``REPRO_SERVICE_*`` knob,
    then to the documented default):

    Args:
        host: Bind address (default ``127.0.0.1``).
        port: Bind port; ``0`` picks an ephemeral port, readable from
            :attr:`address` after :meth:`start`.
        max_workers: Concurrently executing heavy requests.
        max_queue: Heavy requests allowed to *wait* for a worker; beyond
            ``max_workers + max_queue`` in flight, requests are rejected
            with a structured ``overloaded`` error.
        timeout_seconds: Per-request execution ceiling.  A request may ask
            for less via ``params.timeout_seconds`` but never more.
        max_frame_bytes: Largest accepted request frame; oversize frames
            get a structured ``bad-request`` reply and the connection is
            closed.  Capped at the protocol's ``MAX_LINE_BYTES``.
        registry: Shared :class:`DatasetRegistry` (one is built otherwise).
        result_cache: Shared :class:`ResultCache` (one is built otherwise).
        use_cache: Master switch for result caching (per-request
            ``params.cache: false`` opts out of both lookup and store).
    """

    def __init__(
        self,
        host: Optional[str] = None,
        port: Optional[int] = None,
        max_workers: Optional[int] = None,
        max_queue: Optional[int] = None,
        timeout_seconds: Optional[float] = None,
        max_frame_bytes: Optional[int] = None,
        registry: Optional[DatasetRegistry] = None,
        result_cache: Optional[ResultCache] = None,
        use_cache: bool = True,
    ) -> None:
        self.host = host if host is not None else _env_str(HOST_ENV, DEFAULT_HOST)
        self.port = int(port) if port is not None else _env_int(PORT_ENV, DEFAULT_PORT)
        self.max_workers = (
            int(max_workers)
            if max_workers is not None
            else _env_int(WORKERS_ENV, DEFAULT_WORKERS)
        )
        self.max_queue = (
            int(max_queue) if max_queue is not None else _env_int(QUEUE_ENV, DEFAULT_QUEUE)
        )
        if self.max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {self.max_workers}")
        if self.max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {self.max_queue}")
        self.timeout_seconds = (
            float(timeout_seconds)
            if timeout_seconds is not None
            else _env_float(TIMEOUT_ENV, DEFAULT_TIMEOUT_SECONDS)
        )
        self.max_frame_bytes = min(
            int(max_frame_bytes)
            if max_frame_bytes is not None
            else _env_int(MAX_FRAME_ENV, MAX_LINE_BYTES),
            MAX_LINE_BYTES,
        )
        if self.max_frame_bytes < 1:
            raise ValueError(
                f"max_frame_bytes must be >= 1, got {self.max_frame_bytes}"
            )
        self.registry = registry if registry is not None else DatasetRegistry()
        self.result_cache = result_cache if result_cache is not None else ResultCache()
        self.use_cache = bool(use_cache)

        self._admission = threading.Semaphore(self.max_workers + self.max_queue)
        self._stopping = threading.Event()
        self._stopped = threading.Event()
        self._close_lock = threading.Lock()
        self._tcp: Optional[_ServiceTCPServer] = None
        self._serve_thread: Optional[threading.Thread] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._started_at = 0.0
        self._counter_lock = threading.Lock()
        self.requests_served = 0
        self.requests_rejected = 0
        self.requests_timed_out = 0
        self.requests_failed = 0
        #: heavy requests currently holding an admission slot (executing
        #: or queued for a worker) — the ``health`` op's queue-depth gauge
        self._in_flight = 0

    # -- lifecycle ---------------------------------------------------------------
    @property
    def stopping(self) -> bool:
        return self._stopping.is_set()

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — call after :meth:`start`."""
        if self._tcp is None:
            raise RuntimeError("server is not started")
        return self._tcp.server_address[:2]

    def start(self) -> "MiningServer":
        """Bind the socket and start serving in a background thread."""
        if self._tcp is not None:
            raise RuntimeError("server is already started")
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="repro-service"
        )
        self._tcp = _ServiceTCPServer(
            (self.host, self.port), _ConnectionHandler, self
        )
        self._serve_thread = threading.Thread(
            target=self._tcp.serve_forever,
            kwargs={"poll_interval": _POLL_SECONDS},
            name="repro-service-accept",
        )
        self._serve_thread.start()
        self._started_at = time.monotonic()
        return self

    def close(self) -> None:
        """Graceful shutdown: drain in-flight requests, join every thread."""
        with self._close_lock:
            if self._tcp is None or self._stopped.is_set():
                self._stopped.set()
                return
            self._stopping.set()
            self._tcp.shutdown()
            self._serve_thread.join()
            # server_close() joins the per-connection threads: every
            # in-flight request finishes and replies before this returns.
            self._tcp.server_close()
            self._executor.shutdown(wait=True)
            self._stopped.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the server has fully shut down (the CLI's foreground)."""
        return self._stopped.wait(timeout)

    def __enter__(self) -> "MiningServer":
        if self._tcp is None:
            self.start()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # -- request plumbing --------------------------------------------------------
    def handle_line(self, line: bytes) -> Dict[str, Any]:
        """Decode one framed request and produce exactly one reply document."""
        request_id: Any = None
        try:
            document = decode_line(line)
            request_id = document.get("id")
            op = document.get("op")
            if not isinstance(op, str):
                raise ServiceError("malformed-request", "request carries no op")
            params = document.get("params", {})
            if not isinstance(params, dict):
                raise ServiceError("malformed-request", "params must be an object")
            result = self._dispatch(op, params)
            with self._counter_lock:
                self.requests_served += 1
            return ok_reply(request_id, result)
        except ServiceError as error:
            self._count_error(error)
            return error_reply(request_id, error)
        except Exception as error:  # noqa: BLE001 - the never-hang backstop
            internal = ServiceError("internal", f"{type(error).__name__}: {error}")
            self._count_error(internal)
            return error_reply(request_id, internal)

    def _count_error(self, error: ServiceError) -> None:
        with self._counter_lock:
            self.requests_failed += 1
            if error.type == "overloaded":
                self.requests_rejected += 1
            elif error.type == "timeout":
                self.requests_timed_out += 1

    def _dispatch(self, op: str, params: Dict[str, Any]) -> Dict[str, Any]:
        if self.stopping:
            raise ServiceError("shutting-down", "server is shutting down")
        heavy = op in _HEAVY_OPS or (
            op == "ping" and float(params.get("delay_seconds", 0.0) or 0.0) > 0.0
        )
        if not heavy:
            return self._run_op(op, params)
        if not self._admission.acquire(blocking=False):
            raise ServiceError(
                "overloaded",
                f"admission limit reached ({self.max_workers} executing + "
                f"{self.max_queue} queued); retry later",
                retry_after_seconds=_OVERLOAD_RETRY_AFTER_SECONDS,
            )
        with self._counter_lock:
            self._in_flight += 1
        try:
            future = self._executor.submit(self._run_op, op, params)
        except RuntimeError:
            self._release_slot()
            raise ServiceError("shutting-down", "server is shutting down") from None
        future.add_done_callback(lambda _f: self._release_slot())
        timeout = self.timeout_seconds
        requested = params.get("timeout_seconds")
        if requested is not None:
            timeout = min(timeout, float(requested))
        try:
            return future.result(timeout=timeout)
        except FutureTimeout:
            future.cancel()
            raise ServiceError(
                "timeout", f"request exceeded {timeout:.3f}s"
            ) from None

    def _run_op(self, op: str, params: Dict[str, Any]) -> Dict[str, Any]:
        if op == "ping":
            delay = float(params.get("delay_seconds", 0.0) or 0.0)
            if delay > 0.0:
                time.sleep(delay)
            return {"pong": True, "delayed_seconds": delay}
        if op == "list":
            return {
                "datasets": self.registry.describe()["datasets"],
                "algorithms": _algorithm_listing(),
            }
        if op == "register":
            return self._op_register(params)
        if op == "unregister":
            name = _require_str(params, "dataset")
            return {"removed": self.registry.unregister(name)}
        if op == "stats":
            return self._op_stats()
        if op == "health":
            return self._op_health()
        if op == "mine":
            return self._op_mine(params)
        if op == "mine-topk":
            return self._op_mine_topk(params)
        if op == "shutdown":
            self._begin_stop()
            return {"stopping": True}
        raise ServiceError("unknown-op", f"unknown op {op!r}")

    def _begin_stop(self) -> None:
        self._stopping.set()
        threading.Thread(target=self.close, name="repro-service-closer").start()

    # -- ops ---------------------------------------------------------------------
    def _op_register(self, params: Dict[str, Any]) -> Dict[str, Any]:
        name = _require_str(params, "name")
        spec = {key: value for key, value in params.items() if key != "name"}
        if "kind" not in spec:
            # Infer the spec kind from the parameter shape, so simple
            # clients can say {"name": ..., "dataset": "accident"}.
            if "dataset" in spec:
                spec["kind"] = "benchmark"
            elif "directory" in spec:
                spec["kind"] = "store"
            elif "records" in spec:
                spec["kind"] = "inline"
            elif "path" in spec:
                spec["kind"] = "file"
            else:
                raise ServiceError(
                    "bad-params",
                    "register needs one of dataset/directory/records/path",
                )
        handle = self.registry.register(name, spec)
        return handle.describe()

    def _release_slot(self) -> None:
        with self._counter_lock:
            self._in_flight -= 1
        self._admission.release()

    def _op_stats(self) -> Dict[str, Any]:
        with self._counter_lock:
            counters = {
                "served": self.requests_served,
                "failed": self.requests_failed,
                "rejected": self.requests_rejected,
                "timed_out": self.requests_timed_out,
            }
        return {
            "registry": self.registry.describe(),
            "result_cache": self.result_cache.describe(),
            "requests": counters,
            "faults": faults.fault_counters(),
            "max_workers": self.max_workers,
            "max_queue": self.max_queue,
            "uptime_seconds": (
                time.monotonic() - self._started_at if self._started_at else 0.0
            ),
        }

    def _op_health(self) -> Dict[str, Any]:
        """Degraded-state report: cheap gauges a load balancer can poll.

        Deliberately a *light* op — it answers even when every worker slot
        is saturated (the condition it exists to report).
        """
        with self._counter_lock:
            in_flight = self._in_flight
            rejected = self.requests_rejected
            timed_out = self.requests_timed_out
        queue_depth = max(0, in_flight - self.max_workers)
        registry = self.registry.describe()
        reasons = []
        if self.stopping:
            reasons.append("shutting down")
        if in_flight >= self.max_workers + self.max_queue:
            reasons.append("admission saturated")
        elif queue_depth > 0:
            reasons.append("requests queued")
        return {
            "status": "degraded" if reasons else "ok",
            "reasons": reasons,
            "in_flight": in_flight,
            "queue_depth": queue_depth,
            "max_workers": self.max_workers,
            "max_queue": self.max_queue,
            "rejected": rejected,
            "timed_out": timed_out,
            "registry_rebuilds": registry.get("rebuilds", 0),
            "store_rebuilds": registry.get("store_rebuilds", 0),
            "fault_evictions": registry.get("fault_evictions", 0),
            "cache_evictions": self.result_cache.describe().get("evictions", 0),
            "faults": faults.fault_counters(),
        }

    def _materialize_request_plan(self, params: Dict[str, Any]) -> ExecutionPlan:
        """Resolve the request's execution plan to concrete knobs, server-side.

        The returned plan is fully specified, so passing it into the miner
        pins every knob through a thread-local scope — concurrent requests
        with different plans never observe each other's configuration (no
        process-global state is touched), and the resolved bitwise-relevant
        knobs are available up front for the cache key.  Mining is serial:
        a request naming ``workers`` or ``shards`` is refused, like a plan
        naming them, rather than served as if it had not asked.
        """
        for key in ("workers", "shards"):
            if key in params:
                raise ServiceError(
                    "bad-params", f"params.{key} is not supported: mining is serial"
                )
        try:
            return materialize_plan(params.get("plan"))
        except (TypeError, ValueError, KeyError) as error:
            raise ServiceError("bad-params", f"invalid plan: {error}") from None

    def _op_mine(self, params: Dict[str, Any]) -> Dict[str, Any]:
        name = _require_str(params, "dataset")
        algorithm = str(params.get("algorithm", "uapriori"))
        try:
            info = get_algorithm(algorithm)
        except KeyError as error:
            raise ServiceError("unknown-algorithm", str(error)) from None
        handle, database = self.registry.checkout(name)
        exec_plan = self._materialize_request_plan(params)
        use_cache = self.use_cache and bool(params.get("cache", True))

        try:
            if info.family == "expected":
                min_esup = float(params.get("min_esup", 0.5))
                min_sup = None
                pft = 0.9
            else:
                min_esup = None
                min_sup = float(params.get("min_sup", 0.5))
                pft = float(params.get("pft", 0.9))
            cache_plan = plan_mine(
                handle.name,
                handle.revision,
                info.name,
                info.family,
                len(database),
                min_esup,
                min_sup,
                pft,
                conv_span=exec_plan.conv_span,
            )
        except (TypeError, ValueError) as error:
            raise ServiceError("bad-params", f"invalid thresholds: {error}") from None

        statistics = None
        cached = self.result_cache.fetch_mine(cache_plan) if use_cache else None
        if cached is not None:
            records, status = cached
        else:
            status = "miss" if use_cache else "off"
            try:
                if info.family == "expected":
                    result = mine(
                        database,
                        algorithm=info.name,
                        min_esup=min_esup,
                        plan=exec_plan,
                    )
                else:
                    result = mine(
                        database,
                        algorithm=info.name,
                        min_sup=min_sup,
                        pft=pft,
                        plan=exec_plan,
                    )
            except (TypeError, ValueError) as error:
                raise ServiceError("bad-params", str(error)) from None
            records = EncodedRecords(result.itemsets)
            statistics = encode_statistics(result.statistics)
            if use_cache:
                self.result_cache.store_mine(cache_plan, records)

        limit = params.get("limit")
        shown = records
        if limit is not None and int(limit) < len(records):
            shown = EncodedRecords(records[: int(limit)])
        return {
            "dataset": handle.name,
            "revision": handle.revision,
            "algorithm": info.name,
            "n": len(records),
            "cache": status,
            "plan": exec_plan.to_dict(),
            "itemsets": shown,
            "truncated": len(shown) < len(records),
            "statistics": statistics,
        }

    def _op_mine_topk(self, params: Dict[str, Any]) -> Dict[str, Any]:
        name = _require_str(params, "dataset")
        algorithm = str(params.get("algorithm", "uapriori"))
        try:
            evaluator = resolve_evaluator(algorithm)
        except KeyError as error:
            raise ServiceError("unknown-algorithm", str(error)) from None
        ranking = ranking_of(evaluator)
        try:
            k = int(params["k"])
        except (KeyError, TypeError, ValueError):
            raise ServiceError("bad-params", "mine-topk requires an integer k") from None
        if k < 1:
            raise ServiceError("bad-params", f"k must be >= 1, got {k}")
        handle, database = self.registry.checkout(name)
        exec_plan = self._materialize_request_plan(params)
        use_cache = self.use_cache and bool(params.get("cache", True))

        min_sup: Optional[float] = None
        if ranking == "probability":
            min_sup = float(params.get("min_sup", 0.3))
        group = plan_topk(
            handle.name,
            handle.revision,
            evaluator,
            ranking,
            len(database),
            min_sup,
            conv_span=exec_plan.conv_span,
        )

        statistics = None
        cached = self.result_cache.fetch_topk(group, k) if use_cache else None
        if cached is not None:
            records, status = cached
        else:
            status = "miss" if use_cache else "off"
            try:
                result = mine_topk(
                    database,
                    k,
                    algorithm=evaluator,
                    min_sup=min_sup,
                    plan=exec_plan,
                )
            except (TypeError, ValueError) as error:
                raise ServiceError("bad-params", str(error)) from None
            records = EncodedRecords(result.itemsets)
            statistics = encode_statistics(result.statistics)
            if use_cache:
                self.result_cache.store_topk(group, k, records)

        return {
            "dataset": handle.name,
            "revision": handle.revision,
            "evaluator": evaluator,
            "ranking": ranking,
            "k": k,
            "n": len(records),
            "cache": status,
            "plan": exec_plan.to_dict(),
            "itemsets": records,
            "statistics": statistics,
        }


def _require_str(params: Dict[str, Any], key: str) -> str:
    value = params.get(key)
    if not isinstance(value, str) or not value:
        raise ServiceError("bad-params", f"params.{key} must be a non-empty string")
    return value


def _algorithm_listing() -> list:
    from ..core.registry import algorithm_names

    listing = []
    for name in algorithm_names():
        info = get_algorithm(name)
        listing.append(
            {"name": info.name, "family": info.family, "description": info.description}
        )
    return listing
