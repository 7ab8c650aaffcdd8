"""A blocking Python client for the mining service.

One client wraps one TCP connection and issues requests sequentially
(request ``id``s are still attached and checked, so a desynchronised
stream fails loudly instead of silently mismatching).  Thin by design:
every method is one :meth:`MiningClient.call` with the op's params, and
error replies surface as :class:`~repro.service.protocol.ServiceError`
with the server's error type intact.

**Every failure is structured.**  Transport failures — refused connects,
connections reset mid-request, truncated or garbled reply frames — raise
``ServiceError`` with the client-minted ``connection-lost`` type rather
than leaking raw ``ConnectionResetError`` / JSON decode errors, so a
caller handles one exception shape for every way a request can die.

**Retry policy.**  The client retries with exponential backoff + jitter:

* *connect failures* — nothing was sent, so any op retries;
* *mid-request connection loss* — only **idempotent** ops retry (mining
  and introspection; ``register``/``unregister``/``shutdown`` may have
  executed, so they surface the error after one attempt);
* *overloaded rejections* — the request never entered the worker pool, so
  any op retries, sleeping the server's ``retry_after_seconds`` hint when
  one is attached instead of the local backoff guess.

>>> from repro.service import MiningServer, MiningClient  # doctest: +SKIP
>>> with MiningServer(max_workers=2) as server:           # doctest: +SKIP
...     with MiningClient(*server.address) as client:
...         client.register("toy", dataset="t10i4d100k", scale=0.001)
...         reply = client.mine("toy", algorithm="uapriori", min_esup=0.3)
"""

from __future__ import annotations

import itertools
import random
import socket
import time
from typing import Any, Dict, Optional

from .protocol import (
    ERROR_TYPES,
    MAX_LINE_BYTES,
    ServiceError,
    decode_line,
    encode_line,
)

__all__ = ["MiningClient"]

#: ops safe to resubmit after a mid-request connection loss: read-only or
#: deterministic-result requests whose double execution is observably
#: identical to a single one
_IDEMPOTENT_OPS = frozenset(
    {"ping", "list", "stats", "health", "mine", "mine-topk"}
)


class MiningClient:
    """Socket client speaking the newline-delimited JSON protocol.

    Args:
        host: Server address.
        port: Server port (take both from ``MiningServer.address``).
        timeout_seconds: Socket timeout applied to connect and to every
            reply read.  Keep it above the server's per-request timeout so
            the server-side ``timeout`` error (a structured reply) arrives
            before the client-side socket gives up.
        retries: Extra attempts after a retryable failure (see the module
            docstring for what retries when).  ``0`` disables retrying.
        backoff_seconds: Base of the exponential backoff between attempts
            (``backoff * 2**n``, capped at ``backoff_cap_seconds``); an
            ``overloaded`` reply's ``retry_after_seconds`` hint overrides
            the computed delay.
        jitter_seconds: Upper bound of the uniform random jitter added to
            every backoff sleep (desynchronises retry storms from clients
            that failed together; pass ``0`` for deterministic tests).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout_seconds: float = 60.0,
        retries: int = 2,
        backoff_seconds: float = 0.05,
        backoff_cap_seconds: float = 2.0,
        jitter_seconds: float = 0.02,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout_seconds = float(timeout_seconds)
        self.retries = int(retries)
        self.backoff_seconds = float(backoff_seconds)
        self.backoff_cap_seconds = float(backoff_cap_seconds)
        self.jitter_seconds = float(jitter_seconds)
        #: transport/overload retries performed over this client's lifetime
        self.retries_performed = 0
        self._sock: Optional[socket.socket] = None
        self._buffer = b""
        self._ids = itertools.count(1)

    # -- connection --------------------------------------------------------------
    def connect(self) -> "MiningClient":
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout_seconds
            )
        return self

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None
                self._buffer = b""

    def __enter__(self) -> "MiningClient":
        return self.connect()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # -- core request/reply ------------------------------------------------------
    def call(
        self,
        op: str,
        params: Optional[Dict[str, Any]] = None,
        timeout_seconds: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Issue one request (retrying per policy), return the reply ``result``.

        Raises:
            ServiceError: The server replied with a structured error (its
                ``type`` — and ``retry_after_seconds`` hint, when present —
                are preserved), or the transport failed in a way the retry
                policy does not cover, surfacing as ``connection-lost``.
        """
        attempt = 0
        while True:
            try:
                return self._call_once(op, params, timeout_seconds)
            except ServiceError as error:
                if attempt >= self.retries or not self._retryable(op, error):
                    raise
                delay = error.retry_after_seconds
                if delay is None:
                    delay = min(
                        self.backoff_cap_seconds,
                        self.backoff_seconds * (2 ** attempt),
                    )
                if self.jitter_seconds > 0:
                    delay += random.uniform(0.0, self.jitter_seconds)
                time.sleep(delay)
                attempt += 1
                self.retries_performed += 1

    @staticmethod
    def _retryable(op: str, error: ServiceError) -> bool:
        if error.type == "overloaded":
            # Rejected at admission — never executed, safe for any op.
            return True
        if error.type != "connection-lost":
            return False
        # getattr: connection-lost errors minted by _call_once carry the
        # sent flag; one decoded from a server reply (never happens today)
        # conservatively counts as sent.
        if not getattr(error, "request_sent", True):
            return True
        return op in _IDEMPOTENT_OPS

    def _call_once(
        self,
        op: str,
        params: Optional[Dict[str, Any]],
        timeout_seconds: Optional[float],
    ) -> Dict[str, Any]:
        try:
            self.connect()
        except OSError as oserror:
            self._sock = None
            error = ServiceError(
                "connection-lost",
                f"connect to {self.host}:{self.port} failed: {oserror}",
            )
            error.request_sent = False
            raise error from None
        request_id = next(self._ids)
        document = {"id": request_id, "op": op, "params": params or {}}
        try:
            self._sock.sendall(encode_line(document))
            if timeout_seconds is not None:
                self._sock.settimeout(timeout_seconds)
            try:
                reply = decode_line(self._read_line())
            finally:
                if timeout_seconds is not None and self._sock is not None:
                    self._sock.settimeout(self.timeout_seconds)
        except ServiceError as decode_error:
            # decode_line failed: the reply frame arrived garbled or cut
            # short (a dying server flushed half a line).  The stream is
            # unusable — drop the connection and surface the typed loss.
            self.close()
            error = ServiceError(
                "connection-lost",
                f"reply was truncated or corrupt: {decode_error.message}",
            )
            error.request_sent = True
            raise error from None
        except (ConnectionError, OSError) as oserror:
            self.close()
            error = ServiceError(
                "connection-lost",
                f"connection failed mid-request: {oserror or type(oserror).__name__}",
            )
            error.request_sent = True
            raise error from None
        reply_id = reply.get("id")
        if reply_id != request_id:
            if reply_id is None and not reply.get("ok"):
                # A connection-scoped error (oversize frame, garbled line):
                # the server could not attribute it to a request id and
                # closes the connection after sending it.  It answers the
                # in-flight request.
                self.close()
                raise self._reply_error(reply)
            self.close()
            error = ServiceError(
                "connection-lost",
                f"reply id {reply_id!r} does not match request "
                f"{request_id} (stream desynchronised)",
            )
            error.request_sent = True
            raise error
        if reply.get("ok"):
            return reply.get("result", {})
        raise self._reply_error(reply)

    @staticmethod
    def _reply_error(reply: Dict[str, Any]) -> ServiceError:
        """Rebuild the server's structured error from an error reply."""
        payload = reply.get("error") or {}
        error_type = payload.get("type", "internal")
        if error_type not in ERROR_TYPES:  # a newer server's vocabulary
            error_type = "internal"
        return ServiceError(
            error_type,
            payload.get("message", "unknown error"),
            payload.get("retry_after_seconds"),
        )

    def _read_line(self) -> bytes:
        while b"\n" not in self._buffer:
            if len(self._buffer) > MAX_LINE_BYTES:
                raise ConnectionError("reply line exceeds protocol maximum")
            chunk = self._sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the connection mid-reply")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line

    # -- convenience ops ---------------------------------------------------------
    def ping(self, delay_seconds: float = 0.0, **params) -> Dict[str, Any]:
        return self.call("ping", {"delay_seconds": delay_seconds, **params})

    def register(self, name: str, **spec) -> Dict[str, Any]:
        """Register a dataset; see :meth:`DatasetRegistry.register` for specs."""
        return self.call("register", {"name": name, **spec})

    def unregister(self, name: str) -> bool:
        return bool(self.call("unregister", {"dataset": name}).get("removed"))

    def list(self) -> Dict[str, Any]:
        return self.call("list")

    def stats(self) -> Dict[str, Any]:
        return self.call("stats")

    def health(self) -> Dict[str, Any]:
        """Degraded-state report: queue depth, rebuilds, fault counters."""
        return self.call("health")

    def mine(self, dataset: str, **params) -> Dict[str, Any]:
        return self.call("mine", {"dataset": dataset, **params})

    def mine_topk(self, dataset: str, k: int, **params) -> Dict[str, Any]:
        return self.call("mine-topk", {"dataset": dataset, "k": int(k), **params})

    def shutdown(self) -> Dict[str, Any]:
        return self.call("shutdown")
