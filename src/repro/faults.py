"""Deterministic, seeded fault injection: the chaos layer of the stack.

Production behaviour under faults must be *measured*, not assumed — but a
fault that fires at a random moment produces unreproducible test failures.
This module makes every injected fault deterministic: a :class:`FaultPlan`
names injection **sites** and, per site, a firing **rule** that depends
only on the plan seed and the site's probe counter — never on wall-clock
time or object identity.  Running the same workload under the same plan
fires the same faults at the same probes, so a chaos failure reproduces
exactly.

**Sites.**  Each site is a named probe point compiled into the layer it
exercises (the probe is a no-op unless a plan is active):

===================  ==============================================================
``socket-drop``      the server closes a connection (RST) instead of replying
``socket-truncate``  the server sends half the reply bytes, then closes
``store-corrupt``    :meth:`~repro.db.store.ColumnarStore.open` flips one byte
                     of the ``probs.bin`` plane on disk before returning
``registry-evict``   :meth:`~repro.service.registry.DatasetRegistry.checkout`
                     drops every warm payload first (an eviction storm)
===================  ==============================================================

**Plans.**  A plan is a comma-separated spec (the ``REPRO_FAULTS``
environment variable, the ``faults`` :class:`~repro.plan.spec.ExecutionPlan`
knob, or :func:`install_faults`)::

    REPRO_FAULTS="seed=7,store-corrupt=@1,socket-drop=0.1"

Per-site triggers are either **probe indices** (``@1`` = the site's first
probe; ``@1+3`` = its first and third) or a **rate** in ``[0, 1]`` — rate
firing hashes ``(seed, site, probe index)`` through BLAKE2, so a 10% rate
fires on the *same* 10% of probes every run.  ``seed=N`` reseeds every
rate.

**State.**  Probe/fired counters live on a process-global
:class:`FaultInjector`, one per distinct active spec, so a long-lived
server accumulates fault counters across requests (surfaced by the
``health``/``stats`` ops).  The resolution order for the active spec is
:func:`install_faults` > the ``faults`` plan knob (scope > ``REPRO_FAULTS``
environment > off).

>>> plan = FaultPlan.parse("seed=3,socket-drop=@2")
>>> injector = FaultInjector(plan)
>>> [injector.probe("socket-drop") for _ in range(3)]
[False, True, False]
>>> injector.counters()["socket-drop"]
{'probes': 3, 'fired': 1}
"""

from __future__ import annotations

import hashlib
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, Mapping, Optional, Tuple, Union

__all__ = [
    "FAULTS_ENV",
    "SITES",
    "FaultPlan",
    "FaultRule",
    "FaultInjector",
    "active_injector",
    "clear_faults",
    "corrupt_store_plane",
    "fault_counters",
    "fire",
    "faults_active",
    "install_faults",
]

#: environment variable supplying the default fault plan spec
FAULTS_ENV = "REPRO_FAULTS"

#: the closed vocabulary of injection sites
SITES = (
    "socket-drop",
    "socket-truncate",
    "store-corrupt",
    "registry-evict",
)

@dataclass(frozen=True)
class FaultRule:
    """When one site fires: fixed probe indices, a seeded rate, or both."""

    rate: float = 0.0
    probes: FrozenSet[int] = frozenset()

    def fires_at(self, seed: int, site: str, probe: int) -> bool:
        if probe in self.probes:
            return True
        if self.rate <= 0.0:
            return False
        return _hash01(seed, site, probe) < self.rate


def _hash01(seed: int, site: str, probe: int) -> float:
    """A stable hash of ``(seed, site, probe)`` mapped into ``[0, 1)``.

    BLAKE2 rather than ``hash()``: Python string hashing is salted per
    process (PYTHONHASHSEED), which would make rate-based firing
    unreproducible across runs — the one thing this module exists to
    prevent.
    """
    digest = hashlib.blake2b(
        f"{seed}:{site}:{probe}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / float(1 << 64)


def _parse_trigger(site: str, raw: str) -> FaultRule:
    raw = raw.strip()
    if raw.startswith("@"):
        try:
            probes = frozenset(int(token) for token in raw[1:].split("+"))
        except ValueError:
            raise ValueError(
                f"bad probe list {raw!r} for fault site {site!r}: "
                "expected '@i' or '@i+j+...'"
            ) from None
        if any(probe < 1 for probe in probes):
            raise ValueError(f"fault probe indices are 1-based, got {raw!r}")
        return FaultRule(probes=probes)
    try:
        rate = float(raw)
    except ValueError:
        raise ValueError(
            f"bad trigger {raw!r} for fault site {site!r}: "
            "expected a rate in [0, 1] or a '@i' probe list"
        ) from None
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"fault rate for {site!r} must be in [0, 1], got {rate}")
    return FaultRule(rate=rate)


@dataclass(frozen=True)
class FaultPlan:
    """A parsed, immutable fault-injection schedule."""

    seed: int = 0
    rules: Mapping[str, FaultRule] = field(default_factory=dict)
    spec: str = ""

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a ``seed=N,site=trigger,...`` spec (see the module docstring).

        >>> plan = FaultPlan.parse("seed=9,store-corrupt=@1,socket-drop=0.25")
        >>> plan.seed, sorted(plan.rules)
        (9, ['socket-drop', 'store-corrupt'])
        >>> FaultPlan.parse("teleport=1")
        Traceback (most recent call last):
            ...
        ValueError: unknown fault site 'teleport' (known: registry-evict, seed, socket-drop, socket-truncate, store-corrupt)
        """
        seed = 0
        rules: Dict[str, FaultRule] = {}
        # ';' is an alternate token separator so a whole fault spec can ride
        # inside one comma-separated REPRO_PLAN token ("faults=seed=1;...").
        for token in str(spec).replace(";", ",").split(","):
            token = token.strip()
            if not token:
                continue
            name, eq, raw = token.partition("=")
            if not eq and "@" in token:
                # 'site@3' shorthand for 'site=@3'.
                name, _, raw = token.partition("@")
                raw, eq = "@" + raw, "@"
            name = name.strip()
            if not eq:
                raise ValueError(
                    f"bad fault spec token {token!r}: expected 'name=value'"
                )
            if name == "seed":
                seed = int(raw)
            elif name in SITES:
                rules[name] = _parse_trigger(name, raw)
            else:
                known = ", ".join(sorted(SITES + ("seed",)))
                raise ValueError(f"unknown fault site {name!r} (known: {known})")
        return cls(seed=seed, rules=rules, spec=str(spec).strip())

    def is_empty(self) -> bool:
        return not self.rules


class FaultInjector:
    """Stateful probe counters over one :class:`FaultPlan` (thread-safe).

    One injector instance accumulates counters for the lifetime of its
    plan's activation — across requests and connections — which is
    what makes fault activity observable from the service ``health`` op.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._probes: Dict[str, int] = {site: 0 for site in SITES}
        self._fired: Dict[str, int] = {site: 0 for site in SITES}

    def probe(self, site: str) -> bool:
        """Register one probe of ``site``; True when the fault fires."""
        if site not in self._probes:
            raise ValueError(f"unknown fault site {site!r} (known: {SITES})")
        rule = self.plan.rules.get(site)
        with self._lock:
            self._probes[site] += 1
            count = self._probes[site]
            fired = rule is not None and rule.fires_at(self.plan.seed, site, count)
            if fired:
                self._fired[site] += 1
        return fired

    def counters(self) -> Dict[str, Dict[str, int]]:
        """Per-site ``{"probes": n, "fired": m}`` — only sites ever probed."""
        with self._lock:
            return {
                site: {"probes": self._probes[site], "fired": self._fired[site]}
                for site in SITES
                if self._probes[site] or site in self.plan.rules
            }

    def total_fired(self) -> int:
        with self._lock:
            return sum(self._fired.values())


# -- activation ------------------------------------------------------------------------

#: explicitly installed injector (install_faults); beats the resolved knob
_INSTALLED: Optional[FaultInjector] = None
#: per-spec injector cache so knob/env-resolved plans keep their counters
_BY_SPEC: Dict[str, FaultInjector] = {}
_STATE_LOCK = threading.Lock()


def install_faults(plan: Union[str, FaultPlan]) -> FaultInjector:
    """Activate ``plan`` process-wide (all threads) until :func:`clear_faults`.

    The explicit activation path for tests and the ``serve --faults`` flag;
    it takes precedence over the ``faults`` plan knob and ``REPRO_FAULTS``.
    """
    global _INSTALLED
    if not isinstance(plan, FaultPlan):
        plan = FaultPlan.parse(plan)
    injector = FaultInjector(plan)
    with _STATE_LOCK:
        _INSTALLED = injector
    return injector


def clear_faults() -> None:
    """Deactivate any installed plan and forget per-spec counter state."""
    global _INSTALLED
    with _STATE_LOCK:
        _INSTALLED = None
        _BY_SPEC.clear()


@contextmanager
def faults_active(plan: Union[str, FaultPlan]) -> Iterator[FaultInjector]:
    """Scoped :func:`install_faults` (process-wide while the block runs)."""
    injector = install_faults(plan)
    try:
        yield injector
    finally:
        clear_faults()


def active_injector() -> Optional[FaultInjector]:
    """The injector of the currently active fault plan, or ``None``.

    Explicitly installed plans win; otherwise the ``faults`` knob resolves
    through the standard plan pipeline (scope > ``REPRO_FAULTS`` env), and
    the injector is cached per distinct spec so counters persist across
    calls.  With no plan anywhere this is two dictionary lookups — the
    happy-path overhead of a compiled-in probe site.
    """
    installed = _INSTALLED
    if installed is not None:
        return installed
    if not os.environ.get(FAULTS_ENV, "").strip() and not _scoped_spec_possible():
        return None
    from .plan.spec import resolve_knob

    spec = str(resolve_knob("faults") or "").strip()
    if not spec:
        return None
    injector = _BY_SPEC.get(spec)
    if injector is None:
        with _STATE_LOCK:
            injector = _BY_SPEC.get(spec)
            if injector is None:
                injector = FaultInjector(FaultPlan.parse(spec))
                _BY_SPEC[spec] = injector
    return injector


def _scoped_spec_possible() -> bool:
    """Whether a plan scope (or ``REPRO_PLAN``) could carry a faults spec."""
    from .plan.spec import PLAN_ENV, active_plan

    scope = active_plan()
    if scope is not None and scope.faults:
        return True
    return bool(os.environ.get(PLAN_ENV, "").strip())


def fire(site: str) -> bool:
    """Probe ``site`` against the active plan; False when no plan is active."""
    injector = active_injector()
    if injector is None:
        return False
    return injector.probe(site)


def fault_counters() -> Dict[str, Dict[str, int]]:
    """Counters of the active injector (empty dict when faults are off)."""
    injector = active_injector()
    return injector.counters() if injector is not None else {}


# -- deterministic store corruption ----------------------------------------------------


def corrupt_store_plane(
    directory: str, plane: str = "probs", seed: int = 0
) -> Tuple[str, int]:
    """Flip one deterministic byte of a store plane file, in place.

    The corruption tool of the chaos suite and the CI smoke: the byte
    offset is ``_hash01``-derived from ``seed``, so the same call corrupts
    the same byte every run.  Returns ``(path, offset)``.  The manifest is
    untouched — the store still *opens*; only checksum verification
    (:meth:`~repro.db.store.ColumnarStore.verify`) can tell.
    """
    from .db.store import _PLANE_FILES

    filename = _PLANE_FILES.get(plane)
    if filename is None:
        raise ValueError(f"unknown store plane {plane!r} (known: {sorted(_PLANE_FILES)})")
    path = os.path.join(os.fspath(directory), filename)
    size = os.path.getsize(path)
    if size == 0:
        raise ValueError(f"cannot corrupt empty plane file {path!r}")
    offset = int(_hash01(seed, f"corrupt:{plane}", 1) * size) % size
    with open(path, "r+b") as handle:
        handle.seek(offset)
        original = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([original[0] ^ 0xFF]))
    return path, offset


def maybe_corrupt_store(directory: str) -> bool:
    """The ``store-corrupt`` injection site (probed by ``ColumnarStore.open``)."""
    injector = active_injector()
    if injector is None or not injector.probe("store-corrupt"):
        return False
    try:
        corrupt_store_plane(directory, "probs", seed=injector.plan.seed)
    except OSError:
        # Nothing on disk to corrupt (store vanished / never finalized) —
        # the open about to happen will surface that as its own error.
        return False
    return True
