"""The unified :class:`ExecutionPlan` and its knob resolution pipeline.

Every tuning knob of the stack lives in one registry and resolves through
one pipeline of three tiers, falling back to the knob's static default::

    explicit argument  >  scoped plan  >  environment  >  default

* **explicit argument** — the value handed to a function or constructor
  (``TopKMiner(workers=4)``, ``resolve_knob("workers", 4)``).
* **scoped plan** — the innermost :func:`plan_scope` context manager.
  Scopes are backed by :mod:`contextvars`, so concurrent threads (the
  mining service's request executors) never observe each other's plans.
* **environment** — the knob's entry in the composite ``REPRO_PLAN`` spec
  (``REPRO_PLAN=workers=4,conv_span=256``).  The ``faults`` knob also
  reads ``REPRO_FAULTS``, the documented chaos switch, which beats its
  ``REPRO_PLAN`` entry.
* **default** — the static default from the registry below (``shards``
  follows the resolved worker count).

The pipeline is *pure resolution*: no tier ever writes to ``os.environ``.

>>> plan = ExecutionPlan(workers=4, conv_span=64)
>>> with plan_scope(plan):
...     resolve_knob("workers"), resolve_knob("conv_span")
(4, 64)
>>> resolve_knob("workers", 2)  # explicit beats everything
2
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Mapping, Optional, Tuple, Union

__all__ = [
    "PLAN_ENV",
    "ExecutionPlan",
    "Knob",
    "KNOBS",
    "active_plan",
    "ensure_plan",
    "materialize_plan",
    "parse_plan_spec",
    "plan_scope",
    "resolve_all",
    "resolve_knob",
]

#: composite plan environment variable: a ``k=v,k=v`` spec
PLAN_ENV = "REPRO_PLAN"

def _available_cpus() -> int:
    """Number of CPUs the process may actually use (affinity-aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


# -- per-knob parsers ------------------------------------------------------------------
# Each parser normalizes an explicit value (bool/int/float/str, including the
# raw strings arriving from ``k=v`` plan specs) into the knob's canonical
# representation, raising ``ValueError`` on an invalid value.


def _parse_workers(value: Any) -> int:
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered == "auto":
            return _available_cpus()
        value = int(lowered)
    workers = int(value)
    if workers == 0:
        return _available_cpus()
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


def _parse_shards(value: Any) -> int:
    shards = int(value)
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    return shards


def _parse_conv_span(value: Any) -> int:
    span = int(value)
    if span < 0:
        raise ValueError(f"conv_span must be >= 0 (0 = every merge uses the FFT), got {span}")
    return span


def _parse_faults(value: Any) -> str:
    """Validate a fault-injection spec, keeping the canonical string form.

    The knob's value stays the spec *string* (plans are JSON-roundtripped
    through ``to_dict``); validation delegates to ``FaultPlan.parse`` so a
    typo fails at plan-construction time, not at the first probe.  Imported
    lazily — :mod:`repro.faults` imports this module.
    """
    spec = str(value).strip()
    if not spec:
        return ""
    from ..faults import FaultPlan

    FaultPlan.parse(spec)
    return spec


# -- the knob registry -----------------------------------------------------------------


@dataclass(frozen=True)
class Knob:
    """One tuning knob: its parser and default.

    Attributes
    ----------
    name:
        The :class:`ExecutionPlan` field name.
    default:
        The static default, or ``None`` when the default is computed
        dynamically (shards follow the resolved worker count).
    parse:
        Normalizer/validator applied to every explicit, scoped and spec
        value.
    env:
        A dedicated environment variable consulted before ``REPRO_PLAN``
        (only ``faults`` has one: ``REPRO_FAULTS``).
    """

    name: str
    default: Any
    parse: Callable[[Any], Any]
    doc: str = ""
    env: Optional[str] = None


KNOBS: Dict[str, Knob] = {
    knob.name: knob
    for knob in (
        Knob(
            "workers", 1, _parse_workers,
            "worker processes for the partition-parallel engine (0/auto = CPUs)",
        ),
        Knob(
            "shards", None, _parse_shards,
            "row shards of the columnar view (default: the worker count)",
        ),
        Knob(
            "conv_span", 32, _parse_conv_span,
            "PMF operand length above which convolutions go through the FFT "
            "(32: the measured crossover of the height-batched DC walker)",
        ),
        Knob(
            "faults", "", _parse_faults,
            "deterministic fault-injection spec ('' = off; ';' separates "
            "sites inside a REPRO_PLAN token)",
            env="REPRO_FAULTS",
        ),
    )
}


# -- the plan object -------------------------------------------------------------------


@dataclass(frozen=True)
class ExecutionPlan:
    """An immutable, partially-specified assignment of tuning knobs.

    ``None`` fields are *unset*: resolution falls through to the next tier.
    Set fields are normalized at construction time through the knob parsers
    (so ``ExecutionPlan(workers="2").workers == 2``).

    >>> plan = ExecutionPlan(workers="auto", conv_span="64")
    >>> plan.conv_span, plan.workers >= 1
    (64, True)
    >>> ExecutionPlan.from_dict(plan.to_dict()) == plan
    True
    """

    workers: Optional[int] = None
    shards: Optional[int] = None
    conv_span: Optional[int] = None
    faults: Optional[str] = None

    def __post_init__(self) -> None:
        for name, knob in KNOBS.items():
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, knob.parse(value))

    # -- construction ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, mapping: Mapping[str, Any]) -> "ExecutionPlan":
        """Build a plan from a mapping, rejecting unknown keys.

        >>> ExecutionPlan.from_dict({"workers": 2}).workers
        2
        >>> ExecutionPlan.from_dict({"wrokers": 2})
        Traceback (most recent call last):
            ...
        ValueError: unknown plan knob(s): 'wrokers' (known: conv_span, faults, ...)
        """
        unknown = sorted(set(mapping) - set(KNOBS))
        if unknown:
            known = ", ".join(sorted(KNOBS)[:2]) + ", ..."
            listed = ", ".join(repr(key) for key in unknown)
            raise ValueError(f"unknown plan knob(s): {listed} (known: {known})")
        return cls(**dict(mapping))

    def to_dict(self) -> Dict[str, Any]:
        """The set fields as a plain dict (round-trips through from_dict)."""
        return dict(self.knob_items())

    # -- algebra -----------------------------------------------------------------------
    def merged_over(self, base: Optional["ExecutionPlan"]) -> "ExecutionPlan":
        """This plan layered over ``base``: our set fields win, gaps inherit."""
        if base is None:
            return self
        values = base.to_dict()
        values.update(self.to_dict())
        return ExecutionPlan(**values)

    def is_empty(self) -> bool:
        return not self.to_dict()

    def knob_items(self) -> Iterator[Tuple[str, Any]]:
        """Iterate ``(name, value)`` over the *set* knob fields."""
        for name in KNOBS:
            value = getattr(self, name)
            if value is not None:
                yield name, value


def ensure_plan(
    plan: Union[None, str, Mapping[str, Any], ExecutionPlan]
) -> Optional[ExecutionPlan]:
    """Coerce the common plan spellings into an :class:`ExecutionPlan`.

    Accepts ``None`` (no plan), an existing plan, a mapping, or a spec
    string (``"workers=2,conv_span=256"``).
    """
    if plan is None or isinstance(plan, ExecutionPlan):
        return plan
    if isinstance(plan, Mapping):
        return ExecutionPlan.from_dict(plan)
    return parse_plan_spec(str(plan))


def parse_plan_spec(spec: str) -> ExecutionPlan:
    """Parse a ``k=v,k=v`` plan spec (the ``--plan`` / ``REPRO_PLAN`` syntax).

    >>> parse_plan_spec("workers=2,conv_span=64").workers
    2
    >>> parse_plan_spec("auto")
    Traceback (most recent call last):
        ...
    ValueError: bad plan spec token 'auto': expected 'knob=value'
    """
    values: Dict[str, Any] = {}
    for token in str(spec).split(","):
        token = token.strip()
        if not token:
            continue
        if "=" not in token:
            raise ValueError(f"bad plan spec token {token!r}: expected 'knob=value'")
        name, _, raw = token.partition("=")
        name = name.strip()
        if name not in KNOBS:
            raise ValueError(
                f"unknown plan knob {name!r} in spec {spec!r} "
                f"(known: {', '.join(sorted(KNOBS))})"
            )
        values[name] = raw.strip()
    return ExecutionPlan.from_dict(values)


# -- scoped plans ----------------------------------------------------------------------

_ACTIVE_PLAN: ContextVar[Optional[ExecutionPlan]] = ContextVar(
    "repro_active_plan", default=None
)


def active_plan() -> Optional[ExecutionPlan]:
    """The innermost scoped plan of the *current thread/context*, if any."""
    return _ACTIVE_PLAN.get()


@contextmanager
def plan_scope(plan: Union[None, str, Mapping[str, Any], ExecutionPlan]):
    """Pin ``plan`` at the scope tier for the duration of the ``with`` block.

    Scopes nest: the inner plan's set fields shadow the outer plan's, unset
    fields inherit.  Backed by a :class:`contextvars.ContextVar`, so the
    scope is visible to the current thread (and tasks it spawns via
    ``contextvars.copy_context``) but **never** to concurrent threads.

    ``None`` (or an empty plan) is a no-op.
    """
    plan = ensure_plan(plan)
    if plan is None:
        yield None
        return
    merged = plan.merged_over(_ACTIVE_PLAN.get())
    token = _ACTIVE_PLAN.set(merged)
    try:
        yield merged
    finally:
        _ACTIVE_PLAN.reset(token)


# -- environment tier ------------------------------------------------------------------

_SPEC_CACHE: Dict[str, ExecutionPlan] = {}


def _env_spec_plan() -> Optional[ExecutionPlan]:
    """The parsed ``REPRO_PLAN`` spec, or ``None`` when unset/empty."""
    spec = os.environ.get(PLAN_ENV, "").strip()
    if not spec:
        return None
    plan = _SPEC_CACHE.get(spec)
    if plan is None:
        plan = parse_plan_spec(spec)
        if len(_SPEC_CACHE) > 64:  # unbounded env churn safety valve
            _SPEC_CACHE.clear()
        _SPEC_CACHE[spec] = plan
    return plan


def _env_value(knob: Knob) -> Optional[Any]:
    """The environment-tier value of ``knob``, or ``None`` when unset.

    A knob's dedicated variable (``REPRO_FAULTS``) wins over its entry in
    ``REPRO_PLAN``; an empty variable counts as unset.
    """
    if knob.env is not None:
        raw = os.environ.get(knob.env)
        if raw is not None and raw.strip() != "":
            return knob.parse(raw)
    spec = _env_spec_plan()
    if spec is not None:
        return getattr(spec, knob.name)
    return None


# -- the resolution pipeline -----------------------------------------------------------


def _dynamic_default(name: str, workers: Optional[int]) -> Any:
    if name == "shards":
        if workers is None:
            workers = resolve_knob("workers")
        return max(1, int(workers))
    raise AssertionError(f"knob {name!r} has no dynamic default")  # pragma: no cover


def resolve_knob(name: str, explicit: Any = None, *, workers: Optional[int] = None) -> Any:
    """Resolve one knob: explicit > scoped plan > environment > default.

    Args:
        name: A knob name from :data:`KNOBS`.
        explicit: Tier-1 explicit value (``None`` = unset).
        workers: The already-resolved worker count, consulted only for the
            ``shards`` dynamic default.

    >>> resolve_knob("conv_span")
    32
    >>> resolve_knob("workers", "auto") >= 1
    True
    """
    knob = KNOBS[name]
    if explicit is not None:
        return knob.parse(explicit)
    scope = _ACTIVE_PLAN.get()
    if scope is not None:
        value = getattr(scope, name)
        if value is not None:
            return value
    value = _env_value(knob)
    if value is not None:
        return value
    if knob.default is not None:
        return knob.default
    return _dynamic_default(name, workers)


def resolve_all(explicit: Optional[Mapping[str, Any]] = None) -> ExecutionPlan:
    """Resolve every knob, returning a fully-specified plan.

    ``explicit`` supplies tier-1 values per knob.  The result has every
    field set — it is the *materialized* configuration of a run, suitable
    for :func:`plan_scope` pinning, cache keys and reporting.
    """
    explicit = explicit or {}
    values: Dict[str, Any] = {"workers": resolve_knob("workers", explicit.get("workers"))}
    for name in KNOBS:
        if name != "workers":
            values[name] = resolve_knob(
                name, explicit.get(name), workers=values["workers"]
            )
    return ExecutionPlan(**values)


def materialize_plan(
    plan: Union[None, str, Mapping[str, Any], ExecutionPlan] = None,
    explicit: Optional[Mapping[str, Any]] = None,
) -> ExecutionPlan:
    """Resolve a plan request into a fully-specified :class:`ExecutionPlan`.

    The run-level entry point of the pipeline: the miners, the streaming
    miners and the service all funnel through it.  ``explicit`` carries
    tier-1 per-knob arguments (a miner's ``workers=``/``shards=``
    constructor parameters); ``plan`` enters at the scope tier; the
    environment and the defaults fill the rest.  Pinning the result with
    :func:`plan_scope` freezes the whole configuration for the run, immune
    to concurrent env changes or other threads' plans.

    >>> materialize_plan("workers=2", {"workers": 3}).workers
    3
    """
    with plan_scope(plan):
        return resolve_all(explicit)
