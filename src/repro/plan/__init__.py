"""Unified execution planning: one plan object, one resolution pipeline.

:mod:`repro.plan.spec` holds the :class:`ExecutionPlan` dataclass, the knob
registry, the ``explicit > scope > REPRO_PLAN > default`` pipeline and
:func:`materialize_plan`, the run-level entry point.
"""

from .spec import (
    BACKENDS,
    KNOBS,
    PLAN_ENV,
    ExecutionPlan,
    Knob,
    active_plan,
    ensure_plan,
    materialize_plan,
    parse_plan_spec,
    plan_scope,
    resolve_knob,
)

__all__ = [
    "BACKENDS",
    "KNOBS",
    "PLAN_ENV",
    "ExecutionPlan",
    "Knob",
    "active_plan",
    "ensure_plan",
    "materialize_plan",
    "parse_plan_spec",
    "plan_scope",
    "resolve_knob",
]
