"""Run the documented modules' doctests: the one list of documented modules.

Each module is imported as a package member and run through
``doctest.testmod`` (a plain ``python -m doctest path.py`` cannot load
modules with relative imports).  Tier-1 and the CI docs job both run this
file, so the two cannot drift apart.
"""

from __future__ import annotations

import doctest

import pytest

import repro.core.parallel
import repro.core.support
import repro.db.cache
import repro.db.columnar
import repro.db.database
import repro.db.partition
import repro.db.store
import repro.faults
import repro.plan.spec
import repro.stream.index
import repro.stream.window

DOCUMENTED_MODULES = [
    repro.core.parallel,
    repro.core.support,
    repro.db.cache,
    repro.db.columnar,
    repro.db.database,
    repro.db.partition,
    repro.db.store,
    repro.faults,
    repro.plan.spec,
    repro.stream.index,
    repro.stream.window,
]


@pytest.mark.parametrize(
    "module", DOCUMENTED_MODULES, ids=lambda module: module.__name__
)
def test_module_doctests_pass(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module.__name__} has no doctest examples"
    assert results.failed == 0
