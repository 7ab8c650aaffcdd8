"""Run the documented modules' doctests inside the tier-1 suite.

The CI docs job imports the documented modules as package members and runs
``doctest.testmod`` over each (a plain ``python -m doctest path.py`` can no
longer load ``db/columnar.py`` standalone — it has runtime relative imports
since the bitset cascade).  This test pins the same set inside the tier-1
suite, so the examples stay runnable even when CI is not involved.
"""

from __future__ import annotations

import doctest

import pytest

import repro.core.parallel
import repro.core.support
import repro.db.cache
import repro.db.columnar
import repro.db.partition
import repro.db.store
import repro.plan.spec
import repro.stream.index
import repro.stream.window

DOCUMENTED_MODULES = [
    repro.core.parallel,
    repro.core.support,
    repro.db.cache,
    repro.db.columnar,
    repro.db.partition,
    repro.db.store,
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
