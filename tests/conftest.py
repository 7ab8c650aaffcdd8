"""Shared fixtures for the test-suite.

Plain helper functions live in :mod:`tests.helpers` (imported explicitly by
the test modules that need them) so that this conftest never has to be an
import target — ``import conftest`` is ambiguous whenever another conftest
(e.g. the benchmark harness's) is also on ``sys.path``.
"""

from __future__ import annotations

import warnings

import pytest

from repro import faults
from repro.core import kernels
from repro.db import DatabaseBuilder, UncertainDatabase, paper_example_database

from helpers import make_random_database

# When a ``@given`` test fails, hypothesis's pytest plugin imports its
# patch writer, whose ``libcst`` dependency warns through
# ``mypy_extensions.TypedDict``.  Under the suite's
# ``error::DeprecationWarning`` filter that import would raise inside the
# plugin (an INTERNALERROR that hides the falsifying example), so it is
# imported once here with that warning silenced.  Without ``libcst`` the
# plugin skips the patch writer anyway.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


def pytest_addoption(parser):
    parser.addoption(
        "--numpy-kernels",
        action="store_true",
        help="run every test on the NumPy kernels, not the compiled ones "
        "(repro.core.kernels falls back as it does without a C compiler)",
    )


def pytest_configure(config):
    if config.getoption("--numpy-kernels"):
        kernels._library = None


@pytest.fixture
def numpy_kernels(monkeypatch):
    """Run this test on the NumPy kernels, as without a C compiler."""
    monkeypatch.setattr(kernels, "_library", None)


@pytest.fixture(autouse=True)
def _fault_injection_stays_enabled():
    """Fail any test that leaves fault injection disabled in this process.

    ``faults.disable_in_process()`` is meant for pool workers; left set in
    the pytest process it turns every later test's fault probes into no-ops.
    """
    yield
    if faults._DISABLED:
        faults._DISABLED = False
        pytest.fail("test left fault injection disabled in the pytest process")


@pytest.fixture
def paper_db() -> UncertainDatabase:
    """The paper's Table 1 example (4 transactions, items A-F)."""
    return paper_example_database()


@pytest.fixture
def tiny_db() -> UncertainDatabase:
    """A three-transaction database small enough for exhaustive world enumeration."""
    builder = DatabaseBuilder(name="tiny")
    builder.add_transaction([(0, 0.5), (1, 0.9)])
    builder.add_transaction([(0, 1.0), (2, 0.4)])
    builder.add_transaction([(1, 0.3), (2, 0.8)])
    return builder.build()


@pytest.fixture
def random_db() -> UncertainDatabase:
    """A medium random database (30 transactions, 8 items)."""
    return make_random_database()


@pytest.fixture(params=[1, 2, 3])
def seeded_random_db(request) -> UncertainDatabase:
    """Several random databases with different seeds."""
    return make_random_database(seed=request.param, name=f"random-{request.param}")
