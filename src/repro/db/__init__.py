"""Uncertain transaction database substrate.

This package provides the data model every miner consumes: transactions of
``(item, probability)`` units, whole databases with their probability-vector
primitives, text IO, a fluent builder, possible-world sampling, validation
and an out-of-core memory-mapped columnar store (:mod:`repro.db.store`).
"""

from .builder import DatabaseBuilder, paper_example_database
from .cache import ByteBudgetLRU
from .columnar import ColumnarView
from .database import DatabaseStats, UncertainDatabase
from .io import read_fimi, read_uncertain, write_fimi, write_uncertain
from .sampling import (
    enumerate_worlds,
    monte_carlo_support,
    sample_world,
    sample_worlds,
    world_count,
)
from .store import (
    STORE_ENV,
    ColumnarStore,
    MappedColumnarView,
    StoreDatabase,
    StoreError,
    resolve_store_path,
)
from .transaction import UncertainTransaction
from .validation import ValidationIssue, ValidationReport, validate_database
from .vocabulary import Vocabulary

__all__ = [
    "ByteBudgetLRU",
    "ColumnarStore",
    "ColumnarView",
    "DatabaseBuilder",
    "DatabaseStats",
    "MappedColumnarView",
    "STORE_ENV",
    "StoreDatabase",
    "StoreError",
    "UncertainDatabase",
    "UncertainTransaction",
    "ValidationIssue",
    "ValidationReport",
    "Vocabulary",
    "enumerate_worlds",
    "monte_carlo_support",
    "paper_example_database",
    "read_fimi",
    "read_uncertain",
    "resolve_store_path",
    "sample_world",
    "sample_worlds",
    "validate_database",
    "world_count",
    "write_fimi",
    "write_uncertain",
]
