"""Differential check of the array UH-Mine expander against the dict expander.

:func:`~repro.algorithms.uh_mine.uh_mine_expand` builds every head table
with one ``np.bincount`` over a flat-array UH-Struct.  It must reproduce
:func:`reference.uh_mine_expand_dict`, the frozen dict-per-cell expander it
replaced, bit for bit: the same records in the same order, the same
expected supports and variances, and the same candidate counters.  Both
run through ``uh-mine`` (with and without variance tracking) and
``nduh-mine``.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import NDUHMine, UHMine
from repro.db import UncertainDatabase

from reference import uh_mine_expand_dict

N_ITEMS = 6

#: certain units and a small pool, so repeated probabilities are common;
#: products of 1e-200 underflow to 0.0, a head entry that occurs with no mass
_probability = st.one_of(
    st.sampled_from([1.0, 0.5, 0.25, 0.75, 0.3, 0.9, 1e-200]),
    st.floats(min_value=1e-6, max_value=1.0),
)
_row = st.dictionaries(st.integers(0, N_ITEMS - 1), _probability, max_size=N_ITEMS)


@st.composite
def databases(draw):
    """Rows that always include an empty row and a single-item row."""
    rows = draw(st.lists(_row, min_size=1, max_size=14))
    rows.insert(draw(st.integers(0, len(rows))), {})
    single = {draw(st.integers(0, N_ITEMS - 1)): draw(_probability)}
    rows.insert(draw(st.integers(0, len(rows))), single)
    return UncertainDatabase.from_records(rows)


def _with_dict_expander(miner_class):
    class Frozen(miner_class):
        def spec(self, threshold):
            return dataclasses.replace(
                super().spec(threshold), expander=uh_mine_expand_dict
            )

    return Frozen


def _outcome(result):
    statistics = result.statistics
    records = [
        (
            record.itemset.items,
            repr(record.expected_support),
            repr(record.variance),
            repr(record.frequent_probability),
        )
        for record in result
    ]
    return (
        records,
        statistics.candidates_generated,
        statistics.candidates_pruned,
        statistics.notes.get("uh_struct_cells"),
    )


@settings(max_examples=80, deadline=None)
@given(
    database=databases(),
    min_esup=st.floats(min_value=0.02, max_value=0.6),
    track_variance=st.booleans(),
)
def test_uh_mine_matches_dict_expander(database, min_esup, track_variance):
    arrays = UHMine(track_variance=track_variance).mine(database, min_esup=min_esup)
    frozen = _with_dict_expander(UHMine)(track_variance=track_variance).mine(
        database, min_esup=min_esup
    )
    assert _outcome(arrays) == _outcome(frozen)


@settings(max_examples=80, deadline=None)
@given(
    database=databases(),
    min_sup=st.floats(min_value=0.02, max_value=0.6),
    pft=st.sampled_from([0.1, 0.5, 0.9]),
)
def test_nduh_mine_matches_dict_expander(database, min_sup, pft):
    arrays = NDUHMine().mine(database, min_sup=min_sup, pft=pft)
    frozen = _with_dict_expander(NDUHMine)().mine(database, min_sup=min_sup, pft=pft)
    assert _outcome(arrays) == _outcome(frozen)
