"""Taxonomy metadata and name resolution."""

from __future__ import annotations

from pathlib import Path

import pytest

from amrinfer.errors import UnknownTypeError
from amrinfer.taxonomy import TABLE_ORDER, InferenceType, lookup_type
from amrinfer.transform import _HANDLERS, TRANSFORMABLE_TYPES

#: Every type in reporting order: abbreviation, prompt name, reference share.
ROWS = [
    ("ARG-SUB", "arg substitution", 0.19),
    ("PRED-SUB", "pred substitution", 0.05),
    ("FRAME-SUB", "frame substitution", 0.20),
    ("COND-FRAME", "conditional frame insertion/substitution", 0.12),
    ("ARG-INS", "arg insertion", 0.18),
    ("FRAME-CONJ", "frame conjunction", 0.06),
    ("ARG/PRED-GEN", "arg/pred generalisation", 0.01),
    ("ARG-SUB-PROP", "arg substitution (property inheritance)", 0.004),
    ("EXAMPLE", "example", 0.009),
    ("IFT", "if ... then ...", 0.008),
    ("UNK", "others", 0.16),
    ("PREM-COPY", "premise copy", None),
]


def test_twelve_variants():
    assert len(InferenceType) == 12


def test_proportions_cover_the_observed_corpus():
    fractions = [t.expected_proportion for t in InferenceType if t.expected_proportion]
    assert len(fractions) == 11
    assert abs(sum(fractions) - 0.991) < 1e-3


def test_premise_copy_has_no_proportion():
    assert InferenceType.PREM_COPY.expected_proportion is None


def test_rows_in_reporting_order():
    assert [(t.value, t.display_name, t.expected_proportion) for t in TABLE_ORDER] == ROWS
    assert TABLE_ORDER == tuple(InferenceType)


def test_readme_table_matches_the_rows():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("## The taxonomy")[1].split("\n\n")[1].splitlines()[2:]
    cells = [[c.strip() for c in line.strip("|").split("|")] for line in table]
    shares = [None if share == "—" else round(float(share.rstrip("%")) / 100, 4)
              for _, _, share, _ in cells]
    assert [(a, n, s) for (a, n, _, _), s in zip(cells, shares)] == ROWS
    assert {lookup_type(a) for a, _, _, flag in cells if flag.startswith("yes")} == (
        TRANSFORMABLE_TYPES
    )


def test_transformable_set():
    assert TRANSFORMABLE_TYPES == frozenset(_HANDLERS)
    assert TRANSFORMABLE_TYPES == {
        InferenceType.ARG_SUB,
        InferenceType.PRED_SUB,
        InferenceType.FRAME_SUB,
        InferenceType.COND_FRAME,
        InferenceType.ARG_INS,
        InferenceType.FRAME_CONJ,
        InferenceType.ARG_PRED_GEN,
        InferenceType.ARG_SUB_PROP,
        InferenceType.IFT,
    }


def test_lookup_by_abbreviation():
    assert lookup_type("ARG-SUB") is InferenceType.ARG_SUB
    assert lookup_type("arg-sub") is InferenceType.ARG_SUB
    assert lookup_type("ARG/PRED-GEN") is InferenceType.ARG_PRED_GEN


def test_lookup_by_display_name():
    assert lookup_type("arg substitution") is InferenceType.ARG_SUB
    assert lookup_type("Premise Copy") is InferenceType.PREM_COPY


def test_display_name_round_trip():
    for t in InferenceType:
        assert InferenceType(t.value) is t
        assert lookup_type(t.display_name) is t
        assert lookup_type(t.value) is t


def test_unknown_name_lists_valid_ones():
    with pytest.raises(UnknownTypeError, match="ARG-SUB"):
        lookup_type("FOO")


def test_table_order_is_complete():
    assert set(TABLE_ORDER) == set(InferenceType)
    assert TABLE_ORDER[0] is InferenceType.ARG_SUB
    assert TABLE_ORDER[-1] is InferenceType.PREM_COPY
