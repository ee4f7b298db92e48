"""The closed taxonomy of inference types.

Twelve variants: eleven observed categories with corpus proportions, plus
the degenerate premise-copy case. Abbreviations are the stable machine
keys used in record files and CLI flags; display names are the phrasing
injected into prompts.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .errors import UnknownTypeError


class InferenceType(Enum):
    ARG_SUB = "ARG-SUB"
    PRED_SUB = "PRED-SUB"
    FRAME_SUB = "FRAME-SUB"
    COND_FRAME = "COND-FRAME"
    ARG_INS = "ARG-INS"
    FRAME_CONJ = "FRAME-CONJ"
    ARG_PRED_GEN = "ARG/PRED-GEN"
    ARG_SUB_PROP = "ARG-SUB-PROP"
    EXAMPLE = "EXAMPLE"
    IFT = "IFT"
    UNK = "UNK"
    PREM_COPY = "PREM-COPY"

    @property
    def display_name(self) -> str:
        return _INFO[self].display_name

    @property
    def expected_proportion(self) -> float | None:
        return _INFO[self].expected_proportion

    @property
    def transformable(self) -> bool:
        return _INFO[self].transformable


class _TypeInfo(NamedTuple):
    display_name: str
    expected_proportion: float | None
    transformable: bool


_INFO: dict[InferenceType, _TypeInfo] = {
    InferenceType.ARG_SUB: _TypeInfo("arg substitution", 0.19, True),
    InferenceType.PRED_SUB: _TypeInfo("pred substitution", 0.05, True),
    InferenceType.FRAME_SUB: _TypeInfo("frame substitution", 0.20, True),
    InferenceType.COND_FRAME: _TypeInfo(
        "conditional frame insertion/substitution", 0.12, True
    ),
    InferenceType.ARG_INS: _TypeInfo("arg insertion", 0.18, True),
    InferenceType.FRAME_CONJ: _TypeInfo("frame conjunction", 0.06, True),
    InferenceType.ARG_PRED_GEN: _TypeInfo("arg/pred generalisation", 0.01, True),
    InferenceType.ARG_SUB_PROP: _TypeInfo(
        "arg substitution (property inheritance)", 0.004, True
    ),
    InferenceType.EXAMPLE: _TypeInfo("example", 0.009, False),
    InferenceType.IFT: _TypeInfo("if ... then ...", 0.008, True),
    InferenceType.UNK: _TypeInfo("others", 0.16, False),
    InferenceType.PREM_COPY: _TypeInfo("premise copy", None, False),
}

#: Types in the canonical reporting order (proportioned rows first).
TABLE_ORDER: tuple[InferenceType, ...] = (
    InferenceType.ARG_SUB,
    InferenceType.PRED_SUB,
    InferenceType.FRAME_SUB,
    InferenceType.COND_FRAME,
    InferenceType.ARG_INS,
    InferenceType.FRAME_CONJ,
    InferenceType.ARG_PRED_GEN,
    InferenceType.ARG_SUB_PROP,
    InferenceType.EXAMPLE,
    InferenceType.IFT,
    InferenceType.UNK,
    InferenceType.PREM_COPY,
)

TRANSFORMABLE_TYPES: frozenset[InferenceType] = frozenset(
    t for t in InferenceType if t.transformable
)

_BY_NAME: dict[str, InferenceType] = {}
for _t in InferenceType:
    _BY_NAME[_t.value.lower()] = _t
    _BY_NAME[_INFO[_t].display_name.lower()] = _t


def lookup_type(name: str) -> InferenceType:
    """Resolve an abbreviation or display name, case-insensitively."""
    key = name.strip().lower()
    try:
        return _BY_NAME[key]
    except KeyError:
        valid = ", ".join(t.value for t in TABLE_ORDER)
        raise UnknownTypeError(
            f"unknown inference type {name!r}; expected one of: {valid}"
        ) from None
