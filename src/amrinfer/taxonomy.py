"""The closed taxonomy of inference types.

Twelve variants: eleven observed categories with corpus proportions, plus
the degenerate premise-copy case. Abbreviations are the stable machine
keys used in record files and CLI flags; display names are the phrasing
injected into prompts. Which types can derive a conclusion is the
transform's business: see :data:`amrinfer.transform.TRANSFORMABLE_TYPES`.
"""

from __future__ import annotations

from enum import Enum

from .errors import UnknownTypeError


class InferenceType(Enum):
    """Each member's value is its abbreviation, and it carries its display
    name and its share of the reference corpus (None for premise copy,
    which the corpus does not count). Members are declared in the
    canonical reporting order, proportioned rows first."""

    display_name: str
    expected_proportion: float | None

    def __new__(
        cls, abbreviation: str, display_name: str, expected_proportion: float | None
    ) -> InferenceType:
        member = object.__new__(cls)
        member._value_ = abbreviation
        member.display_name = display_name
        member.expected_proportion = expected_proportion
        return member

    ARG_SUB = "ARG-SUB", "arg substitution", 0.19
    PRED_SUB = "PRED-SUB", "pred substitution", 0.05
    FRAME_SUB = "FRAME-SUB", "frame substitution", 0.20
    COND_FRAME = "COND-FRAME", "conditional frame insertion/substitution", 0.12
    ARG_INS = "ARG-INS", "arg insertion", 0.18
    FRAME_CONJ = "FRAME-CONJ", "frame conjunction", 0.06
    ARG_PRED_GEN = "ARG/PRED-GEN", "arg/pred generalisation", 0.01
    ARG_SUB_PROP = "ARG-SUB-PROP", "arg substitution (property inheritance)", 0.004
    EXAMPLE = "EXAMPLE", "example", 0.009
    IFT = "IFT", "if ... then ...", 0.008
    UNK = "UNK", "others", 0.16
    PREM_COPY = "PREM-COPY", "premise copy", None


#: Types in the canonical reporting order (proportioned rows first).
TABLE_ORDER: tuple[InferenceType, ...] = tuple(InferenceType)

_BY_NAME: dict[str, InferenceType] = {
    name.lower(): t for t in InferenceType for name in (t.value, t.display_name)
}


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
