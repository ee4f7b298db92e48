"""``_held_lines`` reads the text in one token scan, with runs of lines
that hold no ``"`` and metadata lines read whole, and finds the same held
lines as the line-by-line reference in ``tests/oracle.py``, which reads a
line only when it holds a ``"`` and starts a token read at each such
line."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from amrinfer.penman import _held_lines

from tests.oracle import scan_held_lines

# The characters that decide where tokens, strings and metadata lines
# start and end, and one plain letter.
ALPHABET = ("a", " ", "\t", "\n", '"', "#", ":", "(", ")", "/", "\\")

_documents = st.lists(st.sampled_from(ALPHABET), max_size=60).map("".join)


@given(_documents)
@settings(max_examples=1000, deadline=None)
def test_one_scan_matches_the_line_by_line_reference(text):
    assert _held_lines(text) == scan_held_lines(text)


def test_one_scan_matches_the_reference_on_a_fixed_sample():
    rng = random.Random(0)
    held = 0
    for _ in range(5000):
        text = "".join(rng.choices(ALPHABET, k=rng.randint(0, 60)))
        assert _held_lines(text) == scan_held_lines(text), repr(text)
        held += bool(scan_held_lines(text))
    # The sample must reach strings that run over line breaks.
    assert held > 500


def test_a_string_holds_metadata_and_blank_lines():
    text = '# "x\n(n / name :op1 "a\n# b\n\nc" :op2 "d")\n# ::snt "e\n'
    assert _held_lines(text) == scan_held_lines(text) == {3, 4, 5}
