"""The string-token Penman reader against the tuple-token reference in
``tests/oracle.py``: on serialized graphs mutated by deleting and
inserting Penman punctuation and role or symbol fragments, and by
repeating edges, both return an equal graph, in the same node and edge
order, or raise the same exception with the same message and offset.
Every graph the reader returns, which it builds without validating,
passes ``validate()``.

CI runs this file a second time with ``--hypothesis-seed=0``, so a
failure seen there reproduces with::

    PYTHONPATH=src python -m pytest tests/test_reader_differential.py --hypothesis-seed=0
"""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amrinfer.errors import AmrError
from amrinfer.penman import parse_penman, serialize_penman

from tests.generators import fuzz_penman_graph, random_graph
from tests.oracle import scan_parse_penman

FRAGMENTS = (
    "(", ")", "/", ":", '"', "\\", "#", "-", "+", " ", "\n",
    ":ARG0", ":ARG1-of", ":mod", ":polarity", "ARG", "-of", ":op",
    "v1", "v2", "x", "thing", "go-01", "42", "3.5", '"a b"', '"q',
)
# Whole edges, which parse when inserted before a role or a ``)``, except
# that ``u9`` is never defined.
EDGES = (' :mod "q', " :ARG0 v1", " :ARG1 u9", " :polarity -", " :op1 (z / thing)")


def outcome(parse, text: str, origin: str | None):
    """The graph's root, nodes and edges in stored order, or the error's
    type, message and offset."""
    try:
        g = parse(text, origin)
    except AmrError as exc:
        return ("error", type(exc), str(exc), getattr(exc, "offset", None))
    return ("graph", g.root, list(g.nodes.items()), list(g.edges))


# A role and a target that is not an instance, as a leaf edge is written.
_LEAF_EDGE = re.compile(r' :[^\s()/]+ (?:"[^"]*"|[^\s()]+)')


def mutate(text: str, edits) -> str:
    """Apply each edit at ``position`` modulo the text's length, or, when
    ``at_boundary`` is set, at one of its spaces and ``)``. An edit deletes
    ``length`` characters, inserts ``fragment``, or repeats the leaf edge
    that starts there, which makes a duplicate edge."""
    for op, position, at_boundary, length, fragment in edits:
        boundaries = [i for i, c in enumerate(text) if c in " )"]
        if at_boundary and boundaries:
            at = boundaries[position % len(boundaries)]
        else:
            at = position % (len(text) + 1)
        if op == "delete":
            text = text[:at] + text[at + length :]
        elif op == "insert":
            text = text[:at] + fragment + text[at:]
        elif m := _LEAF_EDGE.match(text, at):
            text = text[: m.end()] + m.group() + text[m.end() :]
    return text


def _base(seed: int) -> str:
    rng = random.Random(seed)
    if rng.random() < 0.5:
        g = fuzz_penman_graph(rng)
    else:
        g = random_graph(rng, constants=True)
    text = serialize_penman(g)
    # Line breaks before some roles, as hand-written AMRs have.
    if rng.random() < 0.3:
        text = text.replace(" :", "\n  :")
    return text


_edits = st.lists(
    st.tuples(
        st.sampled_from(["delete", "insert", "repeat"]),
        st.integers(0, 10**6),
        st.booleans(),
        st.integers(1, 3),
        st.one_of(st.sampled_from(FRAGMENTS), st.sampled_from(EDGES)),
    ),
    min_size=0,
    max_size=4,
)


@given(st.integers(0, 10**9), _edits, st.sampled_from([None, "fuzz.amr"]))
@settings(max_examples=300, deadline=None)
def test_reader_matches_tuple_token_reference(seed, edits, origin):
    text = mutate(_base(seed), edits)
    got = outcome(parse_penman, text, origin)
    assert got == outcome(scan_parse_penman, text, origin)
    if got[0] == "graph":
        parse_penman(text, origin).validate()


@pytest.mark.parametrize(
    "text",
    [
        '(a / "b)',
        '(a / "b")',
        '("a" / b)',
        '(a / b :c "x\\"y" :d "q) :e 1)',
        '(a / b :c "q :d 1)',
        "(a / b : c)",
        "(a / b :c (d / e) : )",
        "(a / b :c)",
        "(a / b :c /)",
        "(a / b) trailing",
        "(a / b :c d)",
        "(a / b :c (b2 / e) :c b2)",
        "(a / b :c d :c (d / e))",
        "(a / b :c (a / e))",
        "(1a / b)",
        "(a b)",
        "a / b",
        "(a / b :c -of :d +)",
        "   ",
    ],
)
def test_reader_matches_reference_on_edge_cases(text):
    assert outcome(parse_penman, text, None) == outcome(scan_parse_penman, text, None)
