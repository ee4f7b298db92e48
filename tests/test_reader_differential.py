"""The step-pattern Penman reader against the tuple-token reference in
``tests/oracle.py``: on serialized graphs mutated by deleting and
inserting Penman punctuation and role or symbol fragments, and by
repeating edges, both return an equal graph, in the same node and edge
order, or raise the same exception with the same message and offset.
Every graph the reader returns, which it builds without validating,
passes ``validate()``.

The reader reads every valid document in one pattern pass, which returns
None on any other text; only then does ``_first_error`` walk the steps
again to name the error. On valid Penman, in hand-written layouts and in
odd but valid texts, ``_first_error`` must not be called, so those tests
make it fail; on each malformed text the pattern pass returns None and
the error is the reference's.

CI runs this file a second time with ``--hypothesis-seed=0``, so a
failure seen there reproduces with::

    PYTHONPATH=src python -m pytest tests/test_reader_differential.py --hypothesis-seed=0
"""

from __future__ import annotations

import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amrinfer import penman
from amrinfer.errors import AmrError
from amrinfer.graph import AmrGraph, Constant, Edge
from amrinfer.penman import parse_penman, serialize_penman

from tests.generators import LINE_BREAKS, fuzz_penman_graph, random_graph
from tests.oracle import scan_parse_penman

FRAGMENTS = (
    "(", ")", "/", ":", '"', "\\", "#", "-", "+", " ", "\n",
    ":ARG0", ":ARG1-of", ":mod", ":polarity", "ARG", "-of", ":op",
    "v1", "v2", "x", "thing", "go-01", "42", "3.5", '"a b"', '"q', *LINE_BREAKS,
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
    assert (penman._read(text) is None) == (got[0] == "error")
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
        # The inner error comes first: an instance's edge is complete at
        # its ``)``.
        "(a / b :c d :c (d / e :f (a / x)))",
        "(a / b :c d :c (d / e :f))",
        "(a / b :c (a / e))",
        # A leaf instance's ``)`` is read in the step that opens it.
        "(a / b :c (d / e ) )",
        "(a / b :c (d / e)\n)",
        "(a / b :c (d / e) :c d)",
        "(a / b :c (d / e)))",
        "(a / b :c (d / e)",
        "(a / b :c (d / e) :f d)",
        "(1a / b)",
        "(a b)",
        "a / b",
        "(a / b :c -of :d +)",
        "   ",
    ],
)
def test_reader_matches_reference_on_edge_cases(text):
    assert outcome(parse_penman, text, None) == outcome(scan_parse_penman, text, None)


def no_hand_over():
    """Make ``_first_error`` fail, so that only the pattern pass reads."""
    return mock.patch.object(
        penman, "_first_error", side_effect=AssertionError("named an error")
    )


CONSTANTS = (
    Constant("-"),
    Constant("+"),
    Constant("42"),
    Constant("-7"),
    Constant("3.5"),
    Constant("-of"),
    Constant('x\\"y', is_string=True),
    Constant('say \\"hi\\" (twice): a/b', is_string=True),
    Constant("", is_string=True),
    *(Constant(f"a{c}# b", is_string=True) for c in LINE_BREAKS),
)
CONCEPTS = ("thing", "go-01", "3d-printer", "co2", "o'clock", "non-stick", 'a"b')
ROLES = (":ARG0", ":ARG1", ":mod", ":op1", ":ARG0-of", ":ARG1-of", ":time")


def _layout_graph(rng: random.Random) -> AmrGraph:
    """A random graph with re-entrancies and inverse roles, plus constant
    edges of every kind."""
    g = random_graph(rng, max_nodes=9, concepts=CONCEPTS, roles=ROLES)
    edges = list(g.edges)
    for _ in range(rng.randint(0, 4)):
        edge = Edge(rng.choice(list(g.nodes)), rng.choice(ROLES), rng.choice(CONSTANTS))
        if edge not in edges:
            edges.append(edge)
    return AmrGraph(g.root, g.nodes, tuple(edges))


def layout(g: AmrGraph, rng: random.Random) -> str:
    """``g`` written as a hand-written AMR might be: line breaks and tabs
    before roles or none at all, no spaces around ``/``, a role glued to
    the ``(`` it opens, spaces before ``)``. A leaf target keeps a space
    after its role, which would otherwise read it as part of the role."""

    def gap(*choices: str) -> str:
        return rng.choice(choices)

    def instance(var: str) -> str:
        return (
            "(" + gap("", " ") + var + gap("", " ", "\t") + "/"
            + gap("", " ", "\n ") + g.nodes[var]
        )

    parts = [gap("", "\n", " \t"), instance(g.root)]
    visited = {g.root}
    stack = [iter(g.outgoing(g.root))]
    while stack:
        for e in stack[-1]:
            parts.append(gap("", " ", "\n  ", "\n\t", "\t") + e.role)
            target = e.target
            if isinstance(target, Constant):
                parts.append(gap(" ", "\t", "\n   ") + target.render())
            elif target in visited:
                parts.append(gap(" ", "  ") + target)
            else:
                visited.add(target)
                parts.append(gap("", " ", "\n    ") + instance(target))
                stack.append(iter(g.outgoing(target)))
                break
        else:
            parts.append(gap("", "", " ", "\n") + ")")
            stack.pop()
    parts.append(gap("", "\n", "  \n"))
    return "".join(parts)


@given(st.integers(0, 10**9), st.sampled_from([None, "hand.amr"]))
@settings(max_examples=300, deadline=None)
def test_pattern_pass_reads_hand_written_layouts(seed, origin):
    rng = random.Random(seed)
    text = layout(_layout_graph(rng), rng)
    want = outcome(scan_parse_penman, text, origin)
    assert want[0] == "graph", text
    with no_hand_over():
        assert outcome(parse_penman, text, origin) == want


@pytest.mark.parametrize(
    "text",
    [
        # A role's token runs on through ``"``, so it takes no target.
        '(a / b :mod"x")',
        # A closed string ends its token, so ``b`` is a stray symbol.
        '(a / b :c "a"b)',
        "(a / b : c)",
        "(a / b :c (d / e) : )",
        "(a / b) trailing",
        "(a / b)) ",
        "(a / b :c (a / e))",
        "(a / b :c (d / e) :c d)",
        "(a / b :c d :c (d / e))",
        "(a / b :c - :c -)",
        "(a / b :c d)",
        "(a / b :c (d / e :f g))",
        "(a / b :c (d / e)",
        "(a / b :c",
        "(a / b :c (d / e) (f / g))",
        "(1a / b)",
        '("a" / b)',
        "(a / b :c /)",
    ],
)
def test_pattern_pass_hands_over_with_the_same_outcome(text):
    assert penman._read(text) is None
    want = outcome(scan_parse_penman, text, "x.amr")
    assert outcome(parse_penman, text, "x.amr") == want


@pytest.mark.parametrize(
    "text",
    [
        # A ``"`` that opens no closed string is a symbol, as a concept
        # and as a target.
        '(a / "b)',
        '(a / b :c "q)',
        '(a / b :c "q :d 1)',
        # A role whose token holds a ``"`` and takes a target after a space.
        '(a / b :mod"x" a)',
        # Tokens that need no space between them.
        '(a/b:c"x":d -5:e(f/g:h a))',
        "(a / b:ARG0 c:mod(c / d))",
        # A symbol that is neither a number nor a variable is a constant.
        "(a / b :c 1a :d a.b :e o'clock)",
    ],
)
def test_pattern_pass_reads_odd_but_valid_text(text):
    want = outcome(scan_parse_penman, text, None)
    assert want[0] == "graph"
    with no_hand_over():
        assert outcome(parse_penman, text, None) == want
