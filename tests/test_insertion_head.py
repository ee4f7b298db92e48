"""Classifier step 7 reads the insertion head off the containment witness.
The head rule keeps its fixed cases, and on the shapes the benchmark draws
it names the head that the maximum-common-subgraph alignment of
``graph_difference`` names, for every pair within that alignment's
exact-search cap."""

from __future__ import annotations

import random

import pytest

from amrinfer.classify import EntailmentTriple, Statement, _inserted_head, classify
from amrinfer.errors import TransformError
from amrinfer.graph import (
    EXACT_DIFFERENCE_CAP,
    AmrGraph,
    Edge,
    graph_difference,
    relaxed_embedding,
)
from amrinfer.penman import parse_penman
from amrinfer.taxonomy import InferenceType
from amrinfer.transform import TransformRequest, transform

from tests.generators import enlarged_pairs, linearize, repeated_graph, synthetic_corpus

AMR = parse_penman


def _head(before: AmrGraph, after: AmrGraph) -> str | None:
    witness = relaxed_embedding(before, after)
    assert witness is not None
    return _inserted_head(after, witness)


def test_head_of_an_incoming_frame():
    # "a kind of energy" versus "a kind of energy that comes from the sun":
    # the inserted frame hangs off the retained root by an inverse role.
    before = AMR("(e / energy :domain (e2 / energy :mod (s / solar)))")
    after = AMR(
        "(e / energy :domain (e2 / energy :mod (s / solar))"
        " :ARG1-of (c / come-01 :ARG3 (s2 / sun)))"
    )
    assert _head(before, after) == "come-01"


def test_head_of_a_plain_argument():
    before = AMR("(g / granite :domain (s / stone))")
    after = AMR("(g / granite :domain (s / stone) :mod (h / hard :mod (v / very)))")
    assert _head(before, after) == "hard"


def test_head_is_an_unmapped_root():
    # The first edge that joins the two parts enters at ``grey``, but an
    # unmapped root heads the insert.
    before = AMR("(s / stone :mod (h / hard))")
    after = AMR("(g / granite :mod (x / grey :domain (s / stone :mod (h / hard))))")
    assert _head(before, after) == "granite"


def test_unsearched_nodes_take_the_first_free_node_of_their_bucket():
    # Only argument edges are searched; every other premise node takes the
    # first free node of its concept, in stored node order, and the head
    # follows from that choice.
    before = AMR("(a / alpha :mod (b / beta))")
    after = AMR("(r / alpha :mod (b1 / beta :mod (x / gamma)) :mod (b2 / beta))")
    assert relaxed_embedding(before, after) == {"a": "r", "b": "b1"}
    assert _head(before, after) == "gamma"
    before = AMR("(a / alpha :ARG0 (b / beta) :mod (c / beta) :mod (d / beta))")
    after = AMR(
        "(r / alpha :mod (b1 / beta) :ARG0 (b2 / beta) :mod (b3 / beta)"
        " :mod (b4 / beta))"
    )
    witness = relaxed_embedding(before, after)
    assert witness == {"a": "r", "b": "b2", "c": "b1", "d": "b3"}


def test_head_is_the_source_of_an_edge_into_the_mapped_part():
    # The first edge, in stored order, that joins the two parts runs from
    # the insert into the retained material.
    before = AMR("(a / alpha :ARG0 (b / beta))")
    after = AmrGraph(
        "a",
        {"a": "alpha", "b": "beta", "x": "gamma", "y": "delta"},
        (
            Edge("a", ":ARG0", "b"),
            Edge("x", ":ARG1", "b"),
            Edge("a", ":mod", "y"),
            Edge("y", ":mod", "x"),
        ),
    )
    assert _head(before, after) == "gamma"


def test_no_head_when_every_node_maps():
    g = AMR("(g / granite :domain (s / stone))")
    assert _head(g, g) is None


def _benchmark_triples(seed: int):
    """The synthetic corpus, then premise pairs whose premises both carry
    a block of one to three recurring concepts, in the shapes of the
    benchmark's ``corpus`` and ``repeat`` records."""
    rng = random.Random(seed)
    for record in synthetic_corpus(rng, 180):
        yield record.triple()
    shapes = ((6, 1), (7, 1), (8, 2), (9, 2), (9, 3), (10, 3), (11, 3))

    def material(r: random.Random, shape: tuple[int, int]) -> AmrGraph:
        return repeated_graph(r, *shape)

    for type_, p1, p2, hint in enlarged_pairs(rng, shapes, material, both=True):
        try:
            c = transform(TransformRequest(p1, p2, type_, hint))
        except TransformError:
            continue
        yield EntailmentTriple(*(Statement(linearize(g), g) for g in (p1, p2, c)))


@pytest.mark.parametrize("seed", (1, 11))
def test_head_matches_the_difference_alignment_on_benchmark_shapes(seed):
    compared = 0
    for t in _benchmark_triples(seed):
        result = classify(t)
        if result.type is not InferenceType.ARG_INS:
            continue
        witnesses = result.evidence.witnesses
        index = result.pivot if witnesses["base"] == "pivot" else 3 - result.pivot
        base = (t.p1.graph, t.p2.graph)[index - 1]
        g_c = t.conclusion.graph
        if max(len(base.nodes), len(g_c.nodes)) > EXACT_DIFFERENCE_CAP:
            continue
        delta = graph_difference(base, g_c)
        assert not delta.approximate
        assert witnesses["inserted_head"] == _inserted_head(g_c, delta.node_map)
        compared += 1
    assert compared >= 20
