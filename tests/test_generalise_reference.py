"""ARG/PRED-GEN by concept counts agrees with the derivation it replaced,
which read the leftover concepts off a ``graph_difference`` alignment
(``tests.oracle.scan_generalise``): the same graph, or the same error with
the same message. Pairs are random, layered past the exact-search cap,
one concept apart, and heavy in one concept, under budgets small enough
that the alignment often runs out and falls back to the greedy one."""

from __future__ import annotations

import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from amrinfer import graph as graph_module
from amrinfer.errors import NotSingleDifferenceError
from amrinfer.graph import AmrGraph, relabel_node
from amrinfer.taxonomy import InferenceType
from amrinfer.transform import TransformRequest, transform

from tests.generators import layered_graph, random_graph
from tests.oracle import scan_generalise

_seeds = st.integers(0, 10**9)
_budgets = st.sampled_from((30, 300, graph_module._ALIGNMENT_BUDGET))


def _layered(seed: int, size: int, depth: int) -> AmrGraph:
    return layered_graph(random.Random(seed), size, depth)


def _heavy(seed: int) -> AmrGraph:
    """Up to 30 nodes of two concepts, one of them mostly."""
    return random_graph(
        random.Random(seed), max_nodes=30, concepts=("thing",) * 4 + ("person",)
    )


def _one_swap(g: AmrGraph, seed: int, concept: str) -> tuple[AmrGraph, AmrGraph]:
    at = random.Random(seed).choice(list(g.nodes))
    return g, relabel_node(g, at, concept)


_graphs = st.one_of(
    st.builds(lambda s: random_graph(random.Random(s)), _seeds),
    st.builds(_layered, _seeds, st.integers(1, 30), st.integers(0, 12)),
    st.builds(_heavy, _seeds),
)
_swapped = st.builds(
    _one_swap, _graphs, _seeds, st.sampled_from(("thing", "person", "rock", "sugar"))
)
_pairs = st.one_of(st.tuples(_graphs, _graphs), _swapped)


def _outcome(derive, a: AmrGraph, b: AmrGraph):
    try:
        g = derive(a, b)
    except NotSingleDifferenceError as exc:
        return "error", str(exc)
    return g.root, list(g.nodes.items()), g.edges


def _counting(a: AmrGraph, b: AmrGraph) -> AmrGraph:
    return transform(TransformRequest(a, b, InferenceType.ARG_PRED_GEN))


@given(_pairs, _budgets)
@settings(max_examples=300, deadline=None)
def test_counting_matches_the_alignment_reference(pair, budget):
    a, b = pair
    with mock.patch.object(graph_module, "_ALIGNMENT_BUDGET", budget):
        assert _outcome(_counting, a, b) == _outcome(scan_generalise, a, b)

