"""Every graph edit, and every graph a transform handler cuts or builds,
skips validation: its maker proves the graph valid and builds it through
``AmrGraph._built``. These properties check the proofs. On random graphs
with re-entrancies and cycles, each output equals, field for field and
down to the out-edge index, the graph that the validating constructor
builds from its root, nodes and edges, and every edge is an ``Edge``.
The survivors of a substitution are the nodes that the root still
reaches once the site is gone, by the brute-force reference, and a
subgraph cut at a node is the frame that the residue-building reference
severs there.

CI runs this file a second time with ``--hypothesis-seed=0``, so a
failure seen there reproduces with::

    PYTHONPATH=src python -m pytest tests/test_edit_proofs.py --hypothesis-seed=0
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from amrinfer.errors import AmrError, DuplicateRoleError
from amrinfer.graph import (
    AmrGraph,
    Edge,
    conjoin_graphs,
    insert_argument,
    relabel_node,
    substitute_subgraph,
)
from amrinfer.taxonomy import InferenceType
from amrinfer.transform import TransformRequest, transform

from tests.generators import (
    TRANSFORMABLE_ORDER,
    fuzz_penman_graph,
    make_premises,
    random_graph,
)
from tests.oracle import brute_carve, scan_severed_frame

_seeds = st.integers(0, 10**9)


def _graph(rng: random.Random) -> AmrGraph:
    if rng.random() < 0.5:
        return fuzz_penman_graph(rng)
    return random_graph(rng, constants=True)


def _conditional(rng: random.Random) -> AmrGraph:
    """A rule premise: a random consequent with a random antecedent under
    its root's :condition edge, and an edge from the antecedent back into
    the consequent, so that a placeholder lives on both sides."""
    consequent = _graph(rng)
    g = insert_argument(consequent, consequent.root, _graph(rng), ":condition")
    antecedent = g.closure(g.child_edge(g.root, ":condition").target)
    edge = Edge(rng.choice(antecedent), ":ARG1", rng.choice(list(g.nodes)))
    if edge in g.edges:
        return g
    return AmrGraph(g.root, dict(g.nodes), g.edges + (edge,))


def assert_proved(out: AmrGraph) -> None:
    assert all(type(e) is Edge for e in out.edges)
    # The out-edge index is built on first use; the constructor's
    # validation reads it, so read it here too and compare it as well.
    out._out
    assert vars(out) == vars(AmrGraph(out.root, dict(out.nodes), out.edges))


@given(_seeds)
@settings(max_examples=200, deadline=None)
def test_substitution_at_every_non_root_node(seed):
    rng = random.Random(seed)
    g, replacement = _graph(rng), _graph(rng)
    for at in g.nodes:
        if at == g.root:
            continue
        out = substitute_subgraph(g, at, replacement)
        assert_proved(out)
        gone = brute_carve(g, at)
        survivors = [n for n in g.nodes if n not in gone]
        assert list(out.nodes)[: len(survivors)] == survivors
        assert len(out.nodes) == len(survivors) + len(replacement.nodes)


@given(_seeds)
@settings(max_examples=200, deadline=None)
def test_subgraph_cut_at_every_non_root_node(seed):
    g = _graph(random.Random(seed))
    for at in g.nodes:
        if at == g.root:
            continue
        survivors = g.closure(g.root, at)
        for p in g.nodes:
            ref = scan_severed_frame(g, at, p)
            if p not in survivors:
                assert ref is None
                continue
            out = g.subgraph_at(p, at)
            assert out.root == ref.root
            assert list(out.nodes.items()) == list(ref.nodes.items())
            assert out.edges == ref.edges
            assert_proved(out)


@given(_seeds, st.sampled_from([":mod", ":ARG1", ":time"]))
@settings(max_examples=200, deadline=None)
def test_insertion_and_relabelling_at_every_node(seed, role):
    rng = random.Random(seed)
    g, arg = _graph(rng), _graph(rng)
    for at in g.nodes:
        try:
            assert_proved(insert_argument(g, at, arg, role))
        except DuplicateRoleError:
            pass
        assert_proved(relabel_node(g, at, "thing"))


@given(_seeds)
@settings(max_examples=200, deadline=None)
def test_conjunction(seed):
    rng = random.Random(seed)
    a = _graph(rng)
    assert_proved(conjoin_graphs(a, _graph(rng)))
    assert_proved(conjoin_graphs(a, a))


def _pairs(rng: random.Random):
    """Random premise pairs, rule premises with either one as the rule,
    and each transformable type's own pair."""
    yield _graph(rng), _graph(rng)
    rule, fact = _conditional(rng), _graph(rng)
    yield rule, fact
    yield fact, rule
    for type_ in TRANSFORMABLE_ORDER:
        p1, p2, _ = make_premises(rng, type_)
        yield p1.graph, p2.graph


@given(_seeds)
@settings(max_examples=100, deadline=None)
def test_transform_under_every_type_with_random_site_hints(seed):
    rng = random.Random(seed)
    for p1, p2 in _pairs(rng):
        for type_ in InferenceType:
            for _ in range(3):
                hint = rng.choice(
                    [None, (rng.choice(list(p1.nodes)), rng.choice(list(p2.nodes)))]
                )
                try:
                    out = transform(TransformRequest(p1, p2, type_, hint))
                except AmrError:
                    continue
                assert_proved(out)
