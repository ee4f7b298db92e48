"""The edits copy only what they change. An import that renames nothing
hands back the graph's own nodes dict and edges tuple, and a subgraph
that keeps the whole graph shares its edges tuple. No edit changes an
input, and every output has a nodes dict of its own."""

from __future__ import annotations

import random

from amrinfer.errors import AmrError
from amrinfer.graph import (
    _import_nodes,
    conjoin_graphs,
    insert_argument,
    relabel_node,
    substitute_subgraph,
)
from amrinfer.penman import parse_penman

from tests.generators import fuzz_penman_graph, layered_graph, renamed
from tests.oracle import sorted_subgraph_at


def test_an_import_that_renames_nothing_is_shared():
    g = parse_penman("(a / x :ARG0 (b / y) :quant 3)")
    taken = {"c"}
    nodes, edges, root = _import_nodes(g, taken)
    assert nodes is g.nodes and edges is g.edges and root == g.root
    assert taken == {"a", "b", "c"}


def test_an_import_with_a_clash_renames_each_clashing_name():
    g = parse_penman("(a / x :ARG0 (a2 / y))")
    taken = {"a", "a2"}
    nodes, edges, root = _import_nodes(g, taken)
    assert list(nodes.items()) == [("a3", "x"), ("a22", "y")]
    assert list(edges) == [("a3", ":ARG0", "a22")]
    assert root == "a3"
    assert taken == {"a", "a2", "a3", "a22"}


def _snapshot(g):
    return g.root, list(g.nodes.items()), g.edges


def test_edits_leave_their_inputs_alone_and_own_their_nodes():
    rng = random.Random(0)
    for _ in range(300):
        p1 = fuzz_penman_graph(rng)
        # Fuzz variables always clash; the prefixed copy never does, so
        # both branches of the import run.
        p2 = fuzz_penman_graph(rng)
        for q in (p2, renamed(p2, "y")):
            n1 = rng.choice(list(p1.nodes))
            inputs = (p1, q)
            before = [_snapshot(g) for g in inputs]
            for edit in (
                lambda: substitute_subgraph(p1, n1, q),
                lambda: insert_argument(p1, n1, q, ":mod"),
                lambda: conjoin_graphs(p1, q),
                lambda: relabel_node(p1, n1, "rock"),
            ):
                try:
                    out = edit()
                except AmrError:
                    continue
                assert [_snapshot(g) for g in inputs] == before
                assert all(out.nodes is not g.nodes for g in inputs)
                out.validate()


def test_a_whole_subgraph_shares_the_edges():
    g = parse_penman("(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-01 :ARG0 b :polarity -))")
    assert g.subgraph_at(g.root).edges is g.edges
    assert g.subgraph_at(g.root).nodes is not g.nodes


def test_subgraph_matches_the_sorted_positions_construction():
    rng = random.Random(0)
    for _ in range(200):
        g = layered_graph(rng, rng.randint(2, 60), rng.randint(1, 20))
        names = list(g.nodes)
        for n in names:
            assert g.subgraph_at(n) == sorted_subgraph_at(g, n)
            cut = rng.choice(names)
            if cut != n:
                assert g.subgraph_at(n, cut) == sorted_subgraph_at(g, n, cut)
