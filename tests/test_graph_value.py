"""The graph value and the small records around it keep the semantics they
had as frozen dataclasses: the same ``repr`` strings, equality by value,
no hash for a graph, no assignment, and a constructor that validates. A
graph's equality also compares node order, which the dataclass did not,
since the transforms rank sites by node position."""

from __future__ import annotations

import pytest

from amrinfer.amr import AmrGraph, Constant, Edge
from amrinfer.errors import GraphInvariantError
from amrinfer.graph import graph_difference, relaxed_embedding
from amrinfer.penman import parse_penman, serialize_penman
from amrinfer.taxonomy import InferenceType
from amrinfer.transform import TransformRequest, transform

TEXT = '(c / contain-01 :ARG0 (f / food) :quant 3 :mod (n / name :op1 "Mt"))'


def _rock() -> AmrGraph:
    return parse_penman("(r / rock)")


def _hard_rock() -> AmrGraph:
    return parse_penman("(r / rock :mod (h / hard))")


class TestRepr:
    def test_graph(self):
        assert repr(parse_penman(TEXT)) == (
            "AmrGraph(root='c', nodes={'c': 'contain-01', 'f': 'food', 'n': 'name'}, "
            "edges=(Edge(source='c', role=':ARG0', target='f'), "
            "Edge(source='c', role=':quant', target=Constant(value='3', is_string=False)), "
            "Edge(source='c', role=':mod', target='n'), "
            "Edge(source='n', role=':op1', target=Constant(value='Mt', is_string=True))))"
        )

    def test_constant(self):
        assert repr(Constant("-")) == "Constant(value='-', is_string=False)"
        assert repr(Constant("Mt", is_string=True)) == "Constant(value='Mt', is_string=True)"

    def test_graph_delta(self):
        assert repr(graph_difference(_rock(), _hard_rock())) == (
            "GraphDelta(node_map={'r': 'r'}, removed_nodes=(), removed_edges=(), "
            "added_nodes=(('h', 'hard'),), "
            "added_edges=(Edge(source='r', role=':mod', target='h'),), "
            "to_root='r', approximate=False)"
        )

    def test_transform_request(self):
        rock = "AmrGraph(root='r', nodes={'r': 'rock'}, edges=())"
        hard = (
            "AmrGraph(root='r', nodes={'r': 'rock', 'h': 'hard'}, "
            "edges=(Edge(source='r', role=':mod', target='h'),))"
        )
        request = TransformRequest(_rock(), _hard_rock(), InferenceType.ARG_SUB)
        assert repr(request) == (
            f"TransformRequest(p1={rock}, p2={hard}, "
            "type=<InferenceType.ARG_SUB: 'ARG-SUB'>, site_hint=None)"
        )
        hinted = TransformRequest(_rock(), _hard_rock(), InferenceType.ARG_SUB, ("r", "r"))
        assert repr(hinted).endswith("site_hint=('r', 'r'))")


class TestGraph:
    def test_equal_only_to_a_graph(self):
        g = parse_penman(TEXT)
        assert g == parse_penman(TEXT)
        assert g != parse_penman(TEXT.replace("food", "meal"))
        assert g != (g.root, g.nodes, g.edges)
        assert g != object()
        assert g.__eq__((g.root, g.nodes, g.edges)) is NotImplemented

    def test_node_order_and_edge_order_are_compared(self):
        # Both orders are part of the value: the nodes compare in order.
        a = AmrGraph("r", {"r": "rock", "h": "hard", "b": "big"}, [("r", ":mod", "h"), ("r", ":mod", "b")])
        b = AmrGraph("r", {"r": "rock", "b": "big", "h": "hard"}, [("r", ":mod", "h"), ("r", ":mod", "b")])
        c = AmrGraph("r", {"r": "rock", "h": "hard", "b": "big"}, [("r", ":mod", "b"), ("r", ":mod", "h")])
        assert a.nodes == b.nodes and a != b and b != a
        assert a != c
        assert a == AmrGraph("r", dict(a.nodes), a.edges)

    def test_graphs_differing_in_node_order_transform_differently(self):
        # ARG-SUB ranks its sites by node position, so two graphs that
        # differ only in node order must not be equal.
        kind = parse_penman("(m / metal :domain (i / iron))")
        edges = [("c", ":ARG0", "a"), ("c", ":ARG1", "b")]
        ab = AmrGraph("c", {"c": "contain-01", "a": "metal", "b": "metal"}, edges)
        ba = AmrGraph("c", {"c": "contain-01", "b": "metal", "a": "metal"}, edges)
        assert ab != ba

        def derived(g):
            return serialize_penman(transform(TransformRequest(kind, g, InferenceType.ARG_SUB)))

        assert derived(ab) == "(c / contain-01 :ARG0 (i / iron) :ARG1 (b / metal))"
        assert derived(ba) == "(c / contain-01 :ARG0 (a / metal) :ARG1 (i / iron))"

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(parse_penman(TEXT))

    @pytest.mark.parametrize("name", ["root", "nodes", "edges", "_out", "_buckets", "other"])
    def test_read_only(self, name):
        g = parse_penman(TEXT)
        with pytest.raises(AttributeError):
            setattr(g, name, None)
        g.has_concept("food")  # builds ``_buckets``
        with pytest.raises(AttributeError):
            delattr(g, name)

    def test_built_indexes_are_not_part_of_the_value(self):
        g, same = parse_penman(TEXT), parse_penman(TEXT)
        text = repr(g)
        g._out, same._out  # built on first use, like the match index
        assert relaxed_embedding(g, same) is not None and relaxed_embedding(same, g) is not None
        assert g.has_concept("food")
        assert {"_out", "_buckets", "_edge_set", "_arguments"} <= set(vars(g))
        assert "_buckets" not in vars(parse_penman(TEXT))
        assert g == same and same == g
        assert repr(g) == text

    def test_keyword_construction_validates_and_makes_edges(self):
        g = AmrGraph(root="r", nodes={"r": "rock", "h": "hard"}, edges=[("r", ":mod", "h")])
        assert g.edges == (Edge("r", ":mod", "h"),)
        assert type(g.edges[0]) is Edge
        assert g == _hard_rock()
        with pytest.raises(GraphInvariantError, match="not reachable"):
            AmrGraph(root="r", nodes={"r": "rock", "h": "hard"}, edges=())
        with pytest.raises(GraphInvariantError, match="duplicate edge"):
            AmrGraph(root="r", nodes={"r": "rock", "h": "hard"}, edges=[("r", ":mod", "h")] * 2)
        with pytest.raises(GraphInvariantError, match="is not a node"):
            AmrGraph(root="x", nodes={"r": "rock"}, edges=())


class TestConstant:
    def test_equality_and_hash(self):
        assert Constant("-") == Constant("-", False)
        assert Constant("x") != Constant("x", is_string=True)
        assert hash(Constant("42")) == hash(Constant("42"))
        assert len({Constant("x"), Constant("x"), Constant("x", is_string=True)}) == 2

    def test_render(self):
        assert Constant("-").render() == "-"
        assert Constant("Mt Everest", is_string=True).render() == '"Mt Everest"'
        assert str(Constant("42")) == "42"
