"""The indexed graph core and the one-pass Penman reader and writer agree
exactly with the scan-based references, and stay linear on large graphs."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amrinfer.amr import _out_index
from amrinfer.errors import AmrError, GraphInvariantError, InvalidSiteError
from amrinfer.graph import AmrGraph, Concept, Edge, conjoin_graphs, relaxed_subset_at
from amrinfer.penman import parse_penman, serialize_penman
from amrinfer.pipeline import load_corpus, sample_corpus_path
from amrinfer.taxonomy import InferenceType
from amrinfer.transform import TransformRequest, transform

from tests.generators import fuzz_penman_graph, layered_graph, random_graph
from tests.oracle import (
    brute_carve,
    scan_closure,
    scan_document_order,
    scan_outgoing,
    scan_serialize,
    scan_subgraph_at,
)


def _inserted(rng: random.Random) -> AmrGraph | None:
    """No-hint ARG-INS on a fuzz pair, or None when it fails."""
    p1, p2 = fuzz_penman_graph(rng), fuzz_penman_graph(rng)
    try:
        return transform(TransformRequest(p1, p2, InferenceType.ARG_INS))
    except AmrError:
        return None


def _graphs():
    """Oracle and fuzz graphs, layered ones with chains up to 150 deep
    (the recursive references need the call stack), and derived ones,
    conjoined or with a frame inserted, whose stored edge order differs
    most from document order."""
    seeds = st.integers(0, 10**9)
    return st.one_of(
        seeds.map(lambda s: random_graph(random.Random(s), constants=True)),
        seeds.map(lambda s: fuzz_penman_graph(random.Random(s))),
        st.tuples(seeds, st.integers(1, 200), st.integers(0, 150)).map(
            lambda a: layered_graph(random.Random(a[0]), a[1], a[2])
        ),
        seeds.map(random.Random).map(
            lambda r: conjoin_graphs(fuzz_penman_graph(r), fuzz_penman_graph(r))
        ),
        seeds.map(lambda s: _inserted(random.Random(s))).filter(
            lambda g: g is not None
        ),
    )


@given(_graphs())
@settings(max_examples=150, deadline=None)
def test_traversals_match_scan_references(g):
    # About ten nodes per graph: the references are quadratic per node.
    nodes = list(g.nodes)
    for n in nodes[:: max(1, len(nodes) // 10)]:
        assert g.outgoing(n) == scan_outgoing(g, n)
        assert g.closure(n) == scan_closure(g, n)
        sub, ref = g.subgraph_at(n), scan_subgraph_at(g, n)
        assert sub == ref
        assert list(sub.nodes) == list(ref.nodes)
        # Built without validation; valid by construction.
        sub.validate()


@given(_graphs())
@settings(max_examples=150, deadline=None)
def test_reader_and_writer_match_scan_references(g):
    text = serialize_penman(g)
    assert text == scan_serialize(g)
    parsed = parse_penman(text)
    nodes, edges = scan_document_order(g)
    assert list(parsed.nodes) == nodes
    assert list(parsed.edges) == edges
    assert serialize_penman(parsed) == text


@given(_graphs())
@settings(max_examples=150, deadline=None)
def test_carve_removes_exactly_what_the_root_no_longer_reaches(g):
    # A closure that never enters ``at`` keeps exactly what survives it,
    # and ``carve`` finds the rest from ``at``'s closure alone.
    for at in g.nodes:
        carved = brute_carve(g, at)
        assert g.carve(at) == carved
        if at != g.root:
            assert set(g.nodes) - set(g.closure(g.root, at)) == carved


@pytest.mark.parametrize("method", ["closure", "subgraph_at"])
@pytest.mark.parametrize("node, cut", [("zz", None), ("a", "a")])
def test_a_walk_from_no_node_or_from_its_cut_is_refused(method, node, cut):
    # A missing node raised KeyError, a missing node's closure was itself,
    # and the subgraph at its own cut had no nodes and did not serialize.
    g = parse_penman("(a / b :ARG0 (c / d))")
    with pytest.raises(InvalidSiteError):
        getattr(g, method)(node, cut)
    assert g.closure("a", "c") == ["a"]
    assert serialize_penman(g.subgraph_at("a", "c")) == "(a / b)"


def test_containment_from_no_node_is_refused():
    # The containment of ``subgraph_at(node)`` refuses the same missing
    # node; it raised KeyError, which is not an AmrError.
    g = parse_penman("(a / b :ARG0 (c / d))")
    with pytest.raises(InvalidSiteError):
        relaxed_subset_at(g, "zz", g)
    assert relaxed_subset_at(g, "c", g)


def test_index_is_not_part_of_the_value():
    g = parse_penman("(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-01 :ARG0 b))")
    same = AmrGraph(g.root, dict(g.nodes), g.edges)
    assert g == same
    assert "_out" not in repr(g)
    # The index follows the edges alone: nodes added behind the
    # constructor's back leave traversal unchanged and still fail validation.
    same.nodes["x"] = Concept("extra")
    assert same.closure("w") == ["w", "b", "g"]
    assert same.outgoing("g") == [Edge("g", ":ARG0", "b")]
    with pytest.raises(GraphInvariantError, match="not reachable from root: x"):
        same.validate()


def test_out_edge_index_is_built_on_first_use():
    # Neither reading nor loading builds an index; the first walk does.
    text = "(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-01 :ARG0 b :polarity -))"
    records, errors = load_corpus(sample_corpus_path())
    assert records and not errors
    loaded = [g for r in records for g in r.graphs]
    for g in [parse_penman(text), *loaded]:
        assert set(vars(g)) == {"root", "nodes", "edges"}
    walked, written = parse_penman(text), loaded[0]
    walked.outgoing("g")
    serialize_penman(written)
    for g in (walked, written):
        assert g._out == _out_index(g.edges)


def test_large_graph_stays_linear():
    # 6400 nodes under a 300-deep chain: quadratic scans took several
    # seconds on a 2-CPU x86-64 host, the indexed core about 0.2 s.
    g = layered_graph(random.Random(7), 6400, 300)
    start = time.process_time()
    text = serialize_penman(g)
    parsed = parse_penman(text)
    parsed.validate()
    elapsed = time.process_time() - start
    assert len(parsed.nodes) == 6400
    assert elapsed < 2.0
