"""Classifier step 5 checks no subtree inside one that embeds in both
premises. Containment pins no root, so such a subtree embeds in the pivot
too and cannot be an attachment site: skipping it is exact. The scan with
the skip picks the same edge as the oracle's scan, which checks every
candidate edge, and a deep chain is checked once instead of once per
edge."""

from __future__ import annotations

import gc
import random
import time
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from amrinfer.classify import EntailmentTriple, _attachment_site, _pivot, classify, tokenize
from amrinfer.graph import AmrGraph, Edge, insert_argument, relaxed_subset
from amrinfer.taxonomy import InferenceType

from tests.generators import _chain, _stmt, fuzz_penman_graph, layered_graph, synthetic_corpus
from tests.oracle import scan_attachment_site

_seeds = st.integers(0, 10**9)


def _both_pivots(g_c: AmrGraph, a: AmrGraph, b: AmrGraph) -> None:
    for g_x, g_other in ((a, b), (b, a)):
        assert _attachment_site(g_c, g_x, g_other) == scan_attachment_site(g_c, g_x, g_other)


def _node(rng: random.Random, g: AmrGraph) -> str:
    return rng.choice(list(g.nodes))


def _sharing_triple(seed: int) -> tuple[AmrGraph, AmrGraph, AmrGraph]:
    """Two fuzzed premises that each carry one shared fuzzed block, and a
    conclusion that is premise 1 with premise 2's own material attached:
    the shared block's subtrees embed in both premises. The fuzzed graphs
    use no ``:ARG4`` or ``:ARG5``, so no attachment duplicates an edge."""
    rng = random.Random(seed)
    shared = fuzz_penman_graph(rng)
    p1 = insert_argument(fuzz_penman_graph(rng), "v0", shared, ":ARG4")
    own = fuzz_penman_graph(rng)
    p2 = insert_argument(own, _node(rng, own), shared, ":ARG4")
    c = insert_argument(p1, _node(rng, p1), own, ":ARG5")
    return p1, p2, c


def _layered_triple(seed: int) -> tuple[AmrGraph, AmrGraph, AmrGraph]:
    """A deep conclusion with re-entrancies and cycles, and two of its own
    subtrees as the premises, so most of its subtrees embed in both."""
    rng = random.Random(seed)
    c = layered_graph(rng, rng.randint(2, 40), rng.randint(0, 30))
    return c.subgraph_at(_node(rng, c)), c.subgraph_at(_node(rng, c)), c


@given(_seeds)
@settings(max_examples=300, deadline=None)
def test_skip_matches_the_full_scan_on_fuzzed_triples(seed):
    p1, p2, c = _sharing_triple(seed)
    _both_pivots(c, p1, p2)


@given(_seeds)
@settings(max_examples=200, deadline=None)
def test_skip_matches_the_full_scan_on_layered_triples(seed):
    p1, p2, c = _layered_triple(seed)
    _both_pivots(c, p1, p2)


def test_skip_matches_the_full_scan_on_the_synthetic_corpus():
    for record in synthetic_corpus(random.Random(0), 600):
        t = record.triple()
        g_x, g_other = t.p1.graph, t.p2.graph
        if _pivot(tokenize(t.p1.text), tokenize(t.p2.text), tokenize(t.conclusion.text)) == 2:
            g_x, g_other = g_other, g_x
        g_c = t.conclusion.graph
        assert _attachment_site(g_c, g_x, g_other) == scan_attachment_site(g_c, g_x, g_other)


def test_the_fixed_samples_reach_the_skip():
    # ``_attachment_site`` calls ``closure`` only to cover a subtree: both
    # kinds of sample must take covers, or they would not test the skip.
    for make in (_sharing_triple, _layered_triple):
        covers = 0
        for seed in range(40):
            p1, p2, c = make(seed)
            with mock.patch.object(AmrGraph, "closure", autospec=True, side_effect=AmrGraph.closure) as closure:
                _attachment_site(c, p1, p2)
                _attachment_site(c, p2, p1)
            covers += closure.call_count
        assert covers >= 10, make


def test_deep_chain_is_checked_once():
    """Premise 1 is an 800-node ``:ARG1`` chain, premise 2 the same chain
    one concept later, and the conclusion is premise 1 with an ``:ARG2``
    person on its root. Every subtree below the root embeds in both
    premises, so the first is covered and no later one is checked. The
    scan that checked every edge took 2.5 s of CPU on a 2-CPU x86-64
    machine, and this one about 10 ms."""
    p1, p2 = _chain(800, 0), _chain(800, 1)
    c = AmrGraph(p1.root, {**p1.nodes, "z": "person"}, p1.edges + (Edge(p1.root, ":ARG2", "z"),))
    t = EntailmentTriple(_stmt(p1), _stmt(p2), _stmt(c))
    # Collected first, as below.
    gc.collect()
    start = time.process_time()
    result = classify(t)
    assert time.process_time() - start < 0.25
    assert result.type is InferenceType.ARG_INS
    assert result.evidence.rule == "argument-insertion"


def test_deep_chain_stored_child_first():
    """The same triple at n = 200, with the conclusion's edges stored in
    reverse, so each subtree's edges come child first. Step 5 collects a
    subtree's edges as its walk meets them, parent first, so each node is
    drawn from its parent's partner, not from its whole concept bucket.
    Searching in stored order took 12.4 s of CPU on a 2-CPU x86-64
    machine, and walk order about 90 ms."""
    p1, p2 = _chain(200, 0), _chain(200, 1)
    edges = p1.edges + (Edge(p1.root, ":ARG2", "z"),)
    c = AmrGraph(p1.root, {**p1.nodes, "z": "person"}, edges[::-1])
    t = EntailmentTriple(_stmt(p1), _stmt(p2), _stmt(c))
    # Collected first, so that no collection of the garbage earlier tests
    # left behind falls inside the timed call.
    gc.collect()
    start = time.process_time()
    result = classify(t)
    assert time.process_time() - start < 0.5
    assert result.type is InferenceType.ARG_INS
    assert result.evidence.rule == "argument-insertion"


def test_child_first_containment():
    """``relaxed_subset`` of a 400-node chain with its edges stored in
    reverse, into the chain itself. It is the walk of
    ``relaxed_subset_at`` at the root, which collects the argument edges
    parent first, so each node draws from its parent's partner. Searching
    in stored order drew each node from its whole concept bucket: about
    0.6 s of CPU on a 2-CPU x86-64 machine, against 1.2 ms in walk order."""
    outer = _chain(400, 0)
    inner = AmrGraph(outer.root, outer.nodes, outer.edges[::-1])
    gc.collect()
    start = time.process_time()
    assert relaxed_subset(inner, outer)
    assert time.process_time() - start < 0.1
