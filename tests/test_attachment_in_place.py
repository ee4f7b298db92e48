"""Classifier step 5 checks each conclusion subtree in place. The in-place
containment ``relaxed_subset_at`` agrees with ``relaxed_embedding`` on the
subtree built as a graph, and with the brute-force oracle on small graphs.
``relaxed_embedding`` counts with ``_fits`` and searches the stored-order
argument edges, so it shares no walk with ``relaxed_subset_at``, unlike
``relaxed_subset``, which is that walk at the root. The attachment scan
built on ``relaxed_subset_at`` picks the same edge as the reference scan,
which builds every subtree and tests it with ``relaxed_embedding``, and
the classify path builds no subgraph at all."""

from __future__ import annotations

import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from amrinfer.classify import (
    EntailmentTriple,
    Statement,
    _attachment_site,
    _pivot,
    classify,
    tokenize,
)
from amrinfer.errors import TransformError
from amrinfer.graph import AmrGraph, relaxed_embedding, relaxed_subset_at
from amrinfer.transform import TransformRequest, transform

from tests.generators import (
    ORACLE_CONCEPTS,
    ORACLE_ROLES,
    TRANSFORMABLE_ORDER,
    layered_graph,
    linearize,
    make_premises,
    random_graph,
    synthetic_corpus,
)
from tests.oracle import brute_subset, scan_attachment_site

_seeds = st.integers(0, 10**9)

# The oracle's five concepts, and alphabets of one and two recurring
# concepts, where every node has several same-concept candidates.
ALPHABETS = (ORACLE_CONCEPTS, ("thing",), ("thing", "person"))
# Half the roles are argument roles, so subtrees carry edges to search.
ROLES = ORACLE_ROLES + (":op1",)


def _graph(seed: int, alphabet: tuple[str, ...]) -> AmrGraph:
    """Re-entrancies and cycles from ``random_graph``'s extra edges, plus
    constants on ``:value`` and on argument roles. One-concept graphs stop
    at six nodes, where the oracle tries at most 720 mappings."""
    return random_graph(
        random.Random(seed),
        6 if len(alphabet) == 1 else 8,
        alphabet,
        ROLES,
        constants=True,
        argument_constants=True,
    )


def _assert_in_place(g: AmrGraph, outer: AmrGraph, brute: bool) -> int:
    """Check every node of ``g``; returns the number of positive cases."""
    positives = 0
    for n in g.nodes:
        sub = g.subgraph_at(n)
        got = relaxed_subset_at(g, n, outer)
        assert got == (relaxed_embedding(sub, outer) is not None), (g, n, outer)
        if brute:
            assert got == brute_subset(sub, outer), (g, n, outer)
        positives += got
    return positives


@given(_seeds, _seeds, st.sampled_from(ALPHABETS))
@settings(max_examples=400, deadline=None)
def test_in_place_agrees_with_subgraph_and_oracle(seed_g, seed_outer, alphabet):
    _assert_in_place(_graph(seed_g, alphabet), _graph(seed_outer, alphabet), brute=True)


@given(_seeds, _seeds, st.integers(1, 30), st.integers(0, 12))
@settings(max_examples=100, deadline=None)
def test_in_place_agrees_with_subgraph_on_layered_graphs(seed_g, seed_outer, size, depth):
    # Up to 30 nodes over six concepts: past the oracle's reach.
    g = layered_graph(random.Random(seed_g), size, depth)
    outer = layered_graph(random.Random(seed_outer), size + 5, depth)
    _assert_in_place(g, outer, brute=False)
    _assert_in_place(g, g, brute=False)


def test_in_place_agrees_with_oracle_on_a_fixed_sample():
    # A fixed sample wide enough to see both outcomes from every alphabet.
    rng = random.Random(12)
    cases = positives = 0
    for i in range(6000):
        alphabet = ALPHABETS[i % len(ALPHABETS)]
        g = _graph(rng.randrange(10**9), alphabet)
        outer = _graph(rng.randrange(10**9), alphabet)
        positives += _assert_in_place(g, outer, brute=True)
        cases += len(g.nodes)
    assert 0 < positives < cases


def _both_pivots(g_c: AmrGraph, a: AmrGraph, b: AmrGraph) -> int:
    """Compare both scans with either premise as the pivot; returns how
    many sites they found."""
    found = 0
    for g_x, g_other in ((a, b), (b, a)):
        site = _attachment_site(g_c, g_x, g_other)
        assert site == scan_attachment_site(g_c, g_x, g_other)
        found += site is not None
    return found


def test_attachment_site_matches_subgraph_scan_on_derived_triples():
    rng = random.Random(5)
    found = 0
    for _ in range(40):
        for type_ in TRANSFORMABLE_ORDER:
            p1, p2, hint = make_premises(rng, type_)
            try:
                c = transform(TransformRequest(p1.graph, p2.graph, type_, hint))
            except TransformError:
                continue
            found += _both_pivots(c, p1.graph, p2.graph)
    assert found


def test_attachment_site_matches_subgraph_scan_on_corpus_records():
    found = 0
    for record in synthetic_corpus(random.Random(9), 360):
        t = record.triple()
        g_x, g_other = (t.p1.graph, t.p2.graph)
        if _pivot(tokenize(t.p1.text), tokenize(t.p2.text), tokenize(t.conclusion.text)) == 2:
            g_x, g_other = g_other, g_x
        site = _attachment_site(t.conclusion.graph, g_x, g_other)
        assert site == scan_attachment_site(t.conclusion.graph, g_x, g_other)
        found += site is not None
    assert found


@given(_seeds, _seeds, _seeds, st.sampled_from(ALPHABETS))
@settings(max_examples=300, deadline=None)
def test_attachment_site_matches_subgraph_scan_on_random_triples(s1, s2, s3, alphabet):
    _both_pivots(_graph(s3, alphabet), _graph(s1, alphabet), _graph(s2, alphabet))


def test_classify_builds_no_subgraph():
    # Corpus records reach every step-5 rule; random material reaches
    # step 5 with many candidate edges.
    triples = [r.triple() for r in synthetic_corpus(random.Random(10), 90)]
    rng = random.Random(13)
    for i in range(300):
        alphabet = ALPHABETS[i % len(ALPHABETS)]
        graphs = [_graph(rng.randrange(10**9), alphabet) for _ in range(3)]
        triples.append(EntailmentTriple(*(Statement(linearize(g), g) for g in graphs)))
    with mock.patch.object(AmrGraph, "subgraph_at", side_effect=AssertionError):
        results = [classify(t) for t in triples]
    assert {r.evidence.rule for r in results} >= {
        "argument-substitution",
        "property-inheritance",
        "frame-substitution",
    }
