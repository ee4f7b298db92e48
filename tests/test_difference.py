"""Graph difference: minimal deltas, replay, determinism, the cap."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amrinfer.graph import (
    AmrGraph,
    Concept,
    Edge,
    apply_delta,
    exact_isomorphic,
    graph_difference,
    relaxed_isomorphic,
)
from amrinfer.penman import parse_penman, serialize_penman
from amrinfer.taxonomy import InferenceType
from amrinfer.transform import TransformRequest, transform

from tests.generators import random_graph

AMR = parse_penman


def test_identity_yields_empty_delta():
    g = AMR("(r / require-01 :ARG0 (p / plant) :ARG1 (w / water))")
    delta = graph_difference(g, g)
    assert delta.is_empty
    assert not delta.approximate


def test_disjoint_single_nodes():
    delta = graph_difference(AMR("(a / rock)"), AMR("(b / water)"))
    assert [c for _, c in delta.removed_nodes] == ["rock"]
    assert [c for _, c in delta.added_nodes] == ["water"]


def test_insertion_delta_is_pure_addition():
    # "a kind of energy" versus "a kind of energy that comes from the sun":
    # the delta adds the incoming frame and removes nothing.
    before = AMR("(e / energy :domain (e2 / energy :mod (s / solar)))")
    after = AMR(
        "(e / energy :domain (e2 / energy :mod (s / solar))"
        " :ARG1-of (c / come-01 :ARG3 (s2 / sun)))"
    )
    delta = graph_difference(before, after)
    assert not delta.removed_nodes
    assert not delta.removed_edges
    assert sorted(c for _, c in delta.added_nodes) == ["come-01", "sun"]


def test_variable_names_do_not_matter():
    a = AMR("(x / rock :mod (y / hard))")
    b = AMR("(q / rock :mod (r / hard) :mod (s / grey))")
    delta = graph_difference(a, b)
    assert not delta.removed_nodes
    assert [c for _, c in delta.added_nodes] == ["grey"]


def test_deterministic():
    a = AMR("(m / material :mod (h / hard) :domain (r / rock))")
    b = AMR("(m / material :mod (h / hard) :domain (g / granite))")
    first = graph_difference(a, b)
    second = graph_difference(a, b)
    assert first == second
    assert [c for _, c in first.removed_nodes] == ["rock"]
    assert [c for _, c in first.added_nodes] == ["granite"]


@given(st.integers(0, 10**9), st.integers(0, 10**9))
@settings(max_examples=200, deadline=None)
def test_replay_reproduces_target(seed_a, seed_b):
    a = random_graph(random.Random(seed_a))
    b = random_graph(random.Random(seed_b))
    delta = graph_difference(a, b)
    rebuilt = apply_delta(a, delta)
    assert exact_isomorphic(rebuilt, b)


@given(st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_self_difference_is_empty(seed):
    g = random_graph(random.Random(seed))
    assert graph_difference(g, g).is_empty


def _chain(size: int, label: str) -> AmrGraph:
    nodes = {f"n{i}": Concept(f"{label}{i % 7}") for i in range(size)}
    edges = tuple(Edge(f"n{i}", ":mod", f"n{i+1}") for i in range(size - 1))
    return AmrGraph("n0", nodes, edges)


def test_cap_switches_to_flagged_approximation():
    small = graph_difference(_chain(10, "c"), _chain(10, "c"))
    assert not small.approximate
    big = graph_difference(_chain(30, "c"), _chain(30, "c"))
    assert big.approximate
    # The greedy alignment still replays correctly.
    rebuilt = apply_delta(_chain(30, "c"), big)
    assert relaxed_isomorphic(rebuilt, _chain(30, "c"))


def _same_concept_chain(size: int) -> AmrGraph:
    nodes = {f"v{i}": Concept("same") for i in range(size)}
    edges = tuple(Edge(f"v{i}", ":mod", f"v{i+1}") for i in range(size - 1))
    return AmrGraph("v0", nodes, edges)


def test_identical_graphs_short_circuit_below_the_cap():
    # Twenty same-concept nodes would be factorially many alignments; the
    # perfect-score short circuit must resolve it instantly and exactly.
    g = _same_concept_chain(20)
    delta = graph_difference(g, g)
    assert delta.is_empty and not delta.approximate


def test_search_budget_falls_back_to_flagged_greedy():
    # Near-identical same-concept graphs exhaust the exact-search budget;
    # the result degrades to a flagged approximation but still replays.
    a = _same_concept_chain(20)
    nodes = dict(a.nodes)
    nodes["v19"] = Concept("other")
    b = AmrGraph("v0", nodes, a.edges)
    delta = graph_difference(a, b)
    assert delta.approximate
    assert exact_isomorphic(apply_delta(a, delta), b)


def _thing_block(size: int, concept: str) -> AmrGraph:
    roles = (":mod", ":domain", ":time", ":manner")
    things = " ".join(
        f"{roles[i % len(roles)]} (z{i} / thing)" for i in range(size)
    )
    return AMR(
        f"(m / river :mod (h / wood) :domain (r / {concept}) {things})"
    )


@pytest.mark.parametrize("size", range(8, 16))
def test_same_concept_block_with_one_swap_is_exact_and_fast(size):
    # Every alignment of the interchangeable ``thing`` nodes scores the
    # same, so only a bound that counts the edges already lost can prune
    # them; a bound that assumes every edge may still match spends about
    # 100 ms here and runs out of budget from nine children on.
    a, b = _thing_block(size, "rock"), _thing_block(size, "sugar")
    start = time.process_time()
    delta = graph_difference(a, b)
    elapsed = time.process_time() - start
    assert not delta.approximate
    assert [c for _, c in delta.removed_nodes] == ["rock"]
    assert [c for _, c in delta.added_nodes] == ["sugar"]
    assert elapsed < 0.05
    got = transform(TransformRequest(a, b, InferenceType.ARG_PRED_GEN))
    assert serialize_penman(got) == "(r / rock :domain (s / sugar))"


def test_generalisation_counts_concepts_where_the_alignment_runs_out():
    # Same-concept material on both sides: the alignment of these premises
    # runs out of its budget (about 200 ms) and falls back to a greedy,
    # flagged delta. The two premises differ in one concept either way.
    p1 = AMR(
        "(v0 / thing :time (v1 / person) :time (v2 / person :time (v3 / person"
        " :ARG1 (v4 / person :time (v5 / thing :time (v6 / person"
        " :mod (v9 / person) :ARG1 (v11 / thing :ARG1 (v12 / rock))"
        " :ARG1 (v8 / person)) :ARG0 (v10 / thing)))) :ARG1 (v7 / thing)"
        " :mod v8 :ARG1 v0))"
    )
    p2 = AMR(
        "(v0 / person :ARG0 (v1 / thing :mod (v2 / thing) :time (v3 / person"
        " :time (v4 / thing)) :ARG0 (v6 / person :ARG1 (v7 / person"
        " :mod (v10 / person :ARG0 (v11 / thing))))) :mod (v5 / person"
        " :time (v9 / person)) :time (v8 / thing :mod (v12 / sugar)))"
    )
    start = time.process_time()
    got = transform(TransformRequest(p1, p2, InferenceType.ARG_PRED_GEN))
    elapsed = time.process_time() - start
    assert serialize_penman(got) == "(r / rock :domain (s / sugar))"
    assert elapsed < 0.05
