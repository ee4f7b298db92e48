"""Relaxed matching, the edit operations, and their invariants."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amrinfer.errors import (
    DuplicateRoleError,
    GraphInvariantError,
    InvalidSiteError,
)
from amrinfer.graph import (
    AmrGraph,
    Concept,
    Edge,
    _fresh_name,
    conjoin_graphs,
    insert_argument,
    is_argument_role,
    relabel_node,
    relaxed_isomorphic,
    relaxed_subset,
    substitute_subgraph,
)
from amrinfer.penman import parse_penman, serialize_penman

from tests.generators import random_graph
from tests.oracle import brute_isomorphic, brute_subset

AMR = parse_penman


def seeded_graph(seed: int) -> AmrGraph:
    return random_graph(random.Random(seed))


class TestRoleClasses:
    @pytest.mark.parametrize("role", [":ARG0", ":ARG12", ":op1", ":op23"])
    def test_argument_roles(self, role):
        assert is_argument_role(role)

    @pytest.mark.parametrize(
        "role", [":mod", ":time", ":manner", ":domain", ":ARG0-of", ":op1-of", ":condition"]
    )
    def test_relaxable_roles(self, role):
        assert not is_argument_role(role)


class TestWellFormedness:
    def test_unknown_root_rejected(self):
        with pytest.raises(GraphInvariantError):
            AmrGraph("x", {"s": Concept("scar")}, ())

    def test_unreachable_node_rejected(self):
        with pytest.raises(GraphInvariantError):
            AmrGraph("a", {"a": Concept("x"), "b": Concept("y")}, ())

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphInvariantError):
            AmrGraph(
                "a",
                {"a": Concept("x"), "b": Concept("y")},
                (Edge("a", ":mod", "b"), Edge("a", ":mod", "b")),
            )


class TestRelaxedSubset:
    def test_reflexive(self):
        g = AMR("(r / require-01 :ARG0 (p / plant) :ARG1 (w / water))")
        assert relaxed_subset(g, g)

    def test_single_concept_inside_sentence(self):
        inner = AMR("(r / rock)")
        outer = AMR("(m / material :mod (h / hard) :domain (r / rock))")
        assert relaxed_subset(inner, outer)

    def test_extra_relaxable_edge_is_ignored(self):
        # The inner frame carries a :manner edge the outer graph lacks; the
        # argument edges all match, so containment still holds.
        inner = AMR("(c / cover-01 :ARG0 (w / water) :ARG1 (r / rock) :manner (s / slow))")
        outer = AMR("(c / cover-01 :ARG0 (w / water) :ARG1 (r / rock) :mod (s / slow))")
        assert relaxed_subset(inner, outer)

    def test_argument_edge_must_match(self):
        inner = AMR("(c / cover-01 :ARG0 (w / water))")
        outer = AMR("(c / cover-01 :ARG1 (w / water))")
        assert not relaxed_subset(inner, outer)

    def test_injectivity_blocks_duplicate_collapse(self):
        inner = AMR("(s / scar :domain (s2 / scar))")
        outer = AMR("(c / characteristic :domain (s / scar))")
        assert not relaxed_subset(inner, outer)

    def test_variable_names_do_not_matter(self):
        a = AMR("(x / rock :mod (y / hard))")
        b = AMR("(q / material :domain (z / rock :mod (k / hard)))")
        assert relaxed_subset(a, b)

    @given(st.integers(0, 10**9), st.integers(0, 10**9))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_bruteforce(self, seed_a, seed_b):
        a, b = seeded_graph(seed_a), seeded_graph(seed_b)
        assert relaxed_subset(a, b) == brute_subset(a, b)

    @given(st.integers(0, 10**9), st.integers(0, 10**9), st.integers(0, 10**9))
    @settings(max_examples=150, deadline=None)
    def test_transitive_on_samples(self, s1, s2, s3):
        a, b, c = seeded_graph(s1), seeded_graph(s2), seeded_graph(s3)
        if relaxed_subset(a, b) and relaxed_subset(b, c):
            assert relaxed_subset(a, c)


class TestRelaxedIsomorphic:
    def test_reflexive(self):
        g = AMR("(s / store-01 :ARG0 (p / photosynthesis) :ARG1 (e / energy))")
        assert relaxed_isomorphic(g, g)

    def test_variable_renaming(self):
        a = AMR("(s / store-01 :ARG0 (p / photosynthesis) :ARG1 (e / energy))")
        b = AMR("(x1 / store-01 :ARG0 (x2 / photosynthesis) :ARG1 (x3 / energy))")
        assert relaxed_isomorphic(a, b)

    def test_one_concept_label_differs(self):
        a = AMR("(s / store-01 :ARG0 (p / photosynthesis))")
        b = AMR("(s / store-01 :ARG0 (p / respiration))")
        assert not relaxed_isomorphic(a, b)

    def test_sense_suffix_must_match(self):
        assert not relaxed_isomorphic(AMR("(c / contain-01)"), AMR("(c / contain-02)"))

    def test_relaxable_roles_are_ignored(self):
        a = AMR("(s / scar :location (k / knee))")
        b = AMR("(s / scar :mod (k / knee))")
        assert relaxed_isomorphic(a, b)

    def test_symmetry_and_equivalence_on_samples(self):
        rng = random.Random(5)
        graphs = [random_graph(rng, max_nodes=5) for _ in range(40)]
        for a in graphs:
            assert relaxed_isomorphic(a, a)
        for a in graphs:
            for b in graphs:
                assert relaxed_isomorphic(a, b) == relaxed_isomorphic(b, a)

    @given(st.integers(0, 10**9), st.integers(0, 10**9))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_bruteforce(self, seed_a, seed_b):
        a, b = seeded_graph(seed_a), seeded_graph(seed_b)
        assert relaxed_isomorphic(a, b) == brute_isomorphic(a, b)


class TestSubstituteSubgraph:
    def test_table_argument_substitution(self):
        # Swapping the bare argument for its enriched version yields the
        # expected conclusion graph.
        host = AMR("(c / characteristic :ARG1-of (a / acquire-01) :domain (s / scar))")
        replacement = AMR("(s / scar :location (k / knee))")
        want = AMR(
            "(c / characteristic :ARG1-of (a / acquire-01)"
            " :domain (s / scar :location (k / knee)))"
        )
        got = substitute_subgraph(host, "s", replacement)
        assert relaxed_isomorphic(got, want)

    def test_identity_substitution(self):
        host = AMR("(r / require-01 :ARG0 (p / plant) :ARG1 (w / water))")
        got = substitute_subgraph(host, "w", AMR("(w / water)"))
        assert relaxed_isomorphic(got, host)

    def test_root_site_rejected(self):
        g = AMR("(c / contain-01 :ARG0 (f / food))")
        with pytest.raises(InvalidSiteError):
            substitute_subgraph(g, "c", AMR("(s / store-01)"))

    def test_inputs_unmodified(self):
        host = AMR("(r / require-01 :ARG0 (p / plant) :ARG1 (w / water))")
        replacement = AMR("(i / iron)")
        before = (dict(host.nodes), host.edges)
        substitute_subgraph(host, "w", replacement)
        assert (dict(host.nodes), host.edges) == before

    def test_shared_reentrant_node_survives(self):
        g = AMR("(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-01 :ARG0 b))")
        got = substitute_subgraph(g, "g", AMR("(r / run-01)"))
        # The boy is shared with the surviving part and must not vanish.
        assert got.has_concept("boy")
        assert got.has_concept("run-01")
        assert not got.has_concept("go-01")

    def test_variable_capture_avoided(self):
        host = AMR("(r / require-01 :ARG0 (p / plant) :ARG1 (w / water))")
        replacement = AMR("(p / pond :mod (r / rock))")
        got = substitute_subgraph(host, "w", replacement)
        got.validate()
        assert sorted(c for c in got.nodes.values()) == sorted(
            ["require-01", "plant", "pond", "rock"]
        )


class TestRelabelNode:
    def test_table_predicate_swap(self):
        # The predicate keeps its arguments when its concept is swapped.
        g = AMR("(c / contain-01 :ARG0 (f / food) :ARG1 (n / nutrient))")
        got = relabel_node(g, "c", Concept("store-01"))
        want = AMR("(s / store-01 :ARG0 (f / food) :ARG1 (n / nutrient))")
        assert relaxed_isomorphic(got, want)


class TestInsertArgument:
    def test_table_frame_insertion(self):
        host = AMR("(e / energy :domain (e2 / energy :mod (s / solar)))")
        arg = AMR("(c / come-01 :ARG3 (s2 / sun))")
        want = AMR(
            "(e / energy :domain (e2 / energy :mod (s / solar))"
            " :ARG1-of (c / come-01 :ARG3 (s2 / sun)))"
        )
        got = insert_argument(host, "e", arg, ":ARG1-of")
        assert relaxed_isomorphic(got, want)
        # Argument structure matches exactly, not just relaxedly.
        assert sorted(e.role for e in got.edges) == sorted(e.role for e in want.edges)

    def test_two_node_result(self):
        got = insert_argument(AMR("(r / rock)"), "r", AMR("(h / hard)"), ":mod")
        assert len(got.nodes) == 2
        assert len(got.edges) == 1

    def test_duplicate_role_rejected(self):
        g = insert_argument(AMR("(r / rock)"), "r", AMR("(h / hard)"), ":mod")
        with pytest.raises(DuplicateRoleError):
            insert_argument(g, "r", AMR("(h / hard)"), ":mod")

    def test_same_role_different_target_allowed(self):
        g = insert_argument(AMR("(r / rock)"), "r", AMR("(h / hard)"), ":mod")
        got = insert_argument(g, "r", AMR("(g / grey)"), ":mod")
        assert len(got.edges) == 2


class TestConjoin:
    def test_table_conjunction(self):
        a = AMR("(s / store-01 :ARG0 (p / photosynthesis) :ARG1 (e / energy))")
        b = AMR("(r / release-01 :ARG0 (r2 / respiration) :ARG1 (e / energy))")
        want = AMR(
            "(a / and :op1 (s / store-01 :ARG0 (p / photosynthesis) :ARG1 (e / energy))"
            " :op2 (r / release-01 :ARG0 (r2 / respiration) :ARG1 (e2 / energy)))"
        )
        assert relaxed_isomorphic(conjoin_graphs(a, b), want)

    def test_a_clash_takes_the_next_free_suffix(self):
        assert _fresh_name("a", {"a", "a2"}) == "a3"
        got = conjoin_graphs(AMR("(a / x :ARG0 (a2 / y))"), AMR("(a / z)"))
        assert serialize_penman(got) == (
            "(a / and :op1 (a2 / x :ARG0 (a22 / y)) :op2 (a3 / z))"
        )

    def test_self_conjunction_shape(self):
        g = AMR("(w / water)")
        got = conjoin_graphs(g, g)
        assert got.nodes[got.root] == "and"
        ops = [e for e in got.edges if e.source == got.root]
        assert [e.role for e in ops] == [":op1", ":op2"]

    @given(st.integers(0, 10**9), st.integers(0, 10**9))
    @settings(max_examples=120, deadline=None)
    def test_operands_embed_and_root_is_connective(self, seed_a, seed_b):
        a, b = seeded_graph(seed_a), seeded_graph(seed_b)
        out = conjoin_graphs(a, b)
        out.validate()
        assert out.nodes[out.root] == "and"
        assert relaxed_subset(a, out)
        assert relaxed_subset(b, out)

