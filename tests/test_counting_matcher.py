"""The matcher counts the nodes that no kept edge touches instead of
searching them. On material of a few recurring concepts joined mostly by
relaxable edges, where nearly every node takes that path, it agrees with
the brute-force oracles, and a pigeonhole failure is found by counting."""

from __future__ import annotations

import gc
import random
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from amrinfer.graph import (
    AmrGraph,
    Concept,
    Edge,
    exact_isomorphic,
    relaxed_isomorphic,
    relaxed_subset,
)

from tests.generators import random_graph
from tests.oracle import brute_isomorphic, brute_subset

RECURRING = ("thing", "person", "and")
# Five of the seven roles are relaxable.
ROLES = (":ARG0", ":ARG1", ":mod", ":time", ":manner", ":location", ":ARG1-of")


def _recurring_graph(seed: int, kinds: int) -> AmrGraph:
    return random_graph(random.Random(seed), 8, RECURRING[:kinds], ROLES)


def _shuffled(g: AmrGraph, seed: int) -> AmrGraph:
    """``g`` with its variables renamed, its nodes and edges reordered and
    one edge's role redrawn, so that it is often relaxed-isomorphic to
    ``g`` and sometimes just misses."""
    rng = random.Random(seed)
    names = list(g.nodes)
    fresh = dict(zip(names, rng.sample([f"x{i}" for i in range(len(names))], len(names))))
    nodes = {fresh[n]: g.nodes[n] for n in rng.sample(names, len(names))}
    edges = [Edge(fresh[s], role, fresh[t]) for s, role, t in g.edges]
    rng.shuffle(edges)
    if edges:
        i = rng.randrange(len(edges))
        edges[i] = edges[i]._replace(role=rng.choice(ROLES))
    # A redrawn role may duplicate another edge; keep one of the two.
    return AmrGraph(fresh[g.root], nodes, tuple(dict.fromkeys(edges)))


_seeds = st.integers(0, 10**9)
_graphs = st.builds(_recurring_graph, _seeds, st.integers(1, 3))
_pairs = st.one_of(
    st.tuples(_graphs, _graphs),
    st.tuples(_graphs, _seeds).map(lambda p: (p[0], _shuffled(*p))),
)


@given(_pairs)
@settings(max_examples=300, deadline=None)
def test_counting_path_agrees_with_bruteforce(pair):
    a, b = pair
    assert relaxed_subset(a, b) == brute_subset(a, b)
    assert relaxed_isomorphic(a, b) == brute_isomorphic(a, b)


def _block(size: int, kinds: int) -> AmrGraph:
    """A root with ``size - 1`` :mod children, the concepts taken in turn
    from the first ``kinds`` recurring ones."""
    names = [f"z{i}" for i in range(size)]
    nodes = {n: Concept(RECURRING[i % kinds]) for i, n in enumerate(names)}
    edges = tuple(Edge(names[0], ":mod", n) for n in names[1:])
    return AmrGraph(names[0], nodes, edges)


def test_pigeonhole_failure_is_counted_not_searched():
    # Ten `thing` nodes cannot go into seven. A search over injective
    # partial assignments took tens of seconds on this pair.
    inner, outer = _block(19, 2), _block(20, 3)
    start = time.process_time()
    assert not relaxed_subset(inner, outer)
    assert time.process_time() - start < 1.0
    assert relaxed_subset(_block(19, 3), outer)


def _and_of(children: list[str]) -> AmrGraph:
    names = [f"c{i}" for i in range(len(children))]
    nodes = {"a": Concept("and"), **{n: Concept(c) for n, c in zip(names, children)}}
    return AmrGraph("a", nodes, tuple(Edge("a", ":ARG0", n) for n in names))


def test_exact_isomorphism_counts_before_it_searches():
    # Twelve `thing` children and a `rock` against thirteen `thing`
    # children: the sizes and roots agree, and the concept count tells
    # them apart before any search. The search assumes that count holds:
    # it looks up each concept's bucket in `b` and has none for `rock`.
    a = _and_of(["thing"] * 12 + ["rock"])
    b = _and_of(["thing"] * 13)
    gc.collect()
    start = time.process_time()
    assert not exact_isomorphic(a, b)
    assert time.process_time() - start < 0.05


def test_match_index_is_lazy_and_not_part_of_the_value():
    g = _block(5, 2)
    same = AmrGraph(g.root, dict(g.nodes), g.edges)
    assert "_buckets" not in vars(g)  # nothing is indexed at construction
    assert relaxed_subset(g, same) and g.has_concept("person")
    assert "_buckets" in vars(g) and "_buckets" in vars(same)
    assert g == same and repr(g) == repr(AmrGraph(g.root, g.nodes, g.edges))
    assert "_buckets" not in vars(AmrGraph(g.root, g.nodes, g.edges))
