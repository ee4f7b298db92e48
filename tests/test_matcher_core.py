"""The incremental matcher core agrees exactly with the rescanning
references: the same difference alignment (or an exhausted budget on both
sides), the same greedy fallback and the same delta; and exact isomorphism
agrees with networkx's multigraph matcher. The alignment's bound is proved
against the looser one it replaced: wherever the loose search finishes,
the tight one finishes with the same alignment. The containment witness
that the classifier reads exists exactly when the brute-force oracle finds
an embedding, and is one."""

from __future__ import annotations

import random
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amrinfer import graph as graph_module
from amrinfer.errors import GraphInvariantError
from amrinfer.graph import (
    AmrGraph,
    Concept,
    Constant,
    Edge,
    _BudgetExhausted,
    _exact_alignment,
    _greedy_alignment,
    exact_isomorphic,
    graph_difference,
    is_argument_role,
    relaxed_embedding,
)

from tests.generators import ORACLE_CONCEPTS, ORACLE_ROLES, layered_graph, random_graph
from tests.oracle import (
    brute_subset,
    scan_exact_alignment,
    scan_graph_difference,
    scan_greedy_alignment,
)

_seeds = st.integers(0, 10**9)

# Small graphs with constants, under the production budget.
_small_pairs = st.tuples(_seeds, _seeds).map(
    lambda s: (
        random_graph(random.Random(s[0]), constants=True),
        random_graph(random.Random(s[1]), constants=True),
    )
)


def _layered(seed: int, size: int, depth: int) -> AmrGraph:
    return layered_graph(random.Random(seed), size, depth)


# Up to 30 nodes: both sides of the exact-search cap, six concepts, so
# many alignments exhaust a budget.
_layered_pairs = st.tuples(
    st.builds(_layered, _seeds, st.integers(1, 30), st.integers(0, 12)),
    st.builds(_layered, _seeds, st.integers(1, 30), st.integers(0, 12)),
)


def _alignment(search, a: AmrGraph, b: AmrGraph):
    try:
        return list(search(a, b).items())
    except _BudgetExhausted:
        return "exhausted"


def _assert_same_difference(a: AmrGraph, b: AmrGraph) -> None:
    if max(len(a.nodes), len(b.nodes)) <= graph_module.EXACT_DIFFERENCE_CAP:
        assert _alignment(_exact_alignment, a, b) == _alignment(
            scan_exact_alignment, a, b
        )
    delta, ref = graph_difference(a, b), scan_graph_difference(a, b)
    assert delta == ref
    assert list(delta.node_map.items()) == list(ref.node_map.items())


@given(_small_pairs)
@settings(max_examples=300, deadline=None)
def test_difference_matches_scan_reference(pair):
    _assert_same_difference(*pair)


@given(_layered_pairs, st.sampled_from((30, 300, 3000)))
@settings(max_examples=150, deadline=None)
def test_difference_matches_scan_reference_under_any_budget(pair, budget):
    # Smaller budgets make exhaustion common and cheap; the reference reads
    # the same patched budget, so both must stop on the same inputs.
    with mock.patch.object(graph_module, "_ALIGNMENT_BUDGET", budget):
        _assert_same_difference(*pair)


@given(_layered_pairs, st.sampled_from((30, 300, 3000)))
@settings(max_examples=150, deadline=None)
def test_tight_bound_returns_what_the_loose_bound_returns(pair, budget):
    # The tight bound prunes only branches that cannot beat the incumbent,
    # so it explores a subset of the loose search's states and keeps its
    # first best leaf.
    a, b = pair
    with mock.patch.object(graph_module, "_ALIGNMENT_BUDGET", budget):
        loose = _alignment(partial(scan_exact_alignment, loose=True), a, b)
        if loose != "exhausted":
            assert _alignment(scan_exact_alignment, a, b) == loose


@given(
    st.one_of(
        _small_pairs,
        _layered_pairs,
        st.tuples(
            st.builds(_layered, _seeds, st.integers(1, 300), st.integers(0, 40)),
            st.builds(_layered, _seeds, st.integers(1, 300), st.integers(0, 40)),
        ),
    )
)
@settings(max_examples=200, deadline=None)
def test_greedy_alignment_matches_scan_reference(pair):
    a, b = pair
    assert list(_greedy_alignment(a, b).items()) == list(
        scan_greedy_alignment(a, b).items()
    )


# ---------------------------------------------------------------------------
# Exact isomorphism against networkx
# ---------------------------------------------------------------------------


def _to_networkx(nx, g: AmrGraph):
    """Concept plus a root flag on each variable, the role on each edge,
    and every constant a labelled leaf of its own."""
    out = nx.MultiDiGraph()
    for n, c in g.nodes.items():
        out.add_node(n, label=("variable", c, n == g.root))
    for i, e in enumerate(g.edges):
        target = e.target
        if isinstance(target, Constant):
            target = ("leaf", i)
            out.add_node(target, label=("constant", e.target.value, e.target.is_string))
        out.add_edge(e.source, target, role=e.role)
    return out


def _variant(rng: random.Random, g: AmrGraph) -> AmrGraph:
    """``g`` with variables renamed and nodes and edges reordered, and
    sometimes one concept, role, target or the root changed."""
    names = list(g.nodes)
    fresh = dict(zip(names, rng.sample([f"x{i}" for i in range(len(names))], len(names))))
    nodes = {fresh[n]: g.nodes[n] for n in rng.sample(names, len(names))}
    edges = [
        Edge(fresh[e.source], e.role, e.target if isinstance(e.target, Constant) else fresh[e.target])
        for e in g.edges
    ]
    rng.shuffle(edges)
    root = fresh[g.root]
    change = rng.randrange(6)
    if change == 0:
        n = rng.choice(list(nodes))
        nodes[n] = Concept(rng.choice(("alpha", "beta", "gamma")))
    elif change == 1 and edges:
        i = rng.randrange(len(edges))
        edges[i] = edges[i]._replace(role=rng.choice((":ARG0", ":ARG1", ":mod")))
    elif change == 2 and edges:
        i = rng.randrange(len(edges))
        edges[i] = edges[i]._replace(target=rng.choice(list(nodes)))
    elif change == 3:
        root = rng.choice(list(nodes))
    try:
        return AmrGraph(root, nodes, tuple(edges))
    except GraphInvariantError:
        return g


@given(_seeds, _seeds, st.booleans())
@settings(max_examples=300, deadline=None)
def test_exact_isomorphic_agrees_with_networkx(seed_a, seed_b, related):
    nx = pytest.importorskip("networkx")
    from networkx.algorithms import isomorphism

    rng = random.Random(seed_b)
    a = random_graph(random.Random(seed_a), constants=True)
    b = _variant(rng, a) if related else random_graph(rng, constants=True)
    matcher = isomorphism.MultiDiGraphMatcher(
        _to_networkx(nx, a),
        _to_networkx(nx, b),
        node_match=isomorphism.categorical_node_match("label", None),
        edge_match=isomorphism.categorical_multiedge_match("role", None),
    )
    assert exact_isomorphic(a, b) == matcher.is_isomorphic()


def test_a_searched_node_never_takes_the_pinned_roots_partner():
    # A two-cycle against a self-loop: same node, edge and concept counts.
    # The root is pinned onto ``R``, and ``x`` draws ``R`` and ``X`` from
    # ``R``'s :ARG0 edges; mapping ``x`` onto ``R`` too would carry both
    # edges onto the self-loop.
    a = AmrGraph(
        "r",
        {"r": Concept("thing"), "x": Concept("thing")},
        (Edge("r", ":ARG0", "x"), Edge("x", ":ARG0", "r")),
    )
    b = AmrGraph(
        "R",
        {"R": Concept("thing"), "X": Concept("thing")},
        (Edge("R", ":ARG0", "R"), Edge("R", ":ARG0", "X")),
    )
    assert not exact_isomorphic(a, b)
    assert exact_isomorphic(a, a) and exact_isomorphic(b, b)


# ---------------------------------------------------------------------------
# The containment witness against the brute-force oracle
# ---------------------------------------------------------------------------

# The oracle's five concepts, three of them, where nodes share candidates
# and more pairs embed, and two, where nearly every node has several
# candidates and most are drawn from a neighbour's partner.
_ALPHABETS = (ORACLE_CONCEPTS, ORACLE_CONCEPTS[:3], ORACLE_CONCEPTS[:2])


def _oracle_graph(
    seed: int, max_nodes: int, alphabet: tuple[str, ...], shuffled: bool = False
) -> AmrGraph:
    """A random graph; ``shuffled`` puts its edges in a random order, so
    a child's edges may come before its parent's and a node's out-edges
    of one argument role come in any order."""
    rng = random.Random(seed)
    g = random_graph(rng, max_nodes, alphabet, constants=True, argument_constants=True)
    if not shuffled:
        return g
    edges = list(g.edges)
    rng.shuffle(edges)
    return AmrGraph(g.root, dict(g.nodes), tuple(edges))


def _grown(g: AmrGraph, seed: int, alphabet: tuple[str, ...]) -> AmrGraph:
    """``g`` renamed, with one to three new nodes of ``alphabet`` hung
    under random nodes, its edges shuffled, and sometimes one edge's role
    redrawn: an outer graph that ``g`` often embeds in, where a new node
    may compete with an old sibling of the same role and concept and come
    first among its parent's out-edges."""
    rng = random.Random(seed)
    names = list(g.nodes)
    fresh = dict(zip(names, rng.sample([f"w{i}" for i in range(len(names))], len(names))))
    nodes = {fresh[n]: c for n, c in g.nodes.items()}
    edges = [
        Edge(fresh[s], role, t if isinstance(t, Constant) else fresh[t]) for s, role, t in g.edges
    ]
    for i in range(rng.randint(1, 3)):
        parent = rng.choice(list(nodes))
        nodes[f"n{i}"] = Concept(rng.choice(alphabet))
        edges.append(Edge(parent, rng.choice(ORACLE_ROLES), f"n{i}"))
    if rng.random() < 0.3:
        i = rng.randrange(len(edges))
        edges[i] = edges[i]._replace(role=rng.choice(ORACLE_ROLES))
    rng.shuffle(edges)
    # A redrawn role may duplicate another edge; keep one of the two.
    return AmrGraph(fresh[g.root], nodes, tuple(dict.fromkeys(edges)))


def _outer(seed: int, inner: AmrGraph, alphabet: tuple[str, ...], grown: bool) -> AmrGraph:
    return _grown(inner, seed, alphabet) if grown else _oracle_graph(seed, 8, alphabet)


def _assert_witness(inner: AmrGraph, outer: AmrGraph) -> bool:
    """The witness is None exactly when the oracle finds no embedding, and
    otherwise total, injective, concept-preserving and carries every
    argument edge of ``inner`` onto an edge of ``outer``. Returns whether
    ``inner`` embeds."""
    witness = relaxed_embedding(inner, outer)
    assert (witness is not None) == brute_subset(inner, outer), (inner, outer)
    if witness is None:
        return False
    assert witness.keys() == inner.nodes.keys()
    assert len(set(witness.values())) == len(witness)
    assert all(outer.nodes[w] == inner.nodes[v] for v, w in witness.items())
    outer_edges = set(outer.edges)
    for s, role, t in inner.edges:
        if is_argument_role(role):
            image = t if isinstance(t, Constant) else witness[t]
            assert Edge(witness[s], role, image) in outer_edges, (inner, outer)
    return True


@given(_seeds, _seeds, st.sampled_from(_ALPHABETS), st.booleans(), st.booleans())
@settings(max_examples=400, deadline=None)
def test_witness_agrees_with_oracle(seed_inner, seed_outer, alphabet, shuffled, grown):
    inner = _oracle_graph(seed_inner, 5, alphabet, shuffled)
    _assert_witness(inner, _outer(seed_outer, inner, alphabet, grown))


def test_witness_agrees_with_oracle_on_a_fixed_sample():
    # A fixed sample wide enough to see both outcomes from each alphabet,
    # with the inner graph's edges in stored and in shuffled order, into
    # random outer graphs and into outer graphs grown from the inner one.
    rng = random.Random(3)
    for grown in (False, True):
        for shuffled in (False, True):
            for alphabet in _ALPHABETS:
                embeds = 0
                for _ in range(1500):
                    inner = _oracle_graph(rng.randrange(10**9), 5, alphabet, shuffled)
                    outer = _outer(rng.randrange(10**9), inner, alphabet, grown)
                    embeds += _assert_witness(inner, outer)
                assert 0 < embeds < 1500, (alphabet, shuffled, grown, embeds)
