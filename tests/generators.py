"""Seeded generators shared by the property and acceptance suites:
random labelled graphs for the matcher oracle, Penman fuzz graphs for
round-trip checks, and premise-pair factories for each transformable
inference type."""

from __future__ import annotations

import random

from amrinfer.classify import EntailmentTriple, Statement
from amrinfer.graph import AmrGraph, Concept, Constant, Edge, conjoin_graphs, stem
from amrinfer.pipeline import CorpusRecord
from amrinfer.penman import serialize_penman
from amrinfer.taxonomy import InferenceType

#: Every character but ``\n`` and ``\r`` at which ``str.splitlines``
#: breaks a line. Penman text keeps them inside a line and a string.
LINE_BREAKS = ("\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")

ORACLE_CONCEPTS = ("alpha", "beta", "gamma", "delta-01", "epsilon")
ORACLE_ROLES = (":ARG0", ":ARG1", ":mod", ":time")


def random_graph(
    rng: random.Random,
    max_nodes: int = 8,
    concepts: tuple[str, ...] = ORACLE_CONCEPTS,
    roles: tuple[str, ...] = ORACLE_ROLES,
    constants: bool = False,
    argument_constants: bool = False,
) -> AmrGraph:
    """A random well-formed graph: a spanning tree plus a few re-entrant
    edges, all drawn from a small alphabet. ``constants`` may add one
    ``:value`` constant; ``argument_constants`` adds up to two constant
    targets on argument roles (``:op1 "x"``, ``:ARG1 -``)."""
    n = rng.randint(1, max_nodes)
    names = [f"v{i}" for i in range(n)]
    nodes = {name: Concept(rng.choice(concepts)) for name in names}
    edges: list[Edge] = []
    seen: set[tuple] = set()
    for i in range(1, n):
        parent = names[rng.randrange(i)]
        edge = Edge(parent, rng.choice(roles), names[i])
        edges.append(edge)
        seen.add(edge)
    for _ in range(rng.randint(0, 2)):
        if n < 2:
            break
        edge = Edge(rng.choice(names), rng.choice(roles), rng.choice(names))
        if edge not in seen and edge.source != edge.target:
            edges.append(edge)
            seen.add(edge)
    if constants and rng.random() < 0.5:
        kind = rng.randrange(3)
        value = (
            Constant("-")
            if kind == 0
            else Constant(str(rng.randint(0, 99)))
            if kind == 1
            else Constant("some text", is_string=True)
        )
        edge = Edge(rng.choice(names), ":value", value)
        if edge not in seen:
            edges.append(edge)
    if argument_constants:
        for _ in range(rng.randint(0, 2)):
            value = rng.choice((Constant("-"), Constant("x", is_string=True)))
            edge = Edge(rng.choice(names), rng.choice((":ARG1", ":op1")), value)
            if edge not in seen:
                edges.append(edge)
                seen.add(edge)
    return AmrGraph(root=names[0], nodes=nodes, edges=tuple(edges))


def fuzz_penman_graph(rng: random.Random) -> AmrGraph:
    """Richer alphabet for serialization round-trips: re-entrancies,
    inverse roles, constants of every kind."""
    concepts = (
        "scar",
        "rock",
        "water",
        "contain-01",
        "require-01",
        "cause-01",
        "be-located-at-91",
        "thing",
    )
    roles = (":ARG0", ":ARG1", ":ARG2", ":op1", ":mod", ":time", ":ARG1-of", ":domain")
    return random_graph(rng, max_nodes=10, concepts=concepts, roles=roles, constants=True)


def layered_graph(rng: random.Random, size: int, depth: int) -> AmrGraph:
    """An AMR-shaped graph of ``size`` nodes: a chain of ``depth`` nodes
    with the rest filling a ternary tree under it, one re-entrant edge per
    twenty nodes (forwards or backwards, so cycles occur) and a constant
    per ten. Sizes and depths reach far past the matcher oracle's, for the
    linear-time reader, writer and traversals."""
    names = [f"v{i}" for i in range(size)]
    concepts = ("thing", "rock", "water", "contain-01", "cause-01", "and")
    roles = (":ARG0", ":ARG1", ":op1", ":mod", ":time", ":ARG0-of")
    chain = max(1, min(depth, size))
    edges: list[Edge] = []
    for i in range(1, size):
        parent = i - 1 if i < chain else (i - chain) // 3
        edges.append(Edge(names[parent], rng.choice(roles), names[i]))
    seen = set(edges)
    for _ in range(size // 20):
        edge = Edge(rng.choice(names), rng.choice(roles), rng.choice(names))
        if edge not in seen:
            edges.append(edge)
            seen.add(edge)
    for _ in range(size // 10):
        edges.append(Edge(rng.choice(names), ":quant", Constant(str(len(edges)))))
    rng.shuffle(edges)
    nodes = {name: Concept(rng.choice(concepts)) for name in names}
    return AmrGraph(root=names[0], nodes=nodes, edges=tuple(edges))


# ---------------------------------------------------------------------------
# Premise pairs per transformable type
# ---------------------------------------------------------------------------

NOUNS = (
    "rock",
    "granite",
    "mineral",
    "water",
    "plant",
    "animal",
    "forest",
    "metal",
    "iron",
    "soil",
    "sand",
    "leaf",
    "river",
    "cloud",
    "glass",
    "sugar",
    "salt",
    "wood",
    "paper",
    "stone",
)
VERBS = (
    "require-01",
    "contain-01",
    "produce-01",
    "absorb-01",
    "release-01",
    "form-01",
    "cause-01",
    "move-01",
    "cover-01",
    "support-01",
)


def linearize(g: AmrGraph) -> str:
    """Pseudo-text for a graph: concept stems in first-occurrence
    serialization order. The generated corpora use it for premises and
    conclusions alike, so the token-level checks in the classifier see
    commensurable sentences. The walk is depth-first along each node's
    out-edges in stored order, on an explicit stack of edge iterators, so
    a deep graph does not meet Python's recursion limit."""
    order = [stem(g.nodes[g.root])]
    visited = {g.root}
    stack = [iter(g.outgoing(g.root))]
    while stack:
        for e in stack[-1]:
            target = e.target
            if not isinstance(target, Constant) and target not in visited:
                visited.add(target)
                order.append(stem(g.nodes[target]))
                stack.append(iter(g.outgoing(target)))
                break
        else:
            stack.pop()
    return " ".join(order)


def _pick(rng: random.Random, pool: tuple[str, ...], k: int) -> list[str]:
    return rng.sample(list(pool), k)


def _stmt(g: AmrGraph) -> Statement:
    return Statement(linearize(g), g)


def make_premises(
    rng: random.Random, type_: InferenceType
) -> tuple[Statement, Statement, tuple[str, str] | None]:
    """A premise pair (plus optional site hint) satisfying the type's
    transformation precondition."""
    maker = _MAKERS[type_]
    return maker(rng)


def _arg_sub_pair(rng):
    verb = rng.choice(VERBS)
    general, specific_mod, filler_a, filler_b = _pick(rng, NOUNS, 4)
    host = AmrGraph(
        "h",
        {
            "h": Concept(verb),
            "a": Concept(filler_a),
            "n": Concept(general),
            "w": Concept(filler_b),
        },
        (
            Edge("h", ":ARG0", "a"),
            Edge("h", ":ARG1", "n"),
            Edge("h", ":location", "w"),
        ),
    )
    if rng.random() < 0.5:
        # Enriched same-concept specific: "<general> <mod> is a kind of <general>".
        kind = AmrGraph(
            "g",
            {"g": Concept(general), "s": Concept(general), "m": Concept(specific_mod)},
            (Edge("g", ":domain", "s"), Edge("s", ":mod", "m")),
        )
    else:
        kind = AmrGraph(
            "g",
            {"g": Concept(general), "s": Concept(specific_mod)},
            (Edge("g", ":domain", "s"),),
        )
    return _stmt(host), _stmt(kind), None


def _pred_sub_pair(rng):
    v1, v2 = _pick(rng, VERBS, 2)
    x, y, w = _pick(rng, NOUNS, 3)
    host = AmrGraph(
        "c",
        {"c": Concept(v1), "f": Concept(x), "n": Concept(y), "w": Concept(w)},
        (
            Edge("c", ":ARG0", "f"),
            Edge("c", ":ARG1", "n"),
            Edge("c", ":location", "w"),
        ),
    )
    link = AmrGraph(
        "m",
        {"m": Concept("mean-01"), "a": Concept(v1), "b": Concept(v2)},
        (Edge("m", ":ARG1", "a"), Edge("m", ":ARG2", "b")),
    )
    return _stmt(host), _stmt(link), None


def _frame_sub_pair(rng):
    v1, v2 = _pick(rng, VERBS, 2)
    x, shared, y, filler = _pick(rng, NOUNS, 4)
    host = AmrGraph(
        "h",
        {
            "h": Concept(v1),
            "x": Concept(x),
            "b": Concept(shared),
            "u": Concept(filler),
        },
        (
            Edge("h", ":ARG0", "x"),
            Edge("h", ":ARG1", "b"),
            Edge("h", ":mod", "u"),
        ),
    )
    donor = AmrGraph(
        "d",
        {"d": Concept(v2), "b": Concept(shared), "y": Concept(y)},
        (Edge("d", ":ARG0", "b"), Edge("d", ":ARG1", "y")),
    )
    return _stmt(host), _stmt(donor), None


def _cond_frame_pair(rng):
    consequent, antecedent = _pick(rng, VERBS, 2)
    entity, modifier, extra = _pick(rng, NOUNS, 3)
    rule = AmrGraph(
        "c",
        {
            "c": Concept(consequent),
            "x": Concept(extra),
            "s": Concept("something"),
            "a": Concept(antecedent),
        },
        (
            Edge("c", ":mod", "x"),
            Edge("c", ":domain", "s"),
            Edge("c", ":condition", "a"),
            Edge("a", ":domain", "s"),
        ),
    )
    fact = AmrGraph(
        "a",
        {"a": Concept(antecedent), "e": Concept(entity), "m": Concept(modifier)},
        (Edge("a", ":domain", "e"), Edge("e", ":mod", "m")),
    )
    return _stmt(rule), _stmt(fact), None


def _arg_ins_pair(rng):
    shared, specific, extra = _pick(rng, NOUNS, 3)
    verb = rng.choice(VERBS)
    host = AmrGraph(
        "g",
        {"g": Concept(shared), "s": Concept(specific)},
        (Edge("g", ":domain", "s"),),
    )
    if rng.random() < 0.5:
        # Frame insertion: the donor frame hangs off the shared node.
        donor = AmrGraph(
            "f",
            {"f": Concept(verb), "n": Concept(shared), "z": Concept(extra)},
            (Edge("f", ":ARG1", "n"), Edge("f", ":ARG2", "z")),
        )
        return _stmt(host), _stmt(donor), None
    # Plain argument insertion: the donor's other argument becomes a
    # modifier of the host's shared node.
    extra2 = rng.choice([n for n in NOUNS if n not in (shared, specific, extra)])
    donor = AmrGraph(
        "f",
        {
            "f": Concept(verb),
            "n": Concept(shared),
            "z": Concept(extra),
            "q": Concept(extra2),
        },
        (Edge("f", ":ARG1", "n"), Edge("f", ":ARG2", "z"), Edge("z", ":mod", "q")),
    )
    return _stmt(host), _stmt(donor), ("g", "z")


def _frame_conj_pair(rng):
    v1, v2 = _pick(rng, VERBS, 2)
    a, b, shared = _pick(rng, NOUNS, 3)
    left = AmrGraph(
        "s",
        {"s": Concept(v1), "p": Concept(a), "e": Concept(shared)},
        (Edge("s", ":ARG0", "p"), Edge("s", ":ARG1", "e")),
    )
    right = AmrGraph(
        "r",
        {"r": Concept(v2), "q": Concept(b), "e": Concept(shared)},
        (Edge("r", ":ARG0", "q"), Edge("r", ":ARG1", "e")),
    )
    return _stmt(left), _stmt(right), None


def _generalise_pair(rng):
    head, modifier, c1, c2 = _pick(rng, NOUNS, 4)
    left = AmrGraph(
        "m",
        {"m": Concept(head), "h": Concept(modifier), "r": Concept(c1)},
        (Edge("m", ":mod", "h"), Edge("m", ":domain", "r")),
    )
    right = AmrGraph(
        "m",
        {"m": Concept(head), "h": Concept(modifier), "g": Concept(c2)},
        (Edge("m", ":mod", "h"), Edge("m", ":domain", "g")),
    )
    return _stmt(left), _stmt(right), None


def _made_of_pair(rng):
    entity, entity_mod, material, prop, prop_mod = _pick(rng, NOUNS, 5)
    link = AmrGraph(
        "mk",
        {
            "mk": Concept("make-01"),
            "e": Concept(entity),
            "e2": Concept(entity_mod),
            "t": Concept(material),
        },
        (
            Edge("mk", ":ARG1", "e"),
            Edge("e", ":mod", "e2"),
            Edge("mk", ":ARG2", "t"),
        ),
    )
    host = AmrGraph(
        "h",
        {
            "h": Concept("have-03"),
            "t": Concept(material),
            "p": Concept(prop),
            "q": Concept(prop_mod),
        },
        (
            Edge("h", ":ARG0", "t"),
            Edge("h", ":ARG1", "p"),
            Edge("p", ":mod", "q"),
        ),
    )
    return _stmt(link), _stmt(host), None


def _ift_pair(rng):
    v1, v2 = _pick(rng, VERBS, 2)
    a, b, c, d = _pick(rng, NOUNS, 4)
    left = AmrGraph(
        "s",
        {"s": Concept(v1), "p": Concept(a), "e": Concept(b)},
        (Edge("s", ":ARG0", "p"), Edge("s", ":ARG1", "e")),
    )
    right = AmrGraph(
        "r",
        {"r": Concept(v2), "q": Concept(c), "f": Concept(d)},
        (Edge("r", ":ARG0", "q"), Edge("r", ":ARG1", "f")),
    )
    return _stmt(left), _stmt(right), None


_MAKERS = {
    InferenceType.ARG_SUB: _arg_sub_pair,
    InferenceType.PRED_SUB: _pred_sub_pair,
    InferenceType.FRAME_SUB: _frame_sub_pair,
    InferenceType.COND_FRAME: _cond_frame_pair,
    InferenceType.ARG_INS: _arg_ins_pair,
    InferenceType.FRAME_CONJ: _frame_conj_pair,
    InferenceType.ARG_PRED_GEN: _generalise_pair,
    InferenceType.ARG_SUB_PROP: _made_of_pair,
    InferenceType.IFT: _ift_pair,
}

TRANSFORMABLE_ORDER = tuple(_MAKERS)


# ---------------------------------------------------------------------------
# Premise pairs enlarged with blocks of recurring concepts
# ---------------------------------------------------------------------------

#: The concepts that recur most in AMR corpora.
REPEAT_CONCEPTS = ("thing", "person", "and")
_MOD_ROLES = (":mod", ":time", ":location", ":manner", ":ARG1-of")
# Types whose transform picks the largest shared-concept bridge: material
# in both premises would become the bridge instead of the generator's.
_BRIDGING = (InferenceType.FRAME_SUB, InferenceType.ARG_INS)


def repeated_graph(rng: random.Random, size: int, kinds: int) -> AmrGraph:
    """A node with ``size - 1`` modifiers, all over the first ``kinds``
    recurring concepts in turn (``thing :mod person ...``). Only relaxable
    roles join them, so every same-concept assignment fits."""
    labels = [REPEAT_CONCEPTS[i % kinds] for i in range(size)]
    names = [f"z{i}" for i in range(size)]
    edges = tuple(Edge(names[0], rng.choice(_MOD_ROLES), n) for n in names[1:])
    return AmrGraph(names[0], {n: Concept(c) for n, c in zip(names, labels)}, edges)


def _with_argument(g: AmrGraph, role: str) -> AmrGraph:
    """``g`` plus a ``role`` edge between its last two nodes. Copies that
    differ only in that role contain each other only in relaxed form."""
    *_, a, b = g.nodes
    return AmrGraph(root=g.root, nodes=g.nodes, edges=g.edges + (Edge(a, role, b),))


def _attach(g: AmrGraph, extra: AmrGraph, role: str) -> AmrGraph:
    """``g`` with ``extra`` hung off its root through ``role``; the two
    share no variable names."""
    assert not set(g.nodes) & set(extra.nodes)
    nodes = dict(g.nodes)
    nodes.update(extra.nodes)
    edges = g.edges + (Edge(g.root, role, extra.root),) + extra.edges
    return AmrGraph(root=g.root, nodes=nodes, edges=edges)


def enlarged_pairs(rng: random.Random, sizes, material, *, both: bool):
    """Premise pairs of every transformable type, the first premise
    enlarged with ``material(rng, size)`` under a relaxable role. With
    ``both``, both premises get the material, each with its own extra
    argument role (see :func:`_with_argument`), except for the bridging
    types. Both premises of a generalisation get the same material, since
    they must differ by one concept. Yields ``(type, p1, p2, hint)``."""
    for size in sizes:
        for t in TRANSFORMABLE_ORDER:
            s1, s2, hint = make_premises(rng, t)
            extra = material(rng, size)
            p1 = _attach(s1.graph, extra, ":mod")
            if t is InferenceType.ARG_PRED_GEN:
                p2 = _attach(s2.graph, extra, ":mod")
            elif both and t not in _BRIDGING:
                p1 = _attach(s1.graph, _with_argument(extra, ":ARG1"), ":mod")
                p2 = _attach(s2.graph, _with_argument(extra, ":ARG2"), ":mod")
            else:
                p2 = s2.graph
            yield t, p1, p2, hint


#: The concepts of :func:`conjoined_chains`, in chain order.
CHAIN_CONCEPTS = ("thing", "rock", "water")


def _chain(n: int, start: int) -> AmrGraph:
    """An ``:ARG1`` chain of ``n`` nodes over :data:`CHAIN_CONCEPTS` in
    turn, from the ``start``-th concept."""
    names = [f"v{i}" for i in range(n)]
    nodes = {v: Concept(CHAIN_CONCEPTS[(i + start) % 3]) for i, v in enumerate(names)}
    edges = tuple(Edge(a, ":ARG1", b) for a, b in zip(names, names[1:]))
    return AmrGraph(names[0], nodes, edges)


def conjoined_chains(n: int) -> EntailmentTriple:
    """Two ``n``-node chains, the second starting one concept later, and
    their conjunction as the conclusion. Every node has a third of the
    conclusion's nodes as same-concept candidates and only ``:ARG1`` edges
    tell them apart. The texts tie, so premise 1 is the pivot."""
    p1, p2 = _chain(n, 0), _chain(n, 1)
    return EntailmentTriple(_stmt(p1), _stmt(p2), _stmt(conjoin_graphs(p1, p2)))


def synthetic_corpus(rng: random.Random, size: int) -> list[CorpusRecord]:
    """A labelled corpus built by transforming generated premise pairs."""
    from amrinfer.transform import TransformRequest, transform

    records = []
    types = list(_MAKERS)
    for i in range(size):
        t = types[i % len(types)]
        p1, p2, hint = make_premises(rng, t)
        conclusion = transform(TransformRequest(p1.graph, p2.graph, t, hint))
        records.append(
            CorpusRecord(
                id=f"r{i:05d}",
                p1_text=p1.text,
                p2_text=p2.text,
                c_text=linearize(conclusion),
                p1_amr=serialize_penman(p1.graph),
                p2_amr=serialize_penman(p2.graph),
                c_amr=serialize_penman(conclusion),
                gold_type=t,
            )
        )
    return records
