"""Forward quasi-symbolic inference: derive a conclusion graph from two
premise graphs and an inference type.

Each transformable type maps to a deterministic graph edit. Substitution
types locate a bridge concept shared by the premises and splice the
counterpart material in; insertion severs the donor frame at the bridge
and re-attaches it; conjunction joins the premises under ``and``; the
conditional type binds a rule's antecedent against the other premise and
emits the consequent. When several sites qualify the one with the largest
bridge subgraph wins (ties break lexicographically), and ``site_hint``
overrides the automatic choice: ARG-SUB, FRAME-SUB and ARG-INS read it,
and the other types ignore it.

The if/then wrapping is a heuristic, a best-effort convention rather than
a definition: no faithful graph transformation exists for it.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .errors import (
    DuplicateRoleError,
    NoBridgeError,
    NoConditionalError,
    NotSingleDifferenceError,
    UnsupportedTypeError,
)
from .graph import (
    AmrGraph,
    Concept,
    Constant,
    Edge,
    NodeId,
    conjoin_graphs,
    insert_argument,
    is_predicate,
    relabel_node,
    substitute_subgraph,
)
from .taxonomy import InferenceType


class TransformRequest(NamedTuple):
    p1: AmrGraph
    p2: AmrGraph
    type: InferenceType
    site_hint: tuple[NodeId, NodeId] | None = None


def bridge_candidates(
    p1: AmrGraph, p2: AmrGraph
) -> list[tuple[NodeId, NodeId, Concept]]:
    """All cross-graph node pairs sharing a concept, largest combined
    subtree first, then concept label, then stable node positions."""
    # Closure size and position of each p2 node that shares a concept with
    # p1, computed once.
    shared = set(p1.nodes.values())
    by_concept: dict[Concept, list[tuple[int, NodeId, int]]] = {}
    for i2, (n2, c2) in enumerate(p2.nodes.items()):
        if c2 in shared:
            by_concept.setdefault(c2, []).append((i2, n2, len(p2.closure(n2))))
    pairs = []
    for i1, (n1, c1) in enumerate(p1.nodes.items()):
        matches = by_concept.get(c1)
        if not matches:
            continue
        size1 = len(p1.closure(n1))
        for i2, n2, size2 in matches:
            pairs.append((-(size1 + size2), c1, i1, i2, n1, n2))
    # Positions are unique, so the sort never compares node ids.
    pairs.sort()
    return [(n1, n2, c) for _, c, _, _, n1, n2 in pairs]


def _bridges(p1: AmrGraph, p2: AmrGraph, hint) -> list[tuple[NodeId, NodeId, Concept]]:
    """The bridge candidates a request may use: without a hint every one,
    as :func:`bridge_candidates` ranks them; with one only the hinted
    pair, when both nodes exist and share a concept."""
    if hint is None:
        return bridge_candidates(p1, p2)
    n1, n2 = hint
    concept = p1.nodes.get(n1)
    if concept is None or p2.nodes.get(n2) != concept:
        return []
    return [(n1, n2, concept)]


def transform(req: TransformRequest) -> AmrGraph:
    """Apply the requested inference type to the premise pair."""
    handler = _HANDLERS.get(req.type)
    if handler is None:
        raise UnsupportedTypeError(
            f"{req.type.value} has no forward transformation"
        )
    return handler(req.p1, req.p2, req.site_hint)


# ---------------------------------------------------------------------------
# Substitutions
# ---------------------------------------------------------------------------


def _arg_sub(p1: AmrGraph, p2: AmrGraph, hint) -> AmrGraph:
    # The connective premise reads "specific is a (kind of) general":
    # its root is the general term, its :domain child the specific one.
    # Each connective premise offers the host sites of its general term in
    # position order, so its first site that fits the hint is its best.
    # The smaller key of the two wins, premise 1 on a tie.
    best = None
    for kind, host, flip in ((p1, p2, False), (p2, p1, True)):
        domain = kind.child_edge(kind.root, ":domain")
        if domain is None:
            continue
        child = domain.target
        general = kind.nodes[kind.root]
        for position, (site, c) in enumerate(host.nodes.items()):
            if c != general or site == host.root:
                continue
            pair = (site, child) if flip else (child, site)
            if hint is not None and pair != tuple(hint):
                continue
            key = (-len(kind.closure(child)), general, position)
            if best is None or key < best[0]:
                best = key, kind, child, host, site
            break
    if best is not None:
        _, kind, child, host, site = best
        return substitute_subgraph(host, site, kind.subgraph_at(child))
    raise NoBridgeError(
        "argument substitution needs one premise of the form "
        "'(general :domain specific)' whose general term recurs as an "
        "argument of the other premise"
    )


def _root_arguments(g: AmrGraph) -> dict[str, NodeId]:
    """The root's argument children that are variables, as
    ``{role: target}``; a repeated role keeps its last target."""
    return {
        e.role: e.target
        for e in g.outgoing(g.root)
        if e.is_argument and not isinstance(e.target, Constant)
    }


def _pred_sub(p1: AmrGraph, p2: AmrGraph, hint) -> AmrGraph:
    # The linking premise equates two predicates: either
    # '(mean-01 :ARG1 v1 :ARG2 v2)' or '(v2 :domain v1)' with both senses.
    for link, host in ((p1, p2), (p2, p1)):
        root = link.nodes[link.root]
        source = target = None
        if root == "mean-01":
            args = _root_arguments(link)
            if ":ARG1" in args and ":ARG2" in args:
                source = link.nodes[args[":ARG1"]]
                target = link.nodes[args[":ARG2"]]
        elif is_predicate(root):
            domain = link.child_edge(link.root, ":domain")
            if domain is not None and is_predicate(link.nodes[domain.target]):
                source, target = link.nodes[domain.target], root
        if source is None or target is None or source == target:
            continue
        for site, c in host.nodes.items():
            if c == source:
                return relabel_node(host, site, target)
    raise NoBridgeError(
        "predicate substitution needs a premise equating two predicates "
        "and the source predicate in the other premise"
    )


def _frame_sub(p1: AmrGraph, p2: AmrGraph, hint) -> AmrGraph:
    # Only a predicate-rooted premise can be the donor: without one no
    # bridge qualifies, so none is built.
    if is_predicate(p1.nodes[p1.root]) or is_predicate(p2.nodes[p2.root]):
        for n1, n2, _ in _bridges(p1, p2, hint):
            for host, site, donor in ((p1, n1, p2), (p2, n2, p1)):
                if site == host.root:
                    continue
                if not is_predicate(donor.nodes[donor.root]):
                    continue
                return substitute_subgraph(host, site, donor)
    raise NoBridgeError(
        "frame substitution needs a shared concept in argument position "
        "and a predicate-rooted donor premise"
    )


def _made_of(p1: AmrGraph, p2: AmrGraph, hint) -> AmrGraph:
    # One premise is '(make-01 :ARG1 entity :ARG2 material)'; the entity
    # replaces the material term inside the property premise.
    for link, host in ((p1, p2), (p2, p1)):
        if link.nodes[link.root] != "make-01":
            continue
        args = _root_arguments(link)
        if ":ARG1" not in args or ":ARG2" not in args:
            continue
        entity = link.subgraph_at(args[":ARG1"])
        material = {link.nodes[n] for n in link.closure(args[":ARG2"])}
        for site, c in host.nodes.items():
            if site != host.root and c in material:
                return substitute_subgraph(host, site, entity)
    raise NoBridgeError(
        "property inheritance needs a make-01 premise whose material term "
        "appears in the other premise"
    )


# ---------------------------------------------------------------------------
# Insertion and conjunction
# ---------------------------------------------------------------------------


def _argument_parents(g: AmrGraph) -> dict[NodeId, Edge]:
    """Each node's first argument in-edge, in stored edge order."""
    parents: dict[NodeId, Edge] = {}
    for e in g._arguments:
        parents.setdefault(e.target, e)
    return parents


def _arg_ins(p1: AmrGraph, p2: AmrGraph, hint) -> AmrGraph:
    if hint is not None:
        n1, n2 = hint
        # A hint naming a non-bridge donor node selects plain argument
        # insertion: that subtree becomes a modifier of the host node. The
        # donor side is the one whose hinted material is new to the host.
        for donor, donor_node, host, site in (
            (p1, n1, p2, n2),
            (p2, n2, p1, n1),
        ):
            if donor_node not in donor.nodes or site not in host.nodes:
                continue
            if donor.nodes[donor_node] in host.concepts():
                continue
            if host.nodes[site] not in donor.concepts():
                continue
            return insert_argument(
                host, site, donor.subgraph_at(donor_node), ":mod"
            )
    # Default: sever the donor frame at the bridge node and hang the
    # remainder off the host's matching node through the inverted role.
    # A candidate whose insertion would duplicate an attachment the host
    # already has is skipped for the next one.
    duplicated = False
    parents: dict[int, dict[NodeId, Edge]] = {}
    for n1, n2, _ in _bridges(p1, p2, hint):
        for donor, donor_node, host, site in (
            (p1, n1, p2, n2),
            (p2, n2, p1, n1),
        ):
            if donor_node == donor.root:
                continue
            if id(donor) not in parents:
                parents[id(donor)] = _argument_parents(donor)
            parent = parents[id(donor)].get(donor_node)
            # The frame left once the bridge is cut out, if it survives.
            if parent is None or parent.source in donor.carve(donor_node):
                continue
            frame = donor.subgraph_at(parent.source, donor_node)
            try:
                return insert_argument(host, site, frame, f"{parent.role}-of")
            except DuplicateRoleError:
                duplicated = True
    if duplicated:
        raise NoBridgeError(
            "argument insertion found no bridge whose insertion would not "
            "duplicate an attachment the host premise already has"
        )
    raise NoBridgeError(
        "argument insertion needs a shared concept sitting in argument "
        "position of the donor premise"
    )


def _frame_conj(p1: AmrGraph, p2: AmrGraph, hint) -> AmrGraph:
    return conjoin_graphs(p1, p2)


# ---------------------------------------------------------------------------
# Conditionals and generalisation
# ---------------------------------------------------------------------------


def _conditional_parts(
    g: AmrGraph,
) -> tuple[Edge, AmrGraph, list[NodeId]] | None:
    """Split a conditional premise at its root :condition edge into the
    consequent graph and the antecedent placeholders that re-enter it.
    The consequent is valid by construction: the nodes reachable from the
    root without crossing the :condition edge, with every other out-edge
    of theirs, whose target the walk reached along it."""
    cond = g.child_edge(g.root, ":condition")
    if cond is None:
        return None
    antecedent_nodes = set(g.closure(cond.target))
    # Consequent: reachable from the root without crossing the :condition
    # edge: ``closure``'s cut removes a node, not an edge. Placeholders
    # live on both sides and are bound in this walk's order.
    edges, out = g.edges, g._out
    seen: dict[NodeId, None] = {}
    stack = [g.root]
    while stack:
        n = stack.pop()
        if n in seen:
            continue
        seen[n] = None
        for i in out.get(n, ()):
            e = edges[i]
            if e == cond or isinstance(e.target, Constant):
                continue
            stack.append(e.target)
    consequent_nodes = {n: g.nodes[n] for n in seen}
    consequent_edges = tuple(
        e for e in edges if e != cond and e.source in consequent_nodes
    )
    consequent = AmrGraph._built(g.root, consequent_nodes, consequent_edges)
    placeholders = [n for n in seen if n in antecedent_nodes and n != g.root]
    return cond, consequent, placeholders


def _bind_placeholder(
    rule_graph: AmrGraph,
    placeholder: NodeId,
    fact: AmrGraph,
    anchor: NodeId,
) -> AmrGraph | None:
    """Material the placeholder stands for, read off the fact premise:
    a same-concept node when one exists, otherwise the :domain subject of
    the anchor node (or of the fact's root)."""
    concept = rule_graph.nodes[placeholder]
    for n, c in fact.nodes.items():
        if c == concept:
            return fact.subgraph_at(n)
    for source in (anchor, fact.root):
        domain = fact.child_edge(source, ":domain")
        if domain is not None:
            return fact.subgraph_at(domain.target)
    return None


def _cond_frame(p1: AmrGraph, p2: AmrGraph, hint) -> AmrGraph:
    # Either premise may be the rule: the first whose antecedent head
    # occurs in the other premise binds.
    conditional = False
    for rule_graph, fact in ((p1, p2), (p2, p1)):
        parts = _conditional_parts(rule_graph)
        if parts is None:
            continue
        conditional = True
        cond, consequent, placeholders = parts
        antecedent_head = rule_graph.nodes[cond.target]
        anchor = next((n for n, c in fact.nodes.items() if c == antecedent_head), None)
        if anchor is None:
            continue
        out = consequent
        for placeholder in placeholders:
            if placeholder not in out.nodes:
                continue
            bound = _bind_placeholder(rule_graph, placeholder, fact, anchor)
            if bound is not None:
                out = substitute_subgraph(out, placeholder, bound)
        return out
    if conditional:
        raise NoBridgeError(
            "the conditional antecedent does not match the other premise"
        )
    raise NoConditionalError("neither premise carries a root :condition edge")


def _variable_for(concept: Concept, fallback: str) -> NodeId:
    """The concept's initial when it is an ASCII letter (a valid Penman
    variable), ``fallback`` otherwise: ``3d-printer`` gets ``fallback``."""
    first = concept[0]
    return first if first.isascii() and first.isalpha() else fallback


def _generalise(p1: AmrGraph, p2: AmrGraph, hint) -> AmrGraph:
    # Counting is exact: nodes align only to nodes of the same concept, and
    # edges never decide which nodes may align, so a maximum alignment of
    # p1 into p2, and the greedy one used past the search's cap or budget,
    # maps min(count in p1, count in p2) nodes of every concept. Whatever
    # the alignment, the concepts left over are the multiset difference.
    c1, c2 = Counter(p1.nodes.values()), Counter(p2.nodes.values())
    removed, added = c1 - c2, c2 - c1
    if removed.total() != 1 or added.total() != 1:
        raise NotSingleDifferenceError(
            "generalisation needs premises differing by exactly one concept, "
            f"got {removed.total()} vs {added.total()}"
        )
    (general,), (specific,) = removed, added
    g_id = _variable_for(general, "g")
    s_id = _variable_for(specific, "s")
    if s_id == g_id:
        s_id = s_id + "2"
    # Valid by construction: two distinct variables and one edge between.
    return AmrGraph._built(
        g_id, {g_id: general, s_id: specific}, (Edge(g_id, ":domain", s_id),)
    )


def _ift(p1: AmrGraph, p2: AmrGraph, hint) -> AmrGraph:
    # Convention: p1 carries the consequent, p2 the antecedent.
    try:
        return insert_argument(p1, p1.root, p2, ":condition")
    except DuplicateRoleError as exc:
        raise NoBridgeError(
            "if-then insertion would duplicate a :condition the consequent "
            "premise's root already has"
        ) from exc


_HANDLERS = {
    InferenceType.ARG_SUB: _arg_sub,
    InferenceType.PRED_SUB: _pred_sub,
    InferenceType.FRAME_SUB: _frame_sub,
    InferenceType.COND_FRAME: _cond_frame,
    InferenceType.ARG_INS: _arg_ins,
    InferenceType.FRAME_CONJ: _frame_conj,
    InferenceType.ARG_PRED_GEN: _generalise,
    InferenceType.ARG_SUB_PROP: _made_of,
    InferenceType.IFT: _ift,
}

#: Types with a forward transformation: the keys of the handler table.
TRANSFORMABLE_TYPES: frozenset[InferenceType] = frozenset(_HANDLERS)
