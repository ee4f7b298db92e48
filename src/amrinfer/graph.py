"""Relaxed matching, the graph difference and the graph edits, over the
graph value of :mod:`amrinfer.amr`.

The value's names (:class:`AmrGraph`, :class:`Constant`, :class:`Edge`,
``Concept``, ``NodeId``, :func:`is_argument_role`, :func:`is_predicate`
and :func:`stem`) are bound here too, so they can still be looked up on
this module.

Relaxed containment, relaxed equivalence and exact isomorphism each call
one embedding search, :func:`_search`, with the edges they keep; exact
isomorphism also pins the root. A node maps onto a node of its concept,
so each test first counts: each concept must occur in the other graph at
least as often (:func:`_fits`). The search then assigns only the nodes
that a kept edge touches. Every other node is counted, not searched,
since any free partner of its concept will do. Of the touched nodes,
those with one candidate (a pinned root, or a concept that occurs once in
the other graph) are settled in one pass, which checks the edges among
them. The rest are searched in the order the edges first touch them, and
a node first reached along an edge draws its candidates from the edges of
its neighbour's partner (after VF2++, Jüttner and Madarasi, 2018, and RI,
Bonnici et al., 2013), not from its whole concept bucket, so an edge
prunes as soon as it is reached. The search runs on an explicit stack, so
its depth is not bounded by Python's recursion limit.

:func:`relaxed_subset_at` asks whether the subtree at a node, as
:meth:`AmrGraph.subgraph_at` would build it, relaxed-embeds in another
graph, without building it, by one walk that counts concepts before the
search; :func:`relaxed_subset` is that walk at the root, which reaches
every node. The classifier asks it of every conclusion edge, and most
fail at the first concept.

The search returns its assignment of the searched nodes, not only whether
one exists. :func:`relaxed_embedding` completes it, giving every other
node the first free node of its concept bucket, into the witness of
containment that the classifier reads: one premise's witness into the
conclusion leaves unmapped exactly the inserted material, so classifier
step 7 reads its head there, under the same relaxed semantics that
decide containment.

That search and the difference alignment file every edge under whichever
endpoint they assign later, so each edge is checked once, as a plain
``(source, role, target)`` tuple against the other graph's edge set, when
its last endpoint is assigned; the search skips the edge that drew a
node's candidates, which every candidate already carries. Both read the
other graph's match index (concept buckets, edge set, argument edges),
which each graph builds on first use and keeps, and the search also reads
its out-edge index.

The difference alignment, :func:`graph_difference` with its replay
:func:`apply_delta`, is a library function that the pipeline does not
call. It is a branch-and-bound search for a maximum common subgraph. Its
bound counts only what is still open (McGregor, 1982): the nodes not yet
reached that have a candidate, and the edges filed at or after the
current position, whose fate is not yet decided.
A branch is pruned when that bound scores no better than the incumbent.
Since only a strict improvement replaces the incumbent, the result is the
first leaf, in search order, with the best score; no pruned branch can
hold it, so the bound decides how many states the search visits before
the budget, never which alignment it returns.

All operations are pure: they build new graphs and never change one.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import NamedTuple

from .amr import (
    _ARGUMENT_ROLE,
    AmrGraph,
    Concept,
    Constant,
    Edge,
    NodeId,
    is_argument_role,
    is_predicate,
    stem,
)
from .errors import (
    DuplicateRoleError,
    InvalidSiteError,
)


# ---------------------------------------------------------------------------
# Relaxed matching
# ---------------------------------------------------------------------------


def _file_edges(
    order: list[NodeId], edges: Iterable[Edge]
) -> list[list[tuple]]:
    """File each edge, as ``(source, role, target, target_is_constant)``,
    under the position in ``order`` of whichever endpoint comes later. A
    search assigning the nodes in that order checks each edge once, when
    its last endpoint is assigned."""
    position = {v: i for i, v in enumerate(order)}
    filed: list[list[tuple]] = [[] for _ in order]
    for s, role, t in edges:
        const = isinstance(t, Constant)
        later = position[s] if const else max(position[s], position[t])
        filed[later].append((s, role, t, const))
    return filed


def _fits(a: AmrGraph, b: AmrGraph) -> bool:
    """Hall's condition for mapping the nodes of ``a`` onto same-concept
    nodes of ``b``: each concept occurs in ``b`` at least as often, so
    every witness of :func:`_search` completes."""
    have = b._buckets
    for label, vs in a._buckets.items():
        if len(have.get(label, ())) < len(vs):
            return False
    return True


def _search(
    labels: dict[NodeId, Concept],
    b: AmrGraph,
    edges: Sequence[Edge],
    assign: dict[NodeId, NodeId],
) -> dict[NodeId, NodeId] | None:
    """The search behind every containment and isomorphism test, once the
    concepts are counted: an injective map of the nodes that ``edges``
    touch, each labelled by ``labels``, onto same-concept nodes of ``b``
    under which every edge lands on an edge of ``b``, or None. With no
    edge and nothing pinned the map is ``{}``, which is a witness, so
    callers test ``is not None``. ``assign`` holds any node already
    pinned, and the search fills it in.

    One pass over ``edges`` settles every node with a single candidate,
    a pinned node or one whose concept occurs once in ``b``, and checks
    each edge between two settled nodes; one set then checks that the
    settled partners are distinct. The other nodes are searched in the
    order the edges first touch them, with no sort. A node first touched
    as the target of an edge ``(u, role, v)`` takes as candidates the
    targets of the ``role`` out-edges of ``u``'s partner that carry
    ``v``'s concept, read off ``b``'s out-edge index; every candidate
    carries that edge, so it is not checked again. A node first touched
    as a source takes its concept's bucket. Every other edge is filed
    under whichever endpoint is searched later and checked once, as a
    plain ``(source, role, target)`` tuple against ``b``'s edge set, when
    that endpoint is assigned. The search runs on an explicit stack that
    keeps one candidate iterator per depth."""
    have, keys = b._buckets, b._edge_set
    # Searched nodes by depth; a settled node sits at position -1.
    position = dict.fromkeys(assign, -1)
    order: list[NodeId] = []
    # Per depth: the concept bucket, or the (u, role, concept) of the edge
    # whose images in ``b`` are the candidates.
    draws: list[list[NodeId] | tuple[NodeId, str, Concept]] = []
    filed: list[list[tuple]] = []
    for s, role, t in edges:
        i = position.get(s)
        if i is None:
            bucket = have[labels[s]]
            if len(bucket) == 1:
                assign[s] = bucket[0]
                i = position[s] = -1
            else:
                i = position[s] = len(order)
                order.append(s)
                draws.append(bucket)
                filed.append([])
        if isinstance(t, Constant):
            if i >= 0:
                filed[i].append((s, role, t, True))
            elif (assign[s], role, t) not in keys:
                return None
            continue
        j = position.get(t)
        if j is None:
            label = labels[t]
            bucket = have[label]
            if len(bucket) == 1:
                assign[t] = bucket[0]
                j = position[t] = -1
            else:
                position[t] = len(order)
                order.append(t)
                draws.append((s, role, label))
                filed.append([])
                continue  # this edge draws t's candidates: none to check
        if i < j:
            i = j
        if i >= 0:
            filed[i].append((s, role, t, False))
        elif (assign[s], role, assign[t]) not in keys:
            return None
    used = set(assign.values())
    if len(used) < len(assign):
        return None
    if not order:
        return assign
    out, b_edges, b_labels = b._out, b.edges, b.nodes

    def candidates(depth: int) -> Iterator[NodeId]:
        draw = draws[depth]
        if type(draw) is list:  # a concept bucket
            return iter(draw)
        u, role, label = draw
        return iter([
            e[2]
            for k in out.get(assign[u], ())
            if (e := b_edges[k])[1] == role and b_labels.get(e[2]) == label
        ])

    last = len(order) - 1
    tries = [candidates(0)]
    while tries:
        depth = len(tries) - 1
        v = order[depth]
        for w in tries[-1]:
            if w in used:
                continue
            assign[v] = w
            for s, role, t, const in filed[depth]:
                if (assign[s], role, t if const else assign[t]) not in keys:
                    break
            else:
                break  # w fits
        else:
            # Every candidate failed: back up and free the parent's node.
            tries.pop()
            if tries:
                used.remove(assign[order[depth - 1]])
            continue
        if depth == last:
            return assign
        used.add(w)
        tries.append(candidates(depth + 1))
    return None


def relaxed_subset(inner: AmrGraph, outer: AmrGraph) -> bool:
    """True when ``inner`` embeds injectively into ``outer`` preserving
    concepts and argument-class edges; relaxable edges are ignored on both
    sides. It is :func:`relaxed_subset_at` at the root, which reaches every
    node, so each call walks ``inner`` rather than reading a kept list."""
    return relaxed_subset_at(inner, inner.root, outer)


def relaxed_embedding(
    inner: AmrGraph, outer: AmrGraph
) -> dict[NodeId, NodeId] | None:
    """The witness of :func:`relaxed_subset`, made total: every node of
    ``inner`` maps to its node of ``outer``, or None when ``inner`` does
    not embed. The search runs on the argument edges in stored order, and
    its nodes keep their partners; every other node, in stored node order,
    takes the first free node of its concept bucket. Hall's condition,
    checked before the search, leaves one free for each."""
    if not _fits(inner, outer):
        return None
    witness = _search(inner.nodes, outer, inner._arguments, {})
    if witness is None:
        return None
    searched = set(witness.values())
    buckets = outer._buckets
    free: dict[Concept, Iterator[NodeId]] = {}
    for v, label in inner.nodes.items():
        if v in witness:
            continue
        if label not in free:
            free[label] = iter(buckets[label])
        for w in free[label]:
            if w not in searched:
                witness[v] = w
                break
    return witness


def relaxed_subset_at(g: AmrGraph, node: NodeId, outer: AmrGraph) -> bool:
    """Whether ``g.subgraph_at(node)`` relaxed-embeds in ``outer``, without
    building the subgraph. One walk of ``node``'s closure counts its
    concepts against ``outer``'s buckets, stopping at the first that
    cannot fit, and collects the closure's argument edges as it meets
    them, parent first. The search runs on them in that order, so a node
    reached along one draws from its parent's partner even when edges are
    stored child first; no order changes whether an embedding exists.
    Raises :class:`InvalidSiteError` when ``node`` is not a node of ``g``."""
    if node not in g.nodes:
        raise InvalidSiteError(f"{node!r} is not a node of the graph")
    have = outer._buckets
    labels, edges, out = g.nodes, g.edges, g._out
    is_argument = _ARGUMENT_ROLE.match
    need: dict[Concept, int] = {}
    arguments: list[Edge] = []
    seen: set[NodeId] = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n in seen:
            continue
        seen.add(n)
        label = labels[n]
        count = need.get(label, 0) + 1
        if count > len(have.get(label, ())):
            return False
        need[label] = count
        for i in out.get(n, ()):
            _, role, t = e = edges[i]
            if is_argument(role):
                arguments.append(e)
            if not isinstance(t, Constant):
                stack.append(t)
    if not arguments:
        return True  # the count is Hall's condition: every node fits
    return _search(labels, outer, arguments, {}) is not None


def relaxed_isomorphic(a: AmrGraph, b: AmrGraph) -> bool:
    """Mutual relaxed containment under one bijective witness: same concept
    multiset and identical argument-class structure, modifiers ignored."""
    # Equal argument-edge counts make a forward witness a bijection on them.
    if len(a.nodes) != len(b.nodes) or len(a._arguments) != len(b._arguments):
        return False
    return relaxed_embedding(a, b) is not None


def exact_isomorphic(a: AmrGraph, b: AmrGraph) -> bool:
    """Bijection preserving the root, every concept, and every edge with its
    role. Used for serialization round-trips, never for inference."""
    if len(a.nodes) != len(b.nodes) or len(a.edges) != len(b.edges):
        return False
    if a.nodes[a.root] != b.nodes[b.root] or not _fits(a, b):
        return False
    return _search(a.nodes, b, a.edges, {a.root: b.root}) is not None


# ---------------------------------------------------------------------------
# Graph difference
# ---------------------------------------------------------------------------

EXACT_DIFFERENCE_CAP = 25


class GraphDelta(NamedTuple):
    """Difference between two graphs under a maximum-common-subgraph
    alignment. Added material is expressed in the ``to`` graph's node ids;
    ``node_map`` sends aligned ``from`` nodes to their ``to`` counterparts.
    """

    node_map: dict[NodeId, NodeId]
    removed_nodes: tuple[tuple[NodeId, Concept], ...]
    removed_edges: tuple[Edge, ...]
    added_nodes: tuple[tuple[NodeId, Concept], ...]
    added_edges: tuple[Edge, ...]
    to_root: NodeId
    approximate: bool = False

    @property
    def is_empty(self) -> bool:
        return not (
            self.removed_nodes
            or self.removed_edges
            or self.added_nodes
            or self.added_edges
        )


def _greedy_alignment(from_g: AmrGraph, to_g: AmrGraph) -> dict[NodeId, NodeId]:
    """Concept-anchored fallback for graphs past the exact-search cap: each
    ``from`` node takes the first untaken ``to`` node of its concept, in
    stored order."""
    untaken = {c: iter(ws) for c, ws in to_g._buckets.items()}
    mapping: dict[NodeId, NodeId] = {}
    for v, c in from_g.nodes.items():
        w = next(untaken[c], None) if c in untaken else None
        if w is not None:
            mapping[v] = w
    return mapping


_ALIGNMENT_BUDGET = 200_000


class _BudgetExhausted(Exception):
    pass


def _exact_alignment(from_g: AmrGraph, to_g: AmrGraph) -> dict[NodeId, NodeId]:
    """Maximum-common-subgraph alignment: maximises mapped nodes, then
    matched edges. Deterministic: candidates are tried in stable node order
    and only strict improvements replace the incumbent, so the result is
    the first leaf, in search order, with the best score. A branch is
    pruned when its mapped nodes plus the later nodes that have a
    candidate, and its matched edges plus the edges filed at or after its
    position (the only ones still undecided), score no better than the
    incumbent; such a branch cannot hold that first best leaf. Stops early
    once a perfect alignment is seen; raises :class:`_BudgetExhausted`
    when the search state count exceeds the budget."""
    from_nodes = list(from_g.nodes)
    buckets, to_keys = to_g._buckets, to_g._edge_set
    candidates = [buckets.get(c, ()) for c in from_g.nodes.values()]
    filed = _file_edges(from_nodes, from_g.edges)
    perfect = (len(from_nodes), len(from_g.edges))
    # Suffix counts for the bound: ``undecided[i]`` edges are filed at
    # positions >= i, so only they can still match once position i is
    # reached; ``matchable[i]`` nodes at positions >= i have a candidate.
    n = len(from_nodes)
    undecided = [0] * (n + 1)
    matchable = [0] * (n + 1)
    for i in reversed(range(n)):
        undecided[i] = undecided[i + 1] + len(filed[i])
        matchable[i] = matchable[i + 1] + bool(candidates[i])

    best: dict[NodeId, NodeId] = {}
    best_score = (-1, -1)
    steps = 0
    assign: dict[NodeId, NodeId] = {}
    used: set[NodeId] = set()

    def backtrack(i: int, matched: int) -> None:
        # ``matched`` counts the edges already carried onto ``to_g``.
        nonlocal best, best_score, steps
        if best_score == perfect:
            return
        steps += 1
        if steps > _ALIGNMENT_BUDGET:
            raise _BudgetExhausted
        if i == n:
            score = (len(assign), matched)
            if score > best_score:
                best_score = score
                best = dict(assign)
            return
        # No leaf below can beat the incumbent: only a strict improvement
        # would replace it.
        if (len(assign) + matchable[i], matched + undecided[i]) <= best_score:
            return
        v = from_nodes[i]
        for w in candidates[i]:
            if w in used:
                continue
            assign[v] = w
            used.add(w)
            gained = 0
            for s, role, t, const in filed[i]:
                if const or (s in assign and t in assign):
                    key = (assign[s], role, t if const else assign[t])
                    gained += key in to_keys
            backtrack(i + 1, matched + gained)
            del assign[v]
            used.remove(w)
        backtrack(i + 1, matched)  # leave v unmatched

    backtrack(0, 0)
    return best


def graph_difference(from_g: AmrGraph, to_g: AmrGraph) -> GraphDelta:
    """Delta turning ``from_g`` into ``to_g``, minimal over relaxed
    maximum-common-subgraph alignments. The exact search runs up to
    ``EXACT_DIFFERENCE_CAP`` nodes and a fixed state budget; past either
    limit the alignment is greedy and the delta is flagged approximate.
    The search returns the first best alignment in its order and prunes
    only branches that cannot beat the incumbent (see
    :func:`_exact_alignment`), so within the budget the delta does not
    depend on how tight its bound is."""
    approximate = (
        max(len(from_g.nodes), len(to_g.nodes)) > EXACT_DIFFERENCE_CAP
    )
    if approximate:
        mapping = _greedy_alignment(from_g, to_g)
    else:
        try:
            mapping = _exact_alignment(from_g, to_g)
        except _BudgetExhausted:
            mapping = _greedy_alignment(from_g, to_g)
            approximate = True

    to_keys = to_g._edge_set
    matched_to_edges: set[tuple] = set()
    removed_edges = []
    for e in from_g.edges:
        s, role, t = e
        key = None
        if s in mapping:
            if isinstance(t, Constant):
                key = (mapping[s], role, t)
            elif t in mapping:
                key = (mapping[s], role, mapping[t])
        if key in to_keys:
            matched_to_edges.add(key)
        else:
            removed_edges.append(e)

    removed_nodes = tuple(
        (n, c) for n, c in from_g.nodes.items() if n not in mapping
    )
    mapped_to = set(mapping.values())
    added_nodes = tuple(
        (n, c) for n, c in to_g.nodes.items() if n not in mapped_to
    )
    added_edges = tuple(e for e in to_g.edges if e not in matched_to_edges)

    return GraphDelta(
        node_map=dict(mapping),
        removed_nodes=removed_nodes,
        removed_edges=tuple(removed_edges),
        added_nodes=added_nodes,
        added_edges=added_edges,
        to_root=to_g.root,
        approximate=approximate,
    )


def apply_delta(from_g: AmrGraph, delta: GraphDelta) -> AmrGraph:
    """Replay a delta on its ``from`` graph. The result is exactly
    isomorphic to the delta's ``to`` graph. Added material gets variables
    freshened against the surviving ``from`` ids."""
    reverse = {w: v for v, w in delta.node_map.items()}
    removed = {n for n, _ in delta.removed_nodes}
    removed_edge_set = set(delta.removed_edges)
    survivors = {n for n in from_g.nodes if n not in removed}

    taken = set(survivors)
    fresh: dict[NodeId, NodeId] = {}
    for n, _ in delta.added_nodes:
        fresh[n] = _fresh_name(n, taken)
        taken.add(fresh[n])

    def from_id(to_id: NodeId) -> NodeId:
        if to_id in reverse:
            return reverse[to_id]
        return fresh[to_id]

    nodes: dict[NodeId, Concept] = {}
    root = from_id(delta.to_root)
    ordered = [root] + [n for n in from_g.nodes if n != root]
    for n in ordered:
        if n in survivors:
            nodes[n] = from_g.nodes[n]
    for n, c in delta.added_nodes:
        nodes[fresh[n]] = c

    edges: list[Edge] = []
    for e in from_g.edges:
        if e in removed_edge_set:
            continue
        edges.append(e)
    for e in delta.added_edges:
        target = e.target if isinstance(e.target, Constant) else from_id(e.target)
        edges.append(Edge(from_id(e.source), e.role, target))

    return AmrGraph(root=root, nodes=nodes, edges=tuple(edges))


# ---------------------------------------------------------------------------
# Graph edits
# ---------------------------------------------------------------------------


def _fresh_name(base: str, taken: set[str]) -> str:
    if base not in taken:
        return base
    i = 2
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


def _import_nodes(
    graph: AmrGraph, taken: set[NodeId]
) -> tuple[dict[NodeId, Concept], Sequence[Edge], NodeId]:
    """A graph's nodes, edges and root, its variables renamed apart from
    ``taken``, which gains every name they use. The counter-based
    renaming is deterministic. A graph that clashes with nothing is
    shared, not copied: its own nodes dict, edges tuple and root come
    back, so callers only read them."""
    if taken.isdisjoint(graph.nodes):
        taken.update(graph.nodes)
        return graph.nodes, graph.edges, graph.root
    rename: dict[NodeId, NodeId] = {}
    nodes: dict[NodeId, Concept] = {}
    for n, c in graph.nodes.items():
        fresh = _fresh_name(n, taken) if n in taken else n
        taken.add(fresh)
        rename[n] = fresh
        nodes[fresh] = c
    edges = [
        Edge(
            rename[e.source],
            e.role,
            e.target if isinstance(e.target, Constant) else rename[e.target],
        )
        for e in graph.edges
    ]
    return nodes, edges, rename[graph.root]


def substitute_subgraph(
    g: AmrGraph, at: NodeId, replacement: AmrGraph
) -> AmrGraph:
    """Replace the subtree dominated by ``at`` with ``replacement``.

    Edges that pointed to ``at`` are repointed at the replacement's root;
    nodes under ``at`` that the rest of the graph still references survive.
    Replacement variables are freshened against the survivors.

    Valid by construction: the survivors, the nodes outside
    ``g.carve(at)``, are the nodes still reachable once ``at`` is gone
    (every node of a valid graph is reachable from its root), each along
    kept edges. ``at`` is not the root, so a survivor's edge into ``at``
    now reaches the replacement's root; fresh variables keep every new
    edge distinct from the kept ones.
    """
    if at not in g.nodes:
        raise InvalidSiteError(f"{at!r} is not a node of the graph")
    if at == g.root:
        raise InvalidSiteError(
            "substitution at the root replaces the whole graph; "
            "use the replacement directly"
        )
    carved = g.carve(at)
    nodes = {n: c for n, c in g.nodes.items() if n not in carved}
    new_nodes, new_edges, spliced = _import_nodes(replacement, set(nodes))
    edges = [
        e if e[2] != at else Edge(e[0], e[1], spliced)
        for e in g.edges
        if e[0] not in carved
    ]
    edges.extend(new_edges)

    nodes.update(new_nodes)
    return AmrGraph._built(g.root, nodes, tuple(edges))


def insert_argument(
    g: AmrGraph, frame_head: NodeId, arg: AmrGraph, role: str
) -> AmrGraph:
    """Attach ``arg`` under ``frame_head`` with ``role``. Raises
    :class:`DuplicateRoleError` when an equivalent attachment exists.

    Valid by construction: one new edge from an existing node to the
    fresh root of a valid graph renamed apart from ``g``."""
    if frame_head not in g.nodes:
        raise InvalidSiteError(f"{frame_head!r} is not a node of the graph")
    for e in g.outgoing(frame_head):
        if e.role != role or isinstance(e.target, Constant):
            continue
        if relaxed_isomorphic(g.subgraph_at(e.target), arg):
            raise DuplicateRoleError(
                f"{frame_head!r} already carries {role} to an equivalent target"
            )
    new_nodes, new_edges, arg_root = _import_nodes(arg, set(g.nodes))
    nodes = dict(g.nodes)
    nodes.update(new_nodes)
    edges = list(g.edges)
    edges.append(Edge(frame_head, role, arg_root))
    edges.extend(new_edges)
    return AmrGraph._built(g.root, nodes, tuple(edges))


def conjoin_graphs(a: AmrGraph, b: AmrGraph) -> AmrGraph:
    """Join two graphs under a fresh ``and`` node via ``:op1``, ``:op2``.

    Valid by construction: a fresh root over two valid graphs renamed
    apart from it and from each other."""
    root = "a"
    taken = {root}
    a_nodes, a_edges, a_root = _import_nodes(a, taken)
    b_nodes, b_edges, b_root = _import_nodes(b, taken)
    nodes: dict[NodeId, Concept] = {root: "and"}
    nodes.update(a_nodes)
    nodes.update(b_nodes)
    edges = [Edge(root, ":op1", a_root), Edge(root, ":op2", b_root)]
    edges.extend(a_edges)
    edges.extend(b_edges)
    return AmrGraph._built(root, nodes, tuple(edges))


def relabel_node(g: AmrGraph, at: NodeId, concept: Concept) -> AmrGraph:
    """Swap one node's concept, keeping all structure. This is the
    predicate-substitution edit: the node keeps its arguments.

    Valid by construction: the root, node keys and edges of a valid graph
    are kept. The new graph shares the edges tuple and builds its own
    indexes on first use."""
    if at not in g.nodes:
        raise InvalidSiteError(f"{at!r} is not a node of the graph")
    nodes = {n: (concept if n == at else c) for n, c in g.nodes.items()}
    return AmrGraph._built(g.root, nodes, g.edges)
