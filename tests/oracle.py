"""Brute-force oracles, kept deliberately independent of the production
matcher: mappings are enumerated exhaustively per concept group and edge
conditions are restated from the definitions, not shared with
``amrinfer.graph``.

The scan-based references further down are the quadratic traversals, the
recursive Penman writer, the rescanning difference alignment and the
subgraph-building attachment scan that the indexed graph core, the
incremental matcher and the in-place subtree check replaced; the property
tests require the production code to agree with them exactly. The
alignment reference also keeps the looser bound the search once pruned
by, so that the tighter one can be checked against it.

``scan_parse_penman`` at the end is the token-by-token Penman reader
that the step-pattern reader replaced: it builds a ``(kind, text,
offset)`` tuple for every token and validates the graph it builds.
``scan_held_lines`` after it is the line-by-line search for the lines
inside quoted strings that the one-scan ``_held_lines`` replaced."""

from __future__ import annotations

import re
from itertools import chain, permutations, product

from amrinfer import graph as graph_module
from amrinfer.errors import (
    DanglingReferenceError,
    NotSingleDifferenceError,
    PenmanSyntaxError,
)
from amrinfer.graph import (
    AmrGraph,
    Concept,
    Constant,
    Edge,
    GraphDelta,
    NodeId,
    is_argument_role,
)
from amrinfer.transform import _variable_for


def _groups(g: AmrGraph) -> dict:
    by_concept: dict = {}
    for n, c in g.nodes.items():
        by_concept.setdefault((c,), []).append(n)
    return by_concept


def _iter_injections(inner: AmrGraph, outer: AmrGraph):
    """Every concept-preserving injective node mapping, enumerated as the
    product of per-concept permutations."""
    inner_groups = _groups(inner)
    outer_groups = _groups(outer)
    per_group = []
    keys = sorted(inner_groups)
    for key in keys:
        pool = outer_groups.get(key, [])
        need = inner_groups[key]
        if len(pool) < len(need):
            return
        per_group.append(list(permutations(pool, len(need))))
    inner_order = list(chain.from_iterable(inner_groups[k] for k in keys))
    for combo in product(*per_group):
        images = list(chain.from_iterable(combo))
        yield dict(zip(inner_order, images))


def _argument_edges(g: AmrGraph):
    for e in g.edges:
        if is_argument_role(e.role):
            yield e


def _edge_present(g: AmrGraph, source, role, target) -> bool:
    for e in g.edges:
        if e.source != source or e.role != role:
            continue
        if isinstance(target, Constant):
            if isinstance(e.target, Constant) and e.target == target:
                return True
        elif e.target == target:
            return True
    return False


def brute_subset(inner: AmrGraph, outer: AmrGraph) -> bool:
    """Exhaustive check of the relaxed-subset definition."""
    for mapping in _iter_injections(inner, outer):
        ok = True
        for e in _argument_edges(inner):
            target = e.target if isinstance(e.target, Constant) else mapping[e.target]
            if not _edge_present(outer, mapping[e.source], e.role, target):
                ok = False
                break
        if ok:
            return True
    return False


def brute_isomorphic(a: AmrGraph, b: AmrGraph) -> bool:
    """Exhaustive check for a bijective witness preserving argument-class
    structure in both directions."""
    if len(a.nodes) != len(b.nodes):
        return False
    for mapping in _iter_injections(a, b):
        ok = True
        for e in _argument_edges(a):
            target = e.target if isinstance(e.target, Constant) else mapping[e.target]
            if not _edge_present(b, mapping[e.source], e.role, target):
                ok = False
                break
        if ok:
            inverse = {w: v for v, w in mapping.items()}
            for e in _argument_edges(b):
                target = (
                    e.target if isinstance(e.target, Constant) else inverse[e.target]
                )
                if not _edge_present(a, inverse[e.source], e.role, target):
                    ok = False
                    break
        if ok:
            return True
    return False


# ---------------------------------------------------------------------------
# Scan-based references for the indexed graph core and the Penman writer
# ---------------------------------------------------------------------------


def scan_outgoing(g: AmrGraph, node) -> list:
    """Out-edges of ``node`` by a scan over every edge."""
    return [e for e in g.edges if e.source == node]


def scan_closure(g: AmrGraph, node) -> list:
    """Depth-first closure with list membership and a full edge scan per
    node."""
    seen: list = []
    stack = [node]
    while stack:
        n = stack.pop()
        if n in seen:
            continue
        seen.append(n)
        targets = [
            e.target
            for e in g.edges
            if e.source == n and not isinstance(e.target, Constant)
        ]
        stack.extend(reversed(targets))
    return seen


def scan_subgraph_at(g: AmrGraph, node) -> AmrGraph:
    """Closure of ``node`` plus every internal edge, filtered from the
    whole edge tuple."""
    keep = scan_closure(g, node)
    nodes = {n: g.nodes[n] for n in keep}
    edges = tuple(
        e
        for e in g.edges
        if e.source in nodes
        and (isinstance(e.target, Constant) or e.target in nodes)
    )
    return AmrGraph(root=node, nodes=nodes, edges=edges)


def scan_attachment_site(g_c: AmrGraph, g_x: AmrGraph, g_other: AmrGraph):
    """Classifier step 5 as it was before each subtree was checked in
    place: every candidate edge's target subtree is built as a graph by
    ``subgraph_at`` and tested with ``relaxed_embedding``, against the
    non-pivot premise and then the pivot. That search runs on the stored
    argument edges, not on the walk that step 5 and ``relaxed_subset``
    share. It checks every candidate edge: no subtree is skipped for lying
    inside one that embeds in both premises."""
    cx = g_x.concepts()
    cother = g_other.concepts()
    for e in g_c.edges:
        if isinstance(e.target, Constant):
            continue
        src = g_c.nodes[e.source]
        if src in ("and", "or"):
            continue
        if src in cother and src not in cx:
            continue
        sub = g_c.subgraph_at(e.target)
        if graph_module.relaxed_embedding(sub, g_other) is None:
            continue
        if graph_module.relaxed_embedding(sub, g_x) is not None:
            continue
        if e.is_argument or g_c.nodes[e.target] in cx:
            return e
    return None


def scan_serialize(g: AmrGraph) -> str:
    """Recursive canonical Penman writer scanning every edge per node."""
    visited: set = set()

    def render_target(target) -> str:
        if isinstance(target, Constant):
            return target.render()
        if target in visited:
            return target
        return emit(target)

    def emit(node) -> str:
        visited.add(node)
        parts = [f"({node} / {g.nodes[node]}"]
        for e in g.edges:
            if e.source == node:
                parts.append(f"{e.role} {render_target(e.target)}")
        return " ".join(parts) + ")"

    return emit(g.root)


def scan_document_order(g: AmrGraph) -> tuple[list, list]:
    """Variables and edges in the order the canonical serialization
    mentions them: the order parsing that text must store them in."""
    nodes: list = []
    edges: list = []

    def visit(node) -> None:
        nodes.append(node)
        for e in scan_outgoing(g, node):
            edges.append(e)
            if not isinstance(e.target, Constant) and e.target not in nodes:
                visit(e.target)

    visit(g.root)
    return nodes, edges


def brute_carve(g: AmrGraph, at) -> set:
    """``at`` plus every node the root no longer reaches once ``at`` is
    deleted, by repeated passes over the edge list."""
    alive = set() if at == g.root else {g.root}
    changed = True
    while changed:
        changed = False
        for e in g.edges:
            if (
                e.source in alive
                and not isinstance(e.target, Constant)
                and e.target != at
                and e.target not in alive
            ):
                alive.add(e.target)
                changed = True
    return {n for n in g.nodes if n not in alive}


def scan_severed_frame(g: AmrGraph, at, source) -> AmrGraph | None:
    """The frame at ``source`` once ``at`` is cut out of ``g``, or None
    when ``source`` goes with ``at``, built without ``closure``'s cut:
    the nodes that disappear with ``at`` by a walk of their own, the
    residue without them and their edges, then the residue's subgraph at
    ``source``. The residue goes through the validating constructor."""
    edges, out = g.edges, g._out
    alive: set = set()
    stack = [] if g.root == at else [g.root]
    while stack:
        n = stack.pop()
        if n in alive:
            continue
        alive.add(n)
        for i in out.get(n, ()):
            target = edges[i].target
            if not isinstance(target, Constant) and target != at:
                stack.append(target)
    gone = {at} | {n for n in g.closure(at) if n not in alive}
    if source in gone:
        return None
    nodes = {n: c for n, c in g.nodes.items() if n not in gone}
    kept = tuple(
        e
        for e in g.edges
        if e.source not in gone
        and (isinstance(e.target, Constant) or e.target not in gone)
    )
    return AmrGraph(g.root, nodes, kept).subgraph_at(source)


def _scan_edge_keys(g: AmrGraph) -> set:
    keys = set()
    for e in g.edges:
        t = (
            ("const", e.target.value, e.target.is_string)
            if isinstance(e.target, Constant)
            else ("node", e.target)
        )
        keys.add((e.source, e.role, t))
    return keys


def _scan_key(mapping: dict, e):
    """Key of the image of ``e`` under ``mapping``, or None when an
    endpoint is unmapped."""
    if e.source not in mapping:
        return None
    if isinstance(e.target, Constant):
        return (mapping[e.source], e.role, ("const", e.target.value, e.target.is_string))
    if e.target in mapping:
        return (mapping[e.source], e.role, ("node", mapping[e.target]))
    return None


def scan_greedy_alignment(from_g: AmrGraph, to_g: AmrGraph) -> dict:
    """Each ``from`` node takes the first untaken same-concept ``to`` node,
    by a scan over every ``to`` node."""
    taken: set = set()
    mapping: dict = {}
    for v, c in from_g.nodes.items():
        for w, cw in to_g.nodes.items():
            if w not in taken and cw == c:
                mapping[v] = w
                taken.add(w)
                break
    return mapping


def scan_exact_alignment(from_g: AmrGraph, to_g: AmrGraph, loose: bool = False) -> dict:
    """The difference alignment with every edge of ``from_g`` rescanned at
    each step. Same node order, candidate order and step count as the
    production search, and the same budget (read from ``amrinfer.graph``
    at call time) and exception.

    Two references, differing only in when a branch is pruned:

    * by default, the production bound, restated by scanning: a branch is
      pruned when its mapped nodes plus the later nodes that have a
      candidate, and its matched edges plus the edges not yet decided
      (some endpoint not yet reached), score no better than the incumbent;
    * with ``loose``, a looser bound, which assumes every later node
      and every edge can still match and prunes only a branch that scores
      strictly worse. It prunes only branches the default prunes too, so
      it may exhaust a budget the default does not; wherever it finishes,
      both return the first best leaf in search order."""
    from_nodes = list(from_g.nodes)
    position = {v: i for i, v in enumerate(from_nodes)}
    to_keys = _scan_edge_keys(to_g)
    candidates = {
        v: [w for w, cw in to_g.nodes.items() if cw == from_g.nodes[v]]
        for v in from_nodes
    }
    perfect = (len(from_nodes), len(from_g.edges))
    budget = graph_module._ALIGNMENT_BUDGET

    def matched_edges(mapping: dict) -> int:
        return sum(1 for e in from_g.edges if _scan_key(mapping, e) in to_keys)

    def reached_at(e) -> int:
        """Position of the later endpoint of ``e``: until the search has
        passed it, the edge is undecided."""
        if isinstance(e.target, Constant):
            return position[e.source]
        return max(position[e.source], position[e.target])

    def bound(i: int, assign: dict) -> tuple[int, int]:
        if loose:
            return (len(assign) + (len(from_nodes) - i), len(from_g.edges))
        return (
            len(assign) + sum(1 for v in from_nodes[i:] if candidates[v]),
            matched_edges(assign)
            + sum(1 for e in from_g.edges if reached_at(e) >= i),
        )

    best: dict = {}
    best_score = (-1, -1)
    steps = 0

    def backtrack(i: int, assign: dict, used: set) -> None:
        nonlocal best, best_score, steps
        if best_score == perfect:
            return
        steps += 1
        if steps > budget:
            raise graph_module._BudgetExhausted
        if i == len(from_nodes):
            score = (len(assign), matched_edges(assign))
            if score > best_score:
                best_score = score
                best = dict(assign)
            return
        limit = bound(i, assign)
        if limit < best_score or (not loose and limit == best_score):
            return
        v = from_nodes[i]
        for w in candidates[v]:
            if w in used:
                continue
            assign[v] = w
            used.add(w)
            backtrack(i + 1, assign, used)
            del assign[v]
            used.remove(w)
        backtrack(i + 1, assign, used)

    backtrack(0, {}, set())
    return best


def scan_graph_difference(from_g: AmrGraph, to_g: AmrGraph) -> GraphDelta:
    """``graph_difference`` over the scan-based alignments, with edges
    compared through tagged keys."""
    approximate = (
        max(len(from_g.nodes), len(to_g.nodes)) > graph_module.EXACT_DIFFERENCE_CAP
    )
    if approximate:
        mapping = scan_greedy_alignment(from_g, to_g)
    else:
        try:
            mapping = scan_exact_alignment(from_g, to_g)
        except graph_module._BudgetExhausted:
            mapping = scan_greedy_alignment(from_g, to_g)
            approximate = True
    to_keys = _scan_edge_keys(to_g)
    matched: set = set()
    removed_edges = []
    for e in from_g.edges:
        key = _scan_key(mapping, e)
        if key is not None and key in to_keys:
            matched.add(key)
        else:
            removed_edges.append(e)
    mapped_to = set(mapping.values())
    identity = {n: n for n in to_g.nodes}
    return GraphDelta(
        node_map=dict(mapping),
        removed_nodes=tuple((n, c) for n, c in from_g.nodes.items() if n not in mapping),
        removed_edges=tuple(removed_edges),
        added_nodes=tuple((n, c) for n, c in to_g.nodes.items() if n not in mapped_to),
        added_edges=tuple(e for e in to_g.edges if _scan_key(identity, e) not in matched),
        to_root=to_g.root,
        approximate=approximate,
    )


def scan_generalise(p1: AmrGraph, p2: AmrGraph) -> AmrGraph:
    """The ARG/PRED-GEN derivation that label counting replaced: the one
    concept left unaligned on each side of ``graph_difference``, linked as
    ``(general :domain specific)``."""
    delta = graph_module.graph_difference(p1, p2)
    if len(delta.removed_nodes) != 1 or len(delta.added_nodes) != 1:
        raise NotSingleDifferenceError(
            "generalisation needs premises differing by exactly one concept, "
            f"got {len(delta.removed_nodes)} vs {len(delta.added_nodes)}"
        )
    general = delta.removed_nodes[0][1]
    specific = delta.added_nodes[0][1]
    g_id = _variable_for(general, "g")
    s_id = _variable_for(specific, "s")
    if s_id == g_id:
        s_id = s_id + "2"
    return AmrGraph(
        root=g_id,
        nodes={g_id: general, s_id: specific},
        edges=(Edge(g_id, ":domain", s_id),),
    )


# ---------------------------------------------------------------------------
# Tuple-token reference for the Penman reader
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"""
    (?P<lparen>\() |
    (?P<rparen>\)) |
    (?P<slash>/) |
    (?P<role>:[^\s()/]+) |
    (?P<string>"(?:[^"\\]|\\.)*") |
    (?P<symbol>[^\s()/:]+) |
    (?P<bad>\S)
    """,
    re.VERBOSE,
)

_IDENTIFIER = re.compile(r"[A-Za-z][A-Za-z0-9-]*\Z")
_NUMBER = re.compile(r"[+-]?\d+(?:\.\d+)?\Z")


def _tokenize(text: str, origin: str | None) -> list[tuple[str, str, int]]:
    """``(kind, text, offset)`` for every token, in one regex pass."""
    tokens = [(m.lastgroup, m.group(), m.start()) for m in _TOKEN.finditer(text)]
    for kind, token, offset in tokens:
        if kind == "bad":
            raise PenmanSyntaxError(f"unexpected character {token!r}", offset, origin)
    return tokens


def _parse(text: str, origin: str | None) -> AmrGraph:
    """One pass over the tokens. The instances still open around the
    current one wait on an explicit stack, each with the role that leads
    to the current one and that edge's slot. A slot is reserved when its
    role is read, so edge order is the document order of the roles."""
    tokens = _tokenize(text, origin)
    count = len(tokens)

    def error(message: str, offset: int | None = None) -> PenmanSyntaxError:
        if offset is None:
            offset = len(text.rstrip())
        return PenmanSyntaxError(message, offset, origin)

    def take(i: int, kind: str, expected: str) -> tuple[str, str, int]:
        if i >= count:
            raise error(f"expected {expected}, found end of input")
        token = tokens[i]
        if token[0] != kind:
            raise error(f"expected {expected}, found {token[1]!r}", token[2])
        return token

    nodes: dict[NodeId, Concept] = {}

    def open_instance(i: int) -> NodeId:
        """Read the four tokens ``( var / concept`` at ``i``."""
        take(i, "lparen", "'('")
        _, var, var_offset = take(i + 1, "symbol", "a variable name")
        if not _IDENTIFIER.match(var):
            raise error(f"invalid variable name {var!r}", var_offset)
        take(i + 2, "slash", "'/'")
        concept = take(i + 3, "symbol", "a concept")[1]
        if var in nodes:
            raise error(f"duplicate variable definition {var!r}", var_offset)
        nodes[var] = Concept(concept)
        return var

    edges: list[Edge | None] = []
    edge_set: set[Edge] = set()
    # (variable, offset) pairs awaiting definition.
    references: list[tuple[NodeId, int]] = []
    stack: list[tuple[NodeId, str, int, int]] = []
    var = open_instance(0)
    i = 4
    while True:
        if i >= count:
            raise error("expected ':role' or ')', found end of input")
        kind, token, offset = tokens[i]
        i += 1
        if kind == "rparen":
            if not stack:
                break
            target = var
            var, role, role_offset, slot = stack.pop()
        elif kind != "role":
            raise error(f"expected ':role' or ')', found {token!r}", offset)
        else:
            role, role_offset, slot = token, offset, len(edges)
            edges.append(None)
            if i >= count:
                raise error("expected an edge target, found end of input")
            kind, token, offset = tokens[i]
            if kind == "lparen":
                stack.append((var, role, role_offset, slot))
                var = open_instance(i)
                i += 4
                continue
            i += 1
            if kind == "string":
                target = Constant(token[1:-1], is_string=True)
            elif kind != "symbol":
                raise error(f"expected an edge target, found {token!r}", offset)
            elif _NUMBER.match(token) or token in ("-", "+"):
                target = Constant(token)
            elif _IDENTIFIER.match(token):
                references.append((token, offset))
                target = token
            else:
                target = Constant(token)
        edge = Edge(var, role, target)
        if edge in edge_set:
            raise error(f"duplicate edge {role}", role_offset)
        edge_set.add(edge)
        edges[slot] = edge

    if i < count:
        raise error(f"trailing input {tokens[i][1]!r}", tokens[i][2])
    for ref, offset in references:
        if ref not in nodes:
            raise DanglingReferenceError(
                f"variable {ref!r} referenced but never defined", offset, origin
            )
    return AmrGraph(root=var, nodes=nodes, edges=tuple(edges))


def scan_parse_penman(text: str, origin: str | None = None) -> AmrGraph:
    """``parse_penman`` over the tuple-token reader: an empty-input check,
    then ``_parse``."""
    if not text.strip():
        raise PenmanSyntaxError("empty input", 0, origin)
    return _parse(text, origin)


def scan_held_lines(text: str) -> set[int]:
    """The lines that start inside a quoted string, found line by line:
    each line that is not held, holds a ``"`` and is no ``#`` line is
    read for tokens from its start, and a token that runs past the line's
    end extends the read through the line where that token ends."""
    held: set[int] = set()
    if '"' not in text:
        return held
    string_end = pos = 0
    for line_no, line in enumerate(text.split("\n"), start=1):
        start, pos = pos, pos + len(line) + 1
        if start < string_end:
            held.add(line_no)
        elif '"' in line and not line.lstrip().startswith("#"):
            string_end = _string_end(text, start, pos - 1)
    return held


def _string_end(text: str, start: int, end: int) -> int:
    """The offset just past the last token, read from ``start``, that runs
    over a line break, through the line that ends at ``end`` and each line
    such a token runs into; 0 when none does."""
    found = 0
    for token in _TOKEN.finditer(text, start):
        if token.start() >= end:
            break
        if token.end() > end:
            found = token.end()
            end = text.find("\n", found)
            if end < 0:
                end = len(text)
    return found
