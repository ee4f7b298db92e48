"""Penman notation parsing and canonical serialization.

The reader accepts a single s-expression of the form
``(var / concept [:role target]...)`` with nested instances, re-entrant
variable references and constants (quoted strings, numbers, ``-``/``+``)
as edge targets. Inverse roles such as ``:ARG0-of`` are kept as written;
they are ordinary relaxable roles to the rest of the package.

Serialization is canonical: depth-first from the root in stored edge
order, each concept printed at its first occurrence, re-entrancies as bare
variables, single-space separation. Parsing a serialization yields a graph
exactly isomorphic to the original.

Reading and writing are single passes in time linear in the text and the
graph. Both keep the open instances on an explicit stack rather than the
call stack, so nesting depth has no limit.
"""

from __future__ import annotations

import re

from .errors import DanglingReferenceError, PenmanSyntaxError
from .graph import AmrGraph, Concept, Constant, Edge, NodeId

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


def parse_penman(text: str, origin: str | None = None) -> AmrGraph:
    """Parse one Penman expression into a graph.

    Raises :class:`PenmanSyntaxError` (with a character offset, and
    ``origin`` in the message when given) on malformed input and
    :class:`DanglingReferenceError` when a variable is referenced but never
    defined.
    """
    if not text.strip():
        raise PenmanSyntaxError("empty input", 0, origin)
    return _parse(text, origin)


def serialize_penman(g: AmrGraph) -> str:
    """Canonical single-line Penman text for a well-formed graph.

    Deterministic: identical graphs yield byte-identical output, and
    ``parse_penman(serialize_penman(g))`` is exactly isomorphic to ``g``.
    """
    parts = [f"({g.root} / {g.nodes[g.root].label}"]
    visited = {g.root}
    # Open instances, each with the iterator over its remaining out-edges.
    stack = [iter(g.outgoing(g.root))]
    while stack:
        for e in stack[-1]:
            target = e.target
            if isinstance(target, Constant):
                parts.append(f" {e.role} {target.render()}")
            elif target in visited:
                parts.append(f" {e.role} {target}")
            else:
                visited.add(target)
                parts.append(f" {e.role} ({target} / {g.nodes[target].label}")
                stack.append(iter(g.outgoing(target)))
                break
        else:
            parts.append(")")
            stack.pop()
    return "".join(parts)


def iter_penman(text: str, origin: str | None = None) -> list[AmrGraph]:
    """Parse a document of graphs separated by blank lines."""
    graphs = []
    block_lines: list[str] = []
    start_line = 1
    line_no = 0
    for line_no, line in enumerate(text.splitlines() + [""], start=1):
        if line.strip():
            if not block_lines:
                start_line = line_no
            block_lines.append(line)
            continue
        if block_lines:
            where = f"{origin}:{start_line}" if origin else f"line {start_line}"
            graphs.append(parse_penman("\n".join(block_lines), where))
            block_lines = []
    return graphs


def read_penman_file(path: str) -> list[AmrGraph]:
    with open(path, encoding="utf-8") as handle:
        return iter_penman(handle.read(), origin=path)
