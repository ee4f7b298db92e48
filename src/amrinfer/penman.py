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

The reader works on token strings, taken by one ``findall`` over a single
token pattern. A token's kind follows from its first character; a
``"``-prefixed token is a string only when the whole of it is one closed
string. Offsets are not kept: an error finds its token's offset by
scanning the text again with the same pattern. A lone ``:`` is reported
as an unexpected character before any other error. The reader proves
every invariant that :meth:`AmrGraph.validate` checks, so it builds its
graph without validating it again.
"""

from __future__ import annotations

import re
from itertools import islice

from .errors import DanglingReferenceError, PenmanSyntaxError
from .graph import AmrGraph, Concept, Constant, Edge, NodeId

_STRING = r'"(?:[^"\\]|\\.)*"'
# One alternative per token kind, tried in this order: ``(``, ``)``,
# ``/``, role, closed string, symbol (which also takes a ``"`` that opens
# no closed string) and, last, any other character, which can only be a
# ``:`` that starts no role.
_TOKEN = re.compile(rf"[()/]|:[^\s()/]+|{_STRING}|[^\s()/:]+|\S")
_CLOSED_STRING = re.compile(_STRING)
_KINDS = {"(": "lparen", ")": "rparen", "/": "slash", ":": "role"}
# First characters of the tokens that are not plain symbols.
_NOT_PLAIN = '()/:"'

_IDENTIFIER = re.compile(r"[A-Za-z][A-Za-z0-9-]*\Z")
_NUMBER = re.compile(r"[+-]?\d+(?:\.\d+)?\Z")


def _kind(token: str) -> str:
    """A token's kind, from its first character. A ``"``-prefixed token is
    a string only when the whole of it is one closed string."""
    if token[0] == '"':
        return "string" if _CLOSED_STRING.fullmatch(token) else "symbol"
    return _KINDS.get(token[0], "symbol")


def _offset(text: str, index: int) -> int:
    """Character offset of token ``index``, found by scanning again with
    the same pattern; only an error needs it."""
    return next(islice(_TOKEN.finditer(text), index, None)).start()


def _parse(text: str, origin: str | None) -> AmrGraph:
    """One pass over the token strings. The instances still open around
    the current one wait on an explicit stack, each with the role that
    leads to the current one, that role's token index and its edge's slot.
    A slot is reserved when its role is read, so edge order is the
    document order of the roles.

    The graph is built without :meth:`AmrGraph.validate`, because the
    reader proves every invariant it checks: the root is the first
    variable, every instance is nested under the root, every reference is
    checked to be defined, and a duplicate edge is an error."""
    tokens = _TOKEN.findall(text)
    if ":" in tokens:
        raise PenmanSyntaxError(
            "unexpected character ':'", _offset(text, tokens.index(":")), origin
        )
    count = len(tokens)

    def error(message: str, at: int | None = None) -> PenmanSyntaxError:
        """The error at token index ``at``, or at the end of the input."""
        offset = len(text.rstrip()) if at is None else _offset(text, at)
        return PenmanSyntaxError(message, offset, origin)

    def take(i: int, kind: str, expected: str) -> str:
        if i >= count:
            raise error(f"expected {expected}, found end of input")
        token = tokens[i]
        if _kind(token) != kind:
            raise error(f"expected {expected}, found {token!r}", i)
        return token

    nodes: dict[NodeId, Concept] = {}

    def open_instance(i: int) -> NodeId:
        """Read the four tokens ``( var / concept`` at ``i``. A well-formed
        instance is accepted at once; otherwise the tokens are taken one
        by one, so that the first to fail names the error."""
        if i + 3 < count:
            paren, var, slash, concept = tokens[i : i + 4]
            if (
                paren == "("
                and slash == "/"
                and concept[0] not in _NOT_PLAIN
                and _IDENTIFIER.match(var)
                and var not in nodes
            ):
                nodes[var] = concept
                return var
        take(i, "lparen", "'('")
        var = take(i + 1, "symbol", "a variable name")
        if not _IDENTIFIER.match(var):
            raise error(f"invalid variable name {var!r}", i + 1)
        take(i + 2, "slash", "'/'")
        concept = take(i + 3, "symbol", "a concept")
        if var in nodes:
            raise error(f"duplicate variable definition {var!r}", i + 1)
        nodes[var] = concept
        return var

    edges: list[Edge | None] = []
    edge_set: set[Edge] = set()
    # (variable, token index) pairs awaiting definition.
    references: list[tuple[NodeId, int]] = []
    stack: list[tuple[NodeId, str, int, int]] = []
    var = open_instance(0)
    i = 4
    while True:
        if i >= count:
            raise error("expected ':role' or ')', found end of input")
        token = tokens[i]
        i += 1
        if token == ")":
            if not stack:
                break
            target = var
            var, role, role_at, slot = stack.pop()
        elif token[0] != ":":
            raise error(f"expected ':role' or ')', found {token!r}", i - 1)
        else:
            role, role_at, slot = token, i - 1, len(edges)
            edges.append(None)
            if i >= count:
                raise error("expected an edge target, found end of input")
            token = tokens[i]
            if token == "(":
                stack.append((var, role, role_at, slot))
                var = open_instance(i)
                i += 4
                continue
            i += 1
            first = token[0]
            if first == '"' and _CLOSED_STRING.fullmatch(token):
                target = Constant(token[1:-1], is_string=True)
            elif first in ")/:":
                raise error(f"expected an edge target, found {token!r}", i - 1)
            elif _NUMBER.match(token) or token in ("-", "+"):
                target = Constant(token)
            elif _IDENTIFIER.match(token):
                references.append((token, i - 1))
                target = token
            else:
                target = Constant(token)
        edge = Edge(var, role, target)
        if edge in edge_set:
            raise error(f"duplicate edge {role}", role_at)
        edge_set.add(edge)
        edges[slot] = edge

    if i < count:
        raise error(f"trailing input {tokens[i]!r}", i)
    for ref, at in references:
        if ref not in nodes:
            raise DanglingReferenceError(
                f"variable {ref!r} referenced but never defined",
                _offset(text, at),
                origin,
            )
    return AmrGraph._built(var, nodes, tuple(edges))


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
    parts = [f"({g.root} / {g.nodes[g.root]}"]
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
                parts.append(f" {e.role} ({target} / {g.nodes[target]}")
                stack.append(iter(g.outgoing(target)))
                break
        else:
            parts.append(")")
            stack.pop()
    return "".join(parts)


def iter_penman(text: str, origin: str | None = None) -> list[AmrGraph]:
    """Parse a document of graphs separated by blank lines.

    Lines whose first non-blank character is ``#``, such as the ``# ::id``
    and ``# ::snt`` metadata of the AMR releases, are skipped; a block of
    nothing else yields no graph. An error names the line of its block's
    first Penman line."""
    graphs = []
    block_lines: list[str] = []
    start_line = 1
    for line_no, line in enumerate(text.splitlines() + [""], start=1):
        stripped = line.lstrip()
        if stripped.startswith("#"):
            continue
        if stripped:
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
