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
call stack, so nesting depth has no limit. The writer reads the out-edge
index once per node and writes a node with no out-edges in place, so only
a node with out-edges is pushed.

A well-formed document is read as the root's ``( var / concept`` and then
one pass of a single pattern whose matches are whole steps: a role with
the ``( var / concept`` it opens or with its constant or reference
target, and a ``)``. The pattern ends each role and reference where the
token grammar below ends it, so no step reads the text as other tokens
than the token reader would. Each edge is complete at its step, so the
out-edge index is filled as the edges are read.

At the first step that does not fit, the text goes to the token reader,
which is kept to name the error; it also reads the few valid texts the
pattern leaves to it, such as a concept that starts with an unclosed
``"``. It works on token strings, taken by one ``findall`` over a single
token pattern. A token's kind follows from its first character; a
``"``-prefixed token is a string only when the whole of it is one closed
string. Offsets are not kept: an error finds its token's offset by
scanning the text again with the same pattern. A lone ``:`` is reported
as an unexpected character before any other error. Both readers prove
every invariant that :meth:`AmrGraph.validate` checks, so they build
their graphs without validating them again.
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

_VARIABLE = r"[A-Za-z][A-Za-z0-9-]*"
_IDENTIFIER = re.compile(rf"{_VARIABLE}\Z")
_NUMBER = re.compile(r"[+-]?\d+(?:\.\d+)?\Z")

# A symbol token that does not start with ``"``.
_PLAIN = r'[^\s()/:"][^\s()/:]*'
# The root's ``( var / concept``.
_ROOT = re.compile(rf"\s*\(\s*({_VARIABLE})\s*/\s*({_PLAIN})")
# One step of a well-formed document per match, as the groups (close,
# role, var, concept, string, reference, constant): a ``)``, or a role
# with the ``( var / concept`` it opens or with its leaf target. Any other
# character is a step of empty groups. The lookaheads end a role and a
# reference where their tokens end, so no match splits the text into
# other tokens than ``_TOKEN`` does.
_STEP = re.compile(
    rf"""\s*(?:
        (\))
      | (:[^\s()/]+)(?![^\s()/])\s*
        (?:
            \(\s*({_VARIABLE})\s*/\s*({_PLAIN})
          | ({_STRING})
          | ({_VARIABLE})(?![^\s()/:])
          | ({_PLAIN})
        )
      | \S
    )""",
    re.VERBOSE,
)


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
        """Read the four tokens ``( var / concept`` at ``i``, one by one,
        so that the first to fail names the error."""
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


def _read(text: str) -> AmrGraph | None:
    """The graph of a well-formed document, read as the root's match and
    one ``findall`` of whole steps, or None at the first step that does
    not fit one; the token reader then names the error. The instances
    open around the current one wait on a stack. Each edge is complete at
    its own step, since a role that opens an instance names the child's
    variable there, so edges and the out-edge index are filled in the
    document order of the roles, as the token reader fills them. A
    duplicate variable, a duplicate edge, a reference that is never
    defined and any input after the root's ``)`` hand over."""
    root = _ROOT.match(text)
    if root is None:
        return None
    var, concept = root.groups()
    steps = _STEP.findall(text, root.end())
    # The last step must close the root; it is the only step left
    # unread, so the stack must be empty before it.
    if not steps or not steps.pop()[0]:
        return None
    nodes: dict[NodeId, Concept] = {var: concept}
    edges: list[Edge] = []
    out: dict[NodeId, list[int]] = {}
    references: list[NodeId] = []
    stack: list[NodeId] = []
    for close, role, child, concept, string, ref, const in steps:
        if close:
            if not stack:
                return None
            var = stack.pop()
            continue
        if not role:
            return None
        if child:
            if child in nodes:
                return None
            nodes[child] = concept
            target = child
        elif string:
            target = Constant(string[1:-1], is_string=True)
        elif ref:
            references.append(ref)
            target = ref
        else:
            target = Constant(const)
        positions = out.get(var)
        if positions is None:
            out[var] = [len(edges)]
        else:
            positions.append(len(edges))
        edges.append(tuple.__new__(Edge, (var, role, target)))
        if child:
            stack.append(var)
            var = child
    if (
        stack
        or len(set(edges)) != len(edges)
        or references and not nodes.keys() >= set(references)
    ):
        return None
    return AmrGraph._built(var, nodes, tuple(edges), out)


def parse_penman(text: str, origin: str | None = None) -> AmrGraph:
    """Parse one Penman expression into a graph.

    Raises :class:`PenmanSyntaxError` (with a character offset, and
    ``origin`` in the message when given) on malformed input and
    :class:`DanglingReferenceError` when a variable is referenced but never
    defined.
    """
    if not text.strip():
        raise PenmanSyntaxError("empty input", 0, origin)
    g = _read(text)
    return _parse(text, origin) if g is None else g


def serialize_penman(g: AmrGraph) -> str:
    """Canonical single-line Penman text for a well-formed graph.

    Deterministic: identical graphs yield byte-identical output, and
    ``parse_penman(serialize_penman(g))`` is exactly isomorphic to ``g``.

    The out-edge index is looked up once per node. A node first reached
    with no out-edges is written whole, ``(var / concept)``, in place;
    only a node with out-edges opens an instance on the stack.
    """
    nodes, edges, out = g.nodes, g.edges, g._out
    root = g.root
    parts = [f"({root} / {nodes[root]}"]
    visited = {root}
    # Open instances, each with the iterator over its remaining out-edge
    # positions.
    stack = [iter(out.get(root, ()))]
    while stack:
        for i in stack[-1]:
            _, role, target = edges[i]
            if isinstance(target, Constant):
                parts.append(f" {role} {target.render()}")
            elif target in visited:
                parts.append(f" {role} {target}")
            else:
                visited.add(target)
                positions = out.get(target)
                if positions is None:
                    parts.append(f" {role} ({target} / {nodes[target]})")
                    continue
                parts.append(f" {role} ({target} / {nodes[target]}")
                stack.append(iter(positions))
                break
        else:
            parts.append(")")
            stack.pop()
    return "".join(parts)


def iter_penman(text: str, origin: str | None = None) -> list[AmrGraph]:
    r"""Parse a document of graphs separated by blank lines.

    Lines whose first non-blank character is ``#``, such as the ``# ::id``
    and ``# ::snt`` metadata of the AMR releases, are skipped; a block of
    nothing else yields no graph. An error names the line of its block's
    first Penman line. A quoted string may hold line breaks: the lines it
    runs over belong to its block, blank or ``#`` lines among them.

    Lines end only at ``\n``, once ``\r\n`` and ``\r`` are read as
    ``\n``: other characters that ``str.splitlines`` breaks at, such as
    U+2028, stay inside the line, as they stay inside a quoted string."""
    text = _newlines(text)
    held = _held_lines(text)
    graphs = []
    block_lines: list[str] = []
    start_line = 1
    for line_no, line in enumerate(text.split("\n") + [""], start=1):
        if line_no not in held:
            stripped = line.lstrip()
            if stripped.startswith("#"):
                continue
            if not stripped:
                if block_lines:
                    where = f"{origin}:{start_line}" if origin else f"line {start_line}"
                    graphs.append(parse_penman("\n".join(block_lines), where))
                    block_lines = []
                continue
        if not block_lines:
            start_line = line_no
        block_lines.append(line)
    return graphs


def _held_lines(text: str) -> set[int]:
    """The numbers of the lines that start inside a quoted string, which
    hold whatever the string holds. Only a text with a ``"`` in it is read
    line by line, and only a line with one outside such a string is read
    for strings."""
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
    """The offset just past the last quoted string that runs over a line
    break, reading tokens from ``start``, a line's start, as the token
    reader reads them, through the line that ends at ``end`` and each line
    such a string runs into; 0 when none does. Only a closed string token
    can hold a line break."""
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


def read_penman_text(path: str) -> str:
    r"""The text of a UTF-8 file, with ``\r\n`` and ``\r`` read as ``\n``,
    as text mode reads them. A byte that is not UTF-8 is a
    :class:`PenmanSyntaxError` that names the path and the line of the
    first such byte, at the character offset where decoding stopped."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = _newlines(data[: exc.start].decode("utf-8"))
        line = head.count("\n") + 1
        raise PenmanSyntaxError(str(exc), len(head), f"{path}:{line}") from None
    return _newlines(text)


def _newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_penman_file(path: str) -> list[AmrGraph]:
    return iter_penman(read_penman_text(path), origin=path)


def read_penman_graph(path: str) -> AmrGraph:
    """The one graph of a Penman file. The lines that :func:`iter_penman`
    skips as metadata are blanked, so error offsets still index the file."""
    text = read_penman_text(path)
    held = _held_lines(text)
    lines = text.split("\n")
    for i, line in enumerate(lines):
        if i + 1 not in held and line.lstrip().startswith("#"):
            lines[i] = " " * len(line)
    return parse_penman("\n".join(lines), origin=path)
