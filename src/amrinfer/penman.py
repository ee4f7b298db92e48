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

A document is read as the root's ``( var / concept`` and then one pass
of a single pattern whose matches are whole steps: a role with the
``( var / concept`` it opens or with its constant or reference target,
and a ``)``. A leaf instance's ``)`` belongs to the step that opens it,
so a leaf is one step and never waits on the stack. The pattern ends
each token where the token grammar below ends it, so the steps read the
text as the same tokens that grammar does. Each edge is complete at its
step, and no index is filled while reading: the graph builds each index
on first use. The read proves every invariant that
:meth:`AmrGraph.validate` checks, so it builds its graph without
validating it again.

On any other text the pattern pass gives up, and only then is the
error named, by walking the steps again without building a graph. A
step that the pattern does not fit is read again token by token, with
the token pattern, to find the token at fault and its offset. A lone
``:`` is reported as an unexpected character before any other error,
and a reference never defined after every other.
"""

from __future__ import annotations

import codecs
import re
from collections.abc import Iterator
from typing import NoReturn

from .errors import DanglingReferenceError, PenmanSyntaxError
from .amr import AmrGraph, Concept, Constant, Edge, NodeId

_STRING = r'"(?:[^"\\]|\\.)*"'
# One alternative per token kind, tried in this order: ``(``, ``)``,
# ``/``, role, closed string, symbol (which also takes a ``"`` that opens
# no closed string) and, last, any other character, which can only be a
# ``:`` that starts no role. The symbol alternative is the only group.
_TOKEN = re.compile(rf"[()/]|:[^\s()/]+|{_STRING}|([^\s()/:]+)|\S")

_VARIABLE = r"[A-Za-z][A-Za-z0-9-]*"
_IDENTIFIER = re.compile(rf"{_VARIABLE}\Z")

# A symbol token: one that does not start with a closed string.
_PLAIN = rf"(?!{_STRING})[^\s()/:]+"
# The root's ``( var / concept``.
_ROOT = re.compile(rf"\s*\(\s*({_VARIABLE})\s*/\s*({_PLAIN})")
# One step of a well-formed document per match, as the groups (close,
# role, var, concept, closed, string, reference, constant): a ``)``, or
# a role with the ``( var / concept`` it opens, and that instance's
# ``)`` when it has no edges (a leaf instance), or with its leaf target.
# Any other character is a step of empty groups. The lookaheads end a
# role and a reference where their tokens end, so no match splits the
# text into other tokens than ``_TOKEN`` does.
_STEP = re.compile(
    rf"""\s*(?:
        (\))
      | (:[^\s()/]+)(?![^\s()/])\s*
        (?:
            \(\s*({_VARIABLE})\s*/\s*({_PLAIN})\s*(\))?
          | ({_STRING})
          | ({_VARIABLE})(?![^\s()/:])
          | ({_PLAIN})
        )
      | \S
    )""",
    re.VERBOSE,
)


def _read(text: str) -> AmrGraph | None:
    """The graph of a well-formed document, read as the root's match and
    one ``findall`` of whole steps, or None when it is not one. The
    instances open around the current one wait on a stack; a leaf
    instance's ``)`` belongs to its step, so a leaf is never pushed. Each
    edge is complete at its own step, since a role that opens an instance
    names the child's variable there, so edges are listed in the document
    order of the roles. No index is filled while reading: the graph builds
    each on first use. The graph is built without
    :meth:`AmrGraph.validate`, because the read proves every invariant it
    checks: the root is the first variable, every instance is nested
    under the root, no variable is defined twice, no edge is repeated and
    every reference is defined."""
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
    references: list[NodeId] = []
    stack: list[NodeId] = []
    for close, role, child, concept, closed, string, ref, const in steps:
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
            edges.append(tuple.__new__(Edge, (var, role, child)))
            if not closed:
                stack.append(var)
                var = child
            continue
        if string:
            target = Constant(string[1:-1], is_string=True)
        elif ref:
            references.append(ref)
            target = ref
        else:
            target = Constant(const)
        edges.append(tuple.__new__(Edge, (var, role, target)))
    # An instance edge leads to the variable it defines, so only a leaf
    # edge (a constant or a reference) can repeat an edge or name no node.
    if stack or len(edges) >= len(nodes) and (
        len(set(edges)) != len(edges)
        or references and not nodes.keys() >= set(references)
    ):
        return None
    return AmrGraph._built(var, nodes, tuple(edges))


def _first_error(text: str, origin: str | None) -> NoReturn:
    """Raise the error of a text that :func:`_read` refuses: the first
    that a read token by token meets. A lone ``:`` comes before any other
    error. The steps are then walked again, checking what the graph would
    hold without building it. A step that the pattern does not fit is
    read again token by token from its start, and the first token that
    does not fit the grammar names the error. An instance's edge is
    complete at its ``)``, so an error inside the instance comes before a
    duplicate of that edge; a leaf instance's, at its own step. A
    reference never defined comes last."""

    def fail(message: str, at: int | None = None) -> NoReturn:
        """Raise the error at offset ``at``, or at the end of the input."""
        offset = len(text.rstrip()) if at is None else at
        raise PenmanSyntaxError(message, offset, origin)

    def take(
        tokens: Iterator[re.Match[str]], expected: str, first: str = ""
    ) -> re.Match[str]:
        """The next token, which must start with ``first`` or, without
        it, be a symbol."""
        token = next(tokens, None)
        if token is None:
            fail(f"expected {expected}, found end of input")
        fits = token[0].startswith(first) if first else token[1] is not None
        if not fits:
            fail(f"expected {expected}, found {token[0]!r}", token.start())
        return token

    def read_instance(tokens: Iterator[re.Match[str]], opener: str) -> NoReturn:
        """Read ``( var / concept``, which the pattern does not fit, token
        by token; ``opener`` names what the ``(`` stands for."""
        take(tokens, opener, "(")
        var = take(tokens, "a variable name")
        if not _IDENTIFIER.match(var[0]):
            fail(f"invalid variable name {var[0]!r}", var.start())
        take(tokens, "'/'", "/")
        take(tokens, "a concept")
        raise AssertionError(f"the pattern refused a valid instance at {var.start()}")

    for token in _TOKEN.finditer(text):
        if token[0] == ":":
            fail("unexpected character ':'", token.start())
    root = _ROOT.match(text)
    if root is None:
        read_instance(_TOKEN.finditer(text), "'('")
    var: NodeId | None = root[1]
    nodes = {var}
    edges: set[tuple[NodeId, str, str]] = set()
    references: list[tuple[NodeId, int]] = []
    # The open instances' parents, each with the role that leads to the
    # instance and the role's offset.
    stack: list[tuple[NodeId, str, int]] = []
    for step in _STEP.finditer(text, root.end()):
        close, role, child, _, closed, string, ref, const = step.groups()
        if var is None:
            token = _TOKEN.search(text, step.start())
            fail(f"trailing input {token[0]!r}", token.start())
        if close:
            if not stack:
                var = None
                continue
            child = var
            var, role, at = stack.pop()
            edge = (var, role, child)
        elif not role:
            # A role whose target the pattern does not fit, or no role:
            # any leaf target would fit, so it can only be an instance.
            tokens = _TOKEN.finditer(text, step.start())
            take(tokens, "':role' or ')'", ":")
            read_instance(tokens, "an edge target")
        elif child:
            if child in nodes:
                fail(f"duplicate variable definition {child!r}", step.start(3))
            nodes.add(child)
            if not closed:
                stack.append((var, role, step.start(2)))
                var = child
                continue
            edge, at = (var, role, child), step.start(2)
        else:
            if ref:
                references.append((ref, step.start(7)))
            # A target's token stands for it: a string keeps its quotes.
            edge, at = (var, role, string or ref or const), step.start(2)
        if edge in edges:
            fail(f"duplicate edge {role}", at)
        edges.add(edge)
    if var is not None:
        fail("expected ':role' or ')', found end of input")
    # _read refused the text, so the error left is a reference.
    ref, at = next((ref, at) for ref, at in references if ref not in nodes)
    raise DanglingReferenceError(
        f"variable {ref!r} referenced but never defined", at, origin
    )


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
    if g is None:
        _first_error(text, origin)
    return g


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
    hold whatever the string holds. One scan takes whole each run of lines
    with no ``"`` and each ``#`` line (metadata), and reads the rest as the
    token reader does. Only a closed string matches across a line break, so
    the lines after the first of such a match are held."""
    held: set[int] = set()
    if '"' not in text:
        return held
    scan = re.compile(rf'(?m:^[^"]*\n|^[^\S\n]*#.*)|{_TOKEN.pattern}')
    line, counted = 1, 0
    for token in scan.finditer(text):
        breaks = token[0][0] == '"' and token[0].count("\n")
        if breaks:
            line += text.count("\n", counted, token.start())
            counted = token.start()
            held.update(range(line + 1, line + breaks + 1))
    return held


def read_penman_text(path: str) -> str:
    r"""The text of a UTF-8 file, with ``\r\n`` and ``\r`` read as ``\n``,
    as text mode reads them. A leading byte-order mark is no text. A byte
    that is not UTF-8 is a :class:`PenmanSyntaxError` that names the path
    and the line of the first such byte, at the character offset where
    decoding stopped."""
    with open(path, "rb") as handle:
        data = handle.read().removeprefix(codecs.BOM_UTF8)
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
