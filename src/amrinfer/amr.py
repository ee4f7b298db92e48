"""The rooted labelled semantic graph as a value.

The graph model is deliberately small: variables map to concepts, edges are
ordered ``(source, role, target)`` triples where a target is either another
variable or a constant, and one variable is the root. A concept is its
label string, e.g. ``scar`` or ``contain-01``, as in the instance triples
of the ``penman`` library (Goodman, ACL 2020 demos). Roles split into two
classes that drive every comparison in the package:

* argument roles (``:ARG0``..``:ARGn``, ``:op1``..``:opn``) must match
  structurally, and
* every other role (``:mod``, ``:time``, ``:manner``, ``:domain``,
  inverse ``-of`` forms, ...) is relaxable and may be ignored.

This module holds only the value, what the Penman reader builds: the
matcher, the difference and the edits are in :mod:`amrinfer.graph`. It
imports no ``dataclasses``, so reading and writing Penman loads neither
that module nor the matcher.

Graphs are immutable value objects and safe to share between workers.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Set as AbstractSet
from typing import NamedTuple, NoReturn

from .errors import GraphInvariantError, InvalidSiteError

_ARGUMENT_ROLE = re.compile(r":(?:ARG\d+|op\d+)\Z")
_SENSE_SUFFIX = re.compile(r"\A(?P<stem>.+)-\d{2}\Z")

NodeId = str

#: A node label, e.g. ``scar`` or ``contain-01``: a plain string. A
#: trailing two-digit suffix marks a predicate sense; concepts without one
#: are treated as nominal throughout the package.
Concept = str


def is_argument_role(role: str) -> bool:
    """True for ``:ARGn`` / ``:opn`` roles; everything else is relaxable.

    Inverse forms such as ``:ARG1-of`` do not count: they are stored as
    written and treated as relaxable modifiers.
    """
    return _ARGUMENT_ROLE.match(role) is not None


def is_predicate(concept: Concept) -> bool:
    """True when the concept carries a sense suffix, as ``contain-01``."""
    return _SENSE_SUFFIX.match(concept) is not None


def stem(concept: Concept) -> str:
    """The concept without its sense suffix: ``contain`` for
    ``contain-01``; a nominal concept is its own stem."""
    m = _SENSE_SUFFIX.match(concept)
    return m.group("stem") if m else concept


class Constant(NamedTuple):
    """A leaf edge target that is not a variable: ``-``, ``42``, ``"text"``."""

    value: str
    is_string: bool = False

    def render(self) -> str:
        return f'"{self.value}"' if self.is_string else self.value

    def __str__(self) -> str:
        return self.render()


class Edge(NamedTuple):
    source: NodeId
    role: str
    target: "NodeId | Constant"

    @property
    def is_argument(self) -> bool:
        return is_argument_role(self.role)


def _out_index(edges: tuple[Edge, ...]) -> dict[NodeId, list[int]]:
    """Source -> positions of its out-edges in ``edges``, ascending."""
    out: dict[NodeId, list[int]] = {}
    for i, e in enumerate(edges):
        source = e[0]
        if source in out:
            out[source].append(i)
        else:
            out[source] = [i]
    return out


class _lazy:
    """A method computed on first access and then kept in the instance
    ``__dict__``, where later lookups find it without calling anything.
    Unlike ``functools.cached_property`` before Python 3.12, it takes no
    lock: that lock cost more than indexing a small graph, and the value
    is a pure function of the graph."""

    def __init__(self, func: Callable) -> None:
        self.func = func
        self.name = func.__name__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


class AmrGraph:
    """Immutable rooted graph. ``nodes`` maps each variable to its concept,
    a plain label string. Construction validates well-formedness:

    * the root is a known node and every edge endpoint is known,
    * no duplicate ``(source, role, target)`` edge, and
    * every node is reachable from the root following edge direction.

    Node order (dict insertion order) and edge order are part of the value;
    they fix serialization and tie-breaking everywhere else. Two graphs
    are equal when their roots, their nodes in order and their edges in
    order are; a graph is unhashable, since its nodes are a dict, and its
    attributes cannot be set or deleted.

    A graph is checked once, when it is built, and trusted after that:
    nothing checks it again, so its ``nodes`` dict must not be changed
    afterwards. The indexes below rely on the same rule, and so do the
    edits: an edit's output may share the edges tuple of a graph that it
    imports or keeps whole, but its ``nodes`` dict is always its own. The public
    constructor always validates, and so does :func:`apply_delta`, whose
    delta may come from a caller. Every other maker derives its graph
    from valid graphs, proves every invariant itself and builds through
    the private :meth:`_built`, which skips :meth:`validate`: the Penman
    reader (its root is the first variable, every reference is checked to
    be defined, duplicate edges are rejected, and every instance is
    nested under the root), :meth:`subgraph_at`, the graph edits
    :func:`substitute_subgraph`, :func:`insert_argument`,
    :func:`conjoin_graphs` and :func:`relabel_node`, and the two graphs
    that transform handlers build directly: COND-FRAME's consequent and
    ARG/PRED-GEN's two-node graph. Each states its proof beside its
    code.

    Each node's out-edges are indexed once, so validation,
    :meth:`outgoing`, :meth:`closure` and :meth:`subgraph_at` run in time
    linear in the nodes and edges they touch. All four indexes, the
    out-edge index and the match index (concept buckets, edge set and
    argument edges), are built lazily, each on first use, and then kept
    in the instance ``__dict__``: :meth:`_built` takes no index, so
    parsing, loading and the edits pay nothing for an index that nothing
    reads, and the public constructor builds the out-edge index only
    because validation walks it. No index is part of the value, so
    equality and ``repr`` see only the root, the nodes and the edges.
    """

    root: NodeId
    nodes: dict[NodeId, Concept]
    edges: tuple[Edge, ...]

    def __init__(
        self,
        root: NodeId,
        nodes: dict[NodeId, Concept],
        edges: Iterable[Edge | tuple],
    ) -> None:
        edges = tuple(e if isinstance(e, Edge) else Edge(*e) for e in edges)
        vars(self).update(root=root, nodes=nodes, edges=edges)
        self.validate()

    @classmethod
    def _built(
        cls, root: NodeId, nodes: dict[NodeId, Concept], edges: tuple[Edge, ...]
    ) -> "AmrGraph":
        """A graph whose maker has proved every invariant that
        :meth:`validate` checks; not validated. Every edge must already be
        an :class:`Edge`. Only the makers listed in the class docstring
        call it."""
        g = object.__new__(cls)
        vars(g).update(root=root, nodes=nodes, edges=edges)
        return g

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        # Node order is part of the value, so the nodes compare in order.
        return (
            self.root == other.root
            and self.edges == other.edges
            and list(self.nodes.items()) == list(other.nodes.items())
        )

    # A graph holds a dict, so it has no hash.
    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(root={self.root!r}, "
            f"nodes={self.nodes!r}, edges={self.edges!r})"
        )

    def __setattr__(self, name: str, value: object) -> NoReturn:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> NoReturn:
        raise AttributeError(f"cannot delete field {name!r}")

    def validate(self) -> None:
        if self.root not in self.nodes:
            raise GraphInvariantError(f"root {self.root!r} is not a node")
        seen: set[Edge] = set()
        for e in self.edges:
            if e.source not in self.nodes:
                raise GraphInvariantError(f"edge source {e.source!r} is not a node")
            if not isinstance(e.target, Constant) and e.target not in self.nodes:
                raise GraphInvariantError(f"edge target {e.target!r} is not a node")
            if e in seen:
                raise GraphInvariantError(f"duplicate edge {e}")
            seen.add(e)
        reached = set(self.closure(self.root))
        unreached = [n for n in self.nodes if n not in reached]
        if unreached:
            raise GraphInvariantError(
                f"nodes not reachable from root: {', '.join(unreached)}"
            )

    # -- basic accessors ---------------------------------------------------

    def concepts(self) -> AbstractSet[str]:
        """Set of concept labels present in the graph (a read-only view)."""
        return self._buckets.keys()

    def has_concept(self, label: str) -> bool:
        return label in self._buckets

    def outgoing(self, node: NodeId) -> list[Edge]:
        """Edges leaving ``node``, in stored edge order (a fresh list)."""
        edges = self.edges
        return [edges[i] for i in self._out.get(node, ())]

    def child_edge(self, node: NodeId, role: str) -> Edge | None:
        """The first out-edge of ``node`` with ``role`` whose target is a
        variable, or None."""
        edges = self.edges
        for i in self._out.get(node, ()):
            e = edges[i]
            if e.role == role and not isinstance(e.target, Constant):
                return e
        return None

    def closure(self, node: NodeId, cut: NodeId | None = None) -> list[NodeId]:
        """Nodes reachable from ``node`` along edge direction, in a stable
        depth-first order (constants excluded), never entering ``cut``,
        which starts out seen, so no edge pays a test, and is dropped at
        the end; a node with no out-edges is only marked seen. What a cut
        leaves of the whole graph is :meth:`carve`'s question. Raises
        :class:`InvalidSiteError` when ``node`` is not a node or is
        ``cut``."""
        if node == cut or node not in self.nodes:
            raise InvalidSiteError(f"no walk from {node!r}: not a node, or the cut")
        edges, out = self.edges, self._out
        seen: dict[NodeId, None] = {} if cut is None else {cut: None}
        stack = [node]
        push = stack.append
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen[n] = None
            positions = out.get(n)
            if positions is None:
                continue
            for i in reversed(positions):
                target = edges[i][2]
                if not isinstance(target, Constant):
                    push(target)
        if cut is not None:
            del seen[cut]
        return list(seen)

    def carve(self, at: NodeId) -> set[NodeId]:
        """``at`` plus every node that the root no longer reaches once
        ``at`` is gone. Only ``at``'s closure can go, and a node of it
        survives when a walk that never enters ``at`` reaches it from the
        root or along an edge from outside. Raises
        :class:`InvalidSiteError` when ``at`` is not a node."""
        carved = set(self.closure(at))
        edges, out = self.edges, self._out
        stack = [e[2] for e in edges if e[2] in carved and e[0] not in carved]
        if self.root in carved:
            stack.append(self.root)
        while stack:
            n = stack.pop()
            if n in carved and n != at:
                carved.remove(n)
                stack.extend([edges[i][2] for i in out.get(n, ())])
        return carved

    def subgraph_at(self, node: NodeId, cut: NodeId | None = None) -> "AmrGraph":
        """The subgraph rooted at ``node``: its closure, never entering
        ``cut``, plus every out-edge of a kept node that does not enter
        ``cut`` (including constant-targeted ones), in stored edge order;
        each is internal, its target a constant or reached through it.
        The nodes follow the walk's order. When the walk keeps every node
        and nothing is cut, every edge is kept, so the subgraph shares
        this graph's edges tuple. Raises :class:`InvalidSiteError` as
        :meth:`closure` does."""
        keep = self.closure(node, cut)
        nodes, edges = self.nodes, self.edges
        if cut is not None or len(keep) < len(nodes):
            out = self._out
            positions = sorted(i for n in keep for i in out.get(n, ()))
            edges = tuple([edges[i] for i in positions if edges[i][2] != cut])
        # Every kept node is reached from ``node`` along kept edges, and
        # the edges are distinct edges of a valid graph: valid.
        return AmrGraph._built(node, {n: nodes[n] for n in keep}, edges)

    # -- indexes: each built on first use, then kept -----------------------

    @_lazy
    def _out(self) -> dict[NodeId, list[int]]:
        """Each node's out-edge positions in ``edges``, ascending."""
        return _out_index(self.edges)

    @_lazy
    def _buckets(self) -> dict[Concept, list[NodeId]]:
        """Each concept's nodes, in stored node order."""
        buckets: dict[Concept, list[NodeId]] = {}
        for n, c in self.nodes.items():
            if c in buckets:
                buckets[c].append(n)
            else:
                buckets[c] = [n]
        return buckets

    @_lazy
    def _edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @_lazy
    def _arguments(self) -> tuple[Edge, ...]:
        """The argument edges, in stored edge order."""
        is_argument = _ARGUMENT_ROLE.match
        return tuple([e for e in self.edges if is_argument(e.role)])
