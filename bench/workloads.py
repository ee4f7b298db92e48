"""Seeded inputs for the three benchmark workloads.

Each workload is a record file, a multi-graph Penman file and a list of
transform requests, all derived from one seed. The premise pairs come from
the test suite's generators (``tests/generators.py``); this module only
enlarges them and writes them out, so the classifier and the transforms
see the same shapes the acceptance suite checks.

* ``corpus``: many small triples, as in corpus-scale annotation.
* ``large``: graphs from about 25 to about 800 nodes, with few repeated
  concepts, AMR-like branching and varied depth.
* ``repeat``: premises enlarged with material drawn from one to three
  concepts, so the matcher backtracks.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

from amrinfer.graph import AmrGraph, Concept, Edge
from amrinfer.penman import serialize_penman
from amrinfer.pipeline import CorpusRecord, load_corpus, sample_corpus_path
from amrinfer.taxonomy import InferenceType
from amrinfer.transform import TransformRequest, transform

from tests.generators import (
    NOUNS,
    TRANSFORMABLE_ORDER,
    VERBS,
    linearize,
    make_premises,
    synthetic_corpus,
)

# Argument roles make the matcher work; relaxable ones only add bulk.
_ARG_ROLES = (":ARG0", ":ARG1", ":ARG2", ":op1", ":op2")
_MOD_ROLES = (":mod", ":time", ":location", ":manner", ":ARG1-of")
# The concepts that recur most in AMR corpora.
REPEAT_CONCEPTS = ("thing", "person", "and")
# The recursive Penman reader and writer use two stack frames per level;
# deeper graphs raise RecursionError under the default limit of 1000.
MAX_DEPTH = 350


def records_text(records: list[CorpusRecord]) -> str:
    """A record file's contents."""
    return "".join(r.to_json() + "\n" for r in records)


def penman_text(graphs: list[AmrGraph]) -> str:
    """A multi-graph Penman file's contents, in canonical form."""
    return "\n\n".join(serialize_penman(g) for g in graphs) + "\n"


@dataclass(frozen=True)
class Inputs:
    """One workload's generated inputs."""

    records: list[CorpusRecord]
    graphs: list[AmrGraph]
    requests: list[TransformRequest]


def chunks(items: list, k: int) -> list[list]:
    """``items`` cut into at most ``k`` contiguous slices of near-equal
    length."""
    k = min(k, len(items))
    return [items[i * len(items) // k : (i + 1) * len(items) // k] for i in range(k)]


def write_inputs(inputs: Inputs, directory: Path, k: int) -> None:
    """Write the inputs as files: the records cut into ``records<i>.jsonl``
    and the graphs into ``graphs<i>.amr`` (at most ``k`` of each), and the
    transform requests as JSON lines in ``requests.jsonl``."""
    for i, records in enumerate(chunks(inputs.records, k)):
        (directory / f"records{i}.jsonl").write_text(records_text(records), encoding="utf-8")
    for i, graphs in enumerate(chunks(inputs.graphs, k)):
        (directory / f"graphs{i}.amr").write_text(penman_text(graphs), encoding="utf-8")
    lines = [
        json.dumps(
            {
                "type": req.type.value,
                "p1": serialize_penman(req.p1),
                "p2": serialize_penman(req.p2),
                "site_hint": req.site_hint,
            }
        )
        for req in inputs.requests
    ]
    (directory / "requests.jsonl").write_text("".join(line + "\n" for line in lines), encoding="utf-8")


# ---------------------------------------------------------------------------
# Graph material
# ---------------------------------------------------------------------------


def amr_like_graph(rng: random.Random, size: int, depth: int = 0) -> AmrGraph:
    """A rooted graph of ``size`` nodes: a chain of ``depth`` nodes, the
    rest filling a ternary tree under it (AMR-like branching), plus one
    re-entrant edge per twenty nodes. Every node has its own concept, one
    in three a predicate. The shape is fixed by the size and depth, so
    the cost of processing the graph barely depends on the seed; the
    seed picks the roles, the labels' places and the re-entrancies."""
    names = [f"z{i}" for i in range(size)]
    labels = [
        f"{VERBS[i % len(VERBS)][:-3]}{i}-01" if i % 3 == 0 else f"{NOUNS[i % len(NOUNS)]}{i}"
        for i in range(size)
    ]
    rng.shuffle(labels)
    chain = max(1, min(depth, size))
    edges = []
    for i in range(1, size):
        parent = i - 1 if i < chain else (i - chain) // 3
        roles = _ARG_ROLES if rng.random() < 0.6 else _MOD_ROLES
        edges.append(Edge(names[parent], rng.choice(roles), names[i]))
    for _ in range(size // 20):
        edge = Edge(rng.choice(names), ":mod", rng.choice(names))
        if edge.source != edge.target and edge not in edges:
            edges.append(edge)
    return AmrGraph(root=names[0], nodes=dict(zip(names, map(Concept, labels))), edges=tuple(edges))


def _attach(g: AmrGraph, extra: AmrGraph, role: str) -> AmrGraph:
    """``g`` with ``extra`` hung off its root through ``role``; the two
    share no variable names."""
    assert not set(g.nodes) & set(extra.nodes)
    nodes = dict(g.nodes)
    nodes.update(extra.nodes)
    edges = g.edges + (Edge(g.root, role, extra.root),) + extra.edges
    return AmrGraph(root=g.root, nodes=nodes, edges=edges)


def _record(i: str, p1: AmrGraph, p2: AmrGraph, c: AmrGraph, gold) -> CorpusRecord:
    return CorpusRecord(
        id=i,
        p1_text=linearize(p1),
        p2_text=linearize(p2),
        c_text=linearize(c),
        p1_amr=serialize_penman(p1),
        p2_amr=serialize_penman(p2),
        c_amr=serialize_penman(c),
        gold_type=gold,
    )


def repeated_graph(rng: random.Random, size: int, kinds: int) -> AmrGraph:
    """A node with ``size - 1`` modifiers, all over the first ``kinds``
    recurring concepts in turn (``thing :mod person ...``). Only relaxable
    roles join them, so every same-concept assignment fits and a search
    cannot prune. The seed picks only the roles: the flat shape and the
    fixed order of the concepts keep the search cost independent of it."""
    labels = [REPEAT_CONCEPTS[i % kinds] for i in range(size)]
    names = [f"z{i}" for i in range(size)]
    edges = tuple(Edge(names[0], rng.choice(_MOD_ROLES), n) for n in names[1:])
    return AmrGraph(names[0], {n: Concept(c) for n, c in zip(names, labels)}, edges)


def _with_argument(g: AmrGraph, role: str) -> AmrGraph:
    """``g`` plus a ``role`` edge between its last two nodes. Copies that
    differ only in that role contain each other only in relaxed form; a
    containment check between them fails only once both ends are
    assigned, after trying every assignment of the other nodes."""
    *_, a, b = g.nodes
    return AmrGraph(root=g.root, nodes=g.nodes, edges=g.edges + (Edge(a, role, b),))


# Types whose transform picks the largest shared-concept bridge: material
# in both premises would become the bridge instead of the generator's.
_BRIDGING = (InferenceType.FRAME_SUB, InferenceType.ARG_INS)


def _enlarged_pairs(rng, sizes, material, *, both: bool):
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


def _records_from_pairs(pairs, tag: str) -> list[CorpusRecord]:
    records = []
    for i, (t, p1, p2, hint) in enumerate(pairs):
        c = transform(TransformRequest(p1, p2, t, hint))
        records.append(_record(f"{tag}{i:04d}", p1, p2, c, t))
    return records


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def corpus_inputs(rng: random.Random, tiny: bool) -> Inputs:
    """Synthetic records of the nine transformable types plus copies of
    the bundled sample corpus (EXAMPLE, UNK and the full cascade)."""
    records = synthetic_corpus(rng, 18 if tiny else 180)
    sample, _ = load_corpus(sample_corpus_path())
    for copy in range(1 if tiny else 2):
        records += [replace(r, id=f"s{copy}-{r.id}") for r in sample]
    rng.shuffle(records)
    graphs = []
    for r in records:
        t = r.triple()
        graphs += [t.p1.graph, t.p2.graph, t.conclusion.graph]
    requests = []
    for i in range(9 if tiny else 90):
        t = TRANSFORMABLE_ORDER[i % len(TRANSFORMABLE_ORDER)]
        s1, s2, hint = make_premises(rng, t)
        requests.append(TransformRequest(s1.graph, s2.graph, t, hint))
    return Inputs(records, graphs, requests)


def large_inputs(rng: random.Random, tiny: bool) -> Inputs:
    """Graph sizes doubling from 25 to 800 nodes. Every other size is deep
    (a long chain), the rest bushy; the deepest stay within what the
    recursive reader and writer handle. Record triples stay small enough
    for the super-linear classifier.

    Sizes stop at 800 nodes and transform requests at 200 extra nodes so
    that a run times each operation many times: parsing 1600 nodes takes
    a quarter of a second and 3200 nodes a second (Python 3.11, 2-CPU
    x86-64), and a rate resting on a few such calls swung by more than
    its bound between runs."""
    top = 100 if tiny else 800
    graphs = []
    size, k = 25, 0
    while size <= top:
        depth = min(size // 2, MAX_DEPTH) if k % 2 else 0
        graphs.append(amr_like_graph(rng, size, depth=depth))
        size, k = size * 2, k + 1

    def unique(r: random.Random, size: int) -> AmrGraph:
        return amr_like_graph(r, size, depth=size // 4)

    # Three in four records carry 25 nodes: the median classify latency
    # then falls among those seven types' close latencies, not at the
    # step between 25 and 50 extra nodes.
    record_sizes = (25,) if tiny else (25, 25, 25, 50)
    records = _records_from_pairs(_enlarged_pairs(rng, record_sizes, unique, both=False), "L")
    request_sizes = (50,) if tiny else (50, 200)
    requests = [
        TransformRequest(p1, p2, t, hint)
        for t, p1, p2, hint in _enlarged_pairs(rng, request_sizes, unique, both=False)
    ]
    return Inputs(records, graphs, requests)


def repeat_inputs(rng: random.Random, tiny: bool) -> Inputs:
    """Premises enlarged with material drawn from one to three recurring
    concepts, both premises with copies that differ in one argument role.
    Containment between the copies fails late, after every same-concept
    assignment; generalisation pairs share material, so the alignment
    search in ``graph_difference`` meets many same-concept candidates."""

    def repeated(r: random.Random, shape: tuple[int, int]) -> AmrGraph:
        return repeated_graph(r, *shape)

    # (size, kinds). A failing containment tries every same-concept
    # assignment, so its cost grows factorially with each concept's share:
    # one more one-concept node multiplies it by about four. These shapes
    # keep the slowest classify call near 20 ms and the slowest transform
    # near 20 ms (Python 3.11, 2-CPU x86-64), so that a run times each of
    # them many times. One size more, (10, 2) or (12, 3), costs 60-80 ms
    # per classify call and 0.3-0.4 s per transform. In each shape the
    # conjunction triple's containment fails late; four more of those
    # make eleven, so the classify tail falls among them rather than
    # among the seed's cheap triples.
    record_shapes = ((6, 1), (7, 1), (8, 2), (9, 2), (9, 3), (10, 3), (11, 3))
    conjunction_shapes = ((6, 1), (8, 2), (9, 3), (10, 3))
    request_shapes = ((6, 1), (8, 2), (9, 3), (10, 3))
    if tiny:
        record_shapes, conjunction_shapes, request_shapes = record_shapes[:1], (), request_shapes[:1]
    pairs = list(_enlarged_pairs(rng, record_shapes, repeated, both=True))
    pairs += [
        pair
        for pair in _enlarged_pairs(rng, conjunction_shapes, repeated, both=True)
        if pair[0] is InferenceType.FRAME_CONJ
    ]
    records = _records_from_pairs(pairs, "R")
    requests = [
        TransformRequest(p1, p2, t, hint)
        for t, p1, p2, hint in _enlarged_pairs(rng, request_shapes, repeated, both=True)
    ]
    graphs = [repeated_graph(rng, n, 1 + n % 3) for n in range(10, 40)]
    return Inputs(records, graphs, requests)


GENERATORS = {"corpus": corpus_inputs, "large": large_inputs, "repeat": repeat_inputs}


def build(workload: str, seed: int, tiny: bool = False) -> Inputs:
    """The workload's inputs for ``seed``; ``tiny`` shrinks them for the
    self-test."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), tiny)
