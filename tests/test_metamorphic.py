"""Names and storage order decide nothing they should not: metamorphic
relations between the outputs of related inputs, where no oracle gives
the output itself (Chen et al., "Metamorphic Testing: A Review of
Challenges and Opportunities", ACM CSUR 2018).

* ``transform`` on premises with every variable renamed gives a graph
  ``exact_isomorphic`` to the unrenamed output, or the same error type,
  with and without a site hint renamed the same way.
  The prefixes make the premises disjoint, so FRAME-CONJ and IFT import
  without renaming where the unrenamed pair renames.
* ``classify`` gives the same type after renaming the variables of all
  three graphs, after shuffling their node and edge order, and after
  swapping the premises.
"""

from __future__ import annotations

import random

import pytest

from amrinfer.classify import EntailmentTriple, Statement, classify
from amrinfer.errors import AmrError
from amrinfer.graph import AmrGraph, Constant, Edge, exact_isomorphic
from amrinfer.transform import TRANSFORMABLE_TYPES, TransformRequest, transform

from tests.corpus_fixtures import sample_records
from tests.generators import (
    fuzz_penman_graph,
    make_premises,
    renamed,
    synthetic_corpus,
)

TYPES = sorted(TRANSFORMABLE_TYPES, key=lambda t: t.value)


def _outcome(p1: AmrGraph, p2: AmrGraph, t, hint) -> AmrGraph | type:
    try:
        return transform(TransformRequest(p1, p2, t, hint))
    except AmrError as exc:
        return type(exc)


def _premise_pairs():
    """500 fuzz pairs with a random hint, then 20 pairs made for each type
    with their own hint, so that every type also succeeds."""
    rng = random.Random(0)
    for _ in range(500):
        p1, p2 = fuzz_penman_graph(rng), fuzz_penman_graph(rng)
        yield p1, p2, (rng.choice(list(p1.nodes)), rng.choice(list(p2.nodes)))
    for t in TYPES:
        for _ in range(20):
            s1, s2, hint = make_premises(rng, t)
            yield s1.graph, s2.graph, hint


def test_transform_is_blind_to_variable_names():
    for p1, p2, hint in _premise_pairs():
        q1, q2 = renamed(p1, "x"), renamed(p2, "y")
        moved = None if hint is None else ("x" + hint[0], "y" + hint[1])
        for t in TYPES:
            for h, m in ((None, None), (hint, moved)):
                want, got = _outcome(p1, p2, t, h), _outcome(q1, q2, t, m)
                if isinstance(want, AmrGraph) and isinstance(got, AmrGraph):
                    assert exact_isomorphic(got, want), (t, h, p1, p2)
                else:
                    assert got == want, (t, h, p1, p2)


def _relabelled(g: AmrGraph, rng: random.Random) -> AmrGraph:
    """``g`` with its variables given fresh names in a random bijection."""
    names = list(g.nodes)
    fresh = dict(zip(names, rng.sample([f"z{i}" for i in range(len(names))], len(names))))
    return AmrGraph(
        fresh[g.root],
        {fresh[n]: c for n, c in g.nodes.items()},
        tuple(
            Edge(fresh[s], role, t if isinstance(t, Constant) else fresh[t])
            for s, role, t in g.edges
        ),
    )


def _reordered(g: AmrGraph, rng: random.Random) -> AmrGraph:
    """``g`` with its nodes and its edges in a random order."""
    names = rng.sample(list(g.nodes), len(g.nodes))
    return AmrGraph(g.root, {n: g.nodes[n] for n in names}, rng.sample(g.edges, len(g.edges)))


def _each_graph(t: EntailmentTriple, change) -> EntailmentTriple:
    return EntailmentTriple(
        *(Statement(s.text, change(s.graph)) for s in (t.p1, t.p2, t.conclusion))
    )


@pytest.mark.parametrize("change", ["renamed", "reordered", "swapped"])
def test_classify_is_blind_to_names_order_and_premise_order(change):
    rng = random.Random(0)
    records = synthetic_corpus(random.Random(0), 300) + sample_records()
    for record in records:
        t = record.triple()
        if change == "renamed":
            other = _each_graph(t, lambda g: _relabelled(g, rng))
        elif change == "reordered":
            other = _each_graph(t, lambda g: _reordered(g, rng))
        else:
            other = EntailmentTriple(t.p2, t.p1, t.conclusion)
        assert classify(other).type == classify(t).type, record.id
