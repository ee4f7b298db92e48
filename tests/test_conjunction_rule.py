"""Frame conjunction is the symbolic pattern "both premises embed in the
conclusion". For every triple that gets past the cascade's first four
steps, ``classify`` reads ``frame-conjunction`` exactly when both premises
relaxed-embed in the conclusion, whatever the attachment search would
find. Conclusions come from conjoining the premises, which makes both
embed, and from every transform, which mostly does not."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from amrinfer.classify import EntailmentTriple, Statement, classify
from amrinfer.errors import TransformError
from amrinfer.graph import AmrGraph, conjoin_graphs, relaxed_subset
from amrinfer.transform import TransformRequest, transform

from tests.generators import TRANSFORMABLE_ORDER, fuzz_penman_graph, linearize

# The rules of steps 1 to 4; a triple that ends on none of them got past.
EARLY_RULES = frozenset(
    {
        "premise-copy",
        "lexical-example",
        "lexical-if-then",
        "single-word-substitution",
        "conditional-frame",
    }
)

_seeds = st.integers(0, 10**9)


def _check(p1: AmrGraph, p2: AmrGraph, c: AmrGraph) -> bool | None:
    """Assert the statement on one triple; returns whether both premises
    embed, or None when the triple stopped in steps 1 to 4."""
    t = EntailmentTriple(*(Statement(linearize(g), g) for g in (p1, p2, c)))
    rule = classify(t).evidence.rule
    if rule in EARLY_RULES:
        return None
    both = relaxed_subset(p1, c) and relaxed_subset(p2, c)
    assert (rule == "frame-conjunction") == both, (p1, p2, c, rule)
    return both


def _conclusions(p1: AmrGraph, p2: AmrGraph):
    yield conjoin_graphs(p1, p2)
    for type_ in TRANSFORMABLE_ORDER:
        try:
            yield transform(TransformRequest(p1, p2, type_))
        except TransformError:
            continue


@given(_seeds, _seeds)
@settings(max_examples=150, deadline=None)
def test_conjunction_exactly_when_both_premises_embed(seed1, seed2):
    p1 = fuzz_penman_graph(random.Random(seed1))
    p2 = fuzz_penman_graph(random.Random(seed2))
    for c in _conclusions(p1, p2):
        _check(p1, p2, c)


def test_both_outcomes_on_a_fixed_sample():
    # The statement is not vacuous: past step 4, both sides occur.
    rng = random.Random(19)
    seen = set()
    for _ in range(60):
        p1, p2 = fuzz_penman_graph(rng), fuzz_penman_graph(rng)
        seen.update(_check(p1, p2, c) for c in _conclusions(p1, p2))
    assert {True, False} <= seen
