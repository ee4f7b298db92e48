"""A site hint names one bridge: FRAME-SUB and ARG-INS with a hint try
only the hinted pair, when both nodes exist and share a concept, instead
of ranking every same-concept pair and skipping all but that one."""

from __future__ import annotations

import gc
import time
from unittest import mock

import pytest

from amrinfer.errors import NoBridgeError
from amrinfer.graph import AmrGraph, insert_argument, relabel_node, substitute_subgraph
from amrinfer.penman import serialize_penman
from amrinfer.taxonomy import InferenceType
from amrinfer.transform import TransformRequest, transform

from tests.generators import _chain


def _pair(n: int) -> tuple[AmrGraph, AmrGraph]:
    """Two ``:ARG1`` chains, the first rooted at a predicate: the hint
    ``("v3", "v2")`` names two ``thing`` nodes."""
    return relabel_node(_chain(n, 0), "v0", "want-01"), _chain(n, 1)


def _expected(type_: InferenceType, p1: AmrGraph, p2: AmrGraph) -> AmrGraph:
    """The edit at the hinted bridge: FRAME-SUB puts the predicate-rooted
    premise 1 in place of premise 2's ``v2``; ARG-INS cuts premise 1 at
    ``v3`` and hangs what is left of ``v3``'s parent ``v2`` off premise
    2's ``v2`` through the inverted role."""
    if type_ is InferenceType.FRAME_SUB:
        return substitute_subgraph(p2, "v2", p1)
    return insert_argument(p2, "v2", p1.subgraph_at("v2", "v3"), ":ARG1-of")


@pytest.mark.parametrize("type_", [InferenceType.FRAME_SUB, InferenceType.ARG_INS])
def test_hinted_request_builds_no_candidate_list(type_):
    p1, p2 = _pair(40)
    with mock.patch("amrinfer.transform.bridge_candidates", side_effect=AssertionError):
        out = transform(TransformRequest(p1, p2, type_, ("v3", "v2")))
    expected = _expected(type_, p1, p2)
    assert serialize_penman(out) == serialize_penman(expected)
    assert list(out.nodes) == list(expected.nodes)


@pytest.mark.parametrize("type_", [InferenceType.FRAME_SUB, InferenceType.ARG_INS])
@pytest.mark.parametrize("hint", [("v3", "v3"), ("v3", "x"), ("x", "v2")])
def test_a_hint_that_names_no_bridge_is_refused(type_, hint):
    p1, p2 = _pair(40)
    with pytest.raises(NoBridgeError):
        transform(TransformRequest(p1, p2, type_, hint))


@pytest.mark.parametrize("type_", [InferenceType.FRAME_SUB, InferenceType.ARG_INS])
def test_hinted_bridge_on_long_chains_is_quick(type_):
    # 1600-node chains: ranking every same-concept pair first took about
    # 1.6 s of CPU for either type on a 2-CPU x86-64 machine.
    p1, p2 = _pair(1600)
    # Collected first, so that no collection of the garbage earlier tests
    # left behind falls inside the timed call.
    gc.collect()
    start = time.process_time()
    out = transform(TransformRequest(p1, p2, type_, ("v3", "v2")))
    assert time.process_time() - start < 0.05
    assert serialize_penman(out) == serialize_penman(_expected(type_, p1, p2))
