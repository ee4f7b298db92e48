"""FRAME-SUB's donor is a predicate-rooted premise. With none, no bridge
can qualify, so the handler refuses before it builds a single bridge
candidate: two long noun chains are refused at once instead of after
pairing every same-concept node."""

from __future__ import annotations

import gc
import re
import time
from unittest import mock

import pytest

from amrinfer.errors import NoBridgeError
from amrinfer.taxonomy import InferenceType
from amrinfer.transform import TransformRequest, transform

from tests.generators import _chain

REFUSAL = re.escape(
    "frame substitution needs a shared concept in argument position "
    "and a predicate-rooted donor premise"
)


def test_no_predicate_root_is_refused_before_any_bridge_is_built():
    p1, p2 = _chain(40, 0), _chain(40, 1)
    with mock.patch("amrinfer.transform.bridge_candidates", side_effect=AssertionError):
        with pytest.raises(NoBridgeError, match=REFUSAL):
            transform(TransformRequest(p1, p2, InferenceType.FRAME_SUB))


def test_long_noun_chains_are_refused_at_once():
    # 1600-node chains sharing two thirds of their concepts: building the
    # bridge candidates first took 2.5 s of CPU before the refusal.
    p1, p2 = _chain(1600, 0), _chain(1600, 1)
    # Collected first, so that no collection of the garbage earlier tests
    # left behind falls inside the timed call.
    gc.collect()
    start = time.process_time()
    with pytest.raises(NoBridgeError, match=REFUSAL):
        transform(TransformRequest(p1, p2, InferenceType.FRAME_SUB))
    assert time.process_time() - start < 0.05
