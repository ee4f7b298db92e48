"""Forward transformations: per-type behaviour, site selection, errors."""

from __future__ import annotations

import random
from unittest import mock

import pytest

from amrinfer import penman
from amrinfer.errors import (
    NoBridgeError,
    NoConditionalError,
    NotSingleDifferenceError,
    UnsupportedTypeError,
)
from amrinfer.graph import AmrGraph, relaxed_isomorphic, relaxed_subset
from amrinfer.penman import parse_penman, serialize_penman
from amrinfer.taxonomy import InferenceType
from amrinfer.transform import (
    TRANSFORMABLE_TYPES,
    TransformRequest,
    bridge_candidates,
    transform,
)

from tests.corpus_fixtures import sample_records
from tests.generators import NOUNS, VERBS, make_premises

AMR = parse_penman
RECORDS = {r.id: r for r in sample_records()}


def _graphs(record_id: str):
    r = RECORDS[record_id]
    return AMR(r.p1_amr), AMR(r.p2_amr), AMR(r.c_amr)


class TestBridgeCandidates:
    def test_disjoint_vocabulary(self):
        assert bridge_candidates(AMR("(a / rock)"), AMR("(b / water)")) == []

    def test_scar_pair_contains_scar_bridge(self):
        p1, p2, _ = _graphs("t01")
        concepts = {c for _, _, c in bridge_candidates(p1, p2)}
        assert "scar" in concepts

    def test_identical_graphs_pair_every_node(self):
        g = AMR("(r / require-01 :ARG0 (p / plant) :ARG1 (w / water))")
        pairs = bridge_candidates(g, g)
        assert len(pairs) == 3
        # Self-pairs exist for every node.
        assert all(any(n1 == n2 == n for n1, n2, _ in pairs) for n in g.nodes)

    def test_largest_bridge_first(self):
        p1 = AMR("(c / cover-01 :ARG0 (w / water :mod (d / deep)) :ARG1 (r / rock))")
        p2 = AMR("(n / need-01 :ARG0 (p / plant) :ARG1 (w / water :mod (d / deep)))")
        first = bridge_candidates(p1, p2)[0]
        assert first[2] == "water"


class TestPerType:
    def test_arg_sub_scar(self):
        p1, p2, want = _graphs("t01")
        got = transform(TransformRequest(p1, p2, InferenceType.ARG_SUB))
        assert relaxed_isomorphic(got, want)

    def test_frame_conj(self):
        p1, p2, want = _graphs("t06")
        got = transform(TransformRequest(p1, p2, InferenceType.FRAME_CONJ))
        assert relaxed_isomorphic(got, want)
        assert relaxed_subset(p1, got) and relaxed_subset(p2, got)

    def test_generalisation_granite(self):
        p1, p2, want = _graphs("t07")
        got = transform(TransformRequest(p1, p2, InferenceType.ARG_PRED_GEN))
        assert relaxed_isomorphic(got, want)
        # The premise-1 term is the general one: it takes the root.
        assert got.nodes[got.root] == "rock"

    def test_arg_ins_solar(self):
        p1, p2, want = _graphs("t05")
        got = transform(TransformRequest(p1, p2, InferenceType.ARG_INS))
        assert relaxed_isomorphic(got, want)

    def test_made_of_blacktop(self):
        p1, p2, want = _graphs("t08")
        got = transform(TransformRequest(p1, p2, InferenceType.ARG_SUB_PROP))
        assert relaxed_isomorphic(got, want)

    def test_cond_frame_binds_the_fact(self):
        p1, p2, _ = _graphs("t04")
        got = transform(TransformRequest(p1, p2, InferenceType.COND_FRAME))
        # The consequent head survives, bound to the fact's subject; the
        # antecedent material does not leak into the conclusion.
        assert got.nodes[got.root] == "fossil"
        assert got.has_concept("wood")
        assert not got.has_concept("renewable")
        assert not got.has_concept("resource")

    def test_cond_frame_takes_the_second_premise_as_the_rule(self):
        # p1 is conditional too, but its antecedent does not occur in p2.
        p1 = AMR("(f / freeze-01 :ARG1 (w / water) :condition (c / cool-01 :ARG1 w))")
        p2 = AMR("(h / heat-01 :ARG1 (w / water) :condition (f / freeze-01 :ARG1 w))")
        got = transform(TransformRequest(p1, p2, InferenceType.COND_FRAME))
        assert serialize_penman(got) == "(h / heat-01 :ARG1 (w / water))"

    def test_pred_sub_contain_store(self):
        p1, p2, want = _graphs("t02")
        got = transform(TransformRequest(p1, p2, InferenceType.PRED_SUB))
        assert relaxed_isomorphic(got, want)

    def test_ift_wraps_with_condition(self):
        p1, p2, _ = _graphs("t06")
        got = transform(TransformRequest(p1, p2, InferenceType.IFT))
        cond = [e for e in got.outgoing(got.root) if e.role == ":condition"]
        assert len(cond) == 1
        assert InferenceType.IFT in TRANSFORMABLE_TYPES


class TestErrors:
    @pytest.mark.parametrize(
        "bad_type",
        [InferenceType.UNK, InferenceType.EXAMPLE, InferenceType.PREM_COPY],
    )
    def test_unsupported_types(self, bad_type):
        g = AMR("(r / rock)")
        with pytest.raises(UnsupportedTypeError):
            transform(TransformRequest(g, g, bad_type))

    def test_no_bridge(self):
        with pytest.raises(NoBridgeError):
            transform(
                TransformRequest(
                    AMR("(a / rock)"), AMR("(b / water)"), InferenceType.ARG_SUB
                )
            )

    def test_ift_refuses_an_equivalent_condition(self):
        # IFT attaches the antecedent as ARG-INS attaches an argument, so a
        # root that already carries an equivalent :condition is refused,
        # with a TransformError, as ARG-INS refuses such a bridge.
        p1 = AMR("(f / flow-01 :ARG1 (w / water) :condition (r / rain-01))")
        with pytest.raises(NoBridgeError, match="duplicate a :condition"):
            transform(TransformRequest(p1, AMR("(x / rain-01)"), InferenceType.IFT))
        got = transform(TransformRequest(p1, AMR("(x / snow-01)"), InferenceType.IFT))
        assert [e.role for e in got.outgoing(got.root)].count(":condition") == 2

    def test_arg_ins_skips_a_bridge_that_duplicates_an_attachment(self):
        # The first bridge, (v6, v0) with p1 as donor, would hang a second
        # ``:ARG1-of`` water under p2's root; the next one, (v1, v1) with
        # p1 as donor, inserts.
        p1 = AMR(
            "(v0 / thing :ARG1 (v1 / water :ARG1 (v6 / contain-01))"
            " :mod (v2 / require-01 :ARG1-of (v4 / be-located-at-91 :ARG2 v2)"
            " :op1 (v5 / water :value 67)) :mod (v3 / thing))"
        )
        p2 = AMR("(v0 / contain-01 :ARG1-of (v1 / water))")
        got = transform(TransformRequest(p1, p2, InferenceType.ARG_INS))
        assert serialize_penman(got) == (
            "(v0 / contain-01 :ARG1-of (v1 / water :ARG1-of (v02 / thing"
            " :mod (v2 / require-01 :ARG1-of (v4 / be-located-at-91 :ARG2 v2)"
            " :op1 (v5 / water :value 67)) :mod (v3 / thing))))"
        )

    def test_arg_ins_without_a_bridge_that_does_not_duplicate(self):
        p1 = AMR(
            '(v0 / cause-01 :ARG0 (v1 / scar :value "some text")'
            " :ARG1-of (v2 / be-located-at-91))"
        )
        p2 = AMR(
            "(v0 / be-located-at-91 :ARG1 (v1 / cause-01 :op1 (v2 / water"
            " :ARG1-of (v3 / thing) :ARG2 (v4 / require-01))))"
        )
        with pytest.raises(NoBridgeError, match="duplicate an attachment"):
            transform(TransformRequest(p1, p2, InferenceType.ARG_INS))

    def test_pred_sub_refuses_a_predicate_equated_with_itself(self):
        link = AMR("(m / mean-01 :ARG1 (e / eat-01) :ARG2 (e2 / eat-01))")
        host = AMR("(e / eat-01 :ARG0 (b / boy))")
        with pytest.raises(NoBridgeError):
            transform(TransformRequest(link, host, InferenceType.PRED_SUB))

    def test_no_conditional(self):
        with pytest.raises(NoConditionalError):
            transform(
                TransformRequest(
                    AMR("(a / rock)"), AMR("(b / water)"), InferenceType.COND_FRAME
                )
            )

    def test_cond_frame_no_bridge_when_no_antecedent_binds(self):
        rule = AMR("(f / freeze-01 :ARG1 (w / water) :condition (c / cool-01 :ARG1 w))")
        fact = AMR("(r / rock)")
        for p1, p2 in ((rule, fact), (fact, rule)):
            with pytest.raises(NoBridgeError):
                transform(TransformRequest(p1, p2, InferenceType.COND_FRAME))

    def test_not_single_difference(self):
        with pytest.raises(NotSingleDifferenceError):
            transform(
                TransformRequest(
                    AMR("(m / material :domain (r / rock))"),
                    AMR("(w / weather :mod (c / cold))"),
                    InferenceType.ARG_PRED_GEN,
                )
            )


class TestDeterminismAndPurity:
    def test_identical_requests_identical_output(self):
        p1, p2, _ = _graphs("t01")
        req = TransformRequest(p1, p2, InferenceType.ARG_SUB)
        assert serialize_penman(transform(req)) == serialize_penman(transform(req))

    def test_inputs_unmodified(self):
        p1, p2, _ = _graphs("t05")
        before = (serialize_penman(p1), serialize_penman(p2))
        transform(TransformRequest(p1, p2, InferenceType.ARG_INS))
        assert (serialize_penman(p1), serialize_penman(p2)) == before

    def test_outputs_well_formed_across_generators(self):
        rng = random.Random(3)
        for type_ in sorted({InferenceType.IFT,
                             InferenceType.ARG_SUB,
                             InferenceType.FRAME_SUB,
                             InferenceType.ARG_INS},
                            key=lambda t: t.value):
            for _ in range(10):
                p1, p2, hint = make_premises(rng, type_)
                out = transform(TransformRequest(p1.graph, p2.graph, type_, hint))
                out.validate()


class TestEmittedGraphsReparse:
    def test_arg_ins_drops_material_only_pointing_back(self):
        # z3 and z4 hang under the bridge z2 in the donor; z4's edge back
        # to z1 does not make them reachable from the root once z2 is cut.
        p1 = AMR(
            "(g / metal :domain (s / leaf) :mod (z0 / thing :ARG0 (z1 / thing) "
            ":ARG0 (z2 / thing :ARG0 (z3 / thing :mod (z4 / thing))) "
            ":ARG1 (z5 / thing)))"
        )
        p2 = AMR(
            "(f / produce-01 :ARG1 (n / metal) :ARG2 (z / river) :mod (z0 / thing "
            ":ARG0 (z1 / thing) :ARG0 (z2 / thing :ARG0 (z3 / thing "
            ":mod (z4 / thing :ARG2 z1))) :ARG1 (z5 / thing)))"
        )
        out = transform(TransformRequest(p1, p2, InferenceType.ARG_INS))
        out.validate()
        text = serialize_penman(out)
        assert serialize_penman(AMR(text)) == text

    @pytest.mark.parametrize(
        "extra, want",
        [
            # Cutting b takes p with it, so the host's frame is inserted
            # into the donor instead.
            (
                [],
                "(r / own-01 :mod (b / dog :mod (p / parent-01 :ARG1 b)"
                " :ARG1-of (h / have-03)))",
            ),
            # An edge from the root gives p back, so its frame survives.
            (
                [("r", ":ARG0", "p")],
                "(h / have-03 :ARG1 (d / dog :ARG1-of (p / parent-01)))",
            ),
        ],
    )
    def test_arg_ins_cuts_the_bridge_above_its_parent_frame(self, extra, want):
        # The bridge b's parent frame p hangs under b.
        donor = AmrGraph(
            "r",
            {"r": "own-01", "b": "dog", "p": "parent-01"},
            [("p", ":ARG1", "b"), ("r", ":mod", "b"), ("b", ":mod", "p")] + extra,
        )
        host = AMR("(h / have-03 :ARG1 (d / dog))")
        out = transform(TransformRequest(donor, host, InferenceType.ARG_INS))
        assert serialize_penman(out) == want

    def test_arg_ins_takes_the_first_argument_parent(self):
        # b has two argument parents; the first in stored order, s, is
        # the frame that is inserted.
        donor = AMR("(s / say-01 :ARG0 (b / boy) :ARG1 (g / go-01 :ARG0 b))")
        host = AMR("(l / like-01 :ARG0 (b / boy))")
        out = transform(TransformRequest(donor, host, InferenceType.ARG_INS))
        assert serialize_penman(out) == (
            "(l / like-01 :ARG0 (b / boy :ARG0-of (s / say-01 :ARG1 (g / go-01))))"
        )

    @pytest.mark.parametrize(
        "general, specific, want",
        [
            ("printer", "3d-printer", "(p / printer :domain (s / 3d-printer))"),
            ("4x4", "truck", "(g / 4x4 :domain (t / truck))"),
            ("rock", "granite", "(r / rock :domain (g / granite))"),
        ],
    )
    def test_generalisation_variables_are_valid(self, general, specific, want):
        p1 = AMR(f"(h / have-03 :ARG0 (x / {general}) :ARG1 (w / wheel))")
        p2 = AMR(f"(h / have-03 :ARG0 (x / {specific}) :ARG1 (w / wheel))")
        out = transform(TransformRequest(p1, p2, InferenceType.ARG_PRED_GEN))
        text = serialize_penman(out)
        assert text == want
        assert serialize_penman(AMR(text)) == text


# Concepts with digits and punctuation, one for each generator word.
PUNCTUATED = dict(
    zip(
        NOUNS + VERBS,
        (
            "3d-printer", "co2", "o'clock", "non-stick", "4x4", "h2o", "t-shirt",
            "rock'n'roll", "x-ray", "mp3", "u.s.", "b12", "e-mail", "2nd", "o2",
            "half-life", "self-esteem", "well-being", "a1", "24-7",
            "3d-print-01", "co-occur-01", "re-enter-01", "x-ray-01", "e-mail-01",
            "half-01", "mp3-01", "u.s.-01", "b12-01", "o'clock-01",
        ),
    )
)


def _punctuated(g: AmrGraph) -> AmrGraph:
    nodes = {v: PUNCTUATED.get(c, c) for v, c in g.nodes.items()}
    return AmrGraph(g.root, nodes, g.edges)


TRANSFORMABLE = {
    InferenceType.IFT, InferenceType.ARG_SUB, InferenceType.FRAME_SUB, InferenceType.ARG_INS
}


@pytest.mark.parametrize("type_", sorted(TRANSFORMABLE, key=lambda t: t.value))
def test_punctuated_concepts_round_trip_through_the_pattern_pass(type_):
    # Serialization prints edges in depth-first order, so the re-read graph
    # has the same root, concepts and edges, stored in that order.
    assert len(PUNCTUATED) == len(NOUNS + VERBS)
    rng = random.Random(7)
    side_effect = AssertionError("named an error")
    for _ in range(10):
        p1, p2, hint = make_premises(rng, type_)
        out = transform(
            TransformRequest(_punctuated(p1.graph), _punctuated(p2.graph), type_, hint)
        )
        assert set(out.nodes.values()) & set(PUNCTUATED.values())
        text = serialize_penman(out)
        with mock.patch.object(penman, "_first_error", side_effect=side_effect):
            again = parse_penman(text)
        assert (again.root, again.nodes, set(again.edges)) == (
            out.root, out.nodes, set(out.edges)
        )
        assert serialize_penman(again) == text


class TestSiteHint:
    def test_hint_overrides_automatic_site(self):
        # Two equally named hosts sites: the hint forces the smaller one.
        host = AMR(
            "(c / cover-01 :ARG0 (w / water) :ARG1 (r / rock :part (r2 / rock)))"
        )
        kind = AMR("(r / rock :domain (g / granite))")
        auto = transform(TransformRequest(host, kind, InferenceType.ARG_SUB))
        hinted = transform(
            TransformRequest(host, kind, InferenceType.ARG_SUB, site_hint=("r2", "g"))
        )
        assert serialize_penman(auto) != serialize_penman(hinted)
        assert hinted.has_concept("granite")


class TestArgSubAcrossPremises:
    """Both premises are connective, and each offers a site in the other:
    the smaller key (replacement size, largest first; general term; site
    position) wins, and premise 1 wins a full tie."""

    @pytest.mark.parametrize(
        "p1, p2, expected, node_order",
        [
            pytest.param(
                "(a / animal :domain (d / dog) :mod (m / mammal))",
                "(m / mammal :domain (c / cat :mod (b / black)) :mod (a / animal))",
                "(a / animal :domain (d / dog) :mod (c / cat :mod (b / black)))",
                ["a", "d", "c", "b"],
                id="larger-replacement",
            ),
            pytest.param(
                "(m / mammal :domain (d / dog) :mod (a / animal))",
                "(a / animal :domain (c / cat) :mod (m / mammal))",
                "(m / mammal :domain (d / dog) :mod (c / cat))",
                ["m", "d", "c"],
                id="smaller-general-term",
            ),
            pytest.param(
                "(t / thing :mod (u / thing) :domain (d / dog))",
                "(t / thing :domain (c / cat) :mod (u / thing))",
                "(t / thing :mod (c / cat) :domain (d / dog))",
                ["t", "d", "c"],
                id="earlier-site",
            ),
            pytest.param(
                "(t / thing :domain (d / dog) :mod (u / thing))",
                "(t / thing :domain (c / cat) :mod (u / thing))",
                "(t / thing :domain (c / cat) :mod (d / dog))",
                ["t", "c", "d"],
                id="tie-premise-1",
            ),
        ],
    )
    def test_ranking(self, p1, p2, expected, node_order):
        out = transform(TransformRequest(AMR(p1), AMR(p2), InferenceType.ARG_SUB))
        assert serialize_penman(out) == expected
        assert list(out.nodes) == node_order
