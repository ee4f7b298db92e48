"""Unit behaviour of the classifier's building blocks and its cascade."""

from __future__ import annotations

import random
import time
from fractions import Fraction
from unittest import mock

import pytest

from amrinfer.classify import (
    RULES,
    EntailmentTriple,
    Statement,
    _attachment_site,
    _lemma_candidates,
    _lexical_signal,
    _pivot,
    _word_diff,
    classify,
    is_verb,
    jaccard,
    tokenize,
)
from amrinfer.errors import MalformedTripleError
from amrinfer.graph import AmrGraph, Concept, relaxed_subset
from amrinfer.penman import parse_penman
from amrinfer.taxonomy import InferenceType
from amrinfer.transform import TransformRequest, transform

from tests.corpus_fixtures import premise_copy_triple, sample_triples
from tests.generators import (
    CHAIN_CONCEPTS,
    conjoined_chains,
    enlarged_pairs,
    linearize,
    make_premises,
    repeated_graph,
)

AMR = parse_penman


def _triple(p1, p2, c, g1="(x / thing)", g2="(y / thing)", gc="(z / thing)"):
    return EntailmentTriple(
        Statement(p1, AMR(g1)), Statement(p2, AMR(g2)), Statement(c, AMR(gc))
    )


def _words(t: EntailmentTriple) -> tuple[list[str], list[str], list[str]]:
    """The word lists that ``classify`` hands its steps."""
    return tokenize(t.p1.text), tokenize(t.p2.text), tokenize(t.conclusion.text)


class TestMostSimilarPremise:
    def test_identical_premise_wins(self):
        t = _triple("water covers rock", "plants need water", "water covers rock")
        assert _pivot(*_words(t)) == 1

    def test_scar_triple_prefers_premise_two(self):
        # Oracle: token sets enumerated by hand.
        # C  = {a, scar, on, the, knee, is, an, acquired, characteristic}
        # P1 = {a, scar, on, the, knee, is, kind, of}; overlap 6, union 11
        # P2 = {a, scar, is, an, acquired, characteristic}; overlap 6, union 9
        p1 = "a scar on the knee is a kind of scar"
        p2 = "a scar is an acquired characteristic"
        c = "a scar on the knee is an acquired characteristic"
        assert Fraction(
            len(set(tokenize(p1)) & set(tokenize(c))),
            len(set(tokenize(p1)) | set(tokenize(c))),
        ) == Fraction(6, 11)
        assert Fraction(
            len(set(tokenize(p2)) & set(tokenize(c))),
            len(set(tokenize(p2)) | set(tokenize(c))),
        ) == Fraction(6, 9)
        assert jaccard(tokenize(p2), tokenize(c)) > jaccard(tokenize(p1), tokenize(c))
        assert _pivot(*_words(_triple(p1, p2, c))) == 2

    def test_a_statement_without_words_shares_none(self):
        assert jaccard([], ["a"]) == 0.0
        assert jaccard([], []) == 1.0

    def test_tie_breaks_to_premise_one(self):
        t = _triple("solar wind", "lunar wind", "stellar wind")
        assert _pivot(*_words(t)) == 1


class TestSingleTokenDiff:
    def test_predicate_swap_sentences(self):
        got = _word_diff(
            tokenize("food contains nutrients and energy for living things"),
            tokenize("food stores nutrients and energy for living things"),
        )
        assert got == ("contains", "stores")

    def test_identical_sentences(self):
        s = "granite is a hard material"
        assert _word_diff(tokenize(s), tokenize(s)) is None

    def test_two_positions_differ(self):
        assert (
            _word_diff(tokenize("rock is very hard"), tokenize("sand is very soft")) is None
        )

    def test_length_mismatch(self):
        assert _word_diff(tokenize("rock is hard"), tokenize("the rock is hard")) is None

    def test_case_and_punctuation_ignored(self):
        assert _word_diff(tokenize("Rock is hard."), tokenize("rock is soft")) == ("hard", "soft")


class TestIsVerb:
    def test_inflected_predicate(self):
        g = AMR("(s / store-01 :ARG0 (f / food))")
        assert is_verb("stores", g)

    def test_nominal_concept(self):
        assert not is_verb("scar", AMR("(s / scar)"))

    def test_word_absent_from_graph(self):
        assert not is_verb("jump", AMR("(s / store-01)"))

    @pytest.mark.parametrize(
        "word,concept",
        [
            ("contained", "contain-01"),
            ("containing", "contain-01"),
            ("causes", "cause-01"),
            ("moving", "move-01"),
            ("used", "use-01"),
        ],
    )
    def test_suffix_rules(self, word, concept):
        assert is_verb(word, AMR(f"(x / {concept})"))

    @pytest.mark.parametrize("word", ["bed", "is"])
    def test_a_short_word_keeps_its_suffix(self, word):
        assert _lemma_candidates(word) == {word}


class TestLexicalSignal:
    def test_example_in_conclusion_only(self):
        t = _triple(
            "a shelter can be used by raccoons",
            "some raccoons live in hollow logs",
            "an example of a shelter is a raccoon in a log",
            gc="(e / example :mod (s / shelter))",
        )
        assert _lexical_signal(t, *_words(t)) == (InferenceType.EXAMPLE, "lexical-example")

    def test_example_in_premise_disables_signal(self):
        t = _triple(
            "an example is given",
            "logs are hollow",
            "an example of a shelter is a log",
        )
        assert _lexical_signal(t, *_words(t)) is None

    def test_conditional_edge_in_conclusion(self):
        t = _triple(
            "telescopes need light",
            "clouds block light",
            "clouds stop telescope use",
            gc="(u / use-01 :polarity - :condition (c / cloud))",
        )
        assert _lexical_signal(t, *_words(t)) == (InferenceType.IFT, "lexical-if-then")

    def test_if_then_tokens_in_conclusion(self):
        t = _triple(
            "telescopes need light",
            "clouds block light",
            "if there are clouds then telescopes fail",
        )
        assert _lexical_signal(t, *_words(t)) == (InferenceType.IFT, "lexical-if-then")

    def test_example_checked_before_conditional(self):
        t = _triple(
            "a b",
            "c d",
            "if x then y is an example",
            gc="(e / example :condition (c / cloud))",
        )
        assert _lexical_signal(t, *_words(t)) == (InferenceType.EXAMPLE, "lexical-example")

    def test_no_signal(self):
        t = _triple("rock is hard", "sand is soft", "rock is harder than sand")
        assert _lexical_signal(t, *_words(t)) is None


class TestClassifyCascade:
    def test_premise_copy_wins_regardless_of_texts(self):
        result = classify(premise_copy_triple())
        assert result.type is InferenceType.PREM_COPY
        assert result.evidence.rule == "premise-copy"

    def test_premise_two_copy(self):
        t = EntailmentTriple(
            Statement("rock is hard", AMR("(m / material :domain (r / rock))")),
            Statement("water flows", AMR("(f / flow-01 :ARG1 (w / water))")),
            Statement("water really flows", AMR("(a / flow-01 :ARG1 (b / water))")),
        )
        assert classify(t).type is InferenceType.PREM_COPY

    def test_malformed_empty_text(self):
        with pytest.raises(MalformedTripleError):
            _triple("", "b", "c")

    def test_graphs_are_not_validated_again(self, monkeypatch):
        # A graph is checked once, when it is built; classify trusts it.
        triples = [t for _, t, _ in sample_triples()]
        validated = []
        original = AmrGraph.validate

        def recording(self):
            validated.append(id(self))
            original(self)

        monkeypatch.setattr(AmrGraph, "validate", recording)
        # The patch records: the public constructor validates under it.
        probe = AmrGraph("s", {"s": Concept("scar")}, ())
        assert validated == [id(probe)]
        for t in triples:
            classify(t)
        # Nor does classify validate a graph of its own making.
        assert validated == [id(probe)]

    def test_each_text_is_tokenized_once_per_call(self):
        # The sample triples reach every step that reads words; all of them
        # share one word list per text, and none outlives its call.
        for _, triple, _ in sample_triples():
            with mock.patch("amrinfer.classify.tokenize", wraps=tokenize) as counted:
                classify(triple)
                assert counted.call_count == 3
                classify(triple)
                assert counted.call_count == 6

    def test_deterministic(self):
        for _, triple, _ in sample_triples():
            assert classify(triple) == classify(triple)

    def test_rules_are_enumerated(self):
        for _, triple, _ in sample_triples():
            assert classify(triple).evidence.rule in RULES

    def test_pivot_matches_most_similar_premise(self):
        for _, triple, _ in sample_triples():
            assert classify(triple).pivot == _pivot(*_words(triple))

    def test_frame_insertion_flag_only_on_insertions(self):
        for _, triple, gold in sample_triples():
            result = classify(triple)
            if result.frame_insertion:
                assert result.type is InferenceType.ARG_INS


def _derived(p1: AmrGraph, p2: AmrGraph, type_: InferenceType) -> EntailmentTriple:
    c = transform(TransformRequest(p1, p2, type_))
    return EntailmentTriple(*(Statement(linearize(g), g) for g in (p1, p2, c)))


def _repeat_shaped_conjunction() -> EntailmentTriple:
    """A conjunction whose premises both carry a block of recurring
    concepts, each with its own extra argument role, as the benchmark's
    slowest conjunction records do."""

    def material(r: random.Random, shape: tuple[int, int]) -> AmrGraph:
        return repeated_graph(r, *shape)

    pairs = enlarged_pairs(random.Random(3), [(9, 3)], material, both=True)
    _, p1, p2, _ = next(p for p in pairs if p[0] is InferenceType.FRAME_CONJ)
    return _derived(p1, p2, InferenceType.FRAME_CONJ)


class TestConjunctionBeforeAttachment:
    def test_site_found_but_both_premises_embed_is_conjunction(self):
        # With premise 1 as the pivot, sand hangs off a copy of its frame,
        # as in a substitution rock -> sand; but the conclusion keeps rock
        # too, so both premises embed and the triple is a conjunction.
        t = EntailmentTriple(
            Statement(
                "water covers rock",
                AMR("(c / cover-01 :ARG0 (w / water) :ARG1 (r / rock))"),
            ),
            Statement(
                "water covers sand",
                AMR("(c / cover-01 :ARG0 (w / water) :ARG1 (s / sand))"),
            ),
            Statement(
                "water covers rock and water covers sand",
                AMR(
                    "(a / and :op1 (c / cover-01 :ARG0 (w / water) :ARG1 (r / rock))"
                    " :op2 (c2 / cover-01 :ARG0 (w2 / water) :ARG1 (s / sand)))"
                ),
            ),
        )
        g1, g2, gc = t.p1.graph, t.p2.graph, t.conclusion.graph
        assert _pivot(*_words(t)) == 1
        site = _attachment_site(gc, g1, g2)
        assert site is not None and gc.nodes[site.target] == "sand"
        assert relaxed_subset(g1, gc) and relaxed_subset(g2, gc)
        result = classify(t)
        assert result.type is InferenceType.FRAME_CONJ
        assert result.evidence.rule == "frame-conjunction"

    @pytest.mark.parametrize("shape", ["generated", "repeat"])
    def test_conjunction_is_decided_without_an_attachment_search(self, shape):
        if shape == "generated":
            s1, s2, _ = make_premises(random.Random(4), InferenceType.FRAME_CONJ)
            t = _derived(s1.graph, s2.graph, InferenceType.FRAME_CONJ)
        else:
            t = _repeat_shaped_conjunction()
        refuse = AssertionError("step 5 searched a conjunction")
        with mock.patch("amrinfer.classify._attachment_site", side_effect=refuse):
            result = classify(t)
        assert result.type is InferenceType.FRAME_CONJ
        assert result.evidence.rule == "frame-conjunction"

    @pytest.mark.parametrize("n", [12, 16, 19, 22, 40, 100])
    def test_conjoined_chains(self, n):
        """Two chains over three concepts and their conjunction. Every
        chain node has a third of the conclusion's nodes as same-concept
        candidates, and only the ``:ARG1`` edges tell them apart. The
        containment search reaches each chain node along its edge and
        draws its candidates from its neighbour's partner, so the call is
        fast at every n: n = 100 takes about 1 ms on a 2-CPU x86-64
        machine. A search that drew every candidate from the concept
        bucket and reached the edges late took 1.7 s at n = 19 and did
        not finish n = 22 in 20 s."""
        t = conjoined_chains(n)
        start = time.process_time()
        result = classify(t)
        assert time.process_time() - start < 1.0
        assert result.type is InferenceType.FRAME_CONJ
        assert result.evidence.rule == "frame-conjunction"
        assert result.pivot == 1

    def test_chain_texts_past_the_recursion_limit(self):
        # ``linearize`` walks on an explicit stack: a 1000-node chain is
        # deeper than Python's default recursion limit.
        t = conjoined_chains(1000)
        assert t.p1.text.split() == [CHAIN_CONCEPTS[i % 3] for i in range(1000)]
        assert t.p2.text.split() == [CHAIN_CONCEPTS[(i + 1) % 3] for i in range(1000)]
        assert t.conclusion.text == f"and {t.p1.text} {t.p2.text}"
