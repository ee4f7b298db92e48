"""Rule-based classification of entailment triples into inference types.

Given two premises and a conclusion (texts plus graphs), the classifier
walks a fixed cascade of symbolic checks and returns the first matching
type together with a structured trace of the rule that fired. The cascade:

1. premise copy: a premise graph equivalent to the conclusion graph;
2. lexical signals owned by the conclusion ("example", if/then);
3. a single-word difference between the pivot premise and the conclusion
   (verb -> predicate substitution, otherwise argument substitution);
4. a conditional premise whose antecedent matches the other premise;
5. an argument attachment in the conclusion whose material originates in
   the non-pivot premise (property inheritance / argument substitution /
   frame substitution); each conclusion subtree is checked in place,
   without building it as a graph, and none inside a subtree that
   embeds in both premises is checked at all;
6. both premises embedded in the conclusion, or a coordination pattern
   (frame conjunction). The embedding test runs before step 5 searches
   for a site, since no site can overrule it: a substitution removes the
   pivot's replaced material from the conclusion, so both premises
   embedding is the mark of conjunction;
7. exactly one premise embedded (argument/frame insertion): the
   conclusion nodes that the premise's embedding witness leaves unmapped
   are the insert, headed by the root when it is unmapped and otherwise
   by the unmapped end of the first edge that leaves the mapped part;
8. a fresh :domain link between concepts drawn from different premises
   (generalisation);
9. the unknown sink.

Steps 5 to 7 read one embedding of each premise into the conclusion,
found at most once per call by the search that decides containment, so
the insert comes from the same relaxed semantics, modifiers ignored,
that decides step 6.

Each of the three texts is tokenized once per call, and the word lists
are handed to the steps that read them; nothing is kept between calls.

Everything is pure and deterministic; triples can be classified in
parallel.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import itemgetter

from .errors import MalformedTripleError
from .graph import (
    AmrGraph,
    Constant,
    Edge,
    NodeId,
    is_predicate,
    relaxed_embedding,
    relaxed_isomorphic,
    relaxed_subset_at,
    stem,
)
from .taxonomy import InferenceType

_WORD = re.compile(r"[\w']+")

#: Branch identifiers that can appear in classification evidence.
RULES = frozenset(
    {
        "premise-copy",
        "lexical-example",
        "lexical-if-then",
        "single-word-substitution",
        "conditional-frame",
        "argument-substitution",
        "property-inheritance",
        "frame-substitution",
        "frame-conjunction",
        "domain-coordination",
        "argument-insertion",
        "frame-insertion",
        "domain-generalisation",
        "unknown",
    }
)


@dataclass(frozen=True)
class Statement:
    """A sentence with its graph."""

    text: str
    graph: AmrGraph


@dataclass(frozen=True)
class EntailmentTriple:
    """Two premises and the conclusion they support. Construction rejects
    an empty text; each graph was checked when it was built."""

    p1: Statement
    p2: Statement
    conclusion: Statement

    def __post_init__(self) -> None:
        for name in ("p1", "p2", "conclusion"):
            if not getattr(self, name).text.strip():
                raise MalformedTripleError(f"{name} has an empty text")


@dataclass(frozen=True)
class Evidence:
    """Which branch fired and the witnesses it saw."""

    rule: str
    witnesses: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ClassificationResult:
    type: InferenceType
    pivot: int
    evidence: Evidence
    #: Set by no rule: every step is decided exactly. Kept for a search
    #: that could stop early and would have to say so.
    approximate: bool = False

    @property
    def frame_insertion(self) -> bool:
        """True when the inserted material is headed by a predicate."""
        return self.evidence.rule == "frame-insertion"


# ---------------------------------------------------------------------------
# Token-level helpers
# ---------------------------------------------------------------------------


def tokenize(text: str) -> list[str]:
    """Lower-cased word tokens; punctuation is dropped, determiners kept.

    Keeping determiners matters: 'asphalt has a smooth surface' versus
    'a blacktop has a smooth surface' must not look like a one-word swap.
    """
    return _WORD.findall(text.lower())


def jaccard(a: list[str], b: list[str]) -> float:
    sa, sb = set(a), set(b)
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def _pivot(w1: list[str], w2: list[str], wc: list[str]) -> int:
    """Index (1 or 2) of the premise whose words are closest to the
    conclusion's by Jaccard similarity; ties go to premise 1."""
    return 2 if jaccard(w2, wc) > jaccard(w1, wc) else 1


def _word_diff(ta: list[str], tb: list[str]) -> tuple[str, str] | None:
    """The single differing word pair, if the word lists have equal
    length and differ at exactly one position."""
    if len(ta) != len(tb):
        return None
    diffs = [(x, y) for x, y in zip(ta, tb) if x != y]
    if len(diffs) == 1:
        return diffs[0]
    return None


_SUFFIXES = ("ing", "es", "ed", "s")


def _lemma_candidates(word: str) -> set[str]:
    out = {word}
    for suffix in _SUFFIXES:
        if word.endswith(suffix) and len(word) > len(suffix) + 1:
            stripped = word[: -len(suffix)]
            out.add(stripped)
            if suffix in ("ing", "ed"):
                out.add(stripped + "e")
    return out


def is_verb(word: str, g: AmrGraph) -> bool:
    """True when the graph contains a predicate concept whose stem matches
    the word under a small suffix-stripping rule set."""
    candidates = _lemma_candidates(word.lower())
    return any(
        is_predicate(c) and stem(c) in candidates for c in g.nodes.values()
    )


# ---------------------------------------------------------------------------
# Graph-level helpers
# ---------------------------------------------------------------------------


def _has_signal_example(g: AmrGraph, words: list[str]) -> bool:
    return g.has_concept("example") or "example" in words


def _has_signal_conditional(g: AmrGraph, words: list[str]) -> bool:
    if ":condition" in map(itemgetter(1), g.edges):
        return True
    return "if" in words and "then" in words


#: Conclusion-owned lexical signals in checking order: (test, type, rule).
_SIGNALS = (
    (_has_signal_example, InferenceType.EXAMPLE, "lexical-example"),
    (_has_signal_conditional, InferenceType.IFT, "lexical-if-then"),
)


def _lexical_signal(
    t: EntailmentTriple, w1: list[str], w2: list[str], wc: list[str]
) -> tuple[InferenceType, str] | None:
    """The type and rule of the first signal that the conclusion carries
    and neither premise does, or None."""
    g1, g2, gc = t.p1.graph, t.p2.graph, t.conclusion.graph
    for has, type_, rule in _SIGNALS:
        if has(gc, wc) and not has(g1, w1) and not has(g2, w2):
            return type_, rule
    return None


def _attachment_site(
    g_c: AmrGraph, g_x: AmrGraph, g_other: AmrGraph
) -> Edge | None:
    """First conclusion edge whose target subtree originates exclusively in
    the non-pivot premise, skipping edges that are themselves copied
    non-pivot material or hang off a coordination node. Relaxable-role
    edges only count when the target's head concept anchors in the pivot
    (a replaced argument), which separates substitution from a fresh
    :domain link. Each subtree is checked in place, against the non-pivot
    premise first; most fail at once, on a concept that premise lacks.

    Containment pins no root, so every subtree inside one that embeds in
    the pivot embeds there too and cannot be a site. Once a target's
    subtree embeds in both premises, its closure is covered, and no edge
    into a covered node is checked: a chain is checked once, not once
    per edge."""
    cx = g_x.concepts()
    cother = g_other.concepts()
    labels = g_c.nodes
    covered: set[NodeId] = set()
    for e in g_c.edges:
        target = e.target
        if isinstance(target, Constant) or target in covered:
            continue
        src = labels[e.source]
        if src in ("and", "or"):
            continue
        if src in cother and src not in cx:
            continue
        if not (e.is_argument or labels[target] in cx):
            continue
        if not relaxed_subset_at(g_c, target, g_other):
            continue
        if not relaxed_subset_at(g_c, target, g_x):
            return e
        covered.update(g_c.closure(target))
    return None


def _inserted_head(g_c: AmrGraph, witness: dict[NodeId, NodeId]) -> str | None:
    """Concept heading the conclusion material that a premise's embedding
    ``witness`` leaves unmapped: the root when it is unmapped, otherwise
    the unmapped end of the first edge, in stored order, that joins a
    mapped node and an unmapped one; None when every node is mapped.
    Every node is reachable from the root, so when the root is mapped and
    another node is not, such an edge exists."""
    mapped = set(witness.values())
    labels = g_c.nodes
    if g_c.root not in mapped:
        return labels[g_c.root]
    for s, _, t in g_c.edges:
        if isinstance(t, Constant) or (s in mapped) == (t in mapped):
            continue
        return labels[s if t in mapped else t]
    return None


def _conditional_match(
    t: EntailmentTriple, g_x: AmrGraph, g_other: AmrGraph
) -> Evidence | None:
    """A premise whose root opens a :condition path, with the antecedent
    head matching the other premise and the consequent head surfacing in
    the conclusion."""
    g_c = t.conclusion.graph
    for which, (q, r) in (("pivot", (g_x, g_other)), ("other", (g_other, g_x))):
        ce = q.child_edge(q.root, ":condition")
        if ce is None:
            continue
        antecedent_head = q.nodes[ce.target]
        consequent_head = q.nodes[q.root]
        if antecedent_head in r.concepts() and consequent_head in g_c.concepts():
            return Evidence(
                "conditional-frame",
                {
                    "conditional_premise": which,
                    "antecedent_head": antecedent_head,
                    "consequent_head": consequent_head,
                },
            )
    return None


def _domain_coordination(
    g_c: AmrGraph, g_x: AmrGraph, g_other: AmrGraph
) -> bool:
    """Both premise roots carry :domain subjects and the conclusion
    coordinates those subjects under an ``and`` node."""
    ex = g_x.child_edge(g_x.root, ":domain")
    ey = g_other.child_edge(g_other.root, ":domain")
    if ex is None or ey is None:
        return False
    x = g_x.nodes[ex.target]
    y = g_other.nodes[ey.target]
    for n, c in g_c.nodes.items():
        if c != "and":
            continue
        coordinated = {
            g_c.nodes[e.target]
            for e in g_c.outgoing(n)
            if e.role.startswith(":op") and not isinstance(e.target, Constant)
        }
        if x in coordinated and y in coordinated:
            return True
    return False


def _domain_generalisation(
    g_c: AmrGraph, g_x: AmrGraph, g_other: AmrGraph
) -> Evidence | None:
    """A fresh ``root :domain y`` conclusion linking concepts drawn from the
    two different premises."""
    root_label = g_c.nodes[g_c.root]
    for e in g_c.outgoing(g_c.root):
        if e.role != ":domain" or isinstance(e.target, Constant):
            continue
        y_label = g_c.nodes[e.target]
        in_x = (root_label in g_x.concepts(), y_label in g_x.concepts())
        in_other = (root_label in g_other.concepts(), y_label in g_other.concepts())
        if (in_x[0] and in_other[1]) or (in_other[0] and in_x[1]):
            return Evidence(
                "domain-generalisation",
                {"general": root_label, "specific": y_label},
            )
    return None


# ---------------------------------------------------------------------------
# The classifier
# ---------------------------------------------------------------------------


def classify(t: EntailmentTriple) -> ClassificationResult:
    """Assign an inference type to a triple. Total: every well-formed
    triple gets a result, with UNK as the sink."""
    w1, w2, wc = tokenize(t.p1.text), tokenize(t.p2.text), tokenize(t.conclusion.text)
    pivot = _pivot(w1, w2, wc)
    if pivot == 1:
        g_x, g_other, w_x = t.p1.graph, t.p2.graph, w1
    else:
        g_x, g_other, w_x = t.p2.graph, t.p1.graph, w2
    g_c = t.conclusion.graph

    def result(type_: InferenceType, evidence: Evidence) -> ClassificationResult:
        return ClassificationResult(type=type_, pivot=pivot, evidence=evidence)

    # 1. No reasoning happened: the conclusion repeats a premise graph.
    for which, g in (("pivot", g_x), ("other", g_other)):
        if relaxed_isomorphic(g, g_c):
            return result(
                InferenceType.PREM_COPY, Evidence("premise-copy", {"premise": which})
            )

    # 2. Conclusion-owned lexical signals.
    lexical = _lexical_signal(t, w1, w2, wc)
    if lexical is not None:
        return result(lexical[0], Evidence(lexical[1]))

    # 3. One-word difference between the pivot premise and the conclusion.
    diff = _word_diff(w_x, wc)
    if diff is not None:
        w_x, w_c = diff
        verb = is_verb(w_c, g_c) or is_verb(w_x, g_x)
        return result(
            InferenceType.PRED_SUB if verb else InferenceType.ARG_SUB,
            Evidence(
                "single-word-substitution",
                {"from_word": w_x, "to_word": w_c, "verb": verb},
            ),
        )

    # 4. Conditional premise applied to the other premise.
    conditional = _conditional_match(t, g_x, g_other)
    if conditional is not None:
        return result(InferenceType.COND_FRAME, conditional)

    # Each premise's embedding into the conclusion, found at most once per
    # call: the pivot's here, the other's where a step first needs it.
    x_in_c = relaxed_embedding(g_x, g_c)

    # 6, first half. Both premises embed: conjunction. It is decided before
    # step 5, whose site could not overrule it, so that search is spared.
    if x_in_c is not None:
        other_in_c = relaxed_embedding(g_other, g_c)
        if other_in_c is not None:
            return result(InferenceType.FRAME_CONJ, Evidence("frame-conjunction"))

    # 5. Non-pivot material attached inside the conclusion.
    site = _attachment_site(g_c, g_x, g_other)
    if site is not None:
        target_concept = g_c.nodes[site.target]
        witnesses = {
            "edge": (site.source, site.role, site.target),
            "target_concept": target_concept,
        }
        if not is_predicate(target_concept):
            made_of = g_other.nodes[g_other.root] == "make-01" and any(
                e.is_argument
                and not isinstance(e.target, Constant)
                and g_other.nodes[e.target] == target_concept
                for e in g_other.outgoing(g_other.root)
            )
            if made_of:
                return result(
                    InferenceType.ARG_SUB_PROP,
                    Evidence("property-inheritance", witnesses),
                )
            return result(
                InferenceType.ARG_SUB, Evidence("argument-substitution", witnesses)
            )
        return result(
            InferenceType.FRAME_SUB, Evidence("frame-substitution", witnesses)
        )

    # 6. The premises do not both embed, but their subjects coordinate.
    if x_in_c is None:
        other_in_c = relaxed_embedding(g_other, g_c)
    if _domain_coordination(g_c, g_x, g_other):
        return result(InferenceType.FRAME_CONJ, Evidence("domain-coordination"))

    # 7. Insertion: exactly one premise embeds; the conclusion material
    # its witness leaves unmapped is the insert.
    for witness, which in ((x_in_c, "pivot"), (other_in_c, "other")):
        if witness is None:
            continue
        head = _inserted_head(g_c, witness)
        if head is None:
            continue
        rule = "frame-insertion" if is_predicate(head) else "argument-insertion"
        return result(
            InferenceType.ARG_INS,
            Evidence(rule, {"inserted_head": head, "base": which}),
        )

    # 8. Fresh :domain generalisation across the premises.
    generalisation = _domain_generalisation(g_c, g_x, g_other)
    if generalisation is not None:
        return result(InferenceType.ARG_PRED_GEN, generalisation)

    # 9. Sink.
    return result(InferenceType.UNK, Evidence("unknown"))
