"""Penman reader/writer contract and round-trip properties."""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amrinfer.cli import main
from amrinfer.errors import DanglingReferenceError, PenmanSyntaxError
from amrinfer.graph import Constant, exact_isomorphic
from amrinfer.penman import iter_penman, parse_penman, serialize_penman

from tests.generators import LINE_BREAKS, fuzz_penman_graph


class TestParse:
    def test_single_node(self):
        g = parse_penman("(s / scar)")
        assert g.root == "s"
        assert g.nodes["s"] == "scar"
        assert g.edges == ()

    def test_three_nodes_two_edges(self):
        # Node and edge counts checked by exhaustive enumeration by hand:
        # variables {c, f, n}, edges c->f and c->n.
        g = parse_penman("(c / contain-01 :ARG0 (f / food) :ARG1 (n / nutrient))")
        assert len(g.nodes) == 3
        assert len(g.edges) == 2
        assert g.root == "c"
        assert [e.role for e in g.edges] == [":ARG0", ":ARG1"]

    def test_reentrant_reference(self):
        g = parse_penman("(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-01 :ARG0 b))")
        assert len(g.nodes) == 3
        assert g.edges[-1].target == "b"

    def test_constants_survive(self):
        g = parse_penman('(t / thing :polarity - :quant 3 :name "Earth")')
        kinds = [e.target for e in g.edges]
        assert kinds[0] == Constant("-")
        assert kinds[1] == Constant("3")
        assert kinds[2] == Constant("Earth", is_string=True)

    def test_truncated_input_offset(self):
        with pytest.raises(PenmanSyntaxError) as exc:
            parse_penman("(s / ")
        assert exc.value.offset == 4

    def test_unbalanced(self):
        with pytest.raises(PenmanSyntaxError):
            parse_penman("(s / scar")

    def test_missing_concept(self):
        with pytest.raises(PenmanSyntaxError):
            parse_penman("(s :ARG0 (t / thing))")

    def test_duplicate_variable(self):
        with pytest.raises(PenmanSyntaxError, match="duplicate variable"):
            parse_penman("(s / scar :mod (s / scar))")

    def test_dangling_reference(self):
        with pytest.raises(DanglingReferenceError):
            parse_penman("(s / scar :ARG0 t)")

    def test_empty_input(self):
        with pytest.raises(PenmanSyntaxError):
            parse_penman("   ")

    def test_origin_in_message(self):
        with pytest.raises(PenmanSyntaxError, match="fixture.amr"):
            parse_penman("(s / ", origin="fixture.amr")

    @pytest.mark.parametrize(
        "text",
        ["(s / scar))", "s / scar", "(s / scar :ARG0)", "(s / scar :ARG0 :ARG1 x)"],
    )
    def test_malformed_inputs_diagnosed_with_offset(self, text):
        # Totality of error reporting: always a diagnostic, never a crash.
        with pytest.raises(PenmanSyntaxError) as exc:
            parse_penman(text)
        assert isinstance(exc.value.offset, int)


    def test_unexpected_character_offset(self):
        with pytest.raises(PenmanSyntaxError, match="unexpected character ':'") as exc:
            parse_penman("(s / scar : x)")
        assert exc.value.offset == 10

    @pytest.mark.parametrize(
        "text, offset",
        [("(a / x :r b :r (b / y))", 12), ("(a / x :r (b / y :q (c / z) :q c))", 28)],
    )
    def test_duplicate_edge_reported_at_its_role(self, text, offset):
        with pytest.raises(PenmanSyntaxError, match="duplicate edge") as exc:
            parse_penman(text)
        assert exc.value.offset == offset


class TestDeepNesting:
    DEPTH = 5000

    def chain(self) -> str:
        opens = " ".join(f"(v{i} / thing :ARG0" for i in range(self.DEPTH))
        return f"{opens} (v{self.DEPTH} / end" + ")" * (self.DEPTH + 1)

    def test_deep_chain_round_trips(self):
        # Far past the default recursion limit, which stays as it is.
        assert sys.getrecursionlimit() <= 1000
        text = self.chain()
        g = parse_penman(text)
        assert len(g.nodes) == self.DEPTH + 1
        assert g.closure(g.root)[-1] == f"v{self.DEPTH}"
        assert serialize_penman(g) == text

    def test_cli_parses_deep_chain(self, tmp_path, capsys):
        path = tmp_path / "deep.amr"
        path.write_text(self.chain() + "\n", encoding="utf-8")
        assert main(["parse", str(path)]) == 0
        assert capsys.readouterr().out == self.chain() + "\n"


class TestSerialize:
    def test_single_node(self):
        g = parse_penman("(s / scar)")
        assert serialize_penman(g) == "(s / scar)"

    def test_canonical_form_preserves_edge_order(self):
        text = "(c / contain-01 :ARG1 (n / nutrient) :ARG0 (f / food))"
        assert serialize_penman(parse_penman(text)) == text

    def test_reentrancy_prints_bare_variable(self):
        text = "(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-01 :ARG0 b))"
        g = parse_penman(text)
        out = serialize_penman(g)
        assert out == text
        assert exact_isomorphic(parse_penman(out), g)

    def test_deterministic(self):
        text = '(t / thing :polarity - :mod (o / old) :name "X")'
        g = parse_penman(text)
        assert serialize_penman(g) == serialize_penman(parse_penman(text))


class TestRoundTrip:
    def test_three_node_example_round_trips(self):
        g = parse_penman("(c / contain-01 :ARG0 (f / food) :ARG1 (n / nutrient))")
        again = parse_penman(serialize_penman(g))
        assert exact_isomorphic(g, again)

    @given(st.integers(0, 10**9))
    @settings(max_examples=150, deadline=None)
    def test_fuzzed_graphs_round_trip_exactly(self, seed):
        g = fuzz_penman_graph(random.Random(seed))
        again = parse_penman(serialize_penman(g))
        assert exact_isomorphic(g, again)
        # Second pass is byte-stable.
        assert serialize_penman(again) == serialize_penman(g)


class TestMultiGraphReader:
    def test_blank_line_separation(self):
        text = "(s / scar)\n\n(r / rock :mod (h / hard))\n\n\n(w / water)\n"
        graphs = iter_penman(text)
        assert [g.root for g in graphs] == ["s", "r", "w"]

    def test_multiline_graph(self):
        text = "(c / contain-01\n  :ARG0 (f / food)\n  :ARG1 (n / nutrient))\n"
        graphs = iter_penman(text)
        assert len(graphs) == 1
        assert len(graphs[0].nodes) == 3

    def test_error_carries_block_origin(self):
        with pytest.raises(PenmanSyntaxError, match="line 3"):
            iter_penman("(s / scar)\n\n(r / \n")

    def test_metadata_blocks_are_skipped(self):
        # The layout of the AMR releases: metadata lines before each graph.
        text = (
            "# AMR release; generated for a test\n"
            "\n"
            "# ::id test.1 ::date 2026-01-01\n"
            "# ::snt The boy wants to go.\n"
            "(w / want-01\n"
            "   :ARG0 (b / boy)\n"
            "   :ARG1 (g / go-01 :ARG0 b))\n"
            "\n"
            "  # ::id test.2\n"
            "# ::snt Scars.\n"
            "(s / scar)\n"
        )
        graphs = iter_penman(text)
        assert [g.root for g in graphs] == ["w", "s"]
        assert graphs[0] == parse_penman(
            "(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-01 :ARG0 b))"
        )

    @pytest.mark.parametrize("sep", LINE_BREAKS)
    @pytest.mark.parametrize("body", ["a{}b", "a{}# b", "{}"])
    def test_line_breaks_stay_inside_strings(self, sep, body):
        text = f'(n / name :op1 "{body.format(sep)}")'
        graphs = iter_penman(text)
        assert graphs == [parse_penman(text)]
        assert graphs[0].edges[0].target.value == body.format(sep)

    @pytest.mark.parametrize("body", ["a\n# b", "a\n\nb", "\n#\n\n# ::snt x\n", "a\n\n(b / c)"])
    def test_newlines_stay_inside_strings(self, body):
        # A blank or ``#`` line inside a quoted string belongs to the
        # string's block. Around it, blank lines still end blocks, and
        # metadata lines are skipped whatever quotes they hold.
        text = f'(n / name :op1 "{body}" :mod (t / thing))'
        doc = f'# ::snt say "hi\n(s / scar)\n\n{text}\n\n# ::id "x\n(r / rock)\n'
        graphs = iter_penman(doc)
        assert graphs == [parse_penman(p) for p in ("(s / scar)", text, "(r / rock)")]
        assert graphs[1].edges[0].target.value == body

    def test_strings_with_newlines_may_follow_each_other(self):
        # Each string opens on the line where the one before it closes.
        text = '(n / name :op1 "a\n\nb" :op2 "c\n# d" :op3 "e\n\nf")'
        assert iter_penman(text + "\n\n(s / scar)") == [
            parse_penman(text),
            parse_penman("(s / scar)"),
        ]

    def test_an_unclosed_quote_holds_no_line_break(self):
        # A ``"`` that opens no closed string is part of a symbol, as the
        # reader reads it, so the blank line still ends the block.
        assert iter_penman('(a / "foo)\n\n(b / bar)') == [
            parse_penman('(a / "foo)'),
            parse_penman("(b / bar)"),
        ]

    def test_error_names_the_block_that_holds_the_string(self):
        with pytest.raises(PenmanSyntaxError, match="line 3"):
            iter_penman('(s / scar)\n\n(n / name :op1 "a\n\nb" :op2)\n')

    @given(st.lists(st.text("a #\n", max_size=6), min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_written_strings_with_newlines_read_back(self, bodies):
        # The layout ``amrinfer parse`` writes: canonical graphs separated
        # by blank lines, each string written raw.
        graphs = [
            parse_penman(f'(n / name :op1 "{body}" :mod (t / thing))') for body in bodies
        ]
        text = "\n\n".join(serialize_penman(g) for g in graphs) + "\n"
        assert iter_penman(text) == graphs

    def test_metadata_only_document_has_no_graph(self):
        assert iter_penman("# ::id a\n# ::snt nothing parsed\n\n# ::id b\n") == []

    def test_error_names_first_penman_line_after_metadata(self):
        with pytest.raises(PenmanSyntaxError, match="doc.amr:4: "):
            iter_penman("(s / scar)\n\n# ::id x\n(r / \n", origin="doc.amr")
