"""End-to-end CLI behaviour and exit codes."""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from amrinfer.classify import classify
from amrinfer.cli import build_parser, main
from amrinfer.errors import RecordError
from amrinfer.graph import EXACT_DIFFERENCE_CAP
from amrinfer.pipeline import load_corpus, sample_corpus_path, save_records
from amrinfer.taxonomy import InferenceType

from tests.corpus_fixtures import sample_records
from tests.generators import LINE_BREAKS

GOLDEN_DIR = Path(__file__).parent / "goldens"


@pytest.fixture()
def scar_files(tmp_path):
    record = sample_records()[0]
    paths = {}
    for name, amr in (
        ("p1", record.p1_amr),
        ("p2", record.p2_amr),
        ("c", record.c_amr),
    ):
        path = tmp_path / f"{name}.amr"
        path.write_text(amr + "\n", encoding="utf-8")
        paths[name] = str(path)
    return paths


def test_parse_prints_canonical_form(tmp_path, capsys):
    path = tmp_path / "in.amr"
    path.write_text("(r / rock\n  :mod (h / hard))\n\n(w / water)\n", encoding="utf-8")
    assert main(["parse", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == "(r / rock :mod (h / hard))\n\n(w / water)\n"


@pytest.mark.parametrize("sep", LINE_BREAKS)
def test_line_breaks_stay_inside_strings(sep, tmp_path, capsys):
    # Neither reader ends a line at ``sep``, so the string survives ``parse``
    # and no part of it is blanked as a ``#`` line for ``transform``.
    path = tmp_path / "in.amr"
    text = f'(n / name :op1 "a{sep}# b")'
    path.write_text(text + "\n", encoding="utf-8")
    assert main(["parse", str(path)]) == 0
    assert capsys.readouterr().out == text + "\n"
    args = ["transform", "--p1", str(path), "--p2", str(path), "--type", "FRAME-CONJ"]
    assert main(args) == 0
    assert capsys.readouterr().out == (
        f'(a / and :op1 (n / name :op1 "a{sep}# b") :op2 (n2 / name :op1 "a{sep}# b"))\n'
    )


@pytest.mark.parametrize("body", ["a\n# b", "a\n\nb"])
def test_newlines_stay_inside_strings(body, tmp_path, capsys):
    # What ``parse`` writes reads back through ``parse``, and the ``#`` line
    # of a string is not blanked for ``classify`` and ``transform``.
    path = tmp_path / "in.amr"
    text = f'(n / name :op1 "{body}")\n\n(s / scar)\n'
    path.write_text(text, encoding="utf-8")
    assert main(["parse", str(path)]) == 0
    assert capsys.readouterr().out == text
    path.write_text(text.split("\n\n(s")[0] + "\n", encoding="utf-8")
    args = ["transform", "--p1", str(path), "--p2", str(path), "--type", "FRAME-CONJ"]
    assert main(args) == 0
    assert capsys.readouterr().out == (
        f'(a / and :op1 (n / name :op1 "{body}") :op2 (n2 / name :op1 "{body}"))\n'
    )
    args = ["classify", "--p1", str(path), "--p2", str(path), "--c", str(path)]
    assert main(args) == 0
    assert capsys.readouterr().out.startswith("PREM-COPY")


def test_parse_bad_file_is_data_error(tmp_path, capsys):
    path = tmp_path / "in.amr"
    path.write_text("(r / \n", encoding="utf-8")
    assert main(["parse", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_classify_prints_type(scar_files, capsys):
    code = main(
        ["classify", "--p1", scar_files["p1"], "--p2", scar_files["p2"],
         "--c", scar_files["c"],
         "--p1-text", "a scar on the knee is a kind of scar",
         "--p2-text", "a scar is an acquired characteristic",
         "--c-text", "a scar on the knee is an acquired characteristic"]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.strip() == "ARG-SUB"
    assert "rule=" in captured.err


@pytest.mark.parametrize(
    "flag, name", [("--p1-text", "p1"), ("--p2-text", "p2"), ("--c-text", "conclusion")]
)
@pytest.mark.parametrize("text", ["", " "])
def test_classify_rejects_a_given_empty_text(scar_files, capsys, flag, name, text):
    # Only an absent flag takes the default text; a given empty one is
    # refused, whether or not it holds spaces.
    code = main(
        ["classify", "--p1", scar_files["p1"], "--p2", scar_files["p2"],
         "--c", scar_files["c"], flag, text]
    )
    assert code == 2
    assert f"{name} has an empty text" in capsys.readouterr().err


def test_classify_json(scar_files, capsys):
    code = main(
        ["classify", "--p1", scar_files["p1"], "--p2", scar_files["p2"],
         "--c", scar_files["c"], "--format", "json",
         "--p1-text", "a scar on the knee is a kind of scar",
         "--p2-text", "a scar is an acquired characteristic",
         "--c-text", "a scar on the knee is an acquired characteristic"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["type"] == "ARG-SUB"
    assert payload["pivot"] == 2


def test_classify_json_reads_the_insertion_past_the_difference_cap(tmp_path, capsys):
    # An insertion larger than the difference alignment's exact-search cap
    # is read off the containment witness, which is exact at any size, so
    # nothing is flagged approximate; the JSON carries the same evidence
    # fields as an annotated record.
    chain = "".join(f" :mod (m{i} / hue{i}" for i in range(EXACT_DIFFERENCE_CAP))
    graphs = {
        "p1": "(r / rock)",
        "p2": "(f / flow-01 :ARG1 (w / water))",
        "c": f"(r / rock :mod (h / hard{chain}{')' * EXACT_DIFFERENCE_CAP}))",
    }
    paths = {}
    for name, amr in graphs.items():
        paths[name] = tmp_path / f"{name}.amr"
        paths[name].write_text(amr + "\n", encoding="utf-8")
    code = main(
        ["classify", "--p1", str(paths["p1"]), "--p2", str(paths["p2"]),
         "--c", str(paths["c"]), "--format", "json",
         "--p1-text", "rocks exist", "--p2-text", "water flows",
         "--c-text", "the rock is hard"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["type"] == "ARG-INS"
    assert "approximate" not in payload
    assert payload["witnesses"]["inserted_head"] == "hard"


def test_transform_emits_penman(scar_files, capsys):
    code = main(
        ["transform", "--p1", scar_files["p1"], "--p2", scar_files["p2"],
         "--type", "ARG-SUB"]
    )
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("(") and "knee" in out


def _with_metadata(paths: dict, tmp_path) -> dict:
    """Copies of the graph files in the AMR release layout: ``# ::``
    metadata lines first, and a blank line inside the graph."""
    out = {}
    for name, path in paths.items():
        with open(path, encoding="utf-8") as handle:
            amr = handle.read().strip()
        head, rest = amr.split(" ", 1)
        copy = tmp_path / f"meta_{name}.amr"
        copy.write_text(
            f"# ::id {name}\n  # ::snt a sentence\n{head}\n\n {rest}\n",
            encoding="utf-8",
        )
        out[name] = str(copy)
    return out


@pytest.mark.parametrize("command", ["classify", "transform"])
def test_graph_files_may_carry_metadata_lines(command, scar_files, tmp_path, capsys):
    def run(paths):
        args = ["--p1", paths["p1"], "--p2", paths["p2"]]
        if command == "classify":
            args += ["--c", paths["c"]]
        else:
            args += ["--type", "ARG-SUB"]
        code = main([command, *args])
        return code, capsys.readouterr().out

    plain = run(scar_files)
    assert plain[0] == 0
    assert run(_with_metadata(scar_files, tmp_path)) == plain


def test_metadata_lines_keep_error_offsets(tmp_path, capsys):
    text = "# ::id a\n# ::snt x\n(r / rock\n\n  :mod (h / ))\n"
    path = tmp_path / "bad.amr"
    path.write_text(text, encoding="utf-8")
    assert main(["classify", "--p1", str(path), "--p2", str(path), "--c", str(path)]) == 2
    offset = text.index("h / )") + len("h / ")
    assert capsys.readouterr().err == (
        f"error: {path}: expected a concept, found ')' (at offset {offset})\n"
    )


def test_transform_unsupported_type_is_data_error(scar_files, capsys):
    code = main(
        ["transform", "--p1", scar_files["p1"], "--p2", scar_files["p2"],
         "--type", "UNK"]
    )
    assert code == 2
    assert "no forward transformation" in capsys.readouterr().err


def test_unknown_type_name_is_data_error(scar_files):
    assert main(
        ["transform", "--p1", scar_files["p1"], "--p2", scar_files["p2"],
         "--type", "FOO"]
    ) == 2


def test_usage_errors_exit_one(capsys, tmp_path):
    assert main(["annotate", "--input"]) == 1
    assert main(["no-such-command"]) == 1
    assert main([]) == 1
    out = str(tmp_path / "x.jsonl")
    assert main(
        ["annotate", "--input", sample_corpus_path(), "--output", out, "--jobs", "0"]
    ) == 1
    assert main(["stats", "--input", sample_corpus_path(), "--jobs", "2"]) == 1


def test_annotate_then_stats_pipeline(tmp_path, capsys):
    out = str(tmp_path / "annotated.jsonl")
    assert main(["annotate", "--input", sample_corpus_path(), "--output", out]) == 0
    records, errors = load_corpus(out)
    assert not errors
    assert all(r.predicted_type is r.gold_type for r in records)

    assert main(["stats", "--input", out]) == 0
    table = capsys.readouterr().out
    for needle in ("ARG-SUB", "PRED-SUB", "UNK", "gold matches: 11/11"):
        assert needle in table


def test_stats_json(capsys):
    assert main(["stats", "--input", sample_corpus_path(), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == 11
    assert len(payload["rows"]) == 12


def test_annotate_strict_aborts(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "x"}\n', encoding="utf-8")
    out = str(tmp_path / "out.jsonl")
    assert main(["annotate", "--input", str(bad), "--output", out, "--strict"]) == 2


def test_emit_prompts_cli(tmp_path, capsys):
    out = str(tmp_path / "prompts.jsonl")
    code = main(
        ["emit-prompts", "--input", sample_corpus_path(), "--mode", "ep",
         "--output", out]
    )
    assert code == 0
    lines = open(out, encoding="utf-8").read().splitlines()
    assert len(lines) == 11
    first = json.loads(lines[0])
    assert first["input"].startswith("the inference type is ")


@pytest.mark.parametrize("mode", ["ep", "dp", "de", "none"])
def test_emit_prompts_writes_the_golden_file(mode, tmp_path):
    annotated = str(tmp_path / "annotated.jsonl")
    assert main(["annotate", "--input", sample_corpus_path(), "--output", annotated]) == 0
    out = tmp_path / f"prompts_{mode}.jsonl"
    assert main(["emit-prompts", "--input", annotated, "--mode", mode, "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / f"prompts_{mode}.jsonl").read_bytes()


def test_emit_prompts_keeps_loaded_types_when_some_records_are_untyped(tmp_path):
    # Annotating the untyped record must not re-classify the labelled one,
    # whose gold type differs from what the classifier would predict.
    labelled, untyped = sample_records()[:2]
    gold = InferenceType.FRAME_CONJ
    assert classify(labelled.triple()).type is not gold
    source = str(tmp_path / "mixed.jsonl")
    save_records([replace(labelled, gold_type=gold), replace(untyped, gold_type=None)],
                 source)
    out = str(tmp_path / "prompts.jsonl")
    assert main(["emit-prompts", "--input", source, "--mode", "ep", "--output", out]) == 0
    with open(out, encoding="utf-8") as handle:
        first, second = (json.loads(line) for line in handle)
    assert first["input"].startswith(f"the inference type is {gold.display_name} </s>")
    assert second["input"].startswith(
        f"the inference type is {untyped.gold_type.display_name} </s>"
    )


def test_annotate_a_record_whose_graphs_are_a_long_chain(tmp_path, capsys):
    # p1 and the conclusion are the same 1501-node :ARG0 chain; a matcher
    # that recursed once per node raised RecursionError and aborted the
    # batch with no output file.
    n = 1501
    chain = "".join(f"(n{i} / thing-{i % 7} :ARG0 " for i in range(n - 1))
    chain += f"(n{n - 1} / thing-{(n - 1) % 7})" + ")" * (n - 1)
    record = {
        "id": "chain", "p1_text": "a chain", "p2_text": "a rock",
        "c_text": "a chain", "p1_amr": chain, "p2_amr": "(r / rock)",
        "c_amr": chain,
    }
    source, out = tmp_path / "chain.jsonl", tmp_path / "out.jsonl"
    source.write_text(json.dumps(record) + "\n", encoding="utf-8")
    assert main(["annotate", "--input", str(source), "--output", str(out)]) == 0
    (annotated,) = load_corpus(str(out))[0]
    assert annotated.predicted_type is InferenceType.PREM_COPY


def test_stats_reads_stored_types_without_classifying(tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "annotated.jsonl")
    assert main(["annotate", "--input", sample_corpus_path(), "--output", out]) == 0
    assert main(["stats", "--input", out, "--format", "json"]) == 0
    expected = capsys.readouterr().out

    def refuse(triple):
        raise AssertionError("stats classified a typed record")

    monkeypatch.setattr("amrinfer.pipeline.classify", refuse)
    assert main(["stats", "--input", out, "--format", "json"]) == 0
    assert capsys.readouterr().out == expected


def test_stats_counts_approximate_flags_from_older_annotations(tmp_path, capsys):
    # Files annotated before the classifier read the insertion head off
    # its containment witness may flag a record's evidence approximate.
    out = tmp_path / "annotated.jsonl"
    assert main(["annotate", "--input", sample_corpus_path(), "--output", str(out)]) == 0
    assert main(["stats", "--input", str(out)]) == 0
    assert "approximate deltas" not in capsys.readouterr().out

    lines = out.read_text(encoding="utf-8").splitlines()
    for i in (0, 3):
        record = json.loads(lines[i])
        record["evidence"]["approximate"] = True
        lines[i] = json.dumps(record)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["stats", "--input", str(out)]) == 0
    table = capsys.readouterr().out
    assert "approximate deltas: 2" in table.splitlines()
    assert "gold matches: 11/11" in table


# A byte that UTF-8 never starts a character with.
_NOT_UTF8 = b"\xff"
_DECODE_ERROR = "'utf-8' codec can't decode byte 0xff"


@pytest.mark.parametrize("command", ["parse", "classify", "transform"])
def test_non_utf8_graph_file_is_data_error(command, scar_files, tmp_path, capsys):
    # The error names the file and the line of the undecodable byte, and
    # gives its character offset in the file as every Penman error does.
    bad = tmp_path / "bad.amr"
    bad.write_bytes(b"# ::id x\r\n(r / rock\n  :mod (h / hard" + _NOT_UTF8 + b"))\n")
    args = {
        "parse": [str(bad)],
        "classify": ["--p1", str(bad), "--p2", scar_files["p2"], "--c", scar_files["c"]],
        "transform": ["--p1", str(bad), "--p2", scar_files["p2"], "--type", "ARG-SUB"],
    }[command]
    assert main([command, *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:3: {_DECODE_ERROR} in position 36")
    assert err.endswith("(at offset 35)\n")


@pytest.fixture()
def non_utf8_records(tmp_path):
    """Four lines: a record, one with a byte that is not UTF-8, a record and
    a line that is not JSON."""
    first, second, third = (r.to_json().encode() for r in sample_records()[:3])
    path = tmp_path / "records.jsonl"
    path.write_bytes(
        b"\n".join([first, second.replace(b'"', _NOT_UTF8, 1), third, b"{"]) + b"\n"
    )
    return str(path)


def test_load_corpus_reports_a_non_utf8_line_and_keeps_the_others(non_utf8_records):
    records, errors = load_corpus(non_utf8_records)
    assert [r.id for r in records] == [sample_records()[i].id for i in (0, 2)]
    assert [e.line for e in errors] == [2, 4]
    assert isinstance(errors[0].cause, UnicodeDecodeError)
    assert str(errors[0]).startswith(f"line 2: {_DECODE_ERROR}")


def test_load_corpus_strict_raises_at_a_non_utf8_line(non_utf8_records):
    with pytest.raises(RecordError) as exc:
        load_corpus(non_utf8_records, strict=True)
    assert exc.value.line == 2
    assert isinstance(exc.value.cause, UnicodeDecodeError)


@pytest.mark.parametrize("command", ["annotate", "stats", "emit-prompts"])
def test_record_commands_skip_a_non_utf8_line(command, non_utf8_records, tmp_path, capsys):
    out = str(tmp_path / "out.jsonl")
    args = {
        "annotate": ["--output", out],
        "stats": ["--format", "json"],
        "emit-prompts": ["--mode", "ep", "--output", out],
    }[command]
    assert main([command, "--input", non_utf8_records, *args]) == 0
    captured = capsys.readouterr()
    assert f"skipped line 2: {_DECODE_ERROR}" in captured.err
    if command == "stats":
        assert json.loads(captured.out)["total"] == 2
    else:
        with open(out, encoding="utf-8") as handle:
            assert len(handle.readlines()) == 2


@pytest.mark.parametrize("command", ["stats", "emit-prompts"])
def test_typed_records_still_have_their_amr_checked_at_load(command, tmp_path, capsys):
    # A typed record is not classified again, but its graphs are still
    # parsed when it is loaded, and one that does not parse is a bad line.
    annotated = tmp_path / "annotated.jsonl"
    args = ["--input", sample_corpus_path(), "--output", str(annotated)]
    assert main(["annotate", *args]) == 0
    lines = annotated.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[4])
    record["c_amr"] = "(broken"
    lines[4] = json.dumps(record)
    annotated.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()

    out = str(tmp_path / "prompts.jsonl")
    args = {
        "stats": ["--format", "json"],
        "emit-prompts": ["--mode", "ep", "--output", out],
    }[command]
    assert main([command, "--input", str(annotated), *args]) == 0
    captured = capsys.readouterr()
    assert "skipped line 5" in captured.err
    if command == "stats":
        assert json.loads(captured.out)["total"] == len(lines) - 1
    else:
        with open(out, encoding="utf-8") as handle:
            assert len(handle.readlines()) == len(lines) - 1


@pytest.mark.parametrize("command", ["annotate", "stats"])
@pytest.mark.parametrize("field", ["gold_type", "predicted_type"])
@pytest.mark.parametrize("value", [5, 0, False, ["ARG-SUB"]])
def test_a_type_that_is_no_string_makes_a_bad_line(command, field, value, tmp_path, capsys):
    # It reached the commands as "'int' object has no attribute 'strip'".
    lines = Path(sample_corpus_path()).read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[0])
    record[field] = value
    lines[0] = json.dumps(record)
    # A missing key, null and "" still mean untyped.
    for i, untyped in ((1, None), (2, "")):
        record = json.loads(lines[i])
        record.pop("gold_type")
        record[field] = untyped
        lines[i] = json.dumps(record)
    path = tmp_path / "records.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = str(tmp_path / "out.jsonl")
    args = {"annotate": ["--output", out], "stats": ["--format", "json"]}[command]
    assert main([command, "--input", str(path), *args]) == 0
    err = capsys.readouterr().err
    assert f"skipped line 1: {field} is neither a string nor null: {json.dumps(value)}" in err
    assert "skipped line 2" not in err and "skipped line 3" not in err


_BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("command", ["parse", "stats", "emit-prompts"])
def test_a_leading_byte_order_mark_is_no_text(command, tmp_path, capsys):
    # A file that starts with a UTF-8 byte-order mark gives what the file
    # without it gives, and no line of it is skipped.
    if command == "parse":
        plain = tmp_path / "plain.amr"
        plain.write_bytes(b'(r / rock\r\n  :mod (h / hard))\n\n(n / name :op1 "a")\n')
    else:
        plain = tmp_path / "plain.jsonl"
        plain.write_bytes(open(sample_corpus_path(), "rb").read())
    marked = tmp_path / f"marked{plain.suffix}"
    marked.write_bytes(_BOM + plain.read_bytes())

    def run(path):
        out = tmp_path / "out.jsonl"
        args = {
            "parse": [str(path)],
            "stats": ["--input", str(path), "--format", "json"],
            "emit-prompts": ["--input", str(path), "--mode", "ep", "--output", str(out)],
        }[command]
        code = main([command, *args])
        captured = capsys.readouterr()
        written = out.read_bytes() if command == "emit-prompts" else b""
        return code, captured.out, captured.err, written

    got = run(marked)
    assert got == run(plain)
    code, out, err, written = got
    assert code == 0 and "skipped" not in err
    if command == "stats":
        assert json.loads(out)["total"] == 11
    if command == "emit-prompts":
        assert len(written.splitlines()) == 11


def test_load_corpus_strict_reads_a_leading_byte_order_mark(tmp_path):
    path = tmp_path / "marked.jsonl"
    path.write_bytes(_BOM + open(sample_corpus_path(), "rb").read())
    records, errors = load_corpus(str(path), strict=True)
    assert records == load_corpus(sample_corpus_path(), strict=True)[0]
    assert not errors


def test_annotate_strict_stops_at_a_non_utf8_line(non_utf8_records, tmp_path, capsys):
    out = str(tmp_path / "out.jsonl")
    args = ["--input", non_utf8_records, "--output", out, "--strict"]
    assert main(["annotate", *args]) == 2
    assert capsys.readouterr().err.startswith(f"error: line 2: {_DECODE_ERROR}")


def test_one_parser_serves_every_call(tmp_path, capsys):
    # Each call of a sequence in one process gives what it gives when it
    # runs first, on a freshly built parser, and the sequence builds one.
    bad = tmp_path / "bad.amr"
    bad.write_text("(r / \n", encoding="utf-8")
    calls = [
        ["stats", "--input", sample_corpus_path(), "--format", "json"],
        ["stats", "--input", sample_corpus_path(), "--jobs", "2"],
        ["parse", str(bad)],
        ["classify", "--help"],
        ["--help"],
        ["stats", "--input", sample_corpus_path()],
    ]

    def run(argv):
        code = main(argv)
        return (code, *capsys.readouterr())

    first = []
    for argv in calls:
        build_parser.cache_clear()
        first.append(run(argv))
    assert [r[0] for r in first] == [0, 1, 2, 0, 0, 0]

    build_parser.cache_clear()
    assert [run(argv) for argv in calls] == first
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(calls) - 1)
