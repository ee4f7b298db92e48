"""Corpus loading, annotation, statistics and prompt emission."""

from __future__ import annotations

import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from amrinfer.errors import MissingTypeError, RecordError
from amrinfer.pipeline import (
    AnnotationReport,
    CorpusRecord,
    InjectionMode,
    annotate_corpus,
    compute_stats,
    emit_prompts,
    load_corpus,
    sample_corpus_path,
    save_records,
    stats_rows,
)
from amrinfer.taxonomy import InferenceType

from tests.corpus_fixtures import sample_records
from tests.generators import synthetic_corpus

GOLDEN_DIR = Path(__file__).parent / "goldens"


def _write(tmp_path, lines):
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _record_line(record_id="r1", amr="(r / rock)", **overrides):
    data = {
        "id": record_id,
        "p1_text": "a",
        "p2_text": "b",
        "c_text": "c",
        "p1_amr": amr,
        "p2_amr": amr,
        "c_amr": amr,
    }
    data.update(overrides)
    return json.dumps(data)


class TestLoadCorpus:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        records, errors = load_corpus(str(path))
        assert records == [] and errors == []

    def test_records_in_file_order(self, tmp_path):
        path = _write(tmp_path, [_record_line(f"r{i}") for i in range(3)])
        records, errors = load_corpus(path)
        assert [r.id for r in records] == ["r0", "r1", "r2"]
        assert not errors

    def test_lenient_skips_and_reports(self, tmp_path):
        path = _write(
            tmp_path,
            [_record_line("r1"), _record_line("r2", amr="(broken"), _record_line("r3")],
        )
        records, errors = load_corpus(path)
        assert [r.id for r in records] == ["r1", "r3"]
        assert len(errors) == 1 and errors[0].line == 2

    def test_strict_aborts_on_first_error(self, tmp_path):
        path = _write(
            tmp_path,
            [_record_line("r1"), _record_line("r2", amr="(broken"), _record_line("r3")],
        )
        with pytest.raises(RecordError) as exc:
            load_corpus(path, strict=True)
        assert exc.value.line == 2

    def test_missing_field_rejected(self, tmp_path):
        line = json.dumps({"id": "r1", "p1_text": "a"})
        path = _write(tmp_path, [line])
        _, errors = load_corpus(path)
        assert len(errors) == 1

    def test_duplicate_id_rejected(self, tmp_path):
        path = _write(tmp_path, [_record_line("r1"), _record_line("r1")])
        records, errors = load_corpus(path)
        assert len(records) == 1 and len(errors) == 1

    def test_gold_type_parsed(self):
        records = sample_records()
        assert records[0].gold_type is InferenceType.ARG_SUB

    def test_fault_injected_files(self, tmp_path):
        # Loader property under random corruption: lenient recovers every
        # intact line and reports the corrupted ones with their numbers;
        # strict raises at the first corrupted line.
        rng = random.Random(13)
        for trial in range(20):
            good = synthetic_corpus(rng, rng.randint(1, 8))
            lines = [r.to_json() for r in good]
            corrupt_at = sorted(
                rng.sample(range(len(lines)), rng.randint(0, len(lines)))
            )
            for i in corrupt_at:
                lines[i] = rng.choice(
                    ['{"id": "x"}', "not json", '{"broken', _record_line(amr="(x /")]
                )
            path = _write(tmp_path, lines)
            records, errors = load_corpus(path)
            assert len(records) == len(lines) - len(corrupt_at)
            assert [e.line for e in errors] == [i + 1 for i in corrupt_at]
            if corrupt_at:
                with pytest.raises(RecordError) as exc:
                    load_corpus(path, strict=True)
                assert exc.value.line == corrupt_at[0] + 1


class TestParseOnce:
    def test_load_and_annotate_parse_each_graph_once(self, monkeypatch):
        import amrinfer.pipeline as pipeline

        calls = []
        real = pipeline.parse_penman

        def counting(text, origin=None):
            calls.append(origin)
            return real(text, origin)

        monkeypatch.setattr(pipeline, "parse_penman", counting)
        records, errors = load_corpus(sample_corpus_path())
        assert not errors
        annotate_corpus(records)
        assert len(calls) == 3 * len(records)
        assert set(calls) == {"p1_amr", "p2_amr", "c_amr"}

    def test_cached_graphs_are_not_part_of_the_value(self):
        record = sample_records()[0]
        fresh = replace(record)
        assert "graphs" in record.__dict__ and "graphs" not in fresh.__dict__
        assert fresh == record
        assert fresh.to_json() == record.to_json()
        assert fresh.triple() == record.triple()


class TestAnnotate:
    def test_sample_corpus_eleven_for_eleven(self):
        annotated, report = annotate_corpus(sample_records())
        assert report.total == 11
        assert report.gold_total == 11
        assert report.gold_mismatches == []
        assert all(report.counts.get(r.gold_type, 0) == 1 for r in annotated)

    def test_empty_corpus(self):
        annotated, report = annotate_corpus([])
        assert annotated == [] and report.total == 0

    def test_output_order_is_input_order(self):
        records = sample_records()[::-1]
        annotated, _ = annotate_corpus(records)
        assert [r.id for r in annotated] == [r.id for r in records]

    def test_per_record_failure_lands_in_report(self):
        records = sample_records()
        broken = CorpusRecord(
            id="bad",
            p1_text=" ",
            p2_text="b",
            c_text="c",
            p1_amr="(r / rock)",
            p2_amr="(r / rock)",
            c_amr="(r / rock)",
        )
        annotated, report = annotate_corpus(records + [broken])
        assert report.total == 11
        assert [rid for rid, _ in report.errors] == ["bad"]
        assert len(annotated) == 12

    def test_idempotent_on_annotated_records(self):
        once, _ = annotate_corpus(sample_records())
        twice, _ = annotate_corpus(once)
        assert [r.to_json() for r in twice] == [r.to_json() for r in once]

    def test_counts_sum_to_total_and_fractions_to_one(self):
        _, report = annotate_corpus(sample_records())
        assert sum(report.counts.values()) == report.total
        assert abs(sum(report.fraction(t) for t in InferenceType) - 1.0) < 1e-9


class TestStats:
    def test_arithmetic(self):
        report = AnnotationReport(
            counts={InferenceType.ARG_SUB: 19, InferenceType.FRAME_SUB: 20},
            total=39,
        )
        rows = {row["type"]: row for row in stats_rows(report)}
        assert rows["ARG-SUB"]["fraction"] == pytest.approx(19 / 39)
        assert rows["FRAME-SUB"]["fraction"] == pytest.approx(20 / 39)
        assert rows["ARG-SUB"]["delta"] == pytest.approx(19 / 39 - 0.19)
        assert rows["FRAME-SUB"]["delta"] == pytest.approx(20 / 39 - 0.20)
        assert rows["ARG-SUB"]["drift"] and rows["FRAME-SUB"]["drift"]

    def test_empty_report_all_zero(self):
        rows = stats_rows(AnnotationReport())
        assert all(row["count"] == 0 and row["fraction"] == 0.0 for row in rows)

    def test_expected_column_replays_the_published_fractions(self):
        rows = {row["type"]: row for row in stats_rows(AnnotationReport())}
        assert rows["ARG-SUB"]["expected"] == 0.19
        assert rows["FRAME-SUB"]["expected"] == 0.20
        assert rows["COND-FRAME"]["expected"] == 0.12
        assert rows["ARG-INS"]["expected"] == 0.18
        assert rows["UNK"]["expected"] == 0.16
        assert rows["PREM-COPY"]["expected"] is None

    def test_rendered_table_row_order(self):
        # Row order follows the canonical table order.
        from amrinfer.taxonomy import TABLE_ORDER

        text = compute_stats(AnnotationReport())
        body = [line.split()[0] for line in text.splitlines()[2:14]]
        assert body == [t.value for t in TABLE_ORDER]


SCAR_EP_INPUT = (
    "the inference type is arg substitution </s> "
    "a scar on the knee is a kind of scar </s> "
    "a scar is an acquired characteristic"
)


class TestEmitPrompts:
    @pytest.fixture()
    def annotated(self):
        records, _ = annotate_corpus(sample_records())
        return records

    def test_scar_encoder_prefix_exact_string(self, annotated):
        prompt = emit_prompts([annotated[0]], InjectionMode.EP)[0]
        assert prompt.input == SCAR_EP_INPUT
        assert prompt.target == "a scar on the knee is an acquired characteristic"

    def test_decoder_prefix_shape(self, annotated):
        prompt = emit_prompts([annotated[0]], InjectionMode.DP)[0]
        assert prompt.input == (
            "a scar on the knee is a kind of scar </s> "
            "a scar is an acquired characteristic"
        )
        assert prompt.target == (
            "</s> the inference type is arg substitution. "
            "a scar on the knee is an acquired characteristic"
        )

    def test_decoder_end_shape(self, annotated):
        prompt = emit_prompts([annotated[0]], InjectionMode.DE)[0]
        assert prompt.target == (
            "</s> a scar on the knee is an acquired characteristic. "
            "the inference type is arg substitution"
        )

    def test_none_mode_has_no_type_phrase(self, annotated):
        for prompt in emit_prompts(annotated, InjectionMode.NONE):
            assert "inference type" not in prompt.input
            assert "inference type" not in prompt.target

    def test_missing_type_raises(self):
        record = sample_records()[0]
        bare = CorpusRecord(
            **{f: getattr(record, f) for f in
               ("id", "p1_text", "p2_text", "c_text", "p1_amr", "p2_amr", "c_amr")}
        )
        with pytest.raises(MissingTypeError):
            emit_prompts([bare], InjectionMode.DP)
        assert emit_prompts([bare], InjectionMode.NONE)

    def test_gold_type_suffices(self):
        prompts = emit_prompts(sample_records(), InjectionMode.EP)
        assert len(prompts) == 11

    @pytest.mark.parametrize("mode", list(InjectionMode))
    def test_golden_files(self, annotated, mode):
        got = "\n".join(
            json.dumps(
                {"input": p.input, "target": p.target, "mode": p.mode.value},
                sort_keys=True,
            )
            for p in emit_prompts(annotated, mode)
        ) + "\n"
        golden = (GOLDEN_DIR / f"prompts_{mode.value}.jsonl").read_text(
            encoding="utf-8"
        )
        assert got == golden

    @pytest.mark.parametrize("mode", list(InjectionMode))
    def test_placement_invariants_on_fuzzed_records(self, mode):
        rng = random.Random(99)
        words = ["rock", "water", "plant", "energy", "cloud", "soil", "iron"]
        types = [t for t in InferenceType]
        records = []
        for i in range(1000):
            records.append(
                CorpusRecord(
                    id=f"f{i}",
                    p1_text=" ".join(rng.choices(words, k=rng.randint(1, 6))),
                    p2_text=" ".join(rng.choices(words, k=rng.randint(1, 6))),
                    c_text=" ".join(rng.choices(words, k=rng.randint(1, 6))),
                    p1_amr="(r / rock)",
                    p2_amr="(r / rock)",
                    c_amr="(r / rock)",
                    gold_type=rng.choice(types),
                )
            )
        for prompt in emit_prompts(records, mode):
            phrase = "the inference type is "
            if mode is InjectionMode.EP:
                assert prompt.input.startswith(phrase)
                assert phrase not in prompt.target
            elif mode in (InjectionMode.DP, InjectionMode.DE):
                assert prompt.target.count(phrase) == 1
                assert phrase not in prompt.input
                if mode is InjectionMode.DP:
                    assert prompt.target.startswith("</s> " + phrase)
                else:
                    assert prompt.target.endswith(
                        phrase + prompt.target.split(phrase)[-1]
                    )
            else:
                assert phrase not in prompt.input
                assert phrase not in prompt.target


class TestSaveLoadRoundTrip:
    def test_annotated_records_round_trip(self, tmp_path):
        annotated, _ = annotate_corpus(sample_records())
        path = str(tmp_path / "out.jsonl")
        save_records(annotated, path)
        again, errors = load_corpus(path)
        assert not errors
        assert [r.to_json() for r in again] == [r.to_json() for r in annotated]

    def test_synthetic_corpus_loads_cleanly(self, tmp_path):
        records = synthetic_corpus(random.Random(1), 45)
        path = str(tmp_path / "synthetic.jsonl")
        save_records(records, path)
        again, errors = load_corpus(path)
        assert not errors and len(again) == 45
