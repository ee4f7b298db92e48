"""Corpus ingestion, batch annotation, distribution statistics and prompt
emission.

Record files are line-delimited JSON, one object per line, with the fields
``id``, ``p1_text``, ``p2_text``, ``c_text``, ``p1_amr``, ``p2_amr``,
``c_amr`` and optionally ``gold_type`` plus prediction fields added by
annotation. Type names in files are the stable abbreviations; display
names appear only inside prompts.

Annotation classifies records one at a time, in input order: the
classifier is pure Python and holds the GIL, so worker threads cannot
speed it up. The annotated file depends on the input records alone.
Statistics count the types that records already carry and classify only
the records that have none; both paths share one tally,
:meth:`AnnotationReport.add`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import Enum

from .amr import _lazy
from .classify import ClassificationResult, EntailmentTriple, Statement, classify
from .errors import AmrError, MissingTypeError, RecordError
from .graph import AmrGraph
from .penman import parse_penman
from .taxonomy import TABLE_ORDER, InferenceType, lookup_type

REQUIRED_FIELDS = ("id", "p1_text", "p2_text", "c_text", "p1_amr", "p2_amr", "c_amr")


@dataclass(frozen=True)
class CorpusRecord:
    id: str
    p1_text: str
    p2_text: str
    c_text: str
    p1_amr: str
    p2_amr: str
    c_amr: str
    gold_type: InferenceType | None = None
    predicted_type: InferenceType | None = None
    evidence: dict | None = None

    @_lazy
    def graphs(self) -> tuple[AmrGraph, AmrGraph, AmrGraph]:
        """The three AMRs, parsed on first use and kept. The cache lives in
        the instance ``__dict__``, outside the dataclass fields, so it
        changes neither equality nor :meth:`to_json`."""
        return tuple(
            parse_penman(getattr(self, f), origin=f)
            for f in ("p1_amr", "p2_amr", "c_amr")
        )

    def triple(self) -> EntailmentTriple:
        p1, p2, c = self.graphs
        return EntailmentTriple(
            p1=Statement(self.p1_text, p1),
            p2=Statement(self.p2_text, p2),
            conclusion=Statement(self.c_text, c),
        )

    def to_json(self) -> str:
        data: dict = {field_: getattr(self, field_) for field_ in REQUIRED_FIELDS}
        if self.gold_type is not None:
            data["gold_type"] = self.gold_type.value
        if self.predicted_type is not None:
            data["predicted_type"] = self.predicted_type.value
        if self.evidence is not None:
            data["evidence"] = self.evidence
        return json.dumps(data, sort_keys=True)


def record_from_json(line: str) -> CorpusRecord:
    data = json.loads(line)
    if not isinstance(data, dict):
        raise ValueError("record is not an object")
    missing = [
        f
        for f in REQUIRED_FIELDS
        if not isinstance(data.get(f), str) or not data[f].strip()
    ]
    if missing:
        raise ValueError(f"missing or empty fields: {', '.join(missing)}")
    # A missing, null or empty type means untyped.
    types = {}
    for f in ("gold_type", "predicted_type"):
        name = data.get(f)
        if name is not None and not isinstance(name, str):
            raise ValueError(f"{f} is neither a string nor null: {json.dumps(name)}")
        types[f] = lookup_type(name) if name else None
    record = CorpusRecord(
        **{f: data[f] for f in REQUIRED_FIELDS}, **types, evidence=data.get("evidence")
    )
    # Parse the graphs eagerly so bad AMR is caught at load time.
    record.graphs
    return record


def load_corpus(
    path: str, *, strict: bool = False
) -> tuple[list[CorpusRecord], list[RecordError]]:
    """Read a record file. Strict mode raises the first
    :class:`RecordError`; lenient mode skips bad lines and reports them.
    A line that is not UTF-8 is a bad line like any other; a leading
    byte-order mark is no text."""
    records: list[CorpusRecord] = []
    errors: list[RecordError] = []
    seen_ids: set[str] = set()
    # Undecodable bytes are read as surrogate escapes, so they split into
    # lines as any text does; decoding a line's bytes again, strictly,
    # raises on the first of them.
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                line.encode("utf-8", "surrogateescape").decode("utf-8")
                record = record_from_json(line)
                if record.id in seen_ids:
                    raise ValueError(f"duplicate id {record.id!r}")
                seen_ids.add(record.id)
            except Exception as exc:
                error = RecordError(line_no, exc)
                if strict:
                    raise error from exc
                errors.append(error)
                continue
            records.append(record)
    return records, errors


def sample_corpus_path() -> str:
    """Path of the bundled sample corpus (one gold-labelled triple per
    observed inference type)."""
    from importlib import resources

    return str(resources.files("amrinfer.data") / "sample_corpus.jsonl")


# ---------------------------------------------------------------------------
# Annotation
# ---------------------------------------------------------------------------


@dataclass
class AnnotationReport:
    counts: dict[InferenceType, int] = field(default_factory=dict)
    total: int = 0
    gold_total: int = 0
    gold_mismatches: list[str] = field(default_factory=list)
    approximate_deltas: int = 0
    errors: list[tuple[str, str]] = field(default_factory=list)

    def add(self, record: CorpusRecord) -> None:
        """Count one typed record: its predicted type, an ``approximate``
        flag in its evidence, and its agreement with a gold type. The
        classifier decides every step exactly, so that flag comes only
        from files annotated by earlier versions, which read the
        insertion head off a difference alignment that could fall back
        to a greedy one."""
        t = record.predicted_type
        self.counts[t] = self.counts.get(t, 0) + 1
        self.total += 1
        if isinstance(record.evidence, dict) and record.evidence.get("approximate"):
            self.approximate_deltas += 1
        if record.gold_type is not None:
            self.gold_total += 1
            if record.gold_type is not t:
                self.gold_mismatches.append(record.id)

    def fraction(self, t: InferenceType) -> float:
        if self.total == 0:
            return 0.0
        return self.counts.get(t, 0) / self.total


def evidence_payload(result: ClassificationResult) -> dict:
    """The evidence fields of a result, as annotated records and
    ``amrinfer classify --format json`` carry them."""
    payload = {
        "rule": result.evidence.rule,
        "pivot": result.pivot,
        "frame_insertion": result.frame_insertion,
    }
    if result.approximate:
        payload["approximate"] = True
    return payload


def _annotate(record: CorpusRecord, report: AnnotationReport) -> CorpusRecord:
    """``record`` with its predicted type and evidence, counted in
    ``report``; unchanged, with its error in ``report``, when its triple
    raises an :class:`AmrError`."""
    try:
        result = classify(record.triple())
    except AmrError as exc:
        report.errors.append((record.id, str(exc)))
        return record
    record = replace(
        record, predicted_type=result.type, evidence=evidence_payload(result)
    )
    report.add(record)
    return record


def annotate_corpus(
    records: list[CorpusRecord],
) -> tuple[list[CorpusRecord], AnnotationReport]:
    """Classify every record, in input order. A record whose triple raises
    an :class:`AmrError` is kept as it was and its error lands in the
    report; it never aborts the batch."""
    report = AnnotationReport()
    return [_annotate(record, report) for record in records], report


def tally_corpus(records: list[CorpusRecord]) -> AnnotationReport:
    """The report of records as they stand: a record that carries a
    predicted type is counted as stored, and only the others are
    classified. On a file written by ``annotate`` it equals the report
    :func:`annotate_corpus` gave."""
    report = AnnotationReport()
    for record in records:
        if record.predicted_type is None:
            _annotate(record, report)
        else:
            report.add(record)
    return report


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

STATS_DRIFT_THRESHOLD = 0.05


def stats_rows(report: AnnotationReport) -> list[dict]:
    rows = []
    for t in TABLE_ORDER:
        count = report.counts.get(t, 0)
        fraction = report.fraction(t)
        expected = t.expected_proportion
        delta = None if expected is None else fraction - expected
        rows.append(
            {
                "type": t.value,
                "count": count,
                "fraction": fraction,
                "expected": expected,
                "delta": delta,
                "drift": delta is not None and abs(delta) > STATS_DRIFT_THRESHOLD,
            }
        )
    return rows


def compute_stats(report: AnnotationReport) -> str:
    """Aligned text table of per-type counts against the expected corpus
    distribution. Drift beyond 5 points is flagged, informationally."""
    header = f"{'type':<14}{'count':>7}{'fraction':>10}{'expected':>10}{'delta':>8}  flag"
    lines = [header, "-" * len(header)]
    for row in stats_rows(report):
        expected = "-" if row["expected"] is None else f"{row['expected']:.3f}"
        delta = "-" if row["delta"] is None else f"{row['delta']:+.3f}"
        flag = "drift" if row["drift"] else ""
        lines.append(
            f"{row['type']:<14}{row['count']:>7}{row['fraction']:>10.3f}"
            f"{expected:>10}{delta:>8}  {flag}"
        )
    lines.append(f"total: {report.total}")
    if report.gold_total:
        lines.append(
            f"gold matches: {report.gold_total - len(report.gold_mismatches)}"
            f"/{report.gold_total}"
        )
    if report.approximate_deltas:
        lines.append(f"approximate deltas: {report.approximate_deltas}")
    if report.errors:
        lines.append(f"errors: {len(report.errors)}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Prompt emission
# ---------------------------------------------------------------------------

SEPARATOR = "</s>"
TYPE_PHRASE = "the inference type is "


class InjectionMode(Enum):
    """Where the inference-type phrase lands in an emitted prompt pair:
    encoder prefix, decoder prefix, decoder end, or nowhere."""

    EP = "ep"
    DP = "dp"
    DE = "de"
    NONE = "none"


@dataclass(frozen=True)
class PromptRecord:
    input: str
    target: str
    mode: InjectionMode


def _record_type(record: CorpusRecord) -> InferenceType:
    t = record.predicted_type or record.gold_type
    if t is None:
        raise MissingTypeError(
            f"record {record.id!r} carries no predicted or gold type"
        )
    return t


def emit_prompts(
    records: list[CorpusRecord], mode: InjectionMode
) -> list[PromptRecord]:
    """Render one prompt pair per record, texts used verbatim, order
    preserved."""
    out = []
    for record in records:
        source = f"{record.p1_text} {SEPARATOR} {record.p2_text}"
        target = record.c_text
        if mode is not InjectionMode.NONE:
            phrase = TYPE_PHRASE + _record_type(record).display_name
            if mode is InjectionMode.EP:
                source = f"{phrase} {SEPARATOR} {source}"
            elif mode is InjectionMode.DP:
                target = f"{SEPARATOR} {phrase}. {target}"
            else:
                target = f"{SEPARATOR} {target}. {phrase}"
        out.append(PromptRecord(source, target, mode))
    return out


def save_records(records: list[CorpusRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(record.to_json() + "\n")


def save_prompts(prompts: list[PromptRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for prompt in prompts:
            handle.write(
                json.dumps(
                    {"input": prompt.input, "target": prompt.target,
                     "mode": prompt.mode.value},
                    sort_keys=True,
                )
                + "\n"
            )
