"""amrinfer benchmark: seeded workloads, end-to-end metrics, traced layers.

Run from the repository root:

    python3 bench/run.py --workload corpus --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all           # every workload in turn
    python3 bench/run.py --self-test              # every workload, tiny inputs

bench/README.md describes the workloads, the metrics and how each layer
metric maps onto the end-to-end ones; BENCHMARK.json names the workloads
and the metrics with their units.

Each workload runs as a closed loop in one process: one client, each call
starting after the previous one finished, at most two worker threads
(``annotate --jobs 2``). A separate process generates the inputs first, so
the workload process holds only the loaded inputs and the program's work.
The program is driven only through its public surface:
``amrinfer.cli.main`` for ``annotate``, ``stats``, ``emit-prompts`` and
``parse``, and the library's ``classify`` and ``transform``. Every output
is checked; an operation fails when it raises, when ``annotate`` reports a
record error, when the ``--jobs 1`` and ``--jobs 2`` files differ, when a
prompt file's length differs from the record count, when an emitted graph
does not re-parse to the same bytes, or when a round's outputs differ from
the first round's. A workload that outlives its wall-clock limit is killed
and fails.

The report goes to stdout; its last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones of a traced run, plus the tracing overhead against the same
work untraced. The exit status is 0 only when every check passed, and 2
when the checkout lacks the sources.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import calibrate

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC_PATH = ROOT / "BENCHMARK.json"

DEFAULT_SEED = 1
RULES = (
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
)
TRANSFORM_TYPES = (
    "ARG-SUB",
    "PRED-SUB",
    "FRAME-SUB",
    "COND-FRAME",
    "ARG-INS",
    "FRAME-CONJ",
    "ARG-PRED-GEN",
    "ARG-SUB-PROP",
    "IFT",
)
# Spans reported with their call count and self time, and spans reported
# with their self time only.
CALLS_AND_SELF = (
    "penman.parse_penman",
    "graph.validate",
    "graph.closure",
    "graph.outgoing",
    "graph.subgraph_at",
    "graph.relaxed_subset",
    "graph.relaxed_isomorphic",
    "graph.graph_difference",
    "classify.classify",
) + tuple(f"transform.{t}" for t in TRANSFORM_TYPES)
SELF_ONLY = (
    "cli.main",
    "pipeline.load_corpus",
    "pipeline.triple",
    "pipeline.annotate_corpus",
    "pipeline.save_records",
    "pipeline.emit_prompts",
    "pipeline.save_prompts",
    "penman.serialize_penman",
    "graph.edits",
)

MODES = ("ep", "dp", "de", "none")
# The first round warms up (imports, caches) and is checked in full but
# not timed; at least two more follow.
MIN_ROUNDS = 3
# A cold start opens every second round; set-up time is the median of the
# run's cold starts. Each takes a tenth to a fifth of a round.
COLD_START_EVERY = 2
# Files the record and Penman inputs are cut into (see Harness).
CHUNKS = 8
PHASES = ("annotate", "annotate_jobs2", "stats", "emit", "derive", "classify", "parse")
# The phases of a timed round. The pool's calls run twice: they are timed
# by the wall clock, which spreads more than CPU time between runs.
ROUND = PHASES + ("annotate_jobs2",)
# Every phase runs on one thread and is timed by CPU time (see
# run_timed), except the pool's, whose point is to use two CPUs at once.
POOLED = {"annotate_jobs2"}

# Input digests at DEFAULT_SEED: a change to the generators or to
# ``transform`` (which builds the conclusions) must not silently change a
# workload.
DIGESTS = {
    "corpus": "14182a6eefa74959367b5421fbc3b64aada9b9a6bbf9e9012123095fddf35d48",
    "large": "d40f808efecac64d0585db464cb4f42b7871b9a73c2078a3f749efea543b68d3",
    "repeat": "fb62fecb0c9b66973c54392aa27f94e87309021f9f9b658a2c6a126ba0838066",
}


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def units(spec: dict, key: str) -> dict[str, str]:
    """Metric name -> unit, for the ``end_to_end`` or ``per_layer`` list."""
    return {m["name"]: m["unit"] for m in spec[key]}


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def children_cpu() -> float:
    """CPU seconds used by this process's reaped children."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def cpu_clock() -> float:
    """CPU seconds used by this process's threads and its reaped children.
    Time the host gives to another tenant, while this process waits for a
    CPU, does not count."""
    return time.process_time() + children_cpu()


def digest(directory: Path) -> str:
    """SHA-256 over the input files in ``directory``, by name."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def numbered(directory: Path, stem: str, suffix: str) -> list[Path]:
    """``<stem>0<suffix>``, ``<stem>1<suffix>``, ... while they exist."""
    paths = []
    while (path := directory / f"{stem}{len(paths)}{suffix}").exists():
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# One workload, in the child process
# ---------------------------------------------------------------------------


ONE_GRAPH = "(c / contain-01 :ARG0 (f / food) :ARG1 (e / energy))"


class Op(NamedTuple):
    """One timed call: what it does and the units it completes."""

    run: Callable[[], None]
    units: int


class Harness:
    """The workload's input files, the operation counters, and the
    operations of each phase.

    The record file and the Penman file come cut into at most CHUNKS
    files each, so every command call is short and a round takes a
    second or two. Outputs go to ``out`` and are kept per operation for
    :meth:`verify`."""

    def __init__(self, inputs: Path, work: Path):
        import amrinfer
        from amrinfer.penman import iter_penman, parse_penman
        from amrinfer.pipeline import load_corpus
        from amrinfer.taxonomy import InferenceType

        self.amrinfer = amrinfer
        # The module, not a reference to its main: the tracer swaps main.
        self.cli_module = importlib.import_module("amrinfer.cli")
        self.inputs = inputs
        self.work = work
        self.out = work / "out"
        self.out.mkdir()
        (work / "one.amr").write_text(ONE_GRAPH + "\n", encoding="utf-8")

        self.record_files = numbered(inputs, "records", ".jsonl")
        self.record_chunks = [load_corpus(str(p), strict=True)[0] for p in self.record_files]
        self.records = [r for chunk in self.record_chunks for r in chunk]
        self.triples = [r.triple() for r in self.records]
        self.graph_files = numbered(inputs, "graphs", ".amr")
        self.canonical = [p.read_text(encoding="utf-8") for p in self.graph_files]
        nodes = [sum(len(g.nodes) for g in iter_penman(text)) for text in self.canonical]
        self.requests = []
        for line in (inputs / "requests.jsonl").read_text(encoding="utf-8").splitlines():
            item = json.loads(line)
            hint = tuple(item["site_hint"]) if item["site_hint"] else None
            self.requests.append(
                amrinfer.TransformRequest(
                    parse_penman(item["p1"]), parse_penman(item["p2"]), InferenceType(item["type"]), hint
                )
            )

        self.attempted = 0
        self.failures: list[str] = []
        self.first: dict | None = None
        self.agreement = 0.0
        self.stats_out: dict[int, str] = {}
        self.parse_out: dict[int, str] = {}
        self.derived: dict[int, object] = {}
        self.classified: dict[int, object] = {}
        chunk_ids = range(len(self.record_chunks))
        self.ops = {
            "annotate": [Op(partial(self.annotate, i, 1), len(self.record_chunks[i])) for i in chunk_ids],
            "annotate_jobs2": [Op(partial(self.annotate, i, 2), len(self.record_chunks[i])) for i in chunk_ids],
            "stats": [Op(partial(self.stats, i), len(self.record_chunks[i])) for i in chunk_ids],
            "emit": [Op(partial(self.emit, i, mode), len(self.record_chunks[i])) for i in chunk_ids for mode in MODES],
            "derive": [Op(partial(self.derive, i), 1) for i in range(len(self.requests))],
            "classify": [Op(partial(self.classify, i), 1) for i in range(len(self.triples))],
            "parse": [Op(partial(self.parse, i), n) for i, n in enumerate(nodes)],
        }

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def cli(self, *argv: str) -> str:
        """``amrinfer.cli.main`` in-process; returns its stdout."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli_module.main(list(argv))
        except Exception as exc:
            self.fail(f"amrinfer {argv[0]} raised {exc!r}")
            return ""
        if code != 0:
            self.fail(f"amrinfer {argv[0]} exited {code}: {err.getvalue()[-500:]}")
        return out.getvalue()

    def output(self, name: str) -> str:
        return str(self.out / name)

    # -- operations -----------------------------------------------------------

    def cold_start(self) -> float:
        """CPU time of a fresh interpreter running ``amrinfer parse`` on a
        one-graph file, as the installed console script would."""
        self.attempted += 1
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        code = "import sys; from amrinfer.cli import main; sys.exit(main(sys.argv[1:]))"
        start = children_cpu()
        proc = subprocess.run(
            [sys.executable, "-c", code, "parse", "one.amr"], env=env, cwd=self.work, capture_output=True, text=True
        )
        elapsed = children_cpu() - start
        if proc.returncode != 0 or proc.stdout.strip() != ONE_GRAPH:
            self.fail(f"cold start of amrinfer parse exited {proc.returncode}: {proc.stderr[-500:]}")
        return elapsed

    def annotate(self, i: int, jobs: int) -> None:
        self.cli("annotate", "--input", str(self.record_files[i]),
                 "--output", self.output(f"annotated{i}_j{jobs}.jsonl"), "--jobs", str(jobs))

    def stats(self, i: int) -> None:
        self.stats_out[i] = self.cli("stats", "--input", self.output(f"annotated{i}_j1.jsonl"), "--format", "json")

    def emit(self, i: int, mode: str) -> None:
        self.cli("emit-prompts", "--input", self.output(f"annotated{i}_j1.jsonl"), "--mode", mode,
                 "--output", self.output(f"prompts{i}_{mode}.jsonl"))

    def derive(self, i: int) -> None:
        req = self.requests[i]
        self.attempted += 1
        try:
            self.derived[i] = self.amrinfer.transform(req)
        except Exception as exc:
            self.fail(f"transform {req.type.value} raised {exc!r}")

    def classify(self, i: int) -> None:
        self.attempted += 1
        try:
            self.classified[i] = self.amrinfer.classify(self.triples[i])
        except Exception as exc:
            self.fail(f"classify raised {exc!r}")

    def parse(self, i: int) -> None:
        self.parse_out[i] = self.cli("parse", str(self.graph_files[i]))

    def run_phase(self, phase: str) -> None:
        for op in self.ops[phase]:
            op.run()

    # -- checks -----------------------------------------------------------------

    def clear(self) -> None:
        """Remove the outputs of the previous round, so that every output
        :meth:`verify` sees was made by the round it checks."""
        for path in self.out.iterdir():
            path.unlink()
        for kept in (self.stats_out, self.parse_out, self.derived, self.classified):
            kept.clear()

    def outputs(self) -> dict:
        """Every output the round's operations left, by name."""
        kept = {path.name: path.read_bytes() for path in self.out.iterdir()}
        for name, values in (("stats", self.stats_out), ("parse", self.parse_out),
                             ("transform", self.derived), ("classify", self.classified)):
            kept.update({f"{name} {i}": value for i, value in values.items()})
        return kept

    def verify(self) -> None:
        """Check the round just run: in full after the first round, and
        every later round's outputs against the first round's."""
        outputs = self.outputs()
        if self.first is None:
            self.first = outputs
            self.agreement = self.check()
            return
        for name in sorted(self.first.keys() | outputs.keys()):
            if self.first.get(name) != outputs.get(name):
                self.fail(f"output {name} differs from the first round's")

    def check(self) -> float:
        """Check every output of the round; returns the gold agreement of
        the ``--jobs 1`` annotation."""
        from amrinfer.penman import iter_penman, parse_penman, serialize_penman

        rows = []
        for i, records in enumerate(self.record_chunks):
            n = len(records)
            j1, j2 = self.out / f"annotated{i}_j1.jsonl", self.out / f"annotated{i}_j2.jsonl"
            annotated = j1.read_text(encoding="utf-8") if j1.exists() else ""
            if not j2.exists() or annotated != j2.read_text(encoding="utf-8"):
                self.fail(f"annotate --jobs 1 and --jobs 2 outputs differ on chunk {i}")
            chunk_rows = [json.loads(line) for line in annotated.splitlines()]
            if [r["id"] for r in chunk_rows] != [r.id for r in records]:
                self.fail(f"annotated records differ from the input records of chunk {i}")
            counts: dict[str, int] = {}
            for row in chunk_rows:
                predicted = row.get("predicted_type")
                if predicted is None:
                    self.fail(f"annotate reported an error for record {row['id']}")
                else:
                    counts[predicted] = counts.get(predicted, 0) + 1
            rows += chunk_rows
            try:
                stats = json.loads(self.stats_out[i])
                stats_counts = {row["type"]: row["count"] for row in stats["rows"] if row["count"]}
                if stats["total"] != n or stats_counts != counts:
                    self.fail(f"stats counts {stats_counts} differ from the annotated file {counts}")
            except (ValueError, KeyError, TypeError) as exc:
                self.fail(f"stats output of chunk {i} unreadable: {exc!r}")
            for mode in MODES:
                path = self.out / f"prompts{i}_{mode}.jsonl"
                lines = path.read_text(encoding="utf-8").count("\n") if path.exists() else 0
                if lines != n:
                    self.fail(f"emit-prompts --mode {mode} wrote {lines} prompts for {n} records")
        gold = [(row.get("gold_type"), row.get("predicted_type")) for row in rows if row.get("gold_type")]
        agreement = sum(g == p for g, p in gold) / len(gold) if gold else 1.0

        for i, canonical in enumerate(self.canonical):
            out = self.parse_out.get(i, "")
            if out != canonical:
                self.fail(f"amrinfer parse did not print the canonical form of graph file {i}")
            try:
                if "\n\n".join(serialize_penman(g) for g in iter_penman(out)) + "\n" != out:
                    self.fail(f"amrinfer parse output of graph file {i} does not re-serialize to the same bytes")
            except Exception as exc:
                self.fail(f"amrinfer parse output of graph file {i} does not parse back: {exc!r}")

        for i, graph in self.derived.items():
            kind = self.requests[i].type.value
            text = serialize_penman(graph)
            try:
                if serialize_penman(parse_penman(text)) != text:
                    self.fail(f"transform {kind} output does not round-trip: {text[:200]}")
            except Exception as exc:
                self.fail(f"transform {kind} output does not parse back: {exc!r}")

        predicted = {row["id"]: row.get("predicted_type") for row in rows}
        for i, result in self.classified.items():
            record = self.records[i]
            if predicted.get(record.id) != result.type.value:
                self.fail(f"classify and annotate disagree on record {record.id}")
        return agreement


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    rank as a percentage."""
    ordered = sorted(values)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


RATE_METRICS = {
    "annotate": "annotate_rps",
    "annotate_jobs2": "annotate_jobs2_rps",
    "stats": "stats_rps",
    "emit": "emit_rps",
    "derive": "derive_rps",
    "parse": "parse_nodes_per_s",
}


def run_timed(harness: Harness, seconds: float, report) -> dict:
    """Rounds until ``seconds`` have passed (at least MIN_ROUNDS). A round
    is every operation of every phase once, in turn, and those of
    ``annotate --jobs 2`` once more (see ROUND); every
    COLD_START_EVERY-th round starts with a cold start.

    On a shared host other tenants slow the CPUs by up to half, for
    seconds to minutes at a time. Two measures keep that out of the
    figures. Operations on one thread are timed by CPU time, which does
    not count the time the host gives to others; the pool's calls need
    the wall clock. And every time is divided by the median time of the
    matching reference in the same round (see calibrate.py: CPU time of
    the reference, measured between phases, or wall time of the pool
    reference, measured before every second pool call) and multiplied by
    that reference's nominal time: a time in seconds at the reference
    speed. Each operation counts with the median of its normalised times
    over the timed rounds; a rate is the units of all of a phase's
    operations over the sum of those medians.

    Set-up time is the median CPU time of the cold starts, not normalised:
    the fresh interpreter may run on the other CPU."""
    samples = {phase: [[] for _ in ops] for phase, ops in harness.ops.items()}
    setup: list[float] = []
    references: list[tuple[float, float]] = []
    rounds = 0
    deadline = time.perf_counter() + seconds
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        cold = harness.cold_start() if rounds % COLD_START_EVERY == 0 else None
        harness.clear()
        refs, pool_refs = [calibrate.measure()], []
        times = {phase: [[] for _ in ops] for phase, ops in harness.ops.items()}
        for phase in ROUND:
            pooled = phase in POOLED
            clock = time.perf_counter if pooled else cpu_clock
            for i, op in enumerate(harness.ops[phase]):
                if pooled and i % 2 == 0:
                    pool_refs.append(calibrate.measure_pool())
                start = clock()
                op.run()
                times[phase][i].append(clock() - start)
            refs.append(calibrate.measure())
        harness.verify()
        rounds += 1
        if rounds == 1:
            continue
        ref, pool_ref = statistics.median(refs), statistics.median(pool_refs)
        references.append((ref, pool_ref))
        if cold is not None:
            setup.append(cold)
        for phase, per_op in times.items():
            scale = calibrate.POOL_REFERENCE_S / pool_ref if phase in POOLED else calibrate.REFERENCE_S / ref
            for kept, measured in zip(samples[phase], per_op):
                kept += [t * scale for t in measured]

    timed = rounds - 1
    ref, pool_ref = (statistics.median(column) for column in zip(*references))
    report("reference", ref, f"median CPU time of the reference; times are scaled to {calibrate.REFERENCE_S} s", "s")
    report("pool reference", pool_ref, f"median wall time of the pool reference; scaled to {calibrate.POOL_REFERENCE_S} s", "s")
    estimate = {phase: [statistics.median(kept) for kept in per_op] for phase, per_op in samples.items()}
    metrics = {"setup_s": statistics.median(setup)}
    report("setup_s", metrics["setup_s"], f"median of {len(setup)} cold starts of amrinfer parse, CPU time")
    for phase, name in RATE_METRICS.items():
        ops = harness.ops[phase]
        metrics[name] = sum(op.units for op in ops) / sum(estimate[phase])
        clock = "wall" if phase in POOLED else "CPU"
        report(name, metrics[name], f"{len(ops)} operations, each the median of {timed * ROUND.count(phase)} calls, {clock} time")
    per_triple = [t * 1e6 for t in estimate["classify"]]
    metrics["classify_p50_us"] = statistics.median(per_triple)
    metrics["classify_tail_us"], rank = tail(per_triple)
    detail = f"of {len(per_triple)} triples, each the median of {timed} calls, CPU time"
    report("classify_p50_us", metrics["classify_p50_us"], "median " + detail)
    report("classify_tail_us", metrics["classify_tail_us"], f"p{rank:.1f} {detail}; 10 triples beyond")
    return metrics


class TracedPass(NamedTuple):
    spans: dict  # span name -> [calls, self_s]
    counts: dict  # event name -> count
    annotate_parses: int  # parse_penman calls during annotate --jobs 1
    annotate_self_s: float  # annotate_corpus self time during annotate --jobs 1
    cpu_per_wall: float  # at --jobs 2, untraced
    untraced_s: float
    traced_s: float

    def exact(self) -> dict:
        return {"parses": self.annotate_parses, **{k: v[0] for k, v in self.spans.items()}, **self.counts}


def run_traced(harness: Harness, seconds: float, report) -> dict:
    """Alternate untraced and traced passes (every operation once) for
    ``seconds``. Counts come from the first traced pass and must repeat
    exactly in the others; self times are medians over passes.

    Spans nest per thread. At ``--jobs 2`` the pool threads' ``triple``
    and ``classify`` spans are not children of ``annotate_corpus`` on the
    main thread, so its self time is taken from ``--jobs 1`` alone; the
    pool's cost shows in ``cpu_per_wall`` and ``annotate_jobs2_rps``."""
    from tracing import Tracer

    passes: list[TracedPass] = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        harness.clear()
        start = time.perf_counter()
        harness.run_phase("annotate")
        jobs2_start, jobs2_cpu = time.perf_counter(), time.process_time()
        harness.run_phase("annotate_jobs2")
        cpu_per_wall = (time.process_time() - jobs2_cpu) / (time.perf_counter() - jobs2_start)
        for phase in PHASES[2:]:
            harness.run_phase(phase)
        untraced = time.perf_counter() - start
        harness.verify()

        harness.clear()
        tracer = Tracer()
        tracer.install()
        try:
            start = time.perf_counter()
            harness.run_phase("annotate")
            after_annotate = tracer.totals()[0]
            for phase in PHASES[1:]:
                harness.run_phase(phase)
            traced = time.perf_counter() - start
        finally:
            tracer.uninstall()
        harness.verify()
        passes.append(
            TracedPass(
                *tracer.totals(),
                after_annotate["penman.parse_penman"][0],
                after_annotate["pipeline.annotate_corpus"][1],
                cpu_per_wall,
                untraced,
                traced,
            )
        )

    first = passes[0]
    if any(p.exact() != first.exact() for p in passes[1:]):
        harness.fail("call counts differ between traced passes")
    spans, counts = first.spans, first.counts
    metrics = {}
    for name in SELF_ONLY + CALLS_AND_SELF:
        metrics[f"{name}.self_s"] = statistics.median(p.spans[name][1] for p in passes)
    metrics["pipeline.annotate_corpus.self_s"] = statistics.median(p.annotate_self_s for p in passes)
    for name in CALLS_AND_SELF:
        metrics[f"{name}.calls"] = spans[name][0]
    metrics["pipeline.record_from_json.calls"] = spans["pipeline.record_from_json"][0]
    metrics["pipeline.annotate.cpu_per_wall"] = statistics.median(p.cpu_per_wall for p in passes)
    metrics["penman.parse_penman.calls_per_record"] = first.annotate_parses / len(harness.records)
    diffs = spans["graph.graph_difference"][0]
    approximate = counts["graph.graph_difference.approximate"]
    metrics["graph.graph_difference.approximate_ratio"] = approximate / diffs if diffs else 0.0
    for rule in RULES:
        metrics[f"classify.rule.{rule}.count"] = counts[f"classify.rule.{rule}"]
    metrics["transform.failed"] = sum(n for k, n in counts.items() if k.startswith("transform."))
    # Fastest traced pass over fastest untraced pass.
    metrics["trace.overhead_ratio"] = min(p.traced_s for p in passes) / min(p.untraced_s for p in passes) - 1
    for name, value in metrics.items():
        report(name, value, "")
    report("trace passes", len(passes), "each: every operation once untraced, then once traced")
    return metrics


def generate(args) -> int:
    """Write the workload's inputs to ``args.generate``."""
    sys.path[:0] = [str(SRC), str(ROOT)]
    import workloads

    workloads.write_inputs(workloads.build(args.workload, args.seed, args.tiny), Path(args.generate), CHUNKS)
    return 0


def run_child(args) -> int:
    sys.path[:0] = [str(SRC)]
    spec = load_spec()
    listed = units(spec, "per_layer" if args.trace else "end_to_end")

    def report(name, value, detail, unit=None):
        unit = unit or listed.get(name, "")
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:<48} {shown:>14} {unit:<12} {detail}".rstrip())

    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    try:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--generate", str(inputs),
               "--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
        subprocess.run(cmd, check=True)
        found = digest(inputs)
        print(json.dumps({"workload": args.workload, "seed": args.seed, "tiny": args.tiny, "trace": args.trace,
                          "inputs_sha256": found, "machine": machine()}))
        harness = Harness(inputs, work)
        # Collections the program triggers should not traverse the loaded
        # inputs, which a real command would not hold.
        gc.freeze()
        print(
            f"inputs: {len(harness.records)} records, {len(harness.canonical)} Penman files "
            f"({sum(op.units for op in harness.ops['parse'])} nodes), {len(harness.requests)} transform requests"
        )
        if args.seed == DEFAULT_SEED and not args.tiny and found != DIGESTS[args.workload]:
            harness.fail(f"inputs digest {found} differs from the recorded {DIGESTS[args.workload]}")
        if args.trace:
            metrics = run_traced(harness, args.seconds, report)
        else:
            metrics = run_timed(harness, args.seconds, report)
            metrics["gold_agreement"] = harness.agreement
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            report("peak_rss_mb", metrics["peak_rss_mb"], "peak resident set of this workload process")
            report("gold_agreement", metrics["gold_agreement"], "predicted type equals the generator's type")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    for name in listed.keys() - metrics.keys():
        harness.fail(f"metric {name} listed in BENCHMARK.json was not produced")
    failed = len(harness.failures)
    report("failed_ratio", failed / harness.attempted, f"{failed} failed / {harness.attempted} attempted", "fraction")
    for message in harness.failures[:20]:
        print(f"FAILED: {message}")
    result = {
        "correct": failed == 0,
        "attempted": harness.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in listed.items() if name in metrics},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# Supervisor
# ---------------------------------------------------------------------------


def wall_limit(seconds: int) -> float:
    return min(170.0, 90.0 + 3.0 * seconds)


def supervise(workload: str, args) -> tuple[int, str]:
    """Run one workload in a child process under a wall-clock limit;
    returns its exit status and stdout, which ends in a result line even
    when the child was killed or crashed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    limit = wall_limit(args.seconds)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=limit)
        code, out, why = proc.returncode, proc.stdout, f"exited {proc.returncode}"
    except subprocess.TimeoutExpired as exc:
        out = exc.stdout.decode() if isinstance(exc.stdout, bytes) else (exc.stdout or "")
        code, why = 1, f"exceeded its wall-clock limit of {limit:.0f} s"
    if code == 0:
        return code, out
    lines = [line for line in out.splitlines() if not line.startswith('{"correct"')]
    lines.append(f"FAILED: workload {workload} {why}")
    lines.append(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
    return code or 1, "\n".join(lines) + "\n"


def self_test(spec: dict) -> int:
    """Every workload at tiny size, untraced and traced, with all checks
    on, each producing every metric BENCHMARK.json lists; plus the input
    digests at the default seed."""
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    for name in names:
        with contextlib.ExitStack() as stack:
            inputs = WORK / f"self-test-{name}-{os.getpid()}"
            inputs.mkdir(parents=True)
            stack.callback(shutil.rmtree, inputs, True)
            generate(argparse.Namespace(generate=str(inputs), workload=name, seed=DEFAULT_SEED, tiny=False))
            found = digest(inputs)
        if found != DIGESTS[name]:
            problems.append(f"{name}: inputs digest {found} differs from the recorded {DIGESTS[name]}")
    with contextlib.suppress(OSError):
        WORK.rmdir()
    for name in names:
        for trace in (0, 1):
            sub = argparse.Namespace(seed=DEFAULT_SEED, seconds=1, trace=trace, tiny=True)
            code, out = supervise(name, sub)
            result = json.loads(out.strip().splitlines()[-1])
            listed = units(spec, "per_layer" if trace else "end_to_end")
            ok = (
                code == 0
                and result["correct"] is True
                and result["failed"] == 0
                and result["attempted"] >= 1
                and {k: v.get("unit") for k, v in result["metrics"].items()} == listed
                and all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            )
            print(f"self-test {name} trace={trace}: {'ok' if ok else 'FAILED'}")
            if not ok:
                problems.append(f"{name} trace={trace}:\n{out}")
    for problem in problems:
        print(f"FAILED: {problem}")
    print("self-test passed" if not problems else f"self-test failed: {len(problems)} problem(s)")
    return 0 if not problems else 1


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "amrinfer" / "__init__.py").is_file() or not (ROOT / "tests" / "generators.py").is_file():
        print(f"bench: run from the repository root; {SRC / 'amrinfer'} or tests/generators.py is missing", file=sys.stderr)
        return 2
    spec = load_spec()
    names = tuple(w["name"] for w in spec["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=names + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--generate", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.generate:
        return generate(args)
    if args.child:
        return run_child(args)
    if args.self_test:
        return self_test(spec)
    if args.workload != "all":
        code, out = supervise(args.workload, args)
        sys.stdout.write(out)
        return code
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in names:
        code, out = supervise(name, args)
        lines = out.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
        worst = max(worst, code)
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
