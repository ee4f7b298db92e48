"""Command-line interface.

Subcommands: ``parse``, ``classify``, ``transform``, ``annotate``,
``stats``, ``emit-prompts``. Exit status is 0 on success, 1 on usage
errors and 2 on data errors; diagnostics go to stderr, data to stdout or
the requested output file.

The argument parser is built once per process, on the first call of
:func:`main`, and reused by every later call.

Each command imports, when it runs, only the modules it calls: a fresh
``amrinfer parse`` loads the Penman reader and the graph value
(``amrinfer.amr``) and nothing of the matcher, the classifier, the
transforms or the pipeline.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import AmrError
from .penman import read_penman_file, read_penman_graph, serialize_penman

USAGE_ERROR = 1
DATA_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _cmd_parse(args) -> int:
    graphs = read_penman_file(args.input)
    print("\n\n".join(serialize_penman(g) for g in graphs))
    return 0


def _cmd_classify(args) -> int:
    from .classify import EntailmentTriple, Statement, classify

    triple = EntailmentTriple(
        p1=Statement(args.p1_text, read_penman_graph(args.p1)),
        p2=Statement(args.p2_text, read_penman_graph(args.p2)),
        conclusion=Statement(args.c_text, read_penman_graph(args.c)),
    )
    result = classify(triple)
    if args.format == "json":
        import json

        from .pipeline import evidence_payload

        payload = {
            "type": result.type.value,
            **evidence_payload(result),
            "witnesses": {
                k: list(v) if isinstance(v, tuple) else v
                for k, v in result.evidence.witnesses.items()
            },
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(result.type.value)
        print(
            f"rule={result.evidence.rule} pivot={result.pivot}"
            + (" frame-insertion" if result.frame_insertion else ""),
            file=sys.stderr,
        )
    return 0


def _cmd_transform(args) -> int:
    from .taxonomy import lookup_type
    from .transform import TransformRequest, transform

    site_hint = None
    if args.site:
        parts = args.site.split(",")
        if len(parts) != 2:
            print("--site expects 'p1var,p2var'", file=sys.stderr)
            return USAGE_ERROR
        site_hint = (parts[0].strip(), parts[1].strip())
    request = TransformRequest(
        p1=read_penman_graph(args.p1),
        p2=read_penman_graph(args.p2),
        type=lookup_type(args.type),
        site_hint=site_hint,
    )
    print(serialize_penman(transform(request)))
    return 0


def _cmd_annotate(args) -> int:
    from .pipeline import annotate_corpus, load_corpus, save_records

    if args.jobs < 1:
        raise ValueError("--jobs must be >= 1")
    records, errors = load_corpus(args.input, strict=args.strict)
    for error in errors:
        print(f"skipped {error}", file=sys.stderr)
    annotated, report = annotate_corpus(records)
    save_records(annotated, args.output)
    for record_id, message in report.errors:
        print(f"record {record_id}: {message}", file=sys.stderr)
    print(
        f"annotated {report.total}/{len(records)} records -> {args.output}",
        file=sys.stderr,
    )
    return 0


def _cmd_stats(args) -> int:
    from .pipeline import compute_stats, load_corpus, stats_rows, tally_corpus

    records, errors = load_corpus(args.input)
    for error in errors:
        print(f"skipped {error}", file=sys.stderr)
    report = tally_corpus(records)
    if args.format == "json":
        import json

        print(json.dumps({"rows": stats_rows(report), "total": report.total}))
    else:
        print(compute_stats(report))
    return 0


def _cmd_emit_prompts(args) -> int:
    from .pipeline import InjectionMode, annotate_corpus, emit_prompts, load_corpus, save_prompts

    records, errors = load_corpus(args.input)
    for error in errors:
        print(f"skipped {error}", file=sys.stderr)
    mode = InjectionMode(args.mode)
    untyped = [r for r in records if not (r.predicted_type or r.gold_type)]
    if mode is not InjectionMode.NONE and untyped:
        # Only untyped records are classified, so that no record's type
        # depends on the other records in the file; they come back in order.
        typed = iter(annotate_corpus(untyped)[0])
        records = [
            r if r.predicted_type or r.gold_type else next(typed) for r in records
        ]
    prompts = emit_prompts(records, mode)
    save_prompts(prompts, args.output)
    print(f"emitted {len(prompts)} prompts -> {args.output}", file=sys.stderr)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call: ``parse_args``
    keeps no state between calls, so it is shared, not rebuilt."""
    parser = _Parser(
        prog="amrinfer",
        description="Symbolic inference types over AMR entailment triples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="validate a Penman file, print canonical form")
    p.add_argument("input")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("classify", help="classify a premise/premise/conclusion triple")
    p.add_argument("--p1", required=True, help="Penman file for premise 1")
    p.add_argument("--p2", required=True, help="Penman file for premise 2")
    p.add_argument("--c", required=True, help="Penman file for the conclusion")
    p.add_argument("--p1-text", default="p1")
    p.add_argument("--p2-text", default="p2")
    p.add_argument("--c-text", default="c")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("transform", help="derive a conclusion graph from two premises")
    p.add_argument("--p1", required=True)
    p.add_argument("--p2", required=True)
    p.add_argument("--type", required=True)
    p.add_argument("--site", default=None, help="site hint: 'p1var,p2var'")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("annotate", help="annotate a record file with inference types")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--jobs", type=int, default=1,
                   help="ignored, must be >= 1: annotation runs serially")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=_cmd_annotate)

    p = sub.add_parser("stats", help="distribution table for an annotated file")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("emit-prompts", help="write prompt pairs for a record file")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=("ep", "dp", "de", "none"), required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_emit_prompts)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (AmrError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except ValueError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
