"""The package's public names load on first access, and each command
loads only the modules it runs.

Every case runs in a fresh interpreter, since what a process has already
imported decides what a later import binds."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Every public name of the package, by the submodule it is looked up on.
EXPORTS = {
    "classify": [
        "ClassificationResult", "EntailmentTriple", "Evidence", "Statement", "classify",
        "is_verb",
    ],
    "errors": [
        "AmrError", "DanglingReferenceError", "DuplicateRoleError", "GraphInvariantError",
        "InvalidSiteError", "MalformedTripleError", "MissingTypeError", "NoBridgeError",
        "NoConditionalError", "NotSingleDifferenceError", "PenmanSyntaxError", "RecordError",
        "TransformError", "UnknownTypeError", "UnsupportedTypeError",
    ],
    "graph": [
        "AmrGraph", "Concept", "Constant", "Edge", "GraphDelta", "apply_delta", "conjoin_graphs",
        "exact_isomorphic", "graph_difference", "insert_argument", "is_argument_role",
        "relabel_node", "relaxed_isomorphic", "relaxed_subset", "substitute_subgraph",
    ],
    "penman": ["iter_penman", "parse_penman", "read_penman_file", "serialize_penman"],
    "pipeline": [
        "AnnotationReport", "CorpusRecord", "InjectionMode", "PromptRecord", "annotate_corpus",
        "compute_stats", "emit_prompts", "load_corpus", "sample_corpus_path",
    ],
    "taxonomy": ["TABLE_ORDER", "InferenceType", "lookup_type"],
    "transform": ["TRANSFORMABLE_TYPES", "TransformRequest", "bridge_candidates", "transform"],
}

GRAPHS = {
    "p1": "(c / contain-01 :ARG0 (f / food) :ARG1 (n / nutrient))",
    "p2": "(n / nutrient :domain (p / protein))",
    "c": "(c / contain-01 :ARG0 (f / food) :ARG1 (p / protein))",
}


@pytest.fixture()
def files(tmp_path) -> dict[str, str]:
    paths = {}
    for name, amr in GRAPHS.items():
        path = tmp_path / f"{name}.amr"
        path.write_text(amr + "\n", encoding="utf-8")
        paths[name] = str(path)
    return paths


def classify_argv(files) -> list[str]:
    return ["classify", "--p1", files["p1"], "--p2", files["p2"], "--c", files["c"], "--format", "json"]


def transform_argv(files) -> list[str]:
    return ["transform", "--p1", files["p1"], "--p2", files["p2"], "--type", "ARG-SUB"]


def run_fresh(code: str, *flags: str):
    """Run ``code`` in a fresh interpreter against the source tree and
    return the JSON it prints on its last line."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


CHECK_EXPORTS = """
import importlib, json, types
import amrinfer

exports = {exports!r}
seen = {{name: getattr(amrinfer, name) for names in exports.values() for name in names}}
wrong = [
    name
    for module, names in exports.items()
    for name in names
    if seen[name] is not getattr(importlib.import_module("amrinfer." + module), name)
]
star = {{}}
exec("from amrinfer import *", star)
print(json.dumps({{
    "wrong": wrong,
    "not_functions": [
        name for name in ("classify", "transform")
        if not isinstance(getattr(amrinfer, name), types.FunctionType)
    ],
    "star_missing": [name for name in seen if star.get(name) is not seen[name]],
}}))
"""


def order_first(case: str, files) -> str:
    if case == "package":
        return "import amrinfer"
    if case == "submodules":
        return "import amrinfer.pipeline\nimport amrinfer.transform"
    return (
        "import contextlib, io\n"
        "from amrinfer.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({classify_argv(files)!r}) == 0\n"
        f"    assert main({transform_argv(files)!r}) == 0"
    )


@pytest.mark.parametrize("case", ["package", "submodules", "commands"])
def test_public_names_survive_every_import_order(case, files):
    code = order_first(case, files) + CHECK_EXPORTS.format(exports=EXPORTS)
    result = run_fresh(code)
    assert result == {"wrong": [], "not_functions": [], "star_missing": []}


def test_all_and_dir_list_every_export():
    import amrinfer

    names = [name for names in EXPORTS.values() for name in names]
    assert sorted(amrinfer.__all__) == sorted(names)
    assert set(names) <= set(dir(amrinfer))


LOADED_AFTER = """
import contextlib, io, sys
from amrinfer.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main({argv!r}) == 0
loaded = sorted(sys.modules)
import json
print(json.dumps(loaded))
"""


@pytest.mark.parametrize(
    "command, unloaded",
    [
        (
            "parse",
            {"amrinfer.classify", "amrinfer.pipeline", "amrinfer.transform", "amrinfer.taxonomy",
             "amrinfer.graph", "dataclasses", "json", "importlib.resources"},
        ),
        ("transform", {"amrinfer.classify", "amrinfer.pipeline", "dataclasses"}),
    ],
)
def test_a_cold_start_loads_only_what_its_command_runs(command, unloaded, files):
    argv = ["parse", files["p1"]] if command == "parse" else transform_argv(files)
    # -S: no ``site`` module, whose start-up imports could load these first.
    loaded = run_fresh(LOADED_AFTER.format(argv=argv), "-S")
    assert not unloaded & set(loaded)
    assert "amrinfer.penman" in loaded
