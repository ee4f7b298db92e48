"""Grounding explanatory entailment steps in AMR graph algebra.

The package parses Penman-notation semantic graphs, implements the
relaxed graph algebra (containment, equivalence, difference, substitution,
insertion, conjunction), classifies premise/premise/conclusion triples
into a closed taxonomy of symbolic inference types, derives conclusion
graphs forward from premises, and runs a corpus pipeline that annotates
record files and emits inference-type-conditioned prompt pairs.

Importing the package loads none of its submodules. Each public name
below is imported from its submodule on first access (PEP 562), so a
program that only parses Penman never loads the classifier, the
transforms or the pipeline. The graph value lives in ``amrinfer.amr``,
apart from the matcher in ``amrinfer.graph``, so a parse loads neither
the matcher nor ``dataclasses``.

``amrinfer.classify`` and ``amrinfer.transform`` are the functions, not
the submodules that define them. Patch a name inside either submodule
with ``mock.patch("amrinfer.classify._name")``, which imports the
submodule, or through ``sys.modules["amrinfer.classify"]``; pytest's
``monkeypatch.setattr`` with that dotted string reaches the function by
attribute and raises ``AttributeError``.
"""

import sys
import types
from importlib import import_module

_SUBMODULE_EXPORTS = {
    "classify": (
        "ClassificationResult", "EntailmentTriple", "Evidence", "Statement", "classify", "is_verb",
    ),
    "errors": (
        "AmrError", "DanglingReferenceError", "DuplicateRoleError", "GraphInvariantError",
        "InvalidSiteError", "MalformedTripleError", "MissingTypeError", "NoBridgeError",
        "NoConditionalError", "NotSingleDifferenceError", "PenmanSyntaxError", "RecordError",
        "TransformError", "UnknownTypeError", "UnsupportedTypeError",
    ),
    "amr": ("AmrGraph", "Concept", "Constant", "Edge", "is_argument_role"),
    "graph": (
        "GraphDelta", "apply_delta", "conjoin_graphs", "exact_isomorphic", "graph_difference",
        "insert_argument", "relabel_node", "relaxed_isomorphic", "relaxed_subset",
        "substitute_subgraph",
    ),
    "penman": ("iter_penman", "parse_penman", "read_penman_file", "serialize_penman"),
    "pipeline": (
        "AnnotationReport", "CorpusRecord", "InjectionMode", "PromptRecord", "annotate_corpus",
        "compute_stats", "emit_prompts", "load_corpus", "sample_corpus_path",
    ),
    "taxonomy": ("TABLE_ORDER", "InferenceType", "lookup_type"),
    "transform": ("TRANSFORMABLE_TYPES", "TransformRequest", "bridge_candidates", "transform"),
}

# Public name -> the submodule that defines it.
_EXPORTS = {name: module for module, names in _SUBMODULE_EXPORTS.items() for name in names}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})


class _Package(types.ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # Importing a submodule binds it on its package. ``classify`` and
        # ``transform`` name both a submodule and the function it exports:
        # the function keeps the name, whichever is imported first.
        if not (name in _EXPORTS and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
