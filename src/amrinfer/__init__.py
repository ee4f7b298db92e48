"""Grounding explanatory entailment steps in AMR graph algebra.

The package parses Penman-notation semantic graphs, implements the
relaxed graph algebra (containment, equivalence, difference, substitution,
insertion, conjunction), classifies premise/premise/conclusion triples
into a closed taxonomy of symbolic inference types, derives conclusion
graphs forward from premises, and runs a corpus pipeline that annotates
record files and emits inference-type-conditioned prompt pairs.
"""

from .classify import (
    ClassificationResult,
    EntailmentTriple,
    Evidence,
    Statement,
    classify,
    is_verb,
    lexical_signal,
    most_similar_premise,
    single_token_diff,
)
from .errors import (
    AmrError,
    DanglingReferenceError,
    DuplicateRoleError,
    GraphInvariantError,
    InvalidSiteError,
    MalformedTripleError,
    MissingTypeError,
    NoBridgeError,
    NoConditionalError,
    NotSingleDifferenceError,
    PenmanSyntaxError,
    RecordError,
    TransformError,
    UnknownTypeError,
    UnsupportedTypeError,
)
from .graph import (
    AmrGraph,
    Concept,
    Constant,
    Edge,
    GraphDelta,
    apply_delta,
    conjoin_graphs,
    exact_isomorphic,
    graph_difference,
    insert_argument,
    is_argument_role,
    relabel_node,
    relaxed_isomorphic,
    relaxed_subset,
    substitute_subgraph,
)
from .penman import (
    iter_penman,
    parse_penman,
    read_penman_file,
    serialize_penman,
)
from .pipeline import (
    AnnotationReport,
    CorpusRecord,
    InjectionMode,
    PromptRecord,
    annotate_corpus,
    compute_stats,
    emit_prompts,
    load_corpus,
    sample_corpus_path,
)
from .taxonomy import TABLE_ORDER, TRANSFORMABLE_TYPES, InferenceType, lookup_type
from .transform import (
    HEURISTIC_TYPES,
    TransformRequest,
    bridge_candidates,
    transform,
)

__version__ = "0.1.0"
