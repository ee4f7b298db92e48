"""Per-layer tracing from outside the program.

:class:`Tracer` replaces each traced function with a wrapper wherever the
package bound it (every ``amrinfer`` module attribute holding the
function, or the class attribute for methods), so calls made through any
import path are seen. Each wrapper records one span per call and
aggregates, per span name, the call count and the self time: the span's
duration minus the time its child spans cover. Spans are kept per thread,
so the annotation worker threads nest correctly; a worker's spans are not
children of the span that submitted its work.
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name). A dotted attribute is a method.
TARGETS = (
    ("amrinfer.cli", "main", "cli.main"),
    ("amrinfer.pipeline", "load_corpus", "pipeline.load_corpus"),
    ("amrinfer.pipeline", "record_from_json", "pipeline.record_from_json"),
    ("amrinfer.pipeline", "CorpusRecord.triple", "pipeline.triple"),
    ("amrinfer.pipeline", "annotate_corpus", "pipeline.annotate_corpus"),
    ("amrinfer.pipeline", "save_records", "pipeline.save_records"),
    ("amrinfer.pipeline", "emit_prompts", "pipeline.emit_prompts"),
    ("amrinfer.pipeline", "save_prompts", "pipeline.save_prompts"),
    ("amrinfer.penman", "parse_penman", "penman.parse_penman"),
    ("amrinfer.penman", "serialize_penman", "penman.serialize_penman"),
    ("amrinfer.graph", "AmrGraph.validate", "graph.validate"),
    ("amrinfer.graph", "AmrGraph.closure", "graph.closure"),
    ("amrinfer.graph", "AmrGraph.outgoing", "graph.outgoing"),
    ("amrinfer.graph", "AmrGraph.subgraph_at", "graph.subgraph_at"),
    ("amrinfer.graph", "relaxed_subset", "graph.relaxed_subset"),
    ("amrinfer.graph", "relaxed_isomorphic", "graph.relaxed_isomorphic"),
    ("amrinfer.graph", "graph_difference", "graph.graph_difference"),
    ("amrinfer.graph", "substitute_subgraph", "graph.edits"),
    ("amrinfer.graph", "insert_argument", "graph.edits"),
    ("amrinfer.graph", "conjoin_graphs", "graph.edits"),
    ("amrinfer.graph", "relabel_node", "graph.edits"),
    ("amrinfer.classify", "classify", "classify.classify"),
    ("amrinfer.transform", "transform", "transform"),
)


def transform_span(type_value: str) -> str:
    """Span name of a transform call; metric names admit no ``/``."""
    return "transform." + type_value.replace("/", "-")


class _ThreadState:
    def __init__(self) -> None:
        self.stack: list[float] = []  # child time of each open span
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0])  # calls, self_s
        self.counts: dict[str, int] = defaultdict(int)


class Tracer:
    """Install with :meth:`install`, run the traced work, then
    :meth:`uninstall` and read :meth:`totals`."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def _wrap(self, fn, span: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            name = transform_span(args[0].type.value) if span == "transform" else span
            state.stack.append(0.0)
            start = perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                elapsed = perf_counter() - start
                child = state.stack.pop()
                if state.stack:
                    state.stack[-1] += elapsed
                record = state.spans[name]
                record[0] += 1
                record[1] += elapsed - child
                if not ok:
                    state.counts[name + ".failed"] += 1
            if span == "classify.classify":
                state.counts["classify.rule." + result.evidence.rule] += 1
            elif span == "graph.graph_difference" and result.approximate:
                state.counts["graph.graph_difference.approximate"] += 1
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "amrinfer" or n.startswith("amrinfer.")]
        for module_name, attr, span in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = vars(owner)[attr]
                self._restore.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, span))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, span)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, name, original))
                        setattr(module, name, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def totals(self) -> tuple[dict[str, list], dict[str, int]]:
        """Per-span ``[calls, self_s]`` and event counts over all threads."""
        spans: dict[str, list] = defaultdict(lambda: [0, 0.0])
        counts: dict[str, int] = defaultdict(int)
        with self._lock:
            for state in self._states:
                for name, (calls, self_s) in state.spans.items():
                    spans[name][0] += calls
                    spans[name][1] += self_s
                for name, n in state.counts.items():
                    counts[name] += n
        return spans, counts
