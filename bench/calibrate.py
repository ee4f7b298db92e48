"""A fixed reference workload that gauges how fast the machine runs Python
at the moment.

On a shared host the CPUs slow down by up to half for seconds to minutes
at a time, while other tenants load them. A time measured in such a spell
says as much about the host as about the program. :func:`measure` times a
fixed piece of pure-Python work of the kinds the program does (a
backtracking search over labelled nodes, building and walking linked
objects, printing and tokenizing bracketed text, JSON round trips), by
CPU time; :func:`measure_pool` times it on a pool of two threads by the
wall clock. The benchmark divides each operation's time by the matching
reference time of the same round, so both slow down together and the
ratio stays.

The reference uses nothing from ``amrinfer``, so no change to the program
can change it. Changing this module changes every reported time.
"""

from __future__ import annotations

import gc
import json
import time
from concurrent.futures import ThreadPoolExecutor

# CPU time of one reference call, and wall time of the pool reference, on
# a 2-CPU x86-64 host (Python 3.11), medians over a run. Normalised times
# are expressed in seconds at that speed. The constants only set the
# scale, and must never change.
REFERENCE_S = 0.0045
POOL_REFERENCE_S = 0.010

_LABELS = ("thing", "person", "and")
_GRAPH = {f"z{i}": (_LABELS[i % 3], tuple(f"z{j}" for j in range(i + 1, min(i + 3, 12)))) for i in range(12)}
_TEXT = " ".join(f"(z{i} / {_LABELS[i % 3]} :mod (w{i} / leaf-{i}))" for i in range(60))
_DOC = [{"id": f"r{i}", "p1": _TEXT[:200], "type": _LABELS[i % 3], "n": i} for i in range(40)]


def _match() -> int:
    """Every assignment of six nodes to distinct nodes of the same label."""
    names = sorted(_GRAPH)
    small = names[:6]
    count = 0

    def extend(assigned: dict, used: set) -> None:
        nonlocal count
        if len(assigned) == len(small):
            count += 1
            return
        a = small[len(assigned)]
        for b in names:
            if b not in used and _GRAPH[b][0] == _GRAPH[a][0]:
                assigned[a] = b
                used.add(b)
                extend(assigned, used)
                del assigned[a]
                used.discard(b)

    extend({}, set())
    return count


class _Node:
    __slots__ = ("name", "label", "out")

    def __init__(self, name: str, label: str, out: list[str]):
        self.name, self.label, self.out = name, label, out


def _walk() -> int:
    """Build 200 linked objects, walk them, print them as bracketed text
    and split that into tokens."""
    n = 200
    nodes = {
        f"n{i}": _Node(f"n{i}", _LABELS[i % 3], [f"n{(i * 7 + k) % n}" for k in range(3)]) for i in range(n)
    }
    seen: set[str] = set()
    stack = ["n0"]
    while stack:
        name = stack.pop()
        if name not in seen:
            seen.add(name)
            stack.extend(nodes[name].out)
    text = "\n".join(
        f"({v.name} / {v.label} " + " ".join(f":ARG{k} {o}" for k, o in enumerate(v.out)) + ")" for v in nodes.values()
    )
    return len(seen) + len(text.replace("(", " ( ").replace(")", " ) ").split())


def _tokenize() -> int:
    out = []
    for token in _TEXT.replace("(", " ( ").replace(")", " ) ").split():
        if token == "(":
            out.append({})
        elif token not in (")", "/"):
            out.append(token)
    return len(out)


def _round_trip() -> int:
    return len(json.loads(json.dumps(_DOC)))


def reference() -> int:
    return _match() + _walk() + _tokenize() + _round_trip()


def measure() -> float:
    """CPU time of one reference call. The garbage collector is off
    meanwhile, so that the time does not depend on how many objects the
    program holds."""
    gc.disable()
    try:
        cpu = time.process_time()
        reference()
        return time.process_time() - cpu
    finally:
        gc.enable()


def measure_pool() -> float:
    """Wall time of two reference calls on a pool of two threads, the way
    ``annotate --jobs 2`` runs its records: it depends on the speed of
    both CPUs and on the time the host gives to other tenants, as the
    pool's own calls do."""
    gc.disable()
    try:
        wall = time.perf_counter()
        with ThreadPoolExecutor(max_workers=2) as pool:
            for _ in pool.map(lambda _: reference(), range(2)):
                pass
        return time.perf_counter() - wall
    finally:
        gc.enable()
