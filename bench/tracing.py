"""Spans around the package's public entry points, for the traced run.

Each span records its name, start, end and parent, and a count taken from
its arguments or result.  Spans stay in memory; ``layer_metrics`` folds one
pass's spans into the per-layer metrics.  Class methods are wrapped on their
class.  A module-level function is rebound in every module of the package
that holds it by name (``cli``, ``decomposition`` and ``search`` import
functions by name), and in module-level dictionaries such as
``search._ORACLES``.
"""

from __future__ import annotations

import functools
import sys
import time

PACKAGE = "ramsey_pods"


def _states(args, kwargs, out):
    _, t, _allowed, *rest = args
    vertices = rest[0] if rest else kwargs.get("vertices")
    n = len(vertices) if vertices is not None else t.n_vertices
    return n << n  # the (vertex set, endpoint) states of the subset DP


def _nodes(args, kwargs, out):
    return out.nodes_explored


def _pairs(args, kwargs, out):
    m = len(args[0].vectors)
    if out.pair is None:
        return m * (m - 1) // 2
    a, b = out.pair
    return (a - 1) * m - (a - 1) * a // 2 + (b - a)


# (module, attribute or "Class.method", span name, count taken from the call)
TARGETS = [
    ("paths", "SubsetPathOracle.__init__", "paths.oracle_build", _states),
    ("paths", "SubsetPathOracle.longest", "paths.oracle_query", None),
    ("paths", "SubsetPathOracle.longest_from", "paths.oracle_query", None),
    ("paths", "SubsetPathOracle.longest_to", "paths.oracle_query", None),
    ("paths", "SubsetPathOracle.lengths_from", "paths.oracle_query", None),
    ("paths", "SubsetPathOracle.lengths_to", "paths.oracle_query", None),
    ("paths", "SubsetPathOracle.path_from", "paths.oracle_query", None),
    ("paths", "SubsetPathOracle.path_to", "paths.oracle_query", None),
    ("paths", "SubsetPathOracle.lex_least_longest", "paths.oracle_query", None),
    ("paths", "longest_restricted_monotone", "paths.monotone", None),
    ("paths", "ell_avoid_monotone", "paths.monotone", None),
    ("paths", "validate_path", "paths.validate", None),
    ("tournament", "heuristic_transitive_order", "tournament.order", None),
    ("tournament", "backward_edge_count", "tournament.order", None),
    ("tournament", "cyclic_triangles", "tournament.triangles", None),
    ("tournament", "pattern_buckets", "tournament.triangles", None),
    ("tournament", "clean_degrees", "tournament.clean", None),
    ("tournament", "ColoredTournament.restrict", "tournament.restrict", None),
    ("tournament", "ColoredTournament.from_json", "tournament.parse", None),
    ("tournament", "OrderedColoring.from_json", "tournament.parse", None),
    ("decomposition", "recursive_color_avoiding", "decomposition.node", None),
    ("decomposition", "merged_color_baseline", "decomposition.baseline", None),
    ("decomposition", "three_color_path", "decomposition.pattern", None),
    ("decomposition", "classify_colors", "decomposition.classify", None),
    ("decomposition", "build_gluing", "decomposition.gluing", None),
    ("decomposition", "_level_paths", "decomposition.level", None),
    ("search", "exact_F", "search.F", _nodes),
    ("search", "exact_G", "search.G", _nodes),
    ("search", "exact_f", "search.f", _nodes),
    ("search", "exact_g", "search.g", _nodes),
    ("search", "cache_get", "search.cache_get", None),
    ("search", "cache_put", "search.cache_put", None),
    ("search", "validate_record", "search.validate_record", None),
    ("constructions", "lex_product", "constructions.lex_product", None),
    ("constructions", "canonical_coloring", "constructions.canonical", None),
    ("constructions", "balance_coloring", "constructions.balance", None),
    ("constructions", "product_boost_vectors", "constructions.boost", None),
    ("core", "validate_increasing", "core.validate", _pairs),
    ("core", "validate_comparable", "core.validate", _pairs),
    ("core", "transitive_order", "core.transitive_order", None),
    ("reductions", "coloring_to_vectors", "reductions.translate", None),
    ("reductions", "vectors_to_coloring", "reductions.translate", None),
    ("reductions", "merge_colors", "reductions.merge", None),
    ("pods", "Packing.of", "pods.packing", None),
    ("pods", "packing_density", "pods.density", None),
    ("cli", "main", "cli", None),
]


class Tracer:
    """Installs the span wrappers, and takes them out again."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, count]
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, fn, name, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, 0])
            stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1], spans[idx][2] = start, end
            if count is not None:
                spans[idx][4] = count(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for mod_name, attr, name, count in TARGETS:
            mod = sys.modules[f"{PACKAGE}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name, count))
                else:
                    new = self._wrap(raw, name, count)
                setattr(cls, meth, new)
                self._undo.append((cls, meth, raw))
                continue
            fn = getattr(mod, attr)
            new = self._wrap(fn, name, count)
            for m in modules:
                space = vars(m)
                for key, value in list(space.items()):
                    if value is fn:
                        setattr(m, key, new)
                        self._undo.append((m, key, fn))
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is fn:
                                value[dkey] = new
                                self._undo.append((value, dkey, fn))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    def take(self) -> list[list]:
        """The spans recorded so far, leaving the tracer empty."""
        out = list(self.spans)
        self.spans.clear()
        return out


def span_cost(calls: int = 20_000, rounds: int = 5) -> float:
    """Seconds one span wrapper adds to a call, timed on an empty function.

    The fastest of a few rounds, as a difference between the wrapped and
    the bare call, so that drift between rounds does not count.
    """

    def empty():
        return None

    tracer = Tracer()
    wrapped = tracer._wrap(empty, "calibration", None)
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(calls):
            empty()
        middle = time.perf_counter()
        for _ in range(calls):
            wrapped()
        end = time.perf_counter()
        tracer.spans.clear()
        best = min(best, (end - middle) - (middle - start))
    return max(best, 0.0) / calls


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Calls, busy seconds, self seconds and counts per span name.

    A span nested in another span of the same name is part of that span's
    work: only outermost spans add to ``calls`` and ``s``, except for
    decomposition nodes, where every recursion node counts.  Self time is a
    span's duration minus its direct children's.
    """
    names = [s[0] for s in spans]
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]

    def outermost(i: int) -> bool:
        p = spans[i][3]
        while p >= 0:
            if names[p] == names[i]:
                return False
            p = spans[p][3]
        return True

    agg: dict[str, dict] = {}
    for i, (name, start, end, _, count) in enumerate(spans):
        a = agg.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0, "max": 0, "all": 0})
        a["all"] += 1
        a["self_s"] += (end - start) - child_time[i]
        if outermost(i):
            a["calls"] += 1
            a["s"] += end - start
            a["count"] += count
            a["max"] = max(a["max"], count)
    return agg
