"""Longest color-constrained path computations.

Monotone paths in ordered colorings are handled by a polynomial DP over the
DAG of forward edges.  Directed paths in general tournaments use an exact
subset DP over (vertex set, endpoint) states, stored as one uint32 endpoint
mask per vertex set: 2^n words per direction, 16 MB at the 22-vertex cap.
The cap bounds time as much as memory: filling a table visits n * 2^n
states, about 92 million at n = 22.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .budget import Budget, BudgetExceeded
from .tournament import ColoredTournament, OrderedColoring

EXACT_VERTEX_CAP = 22


@dataclass(frozen=True)
class PathConstraint:
    """Either avoid one color or allow an explicit color set."""

    avoid: int | None = None
    allow: frozenset[int] | None = None

    def __post_init__(self):
        if (self.avoid is None) == (self.allow is None):
            raise ValueError("exactly one of avoid/allow must be given")
        if self.allow is not None:
            object.__setattr__(self, "allow", frozenset(self.allow))

    def permits(self, color: int) -> bool:
        if self.avoid is not None:
            return color != self.avoid
        return color in self.allow

    def allowed_set(self, q: int) -> frozenset[int]:
        if self.avoid is not None:
            return frozenset(c for c in range(1, q + 1) if c != self.avoid)
        return self.allow

    def to_json(self) -> dict:
        if self.avoid is not None:
            return {"avoid": self.avoid}
        return {"allow": sorted(self.allow)}

    @classmethod
    def from_json(cls, data: dict) -> "PathConstraint":
        if "avoid" in data:
            return cls(avoid=int(data["avoid"]))
        return cls(allow=frozenset(int(c) for c in data["allow"]))


@dataclass(frozen=True)
class PathCertificate:
    """A monotone or directed path together with its color constraint."""

    mode: str  # "monotone" | "directed"
    constraint: PathConstraint
    vertices: tuple[int, ...]

    def __post_init__(self):
        if self.mode not in ("monotone", "directed"):
            raise ValueError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "vertices", tuple(self.vertices))
        if not self.vertices:
            raise ValueError("a path contains at least one vertex")

    @property
    def length(self) -> int:
        """Path length counts vertices, so a single vertex has length 1."""
        return len(self.vertices)

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "constraint": self.constraint.to_json(),
            "vertices": list(self.vertices),
        }

    @classmethod
    def from_json(cls, data: dict) -> "PathCertificate":
        return cls(
            data["mode"],
            PathConstraint.from_json(data["constraint"]),
            tuple(int(v) for v in data["vertices"]),
        )


def validate_path(instance, cert: PathCertificate) -> str | None:
    """Re-check a certificate against its instance; None means valid.

    Checks vertex distinctness and range, monotonicity or edge direction,
    and the color constraint on every step.
    """
    verts = cert.vertices
    if len(set(verts)) != len(verts):
        dup = next(v for i, v in enumerate(verts) if v in verts[:i])
        return f"duplicate vertex {dup}"
    if isinstance(instance, OrderedColoring):
        known = range(1, instance.n_vertices + 1)
        if cert.mode != "monotone":
            return "ordered colorings carry monotone certificates"
    else:
        known = instance.vertices
        if cert.mode == "monotone":
            return "tournaments carry directed certificates"
    for v in verts:
        if v not in known:
            return f"unknown vertex {v}"
    for a, b in zip(verts, verts[1:]):
        if cert.mode == "monotone":
            if not a < b:
                return f"vertices not increasing at ({a},{b})"
            color = instance.color(a, b)
        else:
            if not instance.has_edge(a, b):
                return f"edge ({a},{b}) points the wrong way"
            color = instance.color(a, b)
        if not cert.constraint.permits(color):
            return f"edge ({a},{b}) has forbidden color {color}"
    return None


# ---------------------------------------------------------------------------
# monotone paths


def longest_restricted_monotone(k: OrderedColoring, colors: Iterable[int]) -> PathCertificate:
    """Longest monotone path using only the given colors.

    Among the optimal paths, the lexicographically least vertex sequence is
    returned.
    """
    allowed = frozenset(colors)
    if not allowed:
        raise ValueError("the allowed color set must be nonempty")
    n = k.n_vertices
    # tail[v]: longest allowed monotone path starting at v
    tail = [1] * (n + 1)
    for v in range(n, 0, -1):
        for w in range(v + 1, n + 1):
            if k.color(v, w) in allowed and tail[w] + 1 > tail[v]:
                tail[v] = tail[w] + 1
    best = max(tail[1:])
    path = []
    need = best
    prev = 0
    while need:
        for v in range(prev + 1, n + 1):
            if tail[v] >= need and (not path or k.color(path[-1], v) in allowed):
                path.append(v)
                prev = v
                break
        need -= 1
    return PathCertificate("monotone", PathConstraint(allow=allowed), tuple(path))


def ell_avoid_monotone(k: OrderedColoring, i: int) -> PathCertificate:
    """Longest monotone path avoiding color i."""
    if not 1 <= i <= k.q:
        raise ValueError(f"color {i} outside [1, {k.q}]")
    allowed = frozenset(c for c in range(1, k.q + 1) if c != i)
    if not allowed:
        # single-color palette: only one-vertex paths avoid it
        return PathCertificate("monotone", PathConstraint(avoid=i), (1,))
    cert = longest_restricted_monotone(k, allowed)
    return PathCertificate("monotone", PathConstraint(avoid=i), cert.vertices)


# ---------------------------------------------------------------------------
# directed paths, exact subset DP

# Index entries per gather chunk of the level fill, so the chunk's index,
# gather and bit matrices stay near 400 kB whatever the level size.  Larger
# chunks raised the peak memory of runs full of 15-vertex oracles and gained
# no measurable speed at 21 vertices.
_CHUNK = 1 << 15


@functools.cache
def _levels(n: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """All n-bit vertex sets, sorted by size and then by value.

    Level k (the k-vertex sets, in increasing value) is
    ``order[bounds[k]:bounds[k + 1]]``.  Every oracle on n vertices shares
    the result (32 MB at n = 22), so the array is read-only.
    """
    masks = np.arange(1 << n, dtype=np.intp)
    size = np.bitwise_count(masks)
    order = np.concatenate([masks[size == k] for k in range(n + 1)])
    order.flags.writeable = False
    bounds = tuple(itertools.accumulate((math.comb(n, k) for k in range(n + 1)), initial=0))
    return order, bounds


def _level(n: int, k: int) -> np.ndarray:
    order, bounds = _levels(n)
    return order[bounds[k] : bounds[k + 1]]


def _longest_at(reach: list[int], i: int) -> int:
    """Longest path from (or to) position i, given a table's level ORs."""
    # a path on k vertices from (or to) i shortens to one on k - 1
    return sum((r >> i) & 1 for r in reach)


class SubsetPathOracle:
    """Exact longest-directed-path queries inside one vertex subset.

    Over the allowed-colored edges of the tournament restricted to the
    subset, ``h[S]`` is a uint32 endpoint mask: bit v is set iff some
    directed path with vertex set exactly S starts at v.  The table has one
    word per vertex set, 2^n words (16 MB at the 22-vertex cap, where a
    2^n x n bool table takes 92 MB).  The mirrored table, for paths ending
    at a vertex, is the same table built on the reversed orientation, on the
    first query that needs it.  Every query reads these tables.
    """

    def __init__(
        self,
        t: ColoredTournament,
        allowed: frozenset[int],
        vertices: Sequence[int] | None = None,
    ):
        self.t = t
        self.allowed = frozenset(allowed)
        self.labels = tuple(sorted(vertices if vertices is not None else t.vertices))
        n = len(self.labels)
        if n == 0:
            raise ValueError("the vertex subset must be nonempty")
        if n > EXACT_VERTEX_CAP:
            raise BudgetExceeded(
                f"{n} vertices exceed the exact-DP cap of {EXACT_VERTEX_CAP}"
            )
        self.n = n
        self._pos = {v: i for i, v in enumerate(self.labels)}
        # _adj[u] bit v set iff u -> v with an allowed color; _radj reversed
        self._adj, self._radj = t.allowed_masks(self.labels, self.allowed)
        self._start, self._start_reach = self._build(self._adj)
        self._end = self._end_reach = None  # built lazily from radj

    def _build(self, adj: list[int]) -> tuple[np.ndarray, list[int]]:
        """The endpoint-mask table over ``adj``, and its per-level ORs.

        ``reach[k]`` has bit v set iff some k-vertex path starts at v; the
        list stops before the first empty level, so its last index is the
        longest path length.  Level k is filled from level k - 1: v starts
        a path on S iff v has an edge to a start of a path on S - {v}.  For
        v outside S the pulled word belongs to the larger set S + {v}, which
        is still zero when level k is filled, so every v can be pulled in
        one gather.
        """
        n = self.n
        h = np.zeros(1 << n, dtype=np.uint32)
        bits = 1 << np.arange(n, dtype=np.intp)
        h[bits] = bits
        out = np.array(adj, dtype=np.uint32)
        reach = [0, (1 << n) - 1]
        for k in range(2, n + 1):
            level = _level(n, k)
            seen = 0
            step = _CHUNK // n
            for lo in range(0, level.size, step):
                sets = level[lo : lo + step]
                pulled = h[sets[:, None] ^ bits]
                pulled &= out
                words = np.zeros((sets.size, 4), dtype=np.uint8)
                words[:, : (n + 7) // 8] = np.packbits(pulled != 0, axis=1, bitorder="little")
                starts = words.view("<u4")[:, 0]
                h[sets] = starts
                seen |= int(np.bitwise_or.reduce(starts))
            if not seen:
                break  # no path on k vertices, so none on more
            reach.append(seen)
        return h, reach

    def _end_table(self) -> tuple[np.ndarray, list[int]]:
        if self._end is None:
            self._end, self._end_reach = self._build(self._radj)
        return self._end, self._end_reach

    def longest(self) -> int:
        return len(self._start_reach) - 1

    def longest_from(self, v: int) -> int:
        return _longest_at(self._start_reach, self._pos[v])

    def longest_to(self, v: int) -> int:
        return _longest_at(self._end_table()[1], self._pos[v])

    def lengths_from(self) -> dict[int, int]:
        return {v: self.longest_from(v) for v in self.labels}

    def lengths_to(self) -> dict[int, int]:
        return {v: self.longest_to(v) for v in self.labels}

    def _path(self, table: np.ndarray, reach: list[int], adj: list[int], i: int) -> list[int]:
        """A longest path from i in ``table``, as positions.

        The vertex set is the least in value among the optimal ones; each
        step goes to the smallest admissible next vertex.
        """
        level = _level(self.n, _longest_at(reach, i))
        mask = int(level[np.argmax(table[level] & (1 << i) != 0)])
        seq = [i]
        while mask != 1 << i:
            mask ^= 1 << i
            nxt = adj[i] & int(table[mask])
            if not nxt:  # pragma: no cover - table construction guarantees a step
                raise RuntimeError("corrupt path table")
            i = (nxt & -nxt).bit_length() - 1
            seq.append(i)
        return seq

    def path_from(self, v: int) -> tuple[int, ...]:
        """A longest path starting at v (deterministic choice among optima)."""
        seq = self._path(self._start, self._start_reach, self._adj, self._pos[v])
        return tuple(self.labels[u] for u in seq)

    def path_to(self, v: int) -> tuple[int, ...]:
        """A longest path ending at v (deterministic choice among optima)."""
        table, reach = self._end_table()
        seq = self._path(table, reach, self._radj, self._pos[v])
        return tuple(self.labels[u] for u in reversed(seq))

    def lex_least_longest(self) -> tuple[int, ...]:
        """The lexicographically least vertex sequence among all optima."""
        path: list[int] = []
        used = 0
        for rem in range(self.longest(), 0, -1):
            level = _level(self.n, rem)
            # starts of rem-vertex paths that avoid the vertices placed so far
            starts = int(np.bitwise_or.reduce(self._start[level[(level & used) == 0]]))
            if path:
                starts &= self._adj[path[-1]]
            if not starts:  # pragma: no cover - feasibility is exact
                raise RuntimeError("reconstruction failed")
            c = (starts & -starts).bit_length() - 1
            path.append(c)
            used |= 1 << c
        return tuple(self.labels[c] for c in path)


def greedy_directed_path(
    t: ColoredTournament, allowed: frozenset[int], vertices: Sequence[int] | None = None
) -> tuple[int, ...]:
    """Deterministic greedy extension; a sound lower bound at any size."""
    labels = sorted(vertices if vertices is not None else t.vertices)
    lab_set = set(labels)

    def extend(start: int) -> list[int]:
        path = [start]
        used = {start}
        while True:
            cur = path[-1]
            nxt = None
            nxt_deg = -1
            for w in labels:
                if w in used or not t.has_edge(cur, w) or t.color(cur, w) not in allowed:
                    continue
                deg = sum(
                    1
                    for z in labels
                    if z not in used
                    and z != w
                    and t.has_edge(w, z)
                    and t.color(w, z) in allowed
                )
                if deg > nxt_deg:
                    nxt, nxt_deg = w, deg
            if nxt is None:
                return path
            path.append(nxt)
            used.add(nxt)

    best: list[int] = [labels[0]]
    for s in labels:
        cand = extend(s)
        if len(cand) > len(best):
            best = cand
    assert set(best) <= lab_set
    return tuple(best)


def longest_directed_restricted_exact(
    t: ColoredTournament, colors: Iterable[int], budget: Budget | None = None
) -> PathCertificate:
    """Longest directed path using only the given colors, exactly.

    Raises BudgetExceeded above the vertex cap, carrying a greedy certificate
    as the best-found lower bound.
    """
    allowed = frozenset(colors)
    cap = EXACT_VERTEX_CAP
    if budget is not None and budget.max_nodes is not None:
        # a node here is one DP state; 2^n * n states must fit
        while cap > 1 and (1 << cap) * cap > budget.max_nodes:
            cap -= 1
    if t.n_vertices > cap:
        fallback = greedy_directed_path(t, allowed)
        raise BudgetExceeded(
            f"{t.n_vertices} vertices exceed the exact cap {cap}",
            best=PathCertificate("directed", PathConstraint(allow=allowed), fallback),
        )
    oracle = SubsetPathOracle(t, allowed)
    return PathCertificate(
        "directed", PathConstraint(allow=allowed), oracle.lex_least_longest()
    )


def longest_avoiding_directed_exact(
    t: ColoredTournament, i: int, budget: Budget | None = None
) -> PathCertificate:
    """Longest directed path whose edges avoid color i, exactly."""
    if not 1 <= i <= t.q:
        raise ValueError(f"color {i} outside [1, {t.q}]")
    allowed = frozenset(c for c in range(1, t.q + 1) if c != i)
    if not allowed:
        return PathCertificate("directed", PathConstraint(avoid=i), (min(t.vertices),))
    try:
        cert = longest_directed_restricted_exact(t, allowed, budget)
    except BudgetExceeded as exc:
        if exc.best is not None:
            exc.best = PathCertificate(
                "directed", PathConstraint(avoid=i), exc.best.vertices
            )
        raise
    return PathCertificate("directed", PathConstraint(avoid=i), cert.vertices)


# ---------------------------------------------------------------------------
# avoidance profiles and proof parameters


@dataclass(frozen=True)
class AvoidanceProfile:
    """Per-color longest-avoiding lengths, their truncations, and the product.

    ``m[i]`` is min(ell[i], gamma * N); with a Fraction gamma everything stays
    exact, with a float gamma the truncations are floats.
    """

    ell: tuple[int, ...]
    gamma: Fraction | float
    n_vertices: int
    m: tuple
    product: Fraction | float

    @property
    def q(self) -> int:
        return len(self.ell)


def avoidance_profile(instance, gamma, budget: Budget | None = None) -> AvoidanceProfile:
    """Compute every ell_i, truncate at gamma*N, and take the product."""
    if isinstance(instance, OrderedColoring):
        ells = [
            ell_avoid_monotone(instance, i).length for i in range(1, instance.q + 1)
        ]
        n = instance.n_vertices
    else:
        ells = [
            longest_avoiding_directed_exact(instance, i, budget).length
            for i in range(1, instance.q + 1)
        ]
        n = instance.n_vertices
    cap = gamma * n
    ms = tuple(ell if ell <= cap else cap for ell in ells)
    product = ms[0]
    for m in ms[1:]:
        product = product * m
    return AvoidanceProfile(tuple(ells), gamma, n, ms, product)


@dataclass(frozen=True)
class ProofParameters:
    """The scale parameters used by the interval decomposition.

    gamma = 1 / (2q * 2^sqrt(log2 q)); p = floor(24q / 2^sqrt(log2 q));
    s = floor(2 gamma N) clamped to >= 1; delta = gamma / 8.  Before rounding,
    4 delta N = s / 4.
    """

    q: int
    n_vertices: int
    gamma: float
    p: int
    s: int
    delta: float

    @property
    def raw_s(self) -> float:
        return 2.0 * self.gamma * self.n_vertices


def proof_parameters(q: int, n_vertices: int) -> ProofParameters:
    if q < 2:
        raise ValueError("need at least two colors")
    if n_vertices < 1:
        raise ValueError("need at least one vertex")
    scale = 2.0 ** math.sqrt(math.log2(q))
    gamma = 1.0 / (2.0 * q * scale)
    p = max(1, math.floor(24.0 * q / scale))
    s = max(1, math.floor(2.0 * gamma * n_vertices))
    delta = gamma / 8.0
    return ProofParameters(q, n_vertices, gamma, p, s, delta)
