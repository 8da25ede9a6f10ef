"""Longest color-constrained path computations.

Monotone paths in ordered colorings are handled by a polynomial DP over the
DAG of forward edges, one ``itertools.compress`` pass per byte row of
``OrderedColoring.allowed_rows``.  Directed paths in general tournaments use an exact
subset DP over (vertex set, endpoint) states, stored as one uint32 endpoint
mask per vertex set: 2^n words per direction, 16 MB at the 22-vertex cap.
A table is filled by pushing from the vertex sets that carry a path, level
by level, so its cost follows those sets and one scan of each level, not
all n * 2^n states; a dense table at n = 22 still touches most of them.
Each direction's table is built on the first query that reads it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .budget import BudgetExceeded
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

    def to_json(self) -> dict:
        if self.avoid is not None:
            return {"avoid": self.avoid}
        return {"allow": sorted(self.allow)}

    @classmethod
    def from_json(cls, data: dict) -> "PathConstraint":
        avoid = operator.index(data["avoid"]) if "avoid" in data else None
        allow = frozenset(map(operator.index, data["allow"])) if "allow" in data else None
        return cls(avoid=avoid, allow=allow)


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
            tuple(map(operator.index, data["vertices"])),
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
    ok = k.allowed_rows(allowed)
    # back[j]: longest allowed monotone path starting at n - j; row v's bytes
    # read backwards line up with it, and compress stops at its end (w > v)
    back: list[int] = []
    for row in reversed(ok[1:]):
        back.append(max(itertools.compress(back, reversed(row)), default=0) + 1)
    tail = [0] + back[::-1]
    best = max(back)
    path = [tail.index(best)]
    for need in range(best - 1, 0, -1):
        # every allowed successor of v starts at most ``need`` vertices; the
        # first one that starts exactly that many continues the least path
        v = path[-1]
        row = ok[v][v + 1 :]
        later = list(itertools.compress(tail[v + 1 :], row))
        path.append(list(itertools.compress(range(v + 1, n + 1), row))[later.index(need)])
    return PathCertificate("monotone", PathConstraint(allow=allowed), tuple(path))


def monotone_lengths_ending(k: OrderedColoring, colors: Iterable[int]) -> list[int]:
    """Per label v in 0..N, the longest monotone path ending at v using only ``colors``.

    Entry 0 is 0.  Row v of ``allowed_rows`` lines up with the entries of
    labels below v, and ``itertools.compress`` stops at their end.
    """
    ending = [0]
    for row in k.allowed_rows(colors)[1:]:
        ending.append(max(itertools.compress(ending, row), default=0) + 1)
    return ending


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


@functools.cache
def _levels(n: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """All n-bit vertex sets, sorted by size and then by value.

    Level k (the k-vertex sets, in increasing value) is
    ``order[bounds[k]:bounds[k + 1]]``.  Every oracle on n vertices shares
    the result (32 MB at n = 22), so the array is read-only.
    """
    size = np.bitwise_count(np.arange(1 << n, dtype=np.uint32))
    # a stable sort keeps each level in increasing value
    order = np.argsort(size, kind="stable")
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
    at a vertex, is the same table built on the reversed orientation.  Both
    tables are built on the first query that reads them, so a caller that
    asks only about starts, or only about ends, builds one.  A build visits
    only the vertex sets that carry a path, plus one scan per level.
    """

    def __init__(
        self,
        t: ColoredTournament,
        allowed: frozenset[int],
        vertices: Sequence[int] | None = None,
    ):
        self.labels = tuple(sorted(vertices if vertices is not None else t.vertices))
        n = len(self.labels)
        if n == 0:
            raise ValueError("the vertex subset must be nonempty")
        if n > EXACT_VERTEX_CAP:
            raise ValueError(f"{n} vertices exceed the exact-DP cap of {EXACT_VERTEX_CAP}")
        self.n = n
        self._pos = {v: i for i, v in enumerate(self.labels)}
        # _adj[u] bit v set iff u -> v with an allowed color; _radj reversed
        self._adj, self._radj = t.allowed_masks(self.labels, frozenset(allowed))
        # (table, reach) per direction, built on first use
        self._start: tuple[np.ndarray, list[int]] | None = None
        self._end: tuple[np.ndarray, list[int]] | None = None

    def _build(self, adj: list[int]) -> tuple[np.ndarray, list[int]]:
        """The endpoint-mask table over ``adj``, and its per-level ORs.

        ``reach[k]`` has bit v set iff some k-vertex path starts at v; the
        list stops before the first empty level, so its last index is the
        longest path length.  Level k is pushed from the frontier of level
        k - 1, the sets S whose word is nonzero: u starts a path on S + {u}
        iff u is outside S and has an edge to a start of a path on S.  For
        one u the targets S + {u} are distinct, so a fancy-index OR writes
        them all.  Sets that carry no path are scanned once and never read
        again.
        """
        n = self.n
        h = np.zeros(1 << n, dtype=np.uint32)
        bits = 1 << np.arange(n, dtype=np.intp)
        h[bits] = bits
        reach = [0, (1 << n) - 1]
        for k in range(2, n + 1):
            level = _level(n, k - 1)
            frontier = level[h[level] != 0]
            words = h[frontier]
            seen = 0
            for u, out in enumerate(adj):
                bit = 1 << u
                hit = frontier[((frontier & bit) == 0) & ((words & out) != 0)]
                if hit.size:
                    hit |= bit
                    h[hit] |= bit
                    seen |= bit
            if not seen:
                break  # no path on k vertices, so none on more
            reach.append(seen)
        return h, reach

    def _start_table(self) -> tuple[np.ndarray, list[int]]:
        if self._start is None:
            self._start = self._build(self._adj)
        return self._start

    def _end_table(self) -> tuple[np.ndarray, list[int]]:
        if self._end is None:
            self._end = self._build(self._radj)
        return self._end

    def longest(self) -> int:
        # both directions give the same length, so read whichever is built
        _, reach = self._start or self._end or self._start_table()
        return len(reach) - 1

    def longest_from(self, v: int) -> int:
        return _longest_at(self._start_table()[1], self._pos[v])

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
        table, reach = self._start_table()
        seq = self._path(table, reach, self._adj, self._pos[v])
        return tuple(self.labels[u] for u in seq)

    def path_to(self, v: int) -> tuple[int, ...]:
        """A longest path ending at v (deterministic choice among optima)."""
        table, reach = self._end_table()
        seq = self._path(table, reach, self._radj, self._pos[v])
        return tuple(self.labels[u] for u in reversed(seq))

    def lex_least_longest(self) -> tuple[int, ...]:
        """The lexicographically least vertex sequence among all optima."""
        table, reach = self._start_table()
        path: list[int] = []
        used = 0
        for rem in range(len(reach) - 1, 0, -1):
            level = _level(self.n, rem)
            # starts of rem-vertex paths that avoid the vertices placed so far
            starts = int(np.bitwise_or.reduce(table[level[(level & used) == 0]]))
            if path:
                starts &= self._adj[path[-1]]
            if not starts:  # pragma: no cover - feasibility is exact
                raise RuntimeError("reconstruction failed")
            c = (starts & -starts).bit_length() - 1
            path.append(c)
            used |= 1 << c
        return tuple(self.labels[c] for c in path)


def greedy_directed_path(t: ColoredTournament, allowed: frozenset[int]) -> tuple[int, ...]:
    """Deterministic greedy extension; a sound lower bound at any size.

    From each start, in label order, the path steps to the unused
    allowed-colored out-neighbour with the most unused allowed-colored
    out-neighbours of its own; the first maximum in label order wins a step,
    and the first longest path over the starts wins overall.
    """
    labels = sorted(t.vertices)
    out, _ = t.allowed_masks(labels, allowed)

    def extend(start: int) -> list[int]:
        path = [start]
        used = 1 << start
        while cand := out[path[-1]] & ~used:
            nxt, nxt_deg = -1, -1
            while cand:
                w = (cand & -cand).bit_length() - 1
                deg = (out[w] & ~used).bit_count()
                if deg > nxt_deg:
                    nxt, nxt_deg = w, deg
                cand &= cand - 1
            path.append(nxt)
            used |= 1 << nxt
        return path

    best: list[int] = [0]
    for s in range(len(labels)):
        cand = extend(s)
        if len(cand) > len(best):
            best = cand
    return tuple(labels[p] for p in best)


def longest_avoiding_directed_exact(t: ColoredTournament, i: int) -> PathCertificate:
    """The lexicographically least longest directed path avoiding color i.

    Above ``EXACT_VERTEX_CAP`` vertices raises BudgetExceeded, carrying a
    greedy certificate as the best-found lower bound.
    """
    if not 1 <= i <= t.q:
        raise ValueError(f"color {i} outside [1, {t.q}]")
    allowed = frozenset(c for c in range(1, t.q + 1) if c != i)
    if not allowed:
        return PathCertificate("directed", PathConstraint(avoid=i), (min(t.vertices),))
    if t.n_vertices > EXACT_VERTEX_CAP:
        fallback = greedy_directed_path(t, allowed)
        raise BudgetExceeded(
            f"{t.n_vertices} vertices exceed the exact cap {EXACT_VERTEX_CAP}",
            best=PathCertificate("directed", PathConstraint(avoid=i), fallback),
        )
    return PathCertificate(
        "directed", PathConstraint(avoid=i), SubsetPathOracle(t, allowed).lex_least_longest()
    )


# ---------------------------------------------------------------------------
# proof parameters


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
