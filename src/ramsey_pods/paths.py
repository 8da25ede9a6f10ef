"""Longest color-constrained path computations.

Monotone paths in ordered colorings are handled by a polynomial DP over the
DAG of forward edges, one ``itertools.compress`` pass per byte row of
``OrderedColoring.allowed_rows``.  Directed paths in general tournaments use an exact
subset DP over (vertex set, endpoint) states, stored as one endpoint mask
per vertex set: 2^n words per table.  Tables on one vertex set are filled
in packed passes: floor(64/n) tables side by side in one word per vertex
set, uint32 when they fit in 32 bits and uint64 otherwise.  A pass holds
16 MB for a lone table at the 22-vertex cap and 32 MB for two.  A pass is
filled by pushing from the vertex sets that carry a path in any of its
tables, level by level.  A large level with fewer pushes than sets
carries its frontier over from the pushes, and only small or dense levels
are scanned, so a sparse pass costs about its pushes, not all n * 2^n
states; a dense table at n = 22 still touches most of them.  Each
direction's table is built on the first query that reads it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

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
    the result (32 MB at n = 22), so the array is read-only.  The levels
    are written slice by slice from one uint8 array of popcounts, built by
    doubling, so the build peaks at 45 MB at n = 22, two thirds of what a
    stable argsort of the popcounts takes.
    """
    size = np.zeros(1 << n, dtype=np.uint8)
    for b in range(n):
        # the sets with top bit b are those below 1 << b, plus b
        np.add(size[: 1 << b], 1, out=size[1 << b : 2 << b])
    bounds = tuple(itertools.accumulate((math.comb(n, k) for k in range(n + 1)), initial=0))
    order = np.empty(1 << n, dtype=np.intp)
    for k in range(n + 1):
        order[bounds[k] : bounds[k + 1]] = np.flatnonzero(size == k)
    order.flags.writeable = False
    return order, bounds


def _level(n: int, k: int) -> np.ndarray:
    order, bounds = _levels(n)
    return order[bounds[k] : bounds[k + 1]]


# _BYTE_BITS[x, b] is bit b of the byte x
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little") != 0

# A sparse push makes about five more numpy calls per vertex than a dense
# one, which cost about as much as scanning this many sets.  So a level of
# at most 256 n sets is always scanned: every level at n <= 14, and the
# smallest and largest ones above.
_SPARSE_VERTEX_SETS = 256


def _packed_fill(n: int, in_masks: Sequence[Sequence[int]]) -> tuple[np.ndarray, list[list[int]]]:
    """The start tables of m = len(in_masks) edge sets on n vertices, in one pass.

    ``in_masks[i][v]`` has bit u set iff u -> v is an edge of set i.  Word
    ``h[S]`` holds table i's start mask of S in bits [i*n, (i+1)*n): bit
    i*n + v is set iff some path of set i with vertex set exactly S starts
    at v.  Words are uint32 when m*n <= 32 and uint64 up to 64.  Also
    returns each table's per-level ORs: ``reach[k]`` has bit v set iff
    some k-vertex path starts at v, and the list stops before the first
    empty level, so its last index is the longest path length.

    Level k is pushed from the frontier of level k - 1, the sets S whose
    word is nonzero.  u starts a path of set i on S + {u} iff u is outside
    S and has an edge to a start on S, so the new starts of every table
    are the OR of the in-masks of the word's bits, taken a byte at a time
    from 256-entry tables, less the bits of S in every table.  Per vertex
    u, one push ORs u's bits into the words of S + {u}, over the sets
    with a new start; for one u the targets are distinct, so a
    fancy-index OR writes them all.

    Each level takes one of two routes, as in direction-optimizing BFS
    (Beamer, Asanovic & Patterson, SC 2012).  When the pushes into level k
    (the popcounts of the new starts), plus ``_SPARSE_VERTEX_SETS`` per
    vertex, are fewer than its C(n, k) sets, the level is sparse: only the
    nonzero values are pushed, and level k's frontier is the targets whose
    word was 0 before their push.  Level k is written only by these
    pushes, so each of its live sets is counted once, by the first push
    into it.  Otherwise the level is dense: every value is pushed, zeros
    included, and level k is scanned once for its nonzero words.  Either
    way the words are the same.
    """
    m = len(in_masks)
    width = m * n
    dtype = np.uint32 if width <= 32 else np.uint64
    # rep << u holds bit u of every table
    rep = sum(1 << (i * n) for i in range(m))
    flat = [mask << (i * n) for i, masks in enumerate(in_masks) for mask in masks]
    n_bytes = -(-width // 8)
    flat += [0] * (8 * n_bytes - width)
    # byte_tables[b][x]: the OR of flat[8b + j] over the bits j of x
    spread = np.array(flat, dtype=dtype).reshape(n_bytes, 1, 8)
    byte_tables = np.bitwise_or.reduce(np.where(_BYTE_BITS, spread, 0), axis=2)
    h = np.zeros(1 << n, dtype=dtype)
    lanes = [rep << u for u in range(n)]
    frontier = 1 << np.arange(n)
    h[frontier] = words = np.array(lanes, dtype=dtype)
    full = (1 << n) - 1
    reaches = [[0, full] for _ in range(m)]
    for k in range(2, n + 1):
        new = byte_tables[0][words & 0xFF]
        for b in range(1, n_bytes):
            new |= byte_tables[b][(words >> (8 * b)) & 0xFF]
        new &= ~(frontier.astype(dtype) * dtype(rep))
        # only the sets that gain a start push
        grows = new != 0
        frontier = frontier[grows]
        if not frontier.size:
            break  # no path on k vertices, so none on more
        new = new[grows]
        seen = int(np.bitwise_or.reduce(new))
        for i, reach in enumerate(reaches):
            # a table without a k-vertex path has none on more, so its
            # list has already stopped
            if starts := (seen >> (i * n)) & full:
                reach.append(starts)
        room = math.comb(n, k) - _SPARSE_VERTEX_SETS * n
        if room > 0 and int(np.bitwise_count(new).sum()) < room:
            # sparse: push only the nonzero values, and take level k's
            # frontier from the targets that were empty before the push
            fresh = []
            for u, lane in enumerate(lanes):
                if seen & lane:
                    vals = new & lane
                    hit = vals != 0
                    targets = frontier[hit] | (1 << u)
                    old = h[targets]
                    h[targets] = old | vals[hit]
                    fresh.append(targets[old == 0])
            frontier = np.concatenate(fresh)
            words = h[frontier]
        else:
            # dense: push every value, then scan level k for its frontier
            for u, lane in enumerate(lanes):
                if seen & lane:
                    h[frontier | (1 << u)] |= new & lane
            level = _level(n, k)
            words = h[level]
            live = words != 0
            frontier = level[live]
            words = words[live]
    return h, reaches


def _lazy_fill(n: int, in_masks: list[list[int]]) -> Callable[[], tuple[np.ndarray, list]]:
    """``_packed_fill(n, in_masks)``, run on the first call and kept."""
    return functools.cache(lambda: _packed_fill(n, in_masks))


def _longest_at(reach: list[int], i: int) -> int:
    """Longest path from (or to) position i, given a table's level ORs."""
    # a path on k vertices from (or to) i shortens to one on k - 1
    return sum((r >> i) & 1 for r in reach)


class SubsetPathOracle:
    """Exact longest-directed-path queries inside one vertex subset.

    Over the allowed-colored edges of the tournament restricted to the
    subset, the start table holds one endpoint mask per vertex set S: bit
    v is set iff some directed path with vertex set exactly S starts at v.
    The mirrored end table, for paths ending at a vertex, is the same
    table built on the reversed orientation.  Each direction's table lives
    in bits [shift, shift + n) of the words of its own packed pass
    (``_packed_fill``): one word per vertex set, 2^n words.  A lone oracle
    is a batch of one, whose passes hold one table each, in uint32 words
    (16 MB at the 22-vertex cap, where a 2^n x n bool table takes 92 MB).
    ``packed`` lets floor(64/n) oracles on one vertex set share one pass
    per direction, whose words are uint64 once the tables take more than
    32 bits (32 MB at the cap, for two tables).  A pass runs on the first
    query that reads it, so a caller that asks only about starts, or only
    about ends, builds one.  A build visits only the vertex sets that
    carry a path, plus one scan of each level that is small or dense.
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
        dup = next((a for a, b in zip(self.labels, self.labels[1:]) if a == b), None)
        if dup is not None:
            raise ValueError(f"vertex {dup} listed twice")
        self.n = n
        self._pos = {v: i for i, v in enumerate(self.labels)}
        # _masks[False][u] bit v set iff u -> v with an allowed color;
        # _masks[True] is the reversed orientation
        self._masks = t.allowed_masks(self.labels, frozenset(allowed))
        # per direction (starts, ends): the pass that fills the table, as a
        # cached call, and the table's index in it; ``packed`` shares them.
        # A start table reads in-masks, the reversed orientation's out-masks
        self._passes = [(_lazy_fill(n, [self._masks[not ends]]), 0) for ends in (False, True)]

    @classmethod
    def packed(
        cls,
        t: ColoredTournament,
        allowed_sets: Sequence[frozenset[int]],
        vertices: Sequence[int] | None = None,
    ) -> Iterator["SubsetPathOracle"]:
        """One oracle per allowed color set, in order, on one vertex subset.

        Per direction, the tables of floor(64/n) oracles in a row share one
        packed pass, run on the first read of any of them.  A batch is made
        when its first oracle is asked for, so a caller that reads one
        direction and drops each oracle before taking the next holds one
        pass at a time.
        """
        n = len(vertices if vertices is not None else t.vertices)
        per_pass = max(1, 64 // max(n, 1))  # an empty or oversized subset raises below
        for lo in range(0, len(allowed_sets), per_pass):
            batch = [cls(t, allowed, vertices) for allowed in allowed_sets[lo : lo + per_pass]]
            for ends in (False, True):
                fill = _lazy_fill(n, [oracle._masks[not ends] for oracle in batch])
                for j, oracle in enumerate(batch):
                    oracle._passes[ends] = (fill, j)
            yield from batch

    def _table(self, ends: bool) -> tuple[np.ndarray, int, list[int]]:
        """(words, shift, reach) of the start (or end) table, built on first use."""
        fill, j = self._passes[ends]
        words, reaches = fill()
        return words, j * self.n, reaches[j]

    def longest(self) -> int:
        return len(self._table(False)[2]) - 1

    def longest_from(self, v: int) -> int:
        return _longest_at(self._table(False)[2], self._pos[v])

    def longest_to(self, v: int) -> int:
        return _longest_at(self._table(True)[2], self._pos[v])

    def lengths_from(self) -> dict[int, int]:
        return {v: self.longest_from(v) for v in self.labels}

    def lengths_to(self) -> dict[int, int]:
        return {v: self.longest_to(v) for v in self.labels}

    def _path(self, ends: bool, i: int) -> list[int]:
        """A longest path from i in the start (or end) table, as positions.

        The vertex set is the least in value among the optimal ones; each
        step goes to the smallest admissible next vertex.
        """
        words, shift, reach = self._table(ends)
        adj = self._masks[ends]
        level = _level(self.n, _longest_at(reach, i))
        mask = int(level[np.argmax(words[level] & (1 << (i + shift)) != 0)])
        seq = [i]
        while mask != 1 << i:
            mask ^= 1 << i
            # adj[i] has n bits, so it drops the other tables of the word
            nxt = adj[i] & (int(words[mask]) >> shift)
            if not nxt:  # pragma: no cover - table construction guarantees a step
                raise RuntimeError("corrupt path table")
            i = (nxt & -nxt).bit_length() - 1
            seq.append(i)
        return seq

    def path_from(self, v: int) -> tuple[int, ...]:
        """A longest path starting at v (deterministic choice among optima)."""
        return tuple(self.labels[u] for u in self._path(False, self._pos[v]))

    def path_to(self, v: int) -> tuple[int, ...]:
        """A longest path ending at v (deterministic choice among optima)."""
        return tuple(self.labels[u] for u in reversed(self._path(True, self._pos[v])))

    def lex_least_longest(self) -> tuple[int, ...]:
        """The lexicographically least vertex sequence among all optima.

        Starts from the sets of the top level and, per placed vertex c,
        keeps the live sets c starts a path on, less c.  The vertex set of
        any longest path that extends the prefix, less the prefix, is one
        of them, so the OR of the live words holds every next vertex that
        such a path can take.
        """
        words, shift, reach = self._table(False)
        full = (1 << self.n) - 1
        live = _level(self.n, len(reach) - 1)
        path: list[int] = []
        for _ in range(len(reach) - 1):
            held = words[live] >> shift
            starts = int(np.bitwise_or.reduce(held)) & full
            if path:
                starts &= self._masks[False][path[-1]]
            if not starts:  # pragma: no cover - feasibility is exact
                raise RuntimeError("reconstruction failed")
            c = (starts & -starts).bit_length() - 1
            path.append(c)
            live = live[(held >> c) & 1 != 0] ^ (1 << c)
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
