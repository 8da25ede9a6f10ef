"""Edge-colored tournaments and ordered colorings.

Vertices are integer labels; a freshly parsed instance uses 1..N.  Induced
subtournaments keep the original labels so that path certificates always
refer to the instance they were found in.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np


class OrderedColoring:
    """A q-edge-colored complete graph on ordered vertices 1..N."""

    def __init__(self, n_vertices: int, q: int, colors: Iterable[tuple[int, int, int]]):
        if n_vertices < 1:
            raise ValueError("need at least one vertex")
        if q < 1:
            raise ValueError("palette must be nonempty")
        self.n_vertices = n_vertices
        self.q = q
        color = self._color = [[0] * (n_vertices + 1) for _ in range(n_vertices + 1)]
        seen = 0
        for edge in colors:
            try:
                u, v, c = edge
            except TypeError:
                iter(edge)  # a non-iterable entry: "'int' object is not iterable"
                raise
            if not (1 <= u < v <= n_vertices):
                raise ValueError(f"edge ({u},{v}) is not an ordered pair in range")
            if not 1 <= c <= q:
                raise ValueError(f"color {c} outside [1, {q}]")
            row = color[u]
            if row[v]:
                raise ValueError(f"edge ({u},{v}) colored twice")
            row[v] = color[v][u] = c
            seen += 1
        if seen != n_vertices * (n_vertices - 1) // 2:
            raise ValueError("every vertex pair must be colored exactly once")

    def color(self, u: int, v: int) -> int:
        if u == v:
            raise ValueError("no loops")
        return self._color[u][v]

    def edges(self) -> Iterator[tuple[int, int, int]]:
        for u in range(1, self.n_vertices + 1):
            for v in range(u + 1, self.n_vertices + 1):
                yield u, v, self._color[u][v]

    def recolored(self, mapping) -> "OrderedColoring":
        """A copy with every color c replaced by mapping(c)."""
        new_q = max(mapping(c) for c in range(1, self.q + 1))
        return OrderedColoring(
            self.n_vertices, new_q, ((u, v, mapping(c)) for u, v, c in self.edges())
        )

    def as_tournament(self) -> "ColoredTournament":
        """The transitive tournament carrying the same colors."""
        return ColoredTournament(
            self.n_vertices, self.q, ((u, v, c) for u, v, c in self.edges())
        )

    def to_json(self) -> dict:
        return {
            "N": self.n_vertices,
            "q": self.q,
            "colors": [[u, v, c] for u, v, c in self.edges()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "OrderedColoring":
        return cls(int(data["N"]), int(data["q"]), data["colors"])

    def __eq__(self, other):
        return (
            isinstance(other, OrderedColoring)
            and self.n_vertices == other.n_vertices
            and self.q == other.q
            and self._color == other._color
        )


class ColoredTournament:
    """A q-edge-colored tournament on an explicit label set."""

    def __init__(self, n_vertices: int, q: int, edges: Iterable[tuple[int, int, int]]):
        if n_vertices < 1:
            raise ValueError("need at least one vertex")
        self.vertices: tuple[int, ...] = tuple(range(1, n_vertices + 1))
        self.q = q
        self._init_from_edges(edges)

    def _init_from_edges(self, edges):
        n = len(self.vertices)
        q = self.q
        idx = self._idx = {v: i for i, v in enumerate(self.vertices)}
        colmat = self._colmat = [[0] * n for _ in range(n)]
        if q < 1:
            raise ValueError("palette must be nonempty")
        get = idx.get
        arrows = bytearray(n * n)  # arrows[i * n + j] == 1 iff i -> j
        seen = 0
        for edge in edges:
            try:
                u, v, c = edge
            except TypeError:
                iter(edge)  # a non-iterable edge: "'int' object is not iterable"
                raise
            i = get(u)
            if i is None or (j := get(v)) is None or i == j:
                raise ValueError(f"edge ({u},{v}) references an unknown vertex")
            if not 1 <= c <= q:
                raise ValueError(f"color {c} outside [1, {q}]")
            row = colmat[i]
            if row[j]:
                raise ValueError(f"pair ({u},{v}) oriented twice")
            row[j] = colmat[j][i] = c
            arrows[i * n + j] = 1
            seen += 1
        if seen != n * (n - 1) // 2:
            raise ValueError("every vertex pair needs exactly one directed edge")
        bits = np.frombuffer(arrows, dtype=np.uint8).reshape(n, n)
        packed = np.packbits(bits, axis=1, bitorder="little")
        self._out = [int.from_bytes(row.tobytes(), "little") for row in packed]

    @classmethod
    def _from_parts(cls, vertices, q, colmat, out) -> "ColoredTournament":
        t = cls.__new__(cls)
        t.vertices = tuple(vertices)
        t.q = q
        t._idx = {v: i for i, v in enumerate(t.vertices)}
        t._colmat = colmat
        t._out = out
        return t

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def has_edge(self, u: int, v: int) -> bool:
        """True iff the pair is oriented u -> v."""
        return bool((self._out[self._idx[u]] >> self._idx[v]) & 1)

    def color(self, u: int, v: int) -> int:
        if u == v:
            raise ValueError("no loops")
        return self._colmat[self._idx[u]][self._idx[v]]

    def allowed_masks(
        self, labels: Sequence[int], allowed: frozenset[int]
    ) -> tuple[list[int], list[int]]:
        """Allowed-colored adjacency over a label sequence, both orientations.

        Returns ``(out, into)`` indexed by position in ``labels``: bit b of
        ``out[a]`` is set iff labels[a] -> labels[b] carries an allowed
        color, bit b of ``into[a]`` iff labels[b] -> labels[a] does.
        """
        idx = [self._idx[v] for v in labels]
        out = [0] * len(idx)
        into = [0] * len(idx)
        for a, i in enumerate(idx):
            row, cols = self._out[i], self._colmat[i]
            for b, j in enumerate(idx):
                if a != b and cols[j] in allowed:
                    if (row >> j) & 1:
                        out[a] |= 1 << b
                    else:
                        into[a] |= 1 << b
        return out, into

    def out_degree(self, u: int) -> int:
        return bin(self._out[self._idx[u]]).count("1")

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Each pair once, as (tail, head, color)."""
        for a in range(len(self.vertices)):
            for b in range(a + 1, len(self.vertices)):
                u, v = self.vertices[a], self.vertices[b]
                if (self._out[a] >> b) & 1:
                    yield u, v, self._colmat[a][b]
                else:
                    yield v, u, self._colmat[a][b]

    def restrict(self, keep: Iterable[int]) -> "ColoredTournament":
        """Induced subtournament on the given labels (labels preserved)."""
        keep_sorted = sorted(keep)
        old = [self._idx[v] for v in keep_sorted]
        n = len(old)
        colmat = [[self._colmat[old[a]][old[b]] for b in range(n)] for a in range(n)]
        out = [0] * n
        for a in range(n):
            for b in range(n):
                if a != b and (self._out[old[a]] >> old[b]) & 1:
                    out[a] |= 1 << b
        return ColoredTournament._from_parts(keep_sorted, self.q, colmat, out)

    def to_json(self) -> dict:
        if self.vertices != tuple(range(1, self.n_vertices + 1)):
            raise ValueError("only 1..N labeled tournaments serialize")
        return {
            "N": self.n_vertices,
            "q": self.q,
            "edges": [[u, v, c] for u, v, c in self.edges()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ColoredTournament":
        return cls(int(data["N"]), int(data["q"]), data["edges"])


def backward_degrees(t: ColoredTournament, order: Sequence[int]) -> list[int]:
    """Per vertex of ``order``, its pairs placed forward but oriented backward.

    One pass over the order: a vertex's backward pairs are the later
    vertices that beat it and the earlier ones it beats.  The degrees sum to
    twice the backward edge count.
    """
    if sorted(order) != sorted(t.vertices):
        raise ValueError("order must be a permutation of the vertex set")
    full = (1 << t.n_vertices) - 1
    later = full
    degrees = []
    for u in order:
        i = t._idx[u]
        bit = 1 << i
        later ^= bit
        earlier = full ^ later ^ bit
        out = t._out[i]
        degrees.append((later & ~out).bit_count() + (earlier & out).bit_count())
    return degrees


def backward_edge_count(t: ColoredTournament, order: Sequence[int]) -> int:
    """Pairs placed forward by ``order`` but oriented backward in ``t``."""
    return sum(backward_degrees(t, order)) // 2


def heuristic_transitive_order(t: ColoredTournament, seed: int = 0) -> tuple[int, ...]:
    """Out-degree descending start, then adjacent swaps to local optimality.

    Remaining out-degree ties are broken by a seed-keyed shuffle, so equal
    seeds reproduce equal orders.
    """
    rng = random.Random(seed)
    verts = list(t.vertices)
    rng.shuffle(verts)
    verts.sort(key=lambda v: -t.out_degree(v))
    improved = True
    while improved:
        improved = False
        for i in range(len(verts) - 1):
            if t.has_edge(verts[i + 1], verts[i]):
                verts[i], verts[i + 1] = verts[i + 1], verts[i]
                improved = True
    return tuple(verts)


def exact_min_backward(t: ColoredTournament) -> tuple[int, tuple[int, ...]]:
    """Exact minimum reversal distance to transitivity, by prefix-set DP.

    Memory is 2^N, so this is limited to N <= 12; beyond that only the
    heuristic order's backward count is available, as an upper bound.
    """
    n = t.n_vertices
    if n > 12:
        raise ValueError("exact reversal distance is provided only for N <= 12")
    verts = t.vertices
    # wins[i] = bitmask of j beaten by i
    wins = [0] * n
    for a in range(n):
        for b in range(n):
            if a != b and t.has_edge(verts[a], verts[b]):
                wins[a] |= 1 << b
    size = 1 << n
    INF = float("inf")
    dp = [INF] * size
    choice = [-1] * size
    dp[0] = 0
    for mask in range(size):
        if dp[mask] == INF:
            continue
        rest = ((size - 1) ^ mask)
        m = rest
        while m:
            v_bit = m & -m
            v = v_bit.bit_length() - 1
            # placing v next: later vertices that beat v become backward edges
            cost = bin(rest & ~v_bit & ~wins[v]).count("1")
            new = dp[mask] + cost
            if new < dp[mask | v_bit]:
                dp[mask | v_bit] = new
                choice[mask | v_bit] = v
            m ^= v_bit
    order = []
    mask = size - 1
    while mask:
        v = choice[mask]
        order.append(verts[v])
        mask ^= 1 << v
    order.reverse()
    return int(dp[size - 1]), tuple(order)


def cyclic_triangles(t: ColoredTournament):
    """Count of 3-sets inducing a directed cycle, plus an iterator over them.

    Triangles are yielded once each, in cyclic vertex order starting from the
    smallest label.
    """
    n = t.n_vertices
    full = (1 << n) - 1
    total = 0
    for a in range(n):
        out_a = t._out[a]
        in_a = full & ~out_a & ~(1 << a)
        m = out_a
        while m:
            b_bit = m & -m
            b = b_bit.bit_length() - 1
            total += bin(t._out[b] & in_a).count("1")
            m ^= b_bit
    count = total // 3

    def gen():
        verts = t.vertices
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    u, v, w = verts[i], verts[j], verts[k]
                    if t.has_edge(u, v):
                        if t.has_edge(v, w) and t.has_edge(w, u):
                            yield (u, v, w)
                    else:
                        if t.has_edge(w, v) and t.has_edge(v, u) and t.has_edge(u, w):
                            yield (u, w, v)

    return count, gen()


def canonical_pattern(colors: tuple[int, int, int]) -> tuple[int, int, int]:
    """Lexicographically least cyclic rotation of a triangle's color triple."""
    rots = [colors, colors[1:] + colors[:1], colors[2:] + colors[:2]]
    return min(rots)


def pattern_buckets(t: ColoredTournament) -> dict[tuple[int, int, int], list[tuple[int, int, int]]]:
    """Cyclic triangles grouped by the canonical pattern of their edge colors."""
    buckets: dict[tuple[int, int, int], list[tuple[int, int, int]]] = {}
    _, tris = cyclic_triangles(t)
    for (a, b, c) in tris:
        pat = canonical_pattern((t.color(a, b), t.color(b, c), t.color(c, a)))
        buckets.setdefault(pat, []).append((a, b, c))
    return buckets


def clean_degrees(
    t: ColoredTournament, order: Sequence[int], delta, degrees: Sequence[int] | None = None
) -> tuple[ColoredTournament, tuple[int, ...]]:
    """Drop high-backward-degree vertices; return the rest and their order.

    Requires the order to witness delta^2-closeness, i.e. at most
    delta^2 * N0^2 backward edges.  Returns the restricted tournament and
    ``kept``, the surviving vertices in the given order.  At least
    (1-delta) N0 vertices survive, and each lies in at most 4 delta N pairs
    of ``kept`` that the tournament orients backward; both bounds hold by
    construction and are re-checkable independently.  ``degrees`` is
    ``backward_degrees(t, order)``, for a caller that already has it.
    """
    delta = Fraction(delta)
    if not Fraction(0) < delta < Fraction(1, 2):
        raise ValueError("delta must lie strictly between 0 and 1/2")
    n0 = t.n_vertices
    if degrees is None:
        degrees = backward_degrees(t, order)
    back = sum(degrees) // 2
    if Fraction(back) > delta * delta * n0 * n0:
        raise ValueError(
            f"order witnesses only {back} backward edges > delta^2 N0^2 = "
            f"{float(delta * delta * n0 * n0):.3f}; closeness precondition fails"
        )
    threshold = 2 * delta * n0
    kept = tuple(v for v, d in zip(order, degrees) if d <= threshold)
    return t.restrict(kept), kept


def random_tournament(n_vertices: int, q: int, seed: int = 0) -> ColoredTournament:
    """Uniform orientation and color per pair, from a seeded generator."""
    rng = random.Random(seed)
    edges = []
    for u in range(1, n_vertices + 1):
        for v in range(u + 1, n_vertices + 1):
            c = rng.randint(1, q)
            if rng.random() < 0.5:
                edges.append((u, v, c))
            else:
                edges.append((v, u, c))
    return ColoredTournament(n_vertices, q, edges)


def random_ordered_coloring(n_vertices: int, q: int, seed: int = 0) -> OrderedColoring:
    rng = random.Random(seed)
    return OrderedColoring(
        n_vertices,
        q,
        (
            (u, v, rng.randint(1, q))
            for u in range(1, n_vertices + 1)
            for v in range(u + 1, n_vertices + 1)
        ),
    )
