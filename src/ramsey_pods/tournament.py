"""Edge-colored tournaments and ordered colorings.

Vertices are integer labels; a freshly parsed instance uses 1..N.  Induced
subtournaments keep the original labels so that path certificates always
refer to the instance they were found in.  Each class stores one numpy
matrix and only this module reads it: a tournament a signed arc matrix over
vertex positions (see ``ColoredTournament``), an ordered coloring a
symmetric color matrix indexed by label (see ``OrderedColoring``).  The
sub-tournaments, recolorings and allowed-color adjacency the other modules
use are numpy operations on those matrices.
"""

from __future__ import annotations

import itertools
import operator
import random
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np


class OrderedColoring:
    """A q-edge-colored complete graph on ordered vertices 1..N.

    The only stored state is the color matrix ``_color``, indexed by label:
    an (N+1)x(N+1) array whose entries [u, v] and [v, u] both hold the color
    of the pair, with zeros on the diagonal and in row and column 0.  Its
    dtype is the smallest unsigned one that holds q.  Every instance is
    stored by ``_set``, which checks the matrix in numpy; the edge-list
    parser (the constructor) and ``from_matrix`` both end there.  Other
    modules read the matrix through ``matrix``, ``color``, ``edges`` and
    ``allowed_rows``.
    """

    def __init__(self, n_vertices: int, q: int, colors: Iterable[tuple[int, int, int]]):
        """Parse an edge list: each pair (u, v), u < v, once, as (u, v, color)."""
        if n_vertices < 1:
            raise ValueError("need at least one vertex")
        if q < 1:
            raise ValueError("palette must be nonempty")
        width = n_vertices + 1
        upper = [[0] * width for _ in range(width)]  # row u holds the pairs (u, v > u)
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
            try:
                u | v | c  # defined for ints, numpy ints and bools; for no float
            except TypeError:
                raise ValueError(f"edge ({u},{v}) with color {c} needs integers") from None
            row = upper[u]
            if row[v]:
                raise ValueError(f"edge ({u},{v}) colored twice")
            row[v] = c
            seen += 1
        if seen != n_vertices * (n_vertices - 1) // 2:
            raise ValueError("every vertex pair must be colored exactly once")
        half = _color_rows(upper, q)
        self._set(q, half + half.T)

    @classmethod
    def from_matrix(cls, q: int, color) -> "OrderedColoring":
        """The coloring whose pair (u, v) has color ``color[u, v]``.

        ``color`` is an (N+1)x(N+1) integer matrix in the layout of
        ``matrix``; it is checked and copied.
        """
        k = cls.__new__(cls)
        k._set(q, color)
        return k

    def _set(self, q: int, color) -> None:
        """Check a color matrix in numpy and store a read-only copy in q's dtype."""
        color = np.asarray(color)
        if color.ndim != 2 or color.shape[0] != color.shape[1]:
            raise ValueError("color matrix must be square")
        if len(color) < 2:
            raise ValueError("need at least one vertex")
        if q < 1:
            raise ValueError("palette must be nonempty")
        if np.count_nonzero(color != color.T):
            raise ValueError("color matrix is not symmetric")
        # symmetric, so a zero row 0 is a zero column 0 too
        if np.count_nonzero(color[0]) or np.count_nonzero(color.diagonal()):
            raise ValueError("color matrix needs zeros on its diagonal and in row and column 0")
        _check_palette(color[1:, 1:], q)
        self.q = q
        self._color = color.astype(_color_dtype(q))
        self._color.flags.writeable = False

    @property
    def n_vertices(self) -> int:
        return len(self._color) - 1

    @property
    def matrix(self) -> np.ndarray:
        """The read-only color matrix: [u, v] is the color of the pair (u, v)."""
        return self._color

    def color(self, u: int, v: int) -> int:
        if u == v:
            raise ValueError("no loops")
        return self._color.item(operator.index(u), operator.index(v))

    def allowed_rows(self, allowed: Iterable[int]) -> list[bytes]:
        """Per label u in 0..N, byte v is 1 iff the pair (u, v) has an allowed color.

        Row 0, column 0 and the diagonal are all zero.
        """
        ok = _in_palette(self._color, allowed)
        raw, width = ok.tobytes(), len(ok)
        return [raw[i : i + width] for i in range(0, len(raw), width)]

    def _upper(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each pair u < v once, row-major, as arrays of u, v and color."""
        labels = np.arange(1, len(self._color))
        above = labels[:, None] < labels
        u, v = np.nonzero(above)
        return u + 1, v + 1, self._color[1:, 1:][above]

    def edges(self) -> Iterator[tuple[int, int, int]]:
        return zip(*(a.tolist() for a in self._upper()))

    def recolored(self, mapping: Callable[[int], int]) -> "OrderedColoring":
        """A copy with every color c replaced by mapping(c).

        The new palette is 1..max(mapping(c) for c in 1..q); a mapped color
        below 1 raises ValueError.
        """
        table, new_q = _recoloring(self.q, mapping)
        return OrderedColoring.from_matrix(new_q, table[self._color])

    def as_tournament(self) -> "ColoredTournament":
        """The transitive tournament carrying the same colors."""
        colors = self._color[1:, 1:].astype(np.min_scalar_type(-self.q - 1))
        t = ColoredTournament.__new__(ColoredTournament)
        # every pair points from the smaller label to the larger
        t._set(range(1, self.n_vertices + 1), self.q, np.triu(colors) - np.tril(colors))
        return t

    def to_json(self) -> dict:
        return {
            "N": self.n_vertices,
            "q": int(self.q),
            "colors": np.stack(self._upper(), axis=1).tolist(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "OrderedColoring":
        return cls(operator.index(data["N"]), operator.index(data["q"]), data["colors"])

    def __eq__(self, other):
        return (
            isinstance(other, OrderedColoring)
            and self.q == other.q
            and np.array_equal(self._color, other._color)
        )


def _color_dtype(q: int) -> np.dtype:
    """The smallest unsigned dtype that holds every color of 1..q."""
    return np.min_scalar_type(int(q))


def _color_rows(rows: list[list[int]], q: int) -> np.ndarray:
    """A square list of rows with entries in 0..q as a matrix in q's dtype."""
    dtype = _color_dtype(q)
    if dtype != np.uint8:
        return np.array(rows, dtype)
    # every entry is in 0..255, so each row packs as bytes at C speed
    flat = np.frombuffer(b"".join(map(bytearray, rows)), np.uint8)
    return flat.reshape(len(rows), len(rows))


def _check_palette(colors: np.ndarray, q: int) -> None:
    """Raise ValueError unless every off-diagonal entry is an integer in 1..q.

    ``colors`` is square with a zero diagonal.  The first offending entry
    off the diagonal, in row-major order, is the one reported.
    """
    if colors.dtype.kind not in "buiO":
        raise ValueError("color matrix needs integers")
    bad = (colors < 1) | (colors > q)
    if np.count_nonzero(bad) > len(bad):  # more than the zero diagonal
        np.fill_diagonal(bad, False)
        u, v = np.argwhere(bad)[0]
        raise ValueError(f"color {colors[u, v]} outside [1, {q}]")


def _in_palette(colors: np.ndarray, allowed: Iterable[int]) -> np.ndarray:
    """Which entries of a color matrix are in ``allowed``; a zero entry never is."""
    ok = np.zeros(colors.shape, dtype=bool)
    for c in allowed:
        if c != 0:
            ok |= colors == c
    return ok


def _recoloring(q: int, mapping: Callable[[int], int]) -> tuple[np.ndarray, int]:
    """The lookup table [0, mapping(1), ..., mapping(q)] and its largest color."""
    table = [0] + [mapping(c) for c in range(1, q + 1)]
    return np.array(table), max(table[1:])


class ColoredTournament:
    """A q-edge-colored tournament on an explicit label set.

    The only stored state is the signed arc matrix ``_arc`` over vertex
    positions (``_idx`` maps a label to its position): ``_arc[i, j]`` is c
    when the pair is oriented i -> j with color c, -c when j -> i, and 0 on
    the diagonal.  Its dtype is the smallest that holds -q - 1.  Only this
    module reads it; everything else goes through ``color``, ``has_edge``,
    ``edges``, ``allowed_masks``, ``restrict`` and ``recolored``.
    """

    def __init__(self, n_vertices: int, q: int, edges: Iterable[tuple[int, int, int]]):
        if n_vertices < 1:
            raise ValueError("need at least one vertex")
        if q < 1:
            raise ValueError("palette must be nonempty")
        n = n_vertices
        vertices = range(1, n + 1)
        get = {v: v - 1 for v in vertices}.get
        tails = [[0] * n for _ in range(n)]  # row i holds c at j for an edge i -> j
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
            try:
                u | v | c  # defined for ints, numpy ints and bools; for no float
            except TypeError:
                raise ValueError(f"edge ({u},{v}) with color {c} needs integers") from None
            row = tails[i]
            if row[j] or tails[j][i]:
                raise ValueError(f"pair ({u},{v}) oriented twice")
            row[j] = c
            seen += 1
        if seen != n * (n - 1) // 2:
            raise ValueError("every vertex pair needs exactly one directed edge")
        forward = _color_rows(tails, q).astype(np.min_scalar_type(-q - 1))
        self._set(vertices, q, forward - forward.T)

    def _set(self, vertices: Iterable[int], q: int, arc: np.ndarray) -> None:
        self.vertices: tuple[int, ...] = tuple(vertices)
        self.q = q
        self._idx = {v: i for i, v in enumerate(self.vertices)}
        if len(self._idx) != len(self.vertices):
            # _idx keeps a repeated label's last position
            v = next(v for i, v in enumerate(self.vertices) if self._idx[v] != i)
            raise ValueError(f"vertex {v} listed twice")
        self._arc = arc

    def _gather(self, labels: Sequence[int]) -> np.ndarray:
        """The signed arc matrix over ``labels``, in their order."""
        idx = np.fromiter(map(self._idx.__getitem__, labels), np.intp, len(labels))
        return self._arc.take(idx, 0).take(idx, 1)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def has_edge(self, u: int, v: int) -> bool:
        """True iff the pair is oriented u -> v."""
        return self._arc.item(self._idx[u], self._idx[v]) > 0

    def color(self, u: int, v: int) -> int:
        if u == v:
            raise ValueError("no loops")
        return abs(self._arc.item(self._idx[u], self._idx[v]))

    def cycle_colors(self, triangles: Sequence[tuple[int, int, int]]) -> np.ndarray:
        """The colors of (a, b), (b, c) and (c, a) per triangle (a, b, c), in one gather.

        Returns an int array of shape (len(triangles), 3).
        """
        flat = itertools.chain.from_iterable(triangles)
        pos = np.fromiter(map(self._idx.__getitem__, flat), np.intp, 3 * len(triangles))
        pos = pos.reshape(-1, 3)
        return np.abs(self._arc[pos, np.roll(pos, -1, axis=1)])

    def allowed_masks(
        self, labels: Sequence[int], allowed: frozenset[int]
    ) -> tuple[list[int], list[int]]:
        """Allowed-colored adjacency over a label sequence, both orientations.

        Returns ``(out, into)`` indexed by position in ``labels``: bit b of
        ``out[a]`` is set iff labels[a] -> labels[b] carries an allowed
        color, bit b of ``into[a]`` iff labels[b] -> labels[a] does.
        """
        sub = self._gather(labels)
        ok = _in_palette(np.abs(sub), allowed)
        return _rows(ok & (sub > 0)), _rows(ok & (sub < 0))

    def out_degree(self, u: int) -> int:
        return int(np.count_nonzero(self._arc[self._idx[u]] > 0))

    def _triples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each pair once, row-major over positions, as arrays of tail, head and color."""
        a, b = np.triu_indices(len(self.vertices), 1)
        arc = self._arc[a, b]
        verts = np.array(self.vertices)
        forward = arc > 0
        tails = np.where(forward, verts[a], verts[b])
        heads = np.where(forward, verts[b], verts[a])
        return tails, heads, np.abs(arc)

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Each pair once, as (tail, head, color), row-major over positions."""
        return zip(*(a.tolist() for a in self._triples()))

    def restrict(self, keep: Iterable[int]) -> "ColoredTournament":
        """Induced subtournament on the given labels (labels preserved).

        A label listed twice raises ValueError.
        """
        keep_sorted = sorted(keep)
        t = ColoredTournament.__new__(ColoredTournament)
        t._set(keep_sorted, self.q, self._gather(keep_sorted))
        return t

    def recolored(self, mapping: Callable[[int], int]) -> "ColoredTournament":
        """A copy, labels and orientations kept, with every color c replaced by mapping(c).

        The new palette is 1..max(mapping(c) for c in 1..q); a mapped color
        below 1 raises ValueError.
        """
        table, new_q = _recoloring(self.q, mapping)
        colors = table[np.abs(self._arc)]
        _check_palette(colors, new_q)
        arc = np.where(self._arc > 0, colors, -colors)
        t = ColoredTournament.__new__(ColoredTournament)
        t._set(self.vertices, new_q, arc.astype(np.min_scalar_type(-new_q - 1)))
        return t

    def to_json(self) -> dict:
        if self.vertices != tuple(range(1, self.n_vertices + 1)):
            raise ValueError("only 1..N labeled tournaments serialize")
        return {
            "N": self.n_vertices,
            "q": int(self.q),
            "edges": np.stack(self._triples(), axis=1).tolist(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "ColoredTournament":
        return cls(operator.index(data["N"]), operator.index(data["q"]), data["edges"])


def _rows(bits: np.ndarray) -> list[int]:
    """Each row of a bool matrix as an int: bit b is column b."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    raw, width = packed.tobytes(), packed.shape[1]
    return [
        int.from_bytes(raw[k * width : (k + 1) * width], "little") for k in range(len(packed))
    ]


def backward_degrees(t: ColoredTournament, order: Sequence[int]) -> list[int]:
    """Per vertex of ``order``, its pairs placed forward but oriented backward.

    Entry [a, b], a < b, of the upper triangle below is set when order[b]
    beats order[a]; a vertex's degree is its column sum (earlier vertices it
    beats) plus its row sum (later vertices that beat it).  The degrees sum
    to twice the backward edge count.
    """
    if sorted(order) != sorted(t.vertices):
        raise ValueError("order must be a permutation of the vertex set")
    back = np.triu(t._gather(order) < 0, 1)
    return (back.sum(0) + back.sum(1)).tolist()


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
    wins = dict(zip(t.vertices, np.count_nonzero(t._arc > 0, axis=1).tolist()))
    verts.sort(key=lambda v: -wins[v])
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
    wins = _rows(t._arc > 0)  # wins[i] = bitmask of the positions beaten by i
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

    The count is trace(A^3) / 3 for the 0/1 adjacency matrix A: each cyclic
    triangle is a closed walk of length 3 from each of its vertices.  A is
    held in float64, whose sums of integers are exact far past any N that
    fits in memory.  Triangles are yielded once each, in cyclic vertex order
    starting from the smallest position, ordered by the positions (i, j, k),
    i < j < k, of the 3-set: one numpy pass per i reads the pairs j < k
    after it with i -> j -> k -> i or i -> k -> j -> i.
    """
    out = t._arc > 0
    adj = out.astype(np.float64)
    count = int((adj @ adj * adj.T).sum()) // 3

    def gen():
        verts = t.vertices
        for i in range(len(verts) - 2):
            beats = out[i, i + 1 :]
            fwd = out[i + 1 :, i + 1 :]
            # [j, k]: i -> j -> k -> i when i beats j, else i -> k -> j -> i
            hits = np.where(beats[:, None], fwd & ~beats, fwd.T & beats)
            for j, k in zip(*(a.tolist() for a in np.nonzero(np.triu(hits, 1)))):
                v, w = verts[i + 1 + j], verts[i + 1 + k]
                yield (verts[i], v, w) if beats[j] else (verts[i], w, v)

    return count, gen()


def canonical_pattern(colors: tuple[int, int, int]) -> tuple[int, int, int]:
    """Lexicographically least cyclic rotation of a triangle's color triple."""
    rots = [colors, colors[1:] + colors[:1], colors[2:] + colors[:2]]
    return min(rots)


def pattern_buckets(t: ColoredTournament) -> dict[tuple[int, int, int], list[tuple[int, int, int]]]:
    """Cyclic triangles grouped by the canonical pattern of their edge colors.

    The colors of (a, b), (b, c) and (c, a) of every triangle (a, b, c) are
    read in one gather (``ColoredTournament.cycle_colors``).
    """
    buckets: dict[tuple[int, int, int], list[tuple[int, int, int]]] = {}
    _, gen = cyclic_triangles(t)
    tris = list(gen)
    if not tris:
        return buckets
    colors = t.cycle_colors(tris)
    # colors ranked among the m that occur, so one int64 per triple holds
    # any palette (m^3 < 2^63 below 2^21 colors in use); each distinct
    # triple is rotated once
    values, rank = np.unique(colors, return_inverse=True)
    a, b, c = rank.reshape(-1, 3).astype(np.int64).T
    m, values = len(values), values.tolist()
    codes, which = np.unique((a * m + b) * m + c, return_inverse=True)
    patterns = [
        canonical_pattern((values[x // m**2], values[x // m % m], values[x % m]))
        for x in codes.tolist()
    ]
    for tri, i in zip(tris, which.reshape(-1).tolist()):
        buckets.setdefault(patterns[i], []).append(tri)
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
