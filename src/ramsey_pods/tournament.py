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
        """Parse an edge list: each pair (u, v), u < v, once, as (u, v, color).

        The list may be an (m, 3) integer array, checked in numpy; one that
        fails a check goes through the per-edge loop as a list, which
        reports its first bad entry.
        """
        if n_vertices < 1:
            raise ValueError("need at least one vertex")
        if q < 1:
            raise ValueError("palette must be nonempty")
        if isinstance(colors, np.ndarray):
            upper = _scatter_edges(colors, n_vertices, q, _color_dtype(q), ordered=True)
            if upper is not None:
                self._set(q, upper + upper.T)
                return
            colors = colors.tolist()
        colors = list(colors)
        if len(colors) < n_vertices * (n_vertices - 1) // 2:
            # before the table is built; a list this long bounds it, and has
            # every pair if none is colored twice
            raise ValueError("every vertex pair must be colored exactly once")
        width = n_vertices + 1
        upper = [[0] * width for _ in range(width)]  # row u holds the pairs (u, v > u)
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


def _scatter_edges(
    edges: np.ndarray, n: int, q: int, dtype: np.dtype, ordered: bool
) -> np.ndarray | None:
    """The (N+1)x(N+1) matrix with c at [u, v] per row (u, v, c) of an edge array.

    None unless ``edges`` is an (m, 3) integer array with one row per pair
    of 1..N: m = N(N-1)/2 rows, u and v in 1..N, u < v when ``ordered``
    and u != v otherwise, colors in 1..q, and no pair twice in either
    orientation.  Checks run in that order.  ``dtype`` is the matrix's,
    one that holds q; None too when int64 does not hold it (q >= 2^63).
    """
    m = n * (n - 1) // 2
    if edges.shape != (m, 3) or edges.dtype.kind not in "iu" or not np.can_cast(dtype, np.int64):
        return None
    u, v, c = edges.T
    if not np.all((u >= 1) & (v >= 1) & (u <= n) & (v <= n) & ((u < v) if ordered else (u != v))):
        return None
    if not np.all((c >= 1) & (c <= q)):
        return None
    table = np.zeros((n + 1, n + 1), dtype)
    table[u, v] = c
    hit = table != 0
    # a pair listed twice, in either orientation, covers fewer than 2m cells
    if np.count_nonzero(hit | hit.T) != 2 * m:
        return None
    return table


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
        """Parse an edge list: each pair once, as (tail, head, color).

        The list may be an (m, 3) integer array, checked in numpy; one that
        fails a check goes through the per-edge loop as a list, which
        reports its first bad entry.
        """
        if n_vertices < 1:
            raise ValueError("need at least one vertex")
        if q < 1:
            raise ValueError("palette must be nonempty")
        n = n_vertices
        vertices = range(1, n + 1)
        if isinstance(edges, np.ndarray):
            tails = _scatter_edges(edges, n, q, np.min_scalar_type(-q - 1), ordered=False)
            if tails is not None:
                forward = tails[1:, 1:]
                self._set(vertices, q, forward - forward.T)
                return
            edges = edges.tolist()
        edges = list(edges)
        if len(edges) < n * (n - 1) // 2:
            # before the table is built; a list this long bounds it, and has
            # every pair if none is oriented twice
            raise ValueError("every vertex pair needs exactly one directed edge")
        get = {v: v - 1 for v in vertices}.get
        tails = [[0] * n for _ in range(n)]  # row i holds c at j for an edge i -> j
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


def cyclic_positions(t: ColoredTournament) -> np.ndarray:
    """Every cyclic triangle as a row (a, b, c), a -> b -> c -> a, of positions.

    Positions index ``t.vertices``; the result is an intp array of shape
    (T, 3).  A row starts at the least position i of its 3-set, and rows
    are ordered by the positions (i, j, k), i < j < k, of the set: one numpy
    pass per i reads the pairs j < k after it that close a cycle with it.
    """
    out = t._arc > 0
    blocks = [np.empty((0, 3), np.intp)]
    for i in range(len(out) - 2):
        beats = out[i, i + 1 :]
        fwd = out[i + 1 :, i + 1 :]
        # [j, k]: i -> j -> k -> i when i beats j, else i -> k -> j -> i
        hits = np.where(beats[:, None], fwd & ~beats, fwd.T & beats)
        j, k = np.nonzero(np.triu(hits, 1))
        b, c = np.where(beats[j], j, k), np.where(beats[j], k, j)
        blocks.append(np.column_stack((np.full_like(b, i), b + i + 1, c + i + 1)))
    return np.concatenate(blocks)


def _labelled(t: ColoredTournament, rows: np.ndarray) -> Iterator[tuple[int, int, int]]:
    """Rows of positions as tuples of labels, in order."""
    labels = np.array(t.vertices).take(rows)
    return zip(*(col.tolist() for col in labels.T))


def cycle_patterns(t: ColoredTournament, rows: np.ndarray) -> tuple[np.ndarray, list, np.ndarray]:
    """Per row (a, b, c) of ``cyclic_positions``, its cycle colors and pattern.

    Returns ``(colors, patterns, which)``: the (T, 3) colors of (a, b),
    (b, c) and (c, a), read in one gather; the distinct patterns, ascending;
    and per row the index of its pattern.  A pattern is the lexicographically
    least cyclic rotation of a row's colors.
    """
    colors = np.abs(t._arc[rows, rows[:, [1, 2, 0]]])
    # colors ranked among the m in t, so one int64 code per triple holds any
    # palette (m^3 < 2^63 below 2^21 colors) and orders as the triples do
    values = np.unique(np.abs(t._arc))
    a, b, c = np.searchsorted(values, colors).astype(np.int64).T
    m, values = len(values), values.tolist()
    least = np.minimum(np.minimum((a * m + b) * m + c, (b * m + c) * m + a), (c * m + a) * m + b)
    codes, which = np.unique(least, return_inverse=True)
    patterns = [(values[x // m**2], values[x // m % m], values[x % m]) for x in codes.tolist()]
    return colors, patterns, which.reshape(-1)


def cyclic_triangles(t: ColoredTournament):
    """Count of 3-sets inducing a directed cycle, plus an iterator over them.

    The label view of ``cyclic_positions``: the count is its number of
    rows, and the iterator yields each row's labels (a, b, c), in its order.
    """
    rows = cyclic_positions(t)
    return len(rows), _labelled(t, rows)


def pattern_buckets(t: ColoredTournament) -> dict[tuple[int, int, int], list[tuple[int, int, int]]]:
    """Cyclic triangles grouped by the pattern of their edge colors.

    The label view of ``cyclic_positions`` grouped by ``cycle_patterns``:
    buckets in the order of their first triangle, each holding its
    triangles in ``cyclic_triangles`` order.
    """
    rows = cyclic_positions(t)
    _, patterns, which = cycle_patterns(t, rows)
    buckets: dict[tuple[int, int, int], list[tuple[int, int, int]]] = {}
    for tri, i in zip(_labelled(t, rows), which.tolist()):
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
