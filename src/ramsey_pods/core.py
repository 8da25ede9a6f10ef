"""Grid vectors, the at-least-r-coordinates dominance relation, and validation
of increasing sequences and pairwise-comparable sets, with machine-checkable
certificates for every verdict.

A ``VectorFamily`` stores its vectors as one read-only (m, q) coordinate
array; the validators, the reorderings and the cyclic-triple search read
that array through one pairwise-dominance kernel (``_win_blocks``).
``GridVector`` is the single-vector form that ``less_r``, ``compare_r`` and
the pods use.

All indices exposed by this module are 1-based: coordinate positions run over
1..q, family positions over 1..N, and coordinate values over 1..n.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np


class Comparison(Enum):
    FORWARD = "forward"
    BACKWARD = "backward"
    BOTH = "both"
    INCOMPARABLE = "incomparable"


class Verdict(Enum):
    INCREASING = "increasing"
    COMPARABLE = "comparable"
    FAIL_PAIR = "fail_pair"
    CYCLIC_TRIPLE = "cyclic_triple"


@dataclass(frozen=True)
class GridVector:
    """A point of [n]^q; ``coords`` holds q values, each in 1..n."""

    coords: tuple[int, ...]
    n: int

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(map(operator.index, self.coords)))
        if not self.coords:
            raise ValueError("a grid vector needs at least one coordinate")
        if self.n < 1:
            raise ValueError("grid side must be positive")
        for c in self.coords:
            if not 1 <= c <= self.n:
                raise ValueError(f"coordinate {c} outside [1, {self.n}]")

    @property
    def q(self) -> int:
        return len(self.coords)


def less_r(x: GridVector, y: GridVector, r: int) -> bool:
    """True iff y is strictly larger than x in at least r coordinates."""
    if x.q != y.q or x.n != y.n:
        raise ValueError(f"ambient mismatch: ({x.q},{x.n}) vs ({y.q},{y.n})")
    if not 1 <= r <= x.q:
        raise ValueError(f"threshold r={r} outside [1, {x.q}]")
    return sum(1 for a, b in zip(x.coords, y.coords) if a < b) >= r


def compare_r(x: GridVector, y: GridVector, r: int) -> Comparison:
    """Orientation of the pair under the threshold-r dominance relation.

    BOTH is possible only when r <= q/2; a pair related in both directions
    would need 2r strict coordinates split between the two.
    """
    fwd, bwd = less_r(x, y, r), less_r(y, x, r)
    if fwd:
        return Comparison.BOTH if bwd else Comparison.FORWARD
    return Comparison.BACKWARD if bwd else Comparison.INCOMPARABLE


def _coord_dtype(n: int):
    """int64 when every coordinate in 1..n fits in it, else object (Python ints)."""
    return np.int64 if n <= np.iinfo(np.int64).max else object


class VectorFamily:
    """An ordered list of grid vectors sharing one ambient [n]^q, with a threshold r.

    The only stored state is ``coords``, a read-only (m, q) integer array
    whose row i is vector i + 1, plus ``n`` and ``r``.  Its dtype is int64,
    or object when n does not fit in int64.  Every instance is stored by
    ``_set``, which checks the array in numpy; the constructor,
    ``from_array``, ``from_coords`` and ``from_json`` all end there.
    ``vectors`` rebuilds the members as ``GridVector`` objects.
    """

    def __init__(self, vectors: Iterable[GridVector], r: int):
        vectors = tuple(vectors)
        if len({(v.q, v.n) for v in vectors}) > 1:
            raise ValueError("all members must share the same (q, n) ambient")
        self._set([v.coords for v in vectors], r, vectors[0].n if vectors else 1)

    @classmethod
    def from_array(cls, coords, r: int, n: int) -> "VectorFamily":
        """The family whose vector i + 1 is row i of ``coords``; checked and copied."""
        fam = cls.__new__(cls)
        fam._set(coords, r, n)
        return fam

    def _set(self, rows, r: int, n: int) -> None:
        """Check an (m, q) coordinate array in numpy and store a read-only copy."""
        try:
            coords = np.asarray(rows)
        except ValueError:  # numpy's message for rows of different lengths
            raise ValueError("all members must share the same (q, n) ambient") from None
        if coords.dtype.kind == "f" and not isinstance(rows, np.ndarray):
            # numpy reads ints below 0 mixed with ints above 2^63 - 1 as float64
            exact = np.array(rows, object)
            if all(isinstance(x, (int, np.integer)) for x in exact.flat):
                coords = exact
        if coords.ndim and not len(coords):
            raise ValueError("a family must contain at least one vector")
        if coords.ndim != 2:
            raise ValueError("a family's coordinates form an (m, q) array")
        if not coords.shape[1]:
            raise ValueError("a grid vector needs at least one coordinate")
        if coords.dtype.kind not in "buiO":
            raise ValueError("coordinates need integers")
        if coords.dtype == object:  # ints beyond int64; any other entry raises TypeError
            coords = np.array(list(map(operator.index, coords.flat)), object).reshape(coords.shape)
        n, r = operator.index(n), operator.index(r)
        bad = (coords < 1) | (coords > n)
        if bad.any():
            raise ValueError(f"coordinate {coords.flat[bad.argmax()]} outside [1, {n}]")
        if not 1 <= r <= coords.shape[1]:
            raise ValueError(f"threshold r={r} outside [1, {coords.shape[1]}]")
        self.coords = coords.astype(_coord_dtype(n))
        self.coords.flags.writeable = False
        self.n, self.r = n, r

    @property
    def q(self) -> int:
        return self.coords.shape[1]

    @property
    def vectors(self) -> tuple[GridVector, ...]:
        return tuple(GridVector(row, self.n) for row in self.coords.tolist())

    def __len__(self) -> int:
        return len(self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, VectorFamily)
            and (self.n, self.r) == (other.n, other.r)
            and np.array_equal(self.coords, other.coords)
        )

    @classmethod
    def from_coords(cls, rows: Iterable[Sequence[int]], r: int, n: int | None = None) -> "VectorFamily":
        """The family of the given rows; n defaults to their largest entry."""
        rows = list(rows)
        if n is None:
            n = max((max(row) for row in rows), default=1)
        return cls.from_array(rows, r, n)

    def to_json(self) -> dict:
        return {"q": self.q, "n": self.n, "r": self.r, "vectors": self.coords.tolist()}

    @classmethod
    def from_json(cls, data: dict) -> "VectorFamily":
        n = operator.index(data["n"])
        fam = cls.from_array(data["vectors"], operator.index(data["r"]), n)
        if fam.q != operator.index(data["q"]):
            raise ValueError("declared q does not match vector width")
        return fam


@dataclass(frozen=True)
class ComparabilityCertificate:
    """Outcome of a family validation; indices are 1-based family positions.

    FAIL_PAIR carries ``pair`` = (a, b), the lexicographically first offending
    pair, and ``check``, the validator that issued it: "increasing" (vector a
    is not below vector b) or "comparable" (neither is below the other).
    CYCLIC_TRIPLE carries ``triple`` = (x, y, z) with the dominance relation
    cycling x -> y -> z -> x, and the three coordinate witness sets
    A = {i: x_i < y_i}, B = {i: y_i < z_i}, C = {i: z_i < x_i}.
    """

    verdict: Verdict
    pair: tuple[int, int] | None = None
    triple: tuple[int, int, int] | None = None
    witness_a: frozenset[int] | None = None
    witness_b: frozenset[int] | None = None
    witness_c: frozenset[int] | None = None
    check: str | None = None

    def ok(self) -> bool:
        return self.verdict in (Verdict.INCREASING, Verdict.COMPARABLE)

    def to_json(self) -> dict:
        data: dict = {"verdict": self.verdict.value}
        if self.pair is not None:
            data["pair"] = list(self.pair)
        if self.triple is not None:
            data["triple"] = list(self.triple)
            data["witness_a"] = sorted(self.witness_a)
            data["witness_b"] = sorted(self.witness_b)
            data["witness_c"] = sorted(self.witness_c)
        return data


INCREASING = ComparabilityCertificate(Verdict.INCREASING)
COMPARABLE = ComparabilityCertificate(Verdict.COMPARABLE)


# Cells of one (rows x m) count block: the block and the comparison it adds
# per coordinate stay near 256 KB each, whatever the family size.
_BLOCK_CELLS = 1 << 18


def _win_blocks(coords: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Pairwise dominance counts of an (m, q) array, a bounded row block at a time.

    Yields (lo, counts) in row order, where counts[i, j] is the number of
    coordinates in which row j is strictly larger than row lo + i.  Together
    the blocks cover all m rows; each has about _BLOCK_CELLS cells.
    """
    m, q = coords.shape
    cols = np.ascontiguousarray(coords.T)
    dtype = np.min_scalar_type(q)  # a count never exceeds q
    step = max(1, _BLOCK_CELLS // max(m, 1))
    for lo in range(0, m, step):
        rows = cols[:, lo : lo + step]
        counts = np.zeros((rows.shape[1], m), dtype=dtype)
        for k in range(q):
            counts += cols[k] > rows[k, :, None]
        yield lo, counts


def _comparable_blocks(coords: np.ndarray, r: int) -> Iterator[tuple[int, np.ndarray]]:
    """The r-comparability relation of an (m, q) array, one ``_win_blocks`` block at a time.

    Yields (lo, comparable) in row order: comparable[i, j] is set iff one
    of rows lo + i and j beats the other in at least r coordinates.
    """
    # the counts of the negated array are the coordinates where row j is smaller
    for (lo, up), (_, down) in zip(_win_blocks(coords), _win_blocks(-coords)):
        yield lo, (up >= r) | (down >= r)


def _below(coords: np.ndarray, r: int) -> np.ndarray:
    """(m, m) bool matrix: [i, j] iff row j beats row i in at least r coordinates."""
    m = len(coords)
    out = np.empty((m, m), dtype=bool)
    for lo, counts in _win_blocks(coords):
        out[lo : lo + len(counts)] = counts >= r
    return out


def _first_pair(bad_blocks: Iterator[tuple[int, np.ndarray]]) -> tuple[int, int] | None:
    """The first 1-based (a, b), a < b, in row-major order whose cell is set.

    ``bad_blocks`` yields (lo, bad) row blocks as ``_win_blocks`` does; the
    scan stops at the first block holding a set cell.
    """
    for lo, bad in bad_blocks:
        bad = np.triu(bad, lo + 1)
        idx = int(bad.argmax())
        if bad.flat[idx]:
            a, b = divmod(idx, bad.shape[1])
            return lo + a + 1, b + 1
    return None


def validate_increasing(fam: VectorFamily) -> ComparabilityCertificate:
    """Check that every earlier vector is below every later one.

    Returns INCREASING, or FAIL_PAIR with the lexicographically first (a, b)
    such that vector a is not below vector b.
    """
    r = fam.r
    pair = _first_pair((lo, up < r) for lo, up in _win_blocks(fam.coords))
    if pair is None:
        return INCREASING
    return ComparabilityCertificate(Verdict.FAIL_PAIR, pair=pair, check="increasing")


def validate_comparable(fam: VectorFamily) -> ComparabilityCertificate:
    """Check that every unordered pair is related in at least one direction.

    Duplicate vectors always fail: an equal pair has no strict coordinate.
    """
    pair = _first_pair(
        (lo, ~comparable) for lo, comparable in _comparable_blocks(fam.coords, fam.r)
    )
    if pair is None:
        return COMPARABLE
    return ComparabilityCertificate(Verdict.FAIL_PAIR, pair=pair, check="comparable")


def _witness_sets(x: np.ndarray, y: np.ndarray, z: np.ndarray):
    """The 1-based coordinates where x < y, where y < z and where z < x."""
    return tuple(
        frozenset((np.flatnonzero(u < v) + 1).tolist()) for u, v in ((x, y), (y, z), (z, x))
    )


def _comparable_below(fam: VectorFamily) -> np.ndarray:
    """``_below`` of a comparable family; ValueError for any other family."""
    below = _below(fam.coords, fam.r)
    if np.triu(~(below | below.T), 1).any():
        raise ValueError("input family is not comparable")
    return below


def find_cyclic_triple(fam: VectorFamily) -> ComparabilityCertificate | None:
    """First (by index tuple) triple whose dominance relation forms a cycle.

    Requires a comparable family.  Returns None when no cycle exists; for
    r > 2q/3 that is always the case, since the three witness sets each have
    size >= r and would share a coordinate i with x_i < y_i < z_i < x_i.
    Triples a < b < c are tried in lexicographic order, each as the cycle
    a -> b -> c -> a before a -> c -> b -> a.
    """
    return _cyclic_triple(fam.coords, _comparable_below(fam))


def _cyclic_triple(coords: np.ndarray, below: np.ndarray) -> ComparabilityCertificate | None:
    """``find_cyclic_triple`` on the family's coordinates and ``_below`` matrix."""
    for a in range(len(below) - 2):
        later = below[a + 1 :, a + 1 :]  # [b, c]: b below c, both after a
        above_a = below[a, a + 1 :]  # b: a below b
        under_a = below[a + 1 :, a]  # b: b below a
        forward = later & above_a[:, None] & under_a[None, :]  # a -> b -> c -> a
        backward = later.T & under_a[:, None] & above_a[None, :]  # a -> c -> b -> a
        hit = np.triu(forward | backward, 1)
        idx = int(hit.argmax())
        if not hit.flat[idx]:
            continue
        b, c = divmod(idx, hit.shape[1])
        i, j, k = (a, a + 1 + b, a + 1 + c) if forward.flat[idx] else (a, a + 1 + c, a + 1 + b)
        wa, wb, wc = _witness_sets(coords[i], coords[j], coords[k])
        return ComparabilityCertificate(
            Verdict.CYCLIC_TRIPLE,
            triple=(i + 1, j + 1, k + 1),
            witness_a=wa,
            witness_b=wb,
            witness_c=wc,
        )
    return None


def transitive_order(fam: VectorFamily):
    """Reorder a comparable family into an increasing one, if possible.

    Returns a tuple of 1-based indices pi such that the family read in that
    order validates as increasing, or a CYCLIC_TRIPLE certificate when no
    such order exists.  Pairs related in both directions are oriented toward
    the higher index; the order is the only topological order of the
    resulting orientation.
    """
    below = _comparable_below(fam)
    # precede[a, b]: a must come before b.  A pair a < b goes a -> b when a
    # is below b (also when b is below a too), and b -> a otherwise.
    precede = np.triu(below, 1) | np.tril(~below.T, -1)
    # precede orients every pair once, so it is acyclic iff its in-degrees
    # are 0..m-1, and then sorting by in-degree gives its only topological
    # order: the one any drain of sources returns
    indeg = precede.sum(axis=0)
    order = np.argsort(indeg)
    if not np.array_equal(indeg[order], np.arange(len(below))):
        cert = _cyclic_triple(fam.coords, below)
        assert cert is not None  # a cyclic tournament has a cyclic triangle
        return cert
    return tuple(int(i) + 1 for i in order)


def reordered(fam: VectorFamily, order: Sequence[int]) -> VectorFamily:
    """The same family read in the given 1-based index order."""
    return VectorFamily.from_array(fam.coords[np.asarray(order, np.intp) - 1], fam.r, fam.n)

