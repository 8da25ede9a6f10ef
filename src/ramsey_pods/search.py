"""Exact desk-scale oracles for the four extremal functions, with witnesses,
budgets, and a persistent JSONL cache.

Kinds:
  F: longest increasing vector sequence in [n]^q (maximize),
  G: largest pairwise-comparable vector set in [n]^q (maximize),
  f: smallest over colorings of ordered K_N of the longest monotone path
     using at most r colors (minimize),
  g: the same minimum over all N-vertex tournaments (minimize).

Maximizers degrade to lower_bound records when a budget trips; minimizers
degrade to upper_bound.  Exact records always carry a witness that
re-validates on load; a cache read re-validates only the records of the key
it asks for.

F is a memoized branch and bound over the set of points that beat every
point of the chain so far, and it branches only on each node's
coordinatewise-minimal points.  The lemma: a point at least i in every
coordinate is beaten only where i is beaten, so a chain starting there
can start at i instead and is never shorter.  So the all-ones point is
the one start, and ``F(3,2,8)`` = 21 closes in 1,212,492 nodes.

G is a color-ordered maximum-clique search over bitsets on the
comparability graph of the grid: each node colors its candidates greedily
once and branches only on the vertices whose color class could still beat
the incumbent.

The two minimizers are one branch-and-bound over the colorings of K_N.
It assigns edges in prefix-clique order and hands each one to per-color-
subset tables that extend the prefix objective instead of recomputing it.
``exact_f`` and ``exact_g`` differ only in what an edge may be and what the
tables hold: ``f`` colors forward edges and keeps rows of monotone path
lengths (``PrefixMonotoneTables``), updated at every edge; ``g`` also
orients each edge and keeps endpoint-mask tables (``PrefixPathTables``),
extended when a vertex's last edge is set.  ``monotone_lengths_ending``
and ``SubsetPathOracle`` stay the independent checks of every f and g
witness.

Both minimizers start their objective at a proved floor: the least v with
v^ceil(q/r) >= N (``_value_floor``), so a search ends, exact, as soon as the
incumbent meets it; this closes f and g at q = 2, r = 1 with no search.
For ``f`` the same Gallai-Roy covering argument prunes inside the search:
when vertex k is complete, the room bound asks whether the points of
[v]^ceil(q/r) that no earlier vertex's path lengths dominate still leave
one for each of the N - k later vertices (v one below the incumbent).  It
closes ``f 4 2 6`` = 4 in 7,255 nodes, where pruning on complete vertices
alone needed 180,107.  At
r = q - 1 the paper's two questions meet: n increasing vectors in [m]^q
are a coloring whose every color-avoiding monotone path has at most m
vertices, and back (``vectors_to_coloring``, ``coloring_to_vectors``).  So
f(q, q-1, N) is the least m with F(q, q-1, m) >= N, found by walking m up
from the floor on the key's one budget; it is exact because every smaller
side closed below N, and the branch-and-bound is not entered.  The same
walk over G gives g a start, through ``vectors_to_tournament``, but no
proof: the converse map is unsound on tournaments with cycles (on a
monochromatic 3-cycle every vertex ends a 3-vertex path avoiding color 2),
so g stays proved by its search or the floor.
"""

from __future__ import annotations

import itertools
import json
import operator
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .budget import Budget, BudgetClock, BudgetExceeded
from .constructions import canonical_coloring
from .core import (
    VectorFamily,
    _comparable_blocks,
    _win_blocks,
    validate_comparable,
    validate_increasing,
)
from .paths import EXACT_VERTEX_CAP, SubsetPathOracle, monotone_lengths_ending
from .reductions import vectors_to_coloring, vectors_to_tournament
from .tournament import ColoredTournament, OrderedColoring, _rows

CACHE_ENV = "RAMSEY_PODS_CACHE"

EXACT = "exact"
LOWER_BOUND = "lower_bound"
UPPER_BOUND = "upper_bound"

# F and G pack points x points relations one int per point: 32 MB each at 2^14 points
GRID_POINT_CAP = 2**14


@dataclass(frozen=True)
class ExtremalRecord:
    kind: str  # F | G | f | g
    q: int
    r: int
    size: int  # n for F/G, N for f/g
    value: int
    status: str
    certificate: dict = field(repr=False)
    nodes_explored: int = 0
    wall_seconds: float = 0.0

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json(cls, data: dict) -> "ExtremalRecord":
        if type(data) is not dict:  # a cache line such as [1, 2] or "x"
            raise TypeError(f"a record is a JSON object, got {type(data).__name__}")
        seconds = data.get("wall_seconds", 0.0)
        if type(seconds) not in (int, float):  # a string or bool is no duration
            raise TypeError(f"wall_seconds needs a number, got {seconds!r}")
        return cls(
            kind=data["kind"],
            q=_integer(data["q"]),
            r=_integer(data["r"]),
            size=_integer(data["size"]),
            value=_integer(data["value"]),
            status=data["status"],
            certificate=data["certificate"],
            nodes_explored=_integer(data.get("nodes_explored", 0)),
            wall_seconds=float(seconds),
        )


def _integer(x) -> int:
    """An int read from JSON: a string, float or bool raises TypeError."""
    if type(x) is bool:
        raise TypeError(f"expected an integer, got {x!r}")
    return operator.index(x)


def _check_params(kind: str, q: int, r: int, size: int) -> None:
    if kind not in "FGfg" or len(kind) != 1:
        raise ValueError(f"unknown kind {kind!r}")
    if not 1 <= r <= q:
        raise ValueError(f"r={r} outside [1, {q}]")
    if size < 1:
        raise ValueError("size must be positive")


# ---------------------------------------------------------------------------
# F: longest increasing sequence


def _grid_vectors(q: int, n: int) -> np.ndarray:
    """The points of [n]^q as an (n^q, q) array, rows in lexicographic order."""
    if n**q > GRID_POINT_CAP:
        raise ValueError(f"[{n}]^{q} has {n**q} grid points, above the cap of {GRID_POINT_CAP}")
    return np.indices((n,) * q).reshape(q, -1).T + 1


def _chain_rows(vecs: np.ndarray, r: int) -> tuple[list[int], list[int]]:
    """Per grid point i, as bitmasks over the points: (greater[i], up[i]).

    greater[i] holds the points that beat ``vecs[i]`` in at least r
    coordinates; up[i] holds the points at least ``vecs[i]`` in every
    coordinate, i itself excluded.  Each relation is packed one
    ``_win_blocks`` row block at a time, so no whole points x points matrix
    is ever held.
    """
    greater = [row for _, wins in _win_blocks(vecs) for row in _rows(wins >= r)]
    up = []
    # [i, j] of a block of -vecs: how many coordinates of vecs[j] are below vecs[lo + i]
    for lo, below in _win_blocks(-vecs):
        at_least = below == 0
        diag = np.arange(len(at_least))
        at_least[diag, lo + diag] = False
        up += _rows(at_least)
    return greater, up


def exact_F(q: int, r: int, n: int, budget: Budget | None = None) -> ExtremalRecord:
    """Branch-and-bound for the longest r-increasing sequence in [n]^q.

    Extensions must dominate every chosen vector (the relation is not
    transitive), so subproblems are determined by the bitmask of vectors
    dominating the whole prefix; results are memoized on that mask as the
    most points of a chain inside it.  The witness takes from each mask the
    lowest point i whose ``mask & greater[i]`` is memoized one shorter: the
    first strict maximum in lexicographic order.

    The search branches only on each node's coordinatewise-minimal points.
    If point j is at least point i in every coordinate, then every point
    that beats j in a coordinate beats i there too, so ``greater[j]`` is a
    subset of ``greater[i]``: a chain that starts at j can start at i
    instead and is never shorter.  And i comes before j in lexicographic
    order, so i stays the first strict maximum.  Once child i is settled,
    the points of ``up[i]`` leave the node's children, whether i was
    searched, read from the memo or skipped.  Memo values and witnesses are
    those of the search over every child; only memo misses go.  The same
    lemma roots the search at the all-ones point, which is below every
    other point, so there is one start.

    Each child is settled before any call: one whose mask has fewer bits
    than the node's best so far is skipped, since no chain in it can beat
    that best; one whose mask is in the memo is read in place.  Only a memo
    miss opens a node, and each charges the budget once.  Open nodes sit on
    an explicit stack, so a chain through all n^q points (r = 1) needs no
    recursion.
    """
    _check_params("F", q, r, n)
    clock = (budget or Budget()).start()
    vecs = _grid_vectors(q, n)
    greater, up = _chain_rows(vecs, r)
    # keep[i]: the children a node keeps once child i is settled
    keep = [~(row | 1 << i) for i, row in enumerate(up)]
    del up
    memo: dict[int, int] = {}
    best_chain: list[int] = []
    prefix = [0]  # the chain to the open node on top of the stack
    # per open node: [mask, children left, best length]
    stack: list[list[int]] = []

    def open_node(mask: int) -> None:
        if len(prefix) > len(best_chain):
            best_chain[:] = prefix
        clock.tick()
        stack.append([mask, mask, 0])

    chain = [0]
    try:
        open_node(greater[0])
        closed = -1  # the length of the node just closed, -1 when none
        while stack:
            top = stack[-1]
            mask, mm, best_len = top
            if closed >= 0:  # top's child prefix[-1] just closed
                prefix.pop()
                if closed >= best_len:
                    best_len = closed + 1
                closed = -1
            while mm:
                bit = mm & -mm
                i = bit.bit_length() - 1
                mm &= keep[i]
                sub = mask & greater[i]
                if sub.bit_count() < best_len:
                    continue  # no chain in sub reaches best_len
                hit = memo.get(sub)
                if hit is None:
                    break
                if len(prefix) >= len(best_chain):
                    best_chain[:] = prefix + [i]
                if hit >= best_len:
                    best_len = hit + 1
            else:
                memo[mask] = best_len
                stack.pop()
                closed = best_len
                continue
            top[1:] = mm, best_len
            prefix.append(i)
            open_node(sub)
        best = closed + 1
        mask = greater[0]  # the witness: the root, then each mask's first strict maximum
        for length in range(closed - 1, -1, -1):
            mm = mask
            while memo.get(mask & greater[(i := (mm & -mm).bit_length() - 1)]) != length:
                mm ^= 1 << i
            chain.append(i)
            mask &= greater[i]
        status = EXACT
    except BudgetExceeded:
        chain = list(best_chain)
        best = len(chain)
        status = LOWER_BOUND
    witness = VectorFamily.from_array(vecs[chain], r, n)
    assert validate_increasing(witness).ok()
    return ExtremalRecord(
        "F", q, r, n, best, status, witness.to_json(), clock.nodes, clock.elapsed()
    )


# ---------------------------------------------------------------------------
# G: maximum comparable set (maximum clique of the comparability graph)


def _comparability_rows(vecs: np.ndarray, r: int) -> tuple[np.ndarray, list[int]]:
    """The points by non-increasing comparability degree, and their packed rows.

    ``order`` is a stable argsort, so ties keep the order of ``vecs``; bit
    w of ``adj[v]`` is set iff points ``order[v]`` and ``order[w]`` are
    r-comparable.  Two passes of row blocks, one for the degrees and one
    for the rows of the renumbered points, so no whole points x points
    matrix is ever held.
    """
    degree = np.concatenate([block.sum(axis=1) for _, block in _comparable_blocks(vecs, r)])
    order = np.argsort(-degree, kind="stable")
    adj = [row for _, block in _comparable_blocks(vecs[order], r) for row in _rows(block)]
    return order, adj


def exact_G(q: int, r: int, n: int, budget: Budget | None = None) -> ExtremalRecord:
    """Maximum clique search on the r-comparability graph of [n]^q.

    Color-ordered bitset branch and bound: Tomita and Seki's MCQ in the
    bitboard form of San Segundo et al. (BBMC).  The grid points are
    renumbered once by non-increasing degree in the comparability graph
    (stable, so ties keep lexicographic order), and bit v of every candidate
    mask is point v of that order.  Each node colors its candidates greedily
    once, class by class in bit order.  A clique holds at most one vertex
    per color class, so a vertex of class k can extend the current clique
    beyond the incumbent only if len(cur) + k > len(best); only those
    vertices are branched on, highest class first, each dropped from the
    candidates once its subtree is done.  The first maximum clique found in
    this order is the witness, written in lexicographic grid order.  One
    node is one ``open_node`` call, leaves included, and each charges the
    budget once; a tripped budget leaves the incumbent as a lower bound, or
    a single vector when no leaf was reached.  Open nodes sit on an explicit
    stack, so a clique through all n^q points (r = 1, where every pair is
    comparable) needs no recursion.
    """
    _check_params("G", q, r, n)
    clock = (budget or Budget()).start()
    vecs = _grid_vectors(q, n)
    order, adj = _comparability_rows(vecs, r)
    full = (1 << len(vecs)) - 1
    # nonadj[v]: the vertices v may share a color class with, v excluded
    nonadj = [full & ~(row | 1 << v) for v, row in enumerate(adj)]
    best: list[int] = []
    cur: list[int] = []  # the clique of the open node on top of the stack
    # per open node: [candidates left, (vertex, class) pairs left to branch on]
    stack: list[list] = []

    def open_node(cand: int) -> None:
        clock.tick()
        if not cand:
            if len(cur) > len(best):
                best[:] = cur
            return
        # color cand greedily; keep the (vertex, class) pairs above the bound
        need = len(best) - len(cur)
        kept = []
        rest, color = cand, 0
        while rest:
            color += 1
            avail = rest
            while avail:
                bit = avail & -avail
                v = bit.bit_length() - 1
                avail &= nonadj[v]
                rest ^= bit
                if color > need:
                    kept.append((v, color))
        stack.append([cand, kept])

    try:
        open_node(full)
        while stack:
            top = stack[-1]
            cand, kept = top
            # highest class first; a class that cannot beat the incumbent
            # closes the node, since every class after it is lower
            if kept and len(cur) + kept[-1][1] > len(best):
                v = kept.pop()[0]
                top[0] = cand ^ 1 << v
                cur.append(v)
                depth = len(stack)
                open_node(cand & adj[v])
                if len(stack) == depth:  # a leaf: it opened nothing
                    cur.pop()
            else:
                stack.pop()
                if stack:
                    cur.pop()
        status = EXACT
    except BudgetExceeded:
        status = LOWER_BOUND
    # a budget that trips before the first leaf leaves no incumbent; any
    # single vector is a comparable family
    chosen = sorted(order[best].tolist()) or [0]
    witness = VectorFamily.from_array(vecs[chosen], r, n)
    assert validate_comparable(witness).ok()
    return ExtremalRecord(
        "G", q, r, n, len(chosen), status, witness.to_json(), clock.nodes, clock.elapsed()
    )


# ---------------------------------------------------------------------------
# f and g: one minimizer over the colorings of a complete graph


def _restricted_value_monotone(k: OrderedColoring, r: int) -> int:
    if r >= k.q:
        return k.n_vertices
    return max(
        max(monotone_lengths_ending(k, s))
        for s in itertools.combinations(range(1, k.q + 1), r)
    )


def _restricted_value_directed(t: ColoredTournament, r: int) -> int:
    if r >= t.q:
        # any Hamiltonian path in a tournament realizes N, and one always exists
        return t.n_vertices
    subsets = [frozenset(s) for s in itertools.combinations(range(1, t.q + 1), r)]
    # the subsets' tables share packed passes, 64 // N tables to a pass
    return max(oracle.longest() for oracle in SubsetPathOracle.packed(t, subsets))


# the room bound's grid [v]^t holds at most this many points; a search whose
# incumbent leaves a larger grid runs without the bound until it shrinks
ROOM_GRID_CAP = 2**12


class PrefixMonotoneTables:
    """Longest monotone paths of an ordered coloring that grows one edge at a time.

    Row (k, j) holds, per color subset, the longest monotone path ending at
    k colored within that subset, over the edges (1,k)..(j,k) set so far;
    (k, 0) is all ones and (k, k-1) is k's final row.  ``add(j, k, ...)``
    fills (k, j) from (k, j-1) and j's final row, reading only the subsets
    that hold the edge's color, so a search can prune on the partial
    maximum at every edge.  Rows are keyed by the edge, not by k alone:
    going back to an earlier edge needs no undo, because every row ``add``
    reads was written for an edge set before the one it fills.

    When k's last edge is set, the room bound runs (Gallai 1968; Roy 1967,
    as in ``_value_floor``).  Take t = ceil(q/r) subsets S_1..S_t that cover
    the palette, and the point P(j) = (L_S1(j), ..., L_St(j)) of each
    vertex j, L_S(j) being j's final row entry for S.  A later vertex w has
    L_S(w) > L_S(j) for the subset S that holds the color of (j, w), so
    P(w) lies outside the down-closure D_k of P(1..k), and the n - k later
    vertices need n - k distinct such points.  A coloring of value at most
    v therefore leaves at least n - k points of [v]^t outside D_k for every
    covering family.  At k = 0 this is ``_value_floor``.  A final row never
    changes once k is complete, which is why the bound needs monotone
    paths: a tournament's prefix path lengths are not final.
    """

    def __init__(self, n: int, subsets: Sequence[frozenset[int]]):
        palette = set().union(*subsets)
        # _holding[c]: indices of the subsets that contain color c
        self._holding = {c: tuple(i for i, s in enumerate(subsets) if c in s) for c in palette}
        self._n = n
        ones = [1] * len(subsets)
        # _rows[k][j]: row (k, j); rows[1][0] is vertex 1's final row
        self._rows = [[ones] * k for k in range(n + 1)]
        # _peak[k]: the largest entry of the final rows of 1..k
        self._peak = [1] * (n + 1)
        t = -(-len(palette) // max(map(len, subsets)))
        self._families = [
            fam
            for fam in itertools.combinations(range(len(subsets)), t)
            if set().union(*(subsets[i] for i in fam)) == palette
        ]
        self._t = t
        # the grid [side]^t: _down[p] is the bitmask of the points <= point p;
        # _covered[k] holds D_k per family; side 0 means no grid yet
        self._side = 0
        self._down: list[int] = []
        self._covered = [[0] * len(self._families) for _ in range(n + 1)]

    def add(self, j: int, k: int, arc: tuple[int, int, int], enough: int) -> int:
        """Set edge (j, k) to ``arc`` = (j, k, color); a value every completion reaches.

        The value is the longest path found so far that ends at k, or
        ``enough`` when k is complete and the room bound for value
        ``enough - 1`` fails.  Edges are added in prefix-clique order, and
        the next edge only while every value returned for the prefix stays
        below ``enough``: a search that prunes there keeps that order.
        """
        rows = self._rows[k]
        src = self._rows[j][j - 1]
        row = rows[j - 1][:]
        for i in self._holding[arc[2]]:
            if src[i] >= row[i]:
                row[i] = src[i] + 1
        rows[j] = row
        value = max(row)
        if j < k - 1:
            return value
        self._peak[k] = peak = max(self._peak[k - 1], value)
        if peak >= enough or k == self._n:
            return value
        v = enough - 1
        if v > self._side and not self._fit(v, k):
            return value
        down, prev = self._down, self._covered[k - 1]
        self._covered[k] = [d | down[self._point(row, fam)] for d, fam in zip(prev, self._families)]
        return enough if self.room(k, v) < self._n - k else value

    def room(self, k: int, v: int) -> int:
        """The fewest points of [v]^t outside D_k, over the covering families.

        Valid after k's last ``add`` with ``enough = v + 1`` returned below it.
        """
        box = self._down[self._point([v] * self._t, range(self._t))]
        return min((box & ~d).bit_count() for d in self._covered[k])

    def _point(self, row: Sequence[int], fam: Sequence[int]) -> int:
        p = 0
        for i in fam:
            p = p * self._side + row[i] - 1
        return p

    def _fit(self, v: int, k: int) -> bool:
        """Build the grid [v]^t and D_1..D_(k-1); False when it passes the cap."""
        t = self._t
        if v**t > ROOM_GRID_CAP:
            self._side = 0
            return False
        self._side = v
        down = self._down = [0] * v**t
        for p in range(v**t):
            mask, stride = 1 << p, 1
            for _ in range(t):
                if p // stride % v:  # this coordinate is above 1
                    mask |= down[p - stride]
                stride *= v
            down[p] = mask
        for j in range(1, k):
            final = self._rows[j][j - 1]
            self._covered[j] = [
                d | down[self._point(final, fam)]
                for d, fam in zip(self._covered[j - 1], self._families)
            ]
        return True


class PrefixPathTables:
    """Endpoint-mask tables of a tournament that grows one vertex at a time.

    One table per color subset, in the ``SubsetPathOracle`` convention over
    vertices 1..n (vertex v is bit v - 1): bit v of ``h[S]`` is set iff a
    path colored within the subset, with vertex set exactly S, starts at v.
    ``complete(k, ...)`` fills the 2^(k-1) masks that contain k, in
    increasing order, once every edge between k and 1..k-1 is known; the
    masks below k are read, never changed.  This is the Bellman-Held-Karp
    subset DP extended by one vertex.  Going back to a shorter prefix needs
    no undo: the next ``complete(k, ...)`` overwrites the same entries.  The
    tables are plain int lists, because at a handful of vertices numpy's
    per-call set-up costs more than the DP itself, and they grow to 2^k
    entries only when a search first reaches vertex k.
    """

    def __init__(self, n: int, subsets: Sequence[frozenset[int]]):
        # one bitmask of colors per subset
        self._colors = [sum(1 << c for c in s) for s in subsets]
        self._adj = [[0] * n for _ in subsets]  # _adj[i][v]: allowed out-neighbours
        self._h = [[0, 1] for _ in subsets]  # the empty set and vertex 1 alone
        # _into[k][j - 1]: the arc set on edge (j, k)
        self._into: list[list] = [[None] * (k - 1) for k in range(n + 1)]

    def add(self, j: int, k: int, arc: tuple[int, int, int], enough: int) -> int:
        """Set edge (j, k) to ``arc``; a value every completion reaches.

        Edges are added in prefix-clique order.  Until k's last edge this is
        1: a prefix path through k may still grow, so only ``complete`` on
        all of k's arcs gives a value.
        """
        self._into[k][j - 1] = arc
        if j < k - 1:
            return 1
        return self.complete(k, self._into[k], enough)

    def complete(self, k: int, arcs: Sequence[tuple[int, int, int]], enough: int) -> int:
        """Add vertex k; the longest allowed path through it, over all subsets.

        ``arcs`` holds (tail, head, color) for each edge between k and
        1..k-1.  Together with the longest path on 1..k-1, the result is the
        longest path of the prefix tournament on 1..k.  The fill stops at
        the first path on ``enough`` vertices and returns that length: a
        search prunes there, and the entries left unfilled are only read
        after the next ``complete(k, ...)``.  Pass ``enough > k`` for the
        exact value.
        """
        top = 1 << (k - 1)
        best = 1
        for colors, adj, h in zip(self._colors, self._adj, self._h):
            out_k = 0
            for tail, head, c in arcs:
                if tail == k:
                    other = head - 1
                    adj[other] &= ~top
                    if colors >> c & 1:
                        out_k |= 1 << other
                else:
                    other = tail - 1
                    if colors >> c & 1:
                        adj[other] |= top
                    else:
                        adj[other] &= ~top
            adj[k - 1] = out_k
            if len(h) < 2 * top:
                h.extend([0] * (2 * top - len(h)))
            h[top] = top
            for rest in range(1, top):
                s = top | rest
                # v starts a path on S iff v has an edge to a start on S - {v}
                word = top if out_k & h[rest] else 0
                m = rest
                while m:
                    b = m & -m
                    if adj[b.bit_length() - 1] & h[s ^ b]:
                        word |= b
                    m ^= b
                h[s] = word
                if word:
                    size = s.bit_count()
                    if size > best:
                        best = size
                        if best >= enough:
                            return best
        return best


# per minimizer: the witness class, its independent valuation, the map that
# turns an n-vector family at r = q - 1 into a witness of value <= n, the
# prefix tables of the branch-and-bound, and whether an edge may point backward
_MINIMIZERS = {
    "f": (
        OrderedColoring, _restricted_value_monotone, vectors_to_coloring,
        PrefixMonotoneTables, False,
    ),
    "g": (
        ColoredTournament, _restricted_value_directed, vectors_to_tournament,
        PrefixPathTables, True,
    ),
}


def _value_floor(q: int, r: int, n: int) -> int:
    """The least v with v^ceil(q/r) >= n: no coloring on n vertices has a smaller value.

    Take ceil(q/r) color subsets of size r that cover the palette, and for
    each subset S the arcs colored in S.  If no path within S has more than
    v vertices, Gallai and Roy's theorem colors those arcs' graph properly
    with v colors (for an ordered coloring: the longest monotone S-path
    ending at a vertex).  Every pair is an arc of some subset's graph, so
    the tuple of those colors is injective on vertices, and n <= v^ceil(q/r).
    Valid for f and g alike; r < q.
    """
    k = -(-q // r)
    v = 1
    while v**k < n:
        v += 1
    return v


def _least_side(
    kind: str, q: int, n: int, floor: int, stop: int, clock: BudgetClock
) -> tuple[int, VectorFamily | None]:
    """Walk the sides m = floor, floor + 1, ... below ``stop`` of F or G at r = q - 1.

    Each ``kind`` record over [m]^q runs on what is left of ``clock``'s
    budget and is charged to it.  The walk stops at the first record with
    at least n vectors and returns the floor and that record's first n
    vectors, or the floor and None when no side below ``stop`` has n, or
    when the grid passes ``GRID_POINT_CAP``.  For F each side that closes
    exactly below n raises the floor past it: ``coloring_to_vectors`` maps
    a coloring of value m to n increasing vectors in [m]^q.  For G it does
    not, since no such map is known on tournaments with cycles.  Raises
    BudgetExceeded when a record's budget trips below n.
    """
    for m in range(floor, stop):
        if m**q > GRID_POINT_CAP:
            break
        rec = _ORACLES[kind](q, q - 1, m, clock.remaining())
        clock.nodes += rec.nodes_explored
        if rec.value >= n:
            coords = VectorFamily.from_json(rec.certificate).coords[:n]
            return floor, VectorFamily.from_array(coords, q - 1, m)
        if rec.status != EXACT:
            raise BudgetExceeded(f"{kind} {q} {q - 1} {m} stopped below {n}")
        if kind == "F":
            floor = m + 1
    return floor, None


def _minimize(kind: str, q: int, r: int, n: int, budget: Budget | None) -> ExtremalRecord:
    """Branch-and-bound over the colorings of K_n, one edge at a time.

    Edges are assigned in prefix-clique order, (1,2), (1,3), (2,3), (1,4),
    ...; colors obey a first-use canonical rule (color c+1 may appear only
    after c), which fixes the color of edge (1,2) to 1 and removes the
    palette-relabeling symmetry.  With ``backward`` an edge (i,k) may also
    point k -> i, except edge (1,2): reversing every edge keeps the
    objective.  ``tables``, built from (n, color subsets), takes every edge
    through ``add`` and returns a value every completion of the prefix
    reaches; the prefix objective is the largest so far.  It starts at
    ``_value_floor``, which every coloring reaches, so a branch is pruned
    as soon as it matches the incumbent and the search ends once the
    incumbent meets the floor.  The loop over a node's choices makes that
    test before it recurses, so a pruned choice costs no call; ``dfs``
    repeats it on entry for the root call.  The incumbent starts as the
    balanced product coloring restricted to 1..n; a tripped budget leaves
    it as an upper bound.

    At r = q - 1 the maximizer's witnesses come first (``_least_side``):
    n increasing vectors in [m]^q map to a coloring of value m, and n
    comparable ones to a tournament of value at most m, so the first side
    m whose F or G record has n vectors gives an incumbent.  For f the
    walk also raises the floor past every side that F closes below n, so
    f(q, q-1, n) is the least m with F(q, q-1, m) >= n and the search
    ends before its first node.  For g only the search proves the value.
    The walk shares the budget; ``_MINIMIZERS[kind]`` names the witness
    class, the valuation that re-checks the witness, the map from vectors,
    ``tables`` and ``backward``.
    """
    cls, valuation, from_vectors, tables, backward = _MINIMIZERS[kind]
    clock = (budget or Budget()).start()
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    if r >= min(q, n - 1):
        # every coloring is optimal: a path through all n vertices (one
        # exists) has n - 1 edges, so its colors fit in one r-subset
        witness = cls(n, q, [(u, v, 1) for u, v in pairs])
        return ExtremalRecord(kind, q, r, n, n, EXACT, witness.to_json(), 0, clock.elapsed())
    floor = _value_floor(q, r, n)
    side = next(m for m in itertools.count(1) if m**q >= n)
    big = canonical_coloring(q, side)
    best_witness = cls(n, q, [(u, v, big.color(u, v)) for u, v in pairs])
    best_val = valuation(best_witness, r)
    prefix = tables(n, [frozenset(s) for s in itertools.combinations(range(1, q + 1), r)])
    edges = [(i, k) for k in range(2, n + 1) for i in range(1, k)]
    ways = [((i, k), (k, i)) if backward and e else ((i, k),) for e, (i, k) in enumerate(edges)]
    arcs: list = [None] * len(edges)  # arcs[e]: (tail, head, color) chosen for edges[e]

    def dfs(e: int, used_colors: int, prefix_val: int):
        nonlocal best_val, best_witness
        if prefix_val >= best_val:
            return
        if e == len(edges):
            # complete assignment strictly better than the incumbent
            best_val = prefix_val
            best_witness = cls(n, q, arcs)
            return
        clock.tick()
        i, k = edges[e]
        for tail, head in ways[e]:
            for c in range(1, min(used_colors + 1, q) + 1):
                arc = arcs[e] = (tail, head, c)
                value = max(prefix_val, prefix.add(i, k, arc, best_val))
                if value < best_val:
                    dfs(e + 1, max(used_colors, c), value)

    try:
        if r == q - 1 and best_val > floor:
            floor, fam = _least_side(kind.upper(), q, n, floor, best_val, clock)
            if fam is not None:
                witness = from_vectors(fam)
                value = valuation(witness, r)
                if value < best_val:
                    best_witness, best_val = witness, value
        dfs(0, 0, floor)
        status = EXACT
    except BudgetExceeded:
        status = UPPER_BOUND
    # the witness's value, re-derived by the independent valuation, and the
    # floor it may not beat
    assert floor <= valuation(best_witness, r) == best_val
    return ExtremalRecord(
        kind, q, r, n, best_val, status, best_witness.to_json(), clock.nodes, clock.elapsed()
    )


def exact_f(q: int, r: int, n_vertices: int, budget: Budget | None = None) -> ExtremalRecord:
    """Depth-first search over colorings of the ordered complete graph.

    Edges are assigned in prefix-clique order; colors obey a first-use
    canonical rule (color c+1 may appear only after c), which fixes the color
    of edge (1,2) to 1 and removes the palette-relabeling symmetry.  The
    partial objective is tracked incrementally per r-subset of colors: each
    edge (j, k) raises the longest path ending at k for the subsets that
    hold its color, and a branch is pruned as soon as any prefix path
    matches the incumbent.  When k's last edge is set, the room bound
    (``PrefixMonotoneTables``) also prunes a prefix whose path-length points
    leave fewer free points of [v]^ceil(q/r) than there are later vertices,
    v being one below the incumbent: ``f 4 2 6`` = 4 closes in 7,255 nodes
    and ``f 5 3 6`` = 4 in 19,642 (180,107 and 124,066 without it and the
    per-edge rows).  At r = q - 1 the answer is the least m with
    F(q, q-1, m) >= n_vertices instead, and the search is not entered
    unless that walk passes ``GRID_POINT_CAP``.
    """
    _check_params("f", q, r, n_vertices)
    return _minimize("f", q, r, n_vertices, budget)


def exact_g(q: int, r: int, n_vertices: int, budget: Budget | None = None) -> ExtremalRecord:
    """Minimize the longest <= r colored directed path over tournaments.

    Assignments are (orientation, color) per edge in prefix-clique order;
    edge (1,2) is fixed to point forward (whole-tournament reversal keeps
    the objective) with color 1 (first-use rule).  The prefix objective is
    incremental: when the last edge into vertex k is set,
    ``PrefixPathTables`` extends one endpoint-mask table per r-subset of
    colors by the vertex sets that contain k.  Practical only for very
    small N: a search that reaches vertex N holds tables of 2^N entries.
    At r = q - 1 it may start from the tournament of a G witness, but only
    the search or the floor proves the value.  Unless every tournament is trivially optimal (r >= q or N = 1), N above
    ``EXACT_VERTEX_CAP`` raises ValueError: no witness could be valued.
    """
    _check_params("g", q, r, n_vertices)
    if r < q and n_vertices > EXACT_VERTEX_CAP:
        # the start witness and every record check value a whole tournament
        raise ValueError(f"g needs at most {EXACT_VERTEX_CAP} vertices, got {n_vertices}")
    return _minimize("g", q, r, n_vertices, budget)


# ---------------------------------------------------------------------------
# record validation and the JSONL cache


def validate_record(record: ExtremalRecord) -> str | None:
    """Re-check a record's status and witness; None when they support the claim."""
    try:
        _check_params(record.kind, record.q, record.r, record.size)
        bound = LOWER_BOUND if record.kind in "FG" else UPPER_BOUND
        if record.status not in (EXACT, bound):
            return f"{record.kind} records are {EXACT} or {bound}, not {record.status!r}"
        if record.kind in "FG":
            fam = VectorFamily.from_json(record.certificate)
            if (fam.q, fam.r, fam.n) != (record.q, record.r, record.size):
                return "witness parameters disagree with the record"
            if len(fam) != record.value:
                return f"witness length {len(fam)} != value {record.value}"
            cert = (
                validate_increasing(fam)
                if record.kind == "F"
                else validate_comparable(fam)
            )
            if not cert.ok():
                return f"witness fails validation at {cert.pair}"
        else:
            cls, valuation, *_ = _MINIMIZERS[record.kind]
            witness = cls.from_json(record.certificate)
            if (witness.q, witness.n_vertices) != (record.q, record.size):
                return "witness parameters disagree with the record"
            val = valuation(witness, record.r)
            if val != record.value:
                return f"witness value {val} != recorded {record.value}"
    except (KeyError, ValueError, TypeError) as exc:
        return f"corrupt witness: {exc}"
    return None


class CacheError(Exception):
    """The cache file cannot be read or appended to; the message names it."""


def cache_path(explicit: str | os.PathLike | None = None) -> Path:
    if explicit is not None:
        return Path(explicit)
    return Path(os.environ.get(CACHE_ENV, "cache.jsonl"))


def _record_key(rec: ExtremalRecord) -> tuple[str, int, int, int]:
    return (rec.kind, rec.q, rec.r, rec.size)


def _load_records(path: Path, key: tuple) -> list[ExtremalRecord]:
    """The file's records for ``key`` whose witnesses re-validate, in file order.

    Only that key's records are validated: a witness check can build subset
    oracles, so other keys' records are skipped unchecked.
    """
    records = []
    if not path.exists():
        return records
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CacheError(f"cannot read cache {path}: {exc}") from exc
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        # a line nested too deep for the decoder raises RecursionError
        try:
            rec = ExtremalRecord.from_json(json.loads(line))
        except (json.JSONDecodeError, KeyError, ValueError, TypeError, RecursionError):
            continue
        if _record_key(rec) != key:
            continue
        if validate_record(rec) is None:
            records.append(rec)
    return records


def _best(kind: str, matches: list[ExtremalRecord]) -> ExtremalRecord | None:
    """Exact beats bounds; otherwise the strongest bound, first in file order."""
    if not matches:
        return None
    exact = [rec for rec in matches if rec.status == EXACT]
    if exact:
        return exact[0]
    if kind in "FG":
        return max(matches, key=lambda rec: rec.value)
    return min(matches, key=lambda rec: rec.value)


def cache_get(
    kind: str, q: int, r: int, size: int, path: str | os.PathLike | None = None
) -> ExtremalRecord | None:
    """Best valid knowledge for a key: exact beats bounds, bounds improve."""
    return _best(kind, _load_records(cache_path(path), (kind, q, r, size)))


def cache_put(record: ExtremalRecord, path: str | os.PathLike | None = None) -> bool:
    """Append a record unless it would weaken or repeat what is cached.

    Nothing is written under an exact record unless the new one is exact
    too, nor when a record of the same status is already as strong: for F
    and G a value at least as large, for f and g one at most as large.
    """
    problem = validate_record(record)
    if problem is not None:
        raise ValueError(f"refusing to persist an invalid record: {problem}")
    existing = cache_get(record.kind, record.q, record.r, record.size, path)
    if existing is not None:
        if existing.status == EXACT and record.status != EXACT:
            return False
        if existing.status == record.status and (
            existing.value >= record.value
            if record.kind in "FG"
            else existing.value <= record.value
        ):
            return False
    _append(cache_path(path), json.dumps(record.to_json()) + "\n")
    return True


def _append(path: Path, text: str) -> None:
    try:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CacheError(f"cannot write cache {path}: {exc}") from exc


_ORACLES = {"F": exact_F, "G": exact_G, "f": exact_f, "g": exact_g}


def run_search(
    kind: str,
    q: int,
    r: int,
    size: int,
    budget: Budget | None = None,
    cache: str | os.PathLike | None = None,
    use_cache: bool = True,
) -> ExtremalRecord:
    """Cache-aware front door used by the command line.

    An exact cached record is returned as it is.  Otherwise the cache is
    opened for append before the oracle runs, so a cache that cannot be
    written raises ``CacheError`` before the search, not after it.
    """
    _check_params(kind, q, r, size)
    if use_cache:
        hit = cache_get(kind, q, r, size, cache)
        if hit is not None and hit.status == EXACT:
            return hit
        _append(cache_path(cache), "")
    record = _ORACLES[kind](q, r, size, budget)
    if use_cache:
        cache_put(record, cache)
    return record
