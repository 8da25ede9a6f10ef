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

The minimizers assign edges in prefix-clique order and update their
objective only when a vertex's last edge is set, extending per-color-subset
tables by that vertex instead of recomputing the prefix: ``exact_f`` one
row of monotone path lengths, ``exact_g`` the endpoint-mask tables of
``PrefixPathTables``.  ``SubsetPathOracle`` stays the independent check of
every f/g witness.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .budget import Budget, BudgetExceeded
from .constructions import canonical_coloring
from .core import (
    GridVector,
    VectorFamily,
    _below,
    validate_comparable,
    validate_increasing,
)
from .paths import EXACT_VERTEX_CAP, SubsetPathOracle, longest_restricted_monotone
from .tournament import ColoredTournament, OrderedColoring

CACHE_ENV = "RAMSEY_PODS_CACHE"

EXACT = "exact"
LOWER_BOUND = "lower_bound"
UPPER_BOUND = "upper_bound"

# F and G hold a points x points relation: 256 MB of bools at 2^14 points
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
        return {
            "kind": self.kind,
            "q": self.q,
            "r": self.r,
            "size": self.size,
            "value": self.value,
            "status": self.status,
            "certificate": self.certificate,
            "nodes_explored": self.nodes_explored,
            "wall_seconds": self.wall_seconds,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ExtremalRecord":
        return cls(
            kind=data["kind"],
            q=int(data["q"]),
            r=int(data["r"]),
            size=int(data["size"]),
            value=int(data["value"]),
            status=data["status"],
            certificate=data["certificate"],
            nodes_explored=int(data.get("nodes_explored", 0)),
            wall_seconds=float(data.get("wall_seconds", 0.0)),
        )


def _check_params(kind: str, q: int, r: int, size: int) -> None:
    if kind not in "FGfg" or len(kind) != 1:
        raise ValueError(f"unknown kind {kind!r}")
    if not 1 <= r <= q:
        raise ValueError(f"r={r} outside [1, {q}]")
    if size < 1:
        raise ValueError("size must be positive")


# ---------------------------------------------------------------------------
# F: longest increasing sequence


def _grid_vectors(q: int, n: int) -> list[tuple[int, ...]]:
    if n**q > GRID_POINT_CAP:
        raise ValueError(f"[{n}]^{q} has {n**q} grid points, above the cap of {GRID_POINT_CAP}")
    return list(itertools.product(range(1, n + 1), repeat=q))


def _bitmask_rows(rel: np.ndarray) -> list[int]:
    """Row i of a bool matrix as an int with bit j set iff rel[i, j]."""
    packed = np.packbits(rel, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def exact_F(q: int, r: int, n: int, budget: Budget | None = None) -> ExtremalRecord:
    """Branch-and-bound for the longest r-increasing sequence in [n]^q.

    Extensions must dominate every chosen vector (the relation is not
    transitive), so subproblems are determined by the bitmask of vectors
    dominating the whole prefix; results are memoized on that mask.  The
    first element is canonicalized to sorted coordinates, which is harmless
    because coordinate permutations preserve the relation.
    """
    _check_params("F", q, r, n)
    clock = (budget or Budget()).start()
    vecs = _grid_vectors(q, n)
    m = len(vecs)
    greater = _bitmask_rows(_below(np.array(vecs), r))
    memo: dict[int, tuple[int, int]] = {}
    best_chain: list[int] = []

    def walk(mask: int) -> list[int]:
        chain = []
        while mask:
            length, first = memo[mask]
            if length == 0:
                break
            chain.append(first)
            mask &= greater[first]
        return chain

    def solve(mask: int, prefix: list[int]) -> int:
        if len(prefix) > len(best_chain):
            best_chain[:] = prefix
        if mask in memo:
            return memo[mask][0]
        clock.tick()
        best_len, best_first = 0, -1
        mm = mask
        while mm:
            bit = mm & -mm
            i = bit.bit_length() - 1
            mm ^= bit
            prefix.append(i)
            sub = solve(mask & greater[i], prefix)
            prefix.pop()
            if sub + 1 > best_len:
                best_len, best_first = sub + 1, i
        memo[mask] = (best_len, best_first)
        return best_len

    full = (1 << m) - 1
    canonical_starts = [
        i for i, v in enumerate(vecs) if tuple(sorted(v)) == v
    ]
    try:
        best = 0
        for i in canonical_starts:
            sub = solve(full & greater[i], [i]) + 1
            best = max(best, sub)
        # reconstruct: best start then walk the memo
        chain: list[int] = []
        for i in canonical_starts:
            if memo[full & greater[i]][0] + 1 == best:
                chain = [i] + walk(full & greater[i])
                break
        status = EXACT
    except BudgetExceeded:
        chain = list(best_chain)
        best = len(chain)
        status = LOWER_BOUND
    witness = VectorFamily.from_coords([vecs[i] for i in chain], r, n)
    assert validate_increasing(witness).ok()
    return ExtremalRecord(
        "F", q, r, n, best, status, witness.to_json(), clock.nodes, clock.elapsed()
    )


# ---------------------------------------------------------------------------
# G: maximum comparable set (maximum clique of the comparability graph)


def exact_G(q: int, r: int, n: int, budget: Budget | None = None) -> ExtremalRecord:
    """Maximum clique search on the r-comparability graph of [n]^q.

    Plain branch and bound over candidate bitmasks with a greedy coloring
    bound, in the style of bitset clique solvers.
    """
    _check_params("G", q, r, n)
    clock = (budget or Budget()).start()
    vecs = _grid_vectors(q, n)
    m = len(vecs)
    below = _below(np.array(vecs), r)
    adj = _bitmask_rows(below | below.T)
    full = (1 << m) - 1
    # nonadj[v]: the vertices v may share a color class with, v excluded
    nonadj = [full & ~(row | 1 << v) for v, row in enumerate(adj)]
    best: list[int] = []

    def coloring_bound(cand: int) -> int:
        # number of greedy color classes covering cand
        classes = 0
        rest = cand
        while rest:
            classes += 1
            avail = rest
            while avail:
                bit = avail & -avail
                avail &= nonadj[bit.bit_length() - 1]
                rest ^= bit
        return classes

    def expand(cur: list[int], cand: int):
        clock.tick()
        if not cand:
            if len(cur) > len(best):
                best[:] = cur
            return
        if len(cur) + coloring_bound(cand) <= len(best):
            return
        while cand:
            if len(cur) + cand.bit_count() <= len(best):
                return
            bit = cand & -cand
            v = bit.bit_length() - 1
            cand ^= bit
            cur.append(v)
            expand(cur, cand & adj[v])
            cur.pop()

    try:
        expand([], full)
        status = EXACT
    except BudgetExceeded:
        status = LOWER_BOUND
    witness = VectorFamily.from_coords([vecs[i] for i in sorted(best)], r, n)
    assert validate_comparable(witness).ok()
    return ExtremalRecord(
        "G", q, r, n, len(best), status, witness.to_json(), clock.nodes, clock.elapsed()
    )


# ---------------------------------------------------------------------------
# f: minimum over colorings of the longest <= r colored monotone path


def _restricted_value_monotone(k: OrderedColoring, r: int) -> int:
    if r >= k.q:
        return k.n_vertices
    return max(
        longest_restricted_monotone(k, s).length
        for s in itertools.combinations(range(1, k.q + 1), r)
    )


def _canonical_start_coloring(q: int, n_vertices: int) -> OrderedColoring:
    """Restriction of the balanced product coloring: a decent initial witness."""
    m = 1
    while m**q < n_vertices:
        m += 1
    big = canonical_coloring(q, m)
    return OrderedColoring(
        n_vertices,
        q,
        (
            (u, v, big.color(u, v))
            for u in range(1, n_vertices + 1)
            for v in range(u + 1, n_vertices + 1)
        ),
    )


def exact_f(q: int, r: int, n_vertices: int, budget: Budget | None = None) -> ExtremalRecord:
    """Depth-first search over colorings of the ordered complete graph.

    Edges are assigned in prefix-clique order; colors obey a first-use
    canonical rule (color c+1 may appear only after c), which fixes the color
    of edge (1,2) to 1 and removes the palette-relabeling symmetry.  The
    partial objective is tracked incrementally per r-subset of colors: when
    the last edge into vertex k is colored, one pass over k's incoming colors
    fills the longest path ending at k for every subset, reading only the
    subsets that hold each edge's color.  A branch is pruned as soon as it
    matches the incumbent.
    """
    _check_params("f", q, r, n_vertices)
    clock = (budget or Budget()).start()
    n = n_vertices
    if r >= q:
        witness = OrderedColoring(
            n, q, ((u, v, 1) for u in range(1, n + 1) for v in range(u + 1, n + 1))
        )
        return ExtremalRecord(
            "f", q, r, n, n, EXACT, witness.to_json(), 0, clock.elapsed()
        )
    start = _canonical_start_coloring(q, n)
    best_val = _restricted_value_monotone(start, r)
    best_witness = start
    subsets = list(itertools.combinations(range(1, q + 1), r))
    # holding[c]: indices of the subsets that contain color c
    holding = [tuple(i for i, s in enumerate(subsets) if c in s) for c in range(q + 1)]
    edges = [(i, k) for k in range(2, n + 1) for i in range(1, k)]
    # into[k][j]: color of edge (j, k); read only once all of them are set
    into = [[0] * k for k in range(n + 1)]
    # dp[v][i]: longest monotone path ending at v colored within subsets[i],
    # valid for every completed vertex v
    dp = [[1] * len(subsets) for _ in range(n + 1)]

    def vertex_value(k: int) -> int:
        # called once all edges into k are colored; fills dp[k]
        longest = [1] * len(subsets)
        colors = into[k]
        for j in range(1, k):
            row = dp[j]
            for i in holding[colors[j]]:
                if row[i] >= longest[i]:
                    longest[i] = row[i] + 1
        dp[k] = longest
        return max(longest)

    def dfs(edge_idx: int, used_colors: int, prefix_val: int):
        nonlocal best_val, best_witness
        if prefix_val >= best_val:
            return
        if edge_idx == len(edges):
            # complete coloring strictly better than the incumbent
            best_val = prefix_val
            best_witness = OrderedColoring(n, q, ((i, k, into[k][i]) for i, k in edges))
            return
        clock.tick()
        i, k = edges[edge_idx]
        completes = i == k - 1
        colors = into[k]
        for c in range(1, min(used_colors + 1, q) + 1):
            colors[i] = c
            new_used = max(used_colors, c)
            if completes:
                dfs(edge_idx + 1, new_used, max(prefix_val, vertex_value(k)))
            else:
                dfs(edge_idx + 1, new_used, prefix_val)

    try:
        dfs(0, 0, 1)
        status = EXACT
    except BudgetExceeded:
        status = UPPER_BOUND
    assert _restricted_value_monotone(best_witness, r) == best_val
    return ExtremalRecord(
        "f", q, r, n, best_val, status, best_witness.to_json(), clock.nodes, clock.elapsed()
    )


# ---------------------------------------------------------------------------
# g: the same minimum over all tournaments


def _restricted_value_directed(t: ColoredTournament, r: int) -> int:
    if r >= t.q:
        # any Hamiltonian path in a tournament realizes N, and one always exists
        return t.n_vertices
    return max(
        SubsetPathOracle(t, frozenset(s)).longest()
        for s in itertools.combinations(range(1, t.q + 1), r)
    )


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


def exact_g(q: int, r: int, n_vertices: int, budget: Budget | None = None) -> ExtremalRecord:
    """Minimize the longest <= r colored directed path over tournaments.

    Assignments are (orientation, color) per edge in prefix-clique order;
    edge (1,2) is fixed to point forward (whole-tournament reversal keeps
    the objective) with color 1 (first-use rule).  The prefix objective is
    incremental: when the last edge into vertex k is set,
    ``PrefixPathTables`` extends one endpoint-mask table per r-subset of
    colors by the vertex sets that contain k.  Practical only for very
    small N: a search that reaches vertex N holds tables of 2^N entries.
    Unless every tournament is trivially optimal (r >= q or N = 1), N above
    ``EXACT_VERTEX_CAP`` raises ValueError: no witness could be valued.
    """
    _check_params("g", q, r, n_vertices)
    clock = (budget or Budget()).start()
    n = n_vertices
    if r >= q or n == 1:
        witness = ColoredTournament(
            n, q, ((u, v, 1) for u in range(1, n + 1) for v in range(u + 1, n + 1))
        )
        return ExtremalRecord(
            "g", q, r, n, n, EXACT, witness.to_json(), 0, clock.elapsed()
        )
    if n > EXACT_VERTEX_CAP:
        # the start witness and every record check value a whole tournament
        raise ValueError(f"g needs at most {EXACT_VERTEX_CAP} vertices, got {n}")
    start = _canonical_start_coloring(q, n).as_tournament()
    best_val = _restricted_value_directed(start, r)
    best_witness = start
    subsets = [frozenset(s) for s in itertools.combinations(range(1, q + 1), r)]
    tables = PrefixPathTables(n, subsets)
    edges = [(i, k) for k in range(2, n + 1) for i in range(1, k)]
    chosen: dict[tuple[int, int], tuple[int, int, int]] = {}

    def dfs(edge_idx: int, used_colors: int, prefix_val: int):
        nonlocal best_val, best_witness
        if prefix_val >= best_val:
            return
        if edge_idx == len(edges):
            best_val = prefix_val
            best_witness = ColoredTournament(n, q, list(chosen.values()))
            return
        clock.tick()
        i, k = edges[edge_idx]
        completes = i == k - 1
        orientations = ((i, k), (k, i)) if edge_idx > 0 else ((i, k),)
        max_c = min(used_colors + 1, q)
        for tail, head in orientations:
            for c in range(1, max_c + 1):
                chosen[(i, k)] = (tail, head, c)
                new_used = max(used_colors, c)
                if completes:
                    arcs = [chosen[(j, k)] for j in range(1, k)]
                    value = tables.complete(k, arcs, best_val)
                    dfs(edge_idx + 1, new_used, max(prefix_val, value))
                else:
                    dfs(edge_idx + 1, new_used, prefix_val)
                del chosen[(i, k)]

    try:
        dfs(0, 0, 1)
        status = EXACT
    except BudgetExceeded:
        status = UPPER_BOUND
    # the witness's value, re-derived by the independent subset oracle
    assert _restricted_value_directed(best_witness, r) == best_val
    return ExtremalRecord(
        "g", q, r, n, best_val, status, best_witness.to_json(), clock.nodes, clock.elapsed()
    )


# ---------------------------------------------------------------------------
# record validation and the JSONL cache


def validate_record(record: ExtremalRecord) -> str | None:
    """Re-check a record's witness; None when it supports the claim."""
    try:
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
            if record.status == UPPER_BOUND:
                return "maximizers cannot carry upper_bound records"
        else:
            if record.kind == "f":
                k = OrderedColoring.from_json(record.certificate)
                if (k.q, k.n_vertices) != (record.q, record.size):
                    return "witness parameters disagree with the record"
                val = _restricted_value_monotone(k, record.r)
            else:
                t = ColoredTournament.from_json(record.certificate)
                if (t.q, t.n_vertices) != (record.q, record.size):
                    return "witness parameters disagree with the record"
                val = _restricted_value_directed(t, record.r)
            if val != record.value:
                return f"witness value {val} != recorded {record.value}"
            if record.status == LOWER_BOUND:
                return "minimizers cannot carry lower_bound records"
    except (KeyError, ValueError, TypeError) as exc:
        return f"corrupt witness: {exc}"
    return None


def cache_path(explicit: str | os.PathLike | None = None) -> Path:
    if explicit is not None:
        return Path(explicit)
    return Path(os.environ.get(CACHE_ENV, "cache.jsonl"))


def _record_key(rec: ExtremalRecord) -> tuple[str, int, int, int]:
    return (rec.kind, rec.q, rec.r, rec.size)


def _load_records(path: Path, key: tuple | None = None) -> list[ExtremalRecord]:
    """The file's records whose witnesses re-validate, in file order.

    With ``key``, only that key's records are validated and returned: a
    witness check can build subset oracles, so other keys' records are
    skipped unchecked.
    """
    records = []
    if not path.exists():
        return records
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            rec = ExtremalRecord.from_json(json.loads(line))
        except (json.JSONDecodeError, KeyError, ValueError, TypeError):
            continue
        if key is not None and _record_key(rec) != key:
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
    target = cache_path(path)
    with open(target, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record.to_json()) + "\n")
    return True


def cache_compact(path: str | os.PathLike | None = None) -> int:
    """Rewrite the cache keeping only the best record per key."""
    target = cache_path(path)
    by_key: dict[tuple, list[ExtremalRecord]] = {}
    for rec in _load_records(target):
        by_key.setdefault(_record_key(rec), []).append(rec)
    kept = [_best(key[0], by_key[key]) for key in sorted(by_key)]
    with open(target, "w", encoding="utf-8") as fh:
        for rec in kept:
            fh.write(json.dumps(rec.to_json()) + "\n")
    return len(kept)


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
    """Cache-aware front door used by the command line."""
    _check_params(kind, q, r, size)
    if use_cache:
        hit = cache_get(kind, q, r, size, cache)
        if hit is not None and hit.status == EXACT:
            return hit
    record = _ORACLES[kind](q, r, size, budget)
    if use_cache:
        cache_put(record, cache)
    return record
