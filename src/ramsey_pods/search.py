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
re-validates on load.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

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
from .paths import SubsetPathOracle, longest_restricted_monotone
from .tournament import ColoredTournament, OrderedColoring

CACHE_ENV = "RAMSEY_PODS_CACHE"

EXACT = "exact"
LOWER_BOUND = "lower_bound"
UPPER_BOUND = "upper_bound"


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
                v = bit.bit_length() - 1
                avail &= ~adj[v]
                avail ^= bit
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
            if len(cur) + bin(cand).count("1") <= len(best):
                return
            bit = cand & -cand
            v = bit.bit_length() - 1
            cand ^= bit
            cur.append(v)
            expand(cur, cand & adj[v])
            cur.pop()

    try:
        expand([], (1 << m) - 1)
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
    partial objective is tracked incrementally per r-subset of colors and a
    branch is pruned as soon as it matches the incumbent.
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
    edges = [(i, k) for k in range(2, n + 1) for i in range(1, k)]
    color_of: dict[tuple[int, int], int] = {}
    # dp[s][v] = longest monotone path ending at v colored within subset s
    dp: dict[tuple, list[int]] = {s: [0] * (n + 1) for s in subsets}

    def vertex_value(k: int) -> int:
        # called once all edges into k are colored; fills dp rows for k
        val = 0
        for s in subsets:
            row = dp[s]
            sset = set(s)
            longest = 1
            for j in range(1, k):
                if color_of[(j, k)] in sset and row[j] + 1 > longest:
                    longest = row[j] + 1
            row[k] = longest
            val = max(val, longest)
        return val

    def undo_vertex(k: int) -> None:
        for s in subsets:
            dp[s][k] = 0

    def dfs(edge_idx: int, used_colors: int, prefix_val: int):
        nonlocal best_val, best_witness
        if prefix_val >= best_val:
            return
        if edge_idx == len(edges):
            # complete coloring strictly better than the incumbent
            best_val = prefix_val
            best_witness = OrderedColoring(
                n, q, ((u, v, c) for (u, v), c in color_of.items())
            )
            return
        clock.tick()
        i, k = edges[edge_idx]
        completes = i == k - 1
        for c in range(1, min(used_colors + 1, q) + 1):
            color_of[(i, k)] = c
            new_used = max(used_colors, c)
            if completes:
                val = max(prefix_val, vertex_value(k))
                dfs(edge_idx + 1, new_used, val)
                undo_vertex(k)
            else:
                dfs(edge_idx + 1, new_used, prefix_val)
            del color_of[(i, k)]

    # seed dp for vertex 1 (no incoming edges)
    for s in subsets:
        dp[s][1] = 1
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


def exact_g(q: int, r: int, n_vertices: int, budget: Budget | None = None) -> ExtremalRecord:
    """Minimize the longest <= r colored directed path over tournaments.

    Assignments are (orientation, color) per edge in prefix-clique order;
    edge (1,2) is fixed to point forward (whole-tournament reversal keeps
    the objective) with color 1 (first-use rule).  Practical only for very
    small N: the leaf objective is an exponential path DP.
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
    start = _canonical_start_coloring(q, n).as_tournament()
    best_val = _restricted_value_directed(start, r)
    best_witness = start
    subsets = [frozenset(s) for s in itertools.combinations(range(1, q + 1), r)]
    edges = [(i, k) for k in range(2, n + 1) for i in range(1, k)]
    chosen: dict[tuple[int, int], tuple[int, int, int]] = {}

    def prefix_value(k: int) -> int:
        sub = ColoredTournament(k, q, list(chosen.values()))
        return max(SubsetPathOracle(sub, s).longest() for s in subsets)

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
                    dfs(edge_idx + 1, new_used, max(prefix_val, prefix_value(k)))
                else:
                    dfs(edge_idx + 1, new_used, prefix_val)
                del chosen[(i, k)]

    try:
        dfs(0, 0, 1)
        status = EXACT
    except BudgetExceeded:
        status = UPPER_BOUND
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


def _load_records(path: Path) -> list[ExtremalRecord]:
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
        if validate_record(rec) is None:
            records.append(rec)
    return records


def cache_get(
    kind: str, q: int, r: int, size: int, path: str | os.PathLike | None = None
) -> ExtremalRecord | None:
    """Best valid knowledge for a key: exact beats bounds, bounds improve."""
    key = (kind, q, r, size)
    matches = [
        rec
        for rec in _load_records(cache_path(path))
        if (rec.kind, rec.q, rec.r, rec.size) == key
    ]
    if not matches:
        return None
    exact = [rec for rec in matches if rec.status == EXACT]
    if exact:
        return exact[0]
    if kind in "FG":
        return max(matches, key=lambda rec: rec.value)
    return min(matches, key=lambda rec: rec.value)


def cache_put(record: ExtremalRecord, path: str | os.PathLike | None = None) -> bool:
    """Append a record unless it would weaken existing exact knowledge."""
    problem = validate_record(record)
    if problem is not None:
        raise ValueError(f"refusing to persist an invalid record: {problem}")
    existing = cache_get(record.kind, record.q, record.r, record.size, path)
    if existing is not None and existing.status == EXACT and record.status != EXACT:
        return False
    target = cache_path(path)
    with open(target, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record.to_json()) + "\n")
    return True


def cache_compact(path: str | os.PathLike | None = None) -> int:
    """Rewrite the cache keeping only the best record per key."""
    target = cache_path(path)
    records = _load_records(target)
    keys = {(rec.kind, rec.q, rec.r, rec.size) for rec in records}
    kept = [cache_get(*key, path=target) for key in sorted(keys)]
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
