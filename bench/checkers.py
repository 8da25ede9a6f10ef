"""Independent checkers for everything the benchmark's jobs produce.

Nothing here imports the package under test: each verdict is recomputed
from the input files and the output files alone.  A checker returns None
when the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from pathlib import Path


def load(path) -> dict:
    return json.loads(Path(path).read_text())


# ---------------------------------------------------------------------------
# instances


class Tournament:
    """Orientation and color of every pair, from the tournament file format."""

    def __init__(self, data: dict):
        self.n = int(data["N"])
        self.q = int(data["q"])
        self.fwd: dict[tuple[int, int], int] = {}
        for u, v, c in data["edges"]:
            self.fwd[(u, v)] = c

    def edge(self, u: int, v: int) -> int | None:
        """Color of u -> v, or None when the pair points v -> u."""
        return self.fwd.get((u, v))


def coloring_matrix(data: dict) -> list[list[int]]:
    n = int(data["N"])
    col = [[0] * (n + 1) for _ in range(n + 1)]
    for u, v, c in data["colors"]:
        col[u][v] = col[v][u] = c
    return col


def longest_monotone(col: list[list[int]], allowed) -> int:
    """Longest increasing vertex sequence whose steps use allowed colors."""
    return len(longest_monotone_path(col, allowed))


def longest_monotone_path(col: list[list[int]], allowed) -> list[int]:
    """One longest allowed monotone path, as a vertex list."""
    n = len(col) - 1
    if n == 0:
        return []
    best = [1] * (n + 1)
    prev = [0] * (n + 1)
    for v in range(2, n + 1):
        for u in range(1, v):
            if col[u][v] in allowed and best[u] + 1 > best[v]:
                best[v], prev[v] = best[u] + 1, u
    v = max(range(1, n + 1), key=lambda x: best[x])
    path = [v]
    while prev[path[-1]]:
        path.append(prev[path[-1]])
    return path[::-1]


def brute_monotone(col: list[list[int]], r: int) -> int:
    """Longest monotone path using at most r colors, over every vertex subset."""
    n = len(col) - 1
    best = 1
    for mask in range(1, 1 << n):
        verts = [v + 1 for v in range(n) if mask >> v & 1]
        used = {col[a][b] for a, b in zip(verts, verts[1:])}
        if len(used) <= r:
            best = max(best, len(verts))
    return best


def brute_directed(t: Tournament, r: int) -> int:
    """Longest directed path using at most r colors, by exhaustive search."""
    best = 1

    def grow(path, used):
        nonlocal best
        best = max(best, len(path))
        for w in range(1, t.n + 1):
            if w in path:
                continue
            c = t.edge(path[-1], w)
            if c is None:
                continue
            colors = used | {c}
            if len(colors) <= r:
                grow(path + [w], colors)

    for v in range(1, t.n + 1):
        grow([v], frozenset())
    return best


# ---------------------------------------------------------------------------
# path certificates


def path_floor(n: int, q: int) -> int:
    """ceil(N^(1/(q-1))): every q-colored tournament has an avoiding path this long."""
    if q <= 1:
        return 1
    if q == 2:
        return math.isqrt(n - 1) + 1 if n > 1 else 1
    k = q - 1
    x = max(1, round(n ** (1.0 / k)))
    while x**k < n:
        x += 1
    while x > 1 and (x - 1) ** k >= n:
        x -= 1
    return x


def check_directed_path(t: Tournament, cert: dict, floor: int | None = None) -> str | None:
    """A directed path certificate on a tournament file.

    Distinct vertices in range, each step oriented forward in the file, the
    avoided color absent, and, when given, length at least ``floor``.
    """
    if cert.get("mode") != "directed":
        return f"mode {cert.get('mode')!r} is not directed"
    avoid = cert.get("constraint", {}).get("avoid")
    if not isinstance(avoid, int) or not 1 <= avoid <= t.q:
        return f"avoided color {avoid!r} is not a palette color"
    verts = cert.get("vertices")
    if not verts:
        return "empty path"
    if len(set(verts)) != len(verts):
        return "repeated vertex"
    for v in verts:
        if not (isinstance(v, int) and 1 <= v <= t.n):
            return f"vertex {v!r} out of range"
    for a, b in zip(verts, verts[1:]):
        c = t.edge(a, b)
        if c is None:
            return f"edge ({a},{b}) is reversed in the instance"
        if c == avoid:
            return f"edge ({a},{b}) has the avoided color {avoid}"
    if floor is not None and len(verts) < floor:
        return f"length {len(verts)} below the guaranteed {floor}"
    return None


# ---------------------------------------------------------------------------
# vector families


def strictly_above(x, y) -> int:
    """Coordinates in which y is strictly larger than x."""
    return sum(1 for a, b in zip(x, y) if a < b)


def family_problem(fam: dict, relation: str) -> str | None:
    """Pairwise r-increasing ("sequence") or r-comparable ("comparable")."""
    q, n, r = int(fam["q"]), int(fam["n"]), int(fam["r"])
    vs = [tuple(v) for v in fam["vectors"]]
    if not vs:
        return "empty family"
    for v in vs:
        if len(v) != q or not all(1 <= c <= n for c in v):
            return f"vector {v} outside [{n}]^{q}"
    for a in range(len(vs)):
        x = vs[a]
        for b in range(a + 1, len(vs)):
            y = vs[b]
            if relation == "sequence":
                if strictly_above(x, y) < r:
                    return f"pair ({a + 1},{b + 1}) is not increasing"
            elif strictly_above(x, y) < r and strictly_above(y, x) < r:
                return f"pair ({a + 1},{b + 1}) is incomparable"
    return None


def boost(fa: dict, fb: dict) -> dict:
    """The digit-mixing product z_i = (x_i - 1) * n_b + y_i, in (a, b) order."""
    nb = int(fb["n"])
    vectors = [
        [(x - 1) * nb + y for x, y in zip(va, vb)]
        for va in fa["vectors"]
        for vb in fb["vectors"]
    ]
    return {"q": fa["q"], "n": int(fa["n"]) * nb, "r": fa["r"], "vectors": vectors}


def ending_vectors(col: list[list[int]], q: int) -> list[list[int]]:
    """Per vertex, the longest monotone path ending there that avoids color i."""
    n = len(col) - 1
    ending = [[1] * (n + 1) for _ in range(q + 1)]
    for v in range(1, n + 1):
        for u in range(1, v):
            c = col[u][v]
            for i in range(1, q + 1):
                if i != c and ending[i][u] + 1 > ending[i][v]:
                    ending[i][v] = ending[i][u] + 1
    return [[ending[i][v] for i in range(1, q + 1)] for v in range(1, n + 1)]


def stalled_coloring(vectors: list[list[int]]) -> list[list[int]]:
    """Color (a, b) by the first coordinate that does not grow, else 1."""
    n = len(vectors)
    col = [[0] * (n + 1) for _ in range(n + 1)]
    for a in range(1, n + 1):
        xa = vectors[a - 1]
        for b in range(a + 1, n + 1):
            xb = vectors[b - 1]
            c = next((i + 1 for i in range(len(xa)) if xa[i] >= xb[i]), 1)
            col[a][b] = col[b][a] = c
    return col


def pod_voxel_count(q: int, r: int, n: int) -> int:
    """Points of one pod: apex plus offsets in [0, n-1] on at most r-1 axes."""
    return sum(math.comb(q, k) * (n - 1) ** k for k in range(r))


def packing_density(q: int, r: int, n: int, count: int) -> Fraction:
    return Fraction(count * pod_voxel_count(q, r, n), (2 * n - 1) ** q)


# ---------------------------------------------------------------------------
# search records


def search_problem(record: dict, key: tuple, value: int, rc: int) -> str | None:
    """A search record against its key, its exit code, its own witness and
    the key's known ``value``.

    Exit code 0 must carry an exact record of that value; exit code 2 a
    bound on the right side of it (lower for the maximizers F and G, upper
    for the minimizers f and g).
    """
    kind, q, r, size = key
    if (record.get("kind"), record.get("q"), record.get("r"), record.get("size")) != key:
        return "record answers another key"
    status = record.get("status")
    bound = "lower_bound" if kind in "FG" else "upper_bound"
    recorded = record.get("value")
    if rc == 0:
        if status != "exact":
            return f"exit code 0 with status {status}"
        if recorded != value:
            return f"value {recorded} != known {value}"
    else:
        if status != bound:
            return f"exit code {rc} with status {status}, not {bound}"
        if not isinstance(recorded, int) or (recorded > value if kind in "FG" else recorded < value):
            return f"{bound} {recorded} beats the known value {value}"
    cert = record.get("certificate") or {}
    if kind in "FG":
        if (cert.get("q"), cert.get("r"), cert.get("n")) != (q, r, size):
            return "witness parameters disagree with the key"
        problem = family_problem(cert, "sequence" if kind == "F" else "comparable")
        if problem:
            return f"witness: {problem}"
        if len(cert["vectors"]) != recorded:
            return f"witness has {len(cert['vectors'])} vectors, value is {recorded}"
        return None
    if (cert.get("N"), cert.get("q")) != (size, q):
        return "witness parameters disagree with the key"
    if kind == "f":
        col = coloring_matrix(cert)
        if size <= 6:
            got = brute_monotone(col, r)
        else:
            got = max(
                longest_monotone(col, set(s))
                for s in itertools.combinations(range(1, q + 1), r)
            )
    else:
        if size > 6:
            return "tournament witnesses above 6 vertices are not checkable here"
        got = brute_directed(Tournament(cert), r)
    if got != recorded:
        return f"witness value {got} != recorded {recorded}"
    return None


def witness_size(record: dict) -> int:
    """Vectors in an F/G witness, vertices in an f/g witness."""
    cert = record.get("certificate") or {}
    if record.get("kind") in ("F", "G"):
        return len(cert.get("vectors", ()))
    return int(cert.get("N", 0))
