"""Seeded instance generator for the benchmark.

Everything here is written against the file formats only, never against the
package under test, so a change to the package cannot change its own inputs.
Equal seeds give byte-identical files.

Kinds of tournament:
  random     uniform orientation and color per pair
  near       a transitive tournament with a few reversed pairs
  canonical  the q-fold lex product of monochromatic m-cliques, transitive
  balance    the product of the q cyclic color shifts of a small coloring
  product    the lex product of two small random colorings
  *_flip     an extremal construction with a few reversed pairs
Every tournament gets a seeded vertex relabeling, so the transitive order is
never the identity.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# ---------------------------------------------------------------------------
# ordered colorings as colour matrices: col[u][v] for 1 <= u < v <= N


def _matrix(n: int) -> list[list[int]]:
    return [[0] * (n + 1) for _ in range(n + 1)]


def random_coloring(rng: random.Random, n: int, q: int) -> list[list[int]]:
    col = _matrix(n)
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            col[u][v] = col[v][u] = rng.randint(1, q)
    return col


def lex_product(c1: list[list[int]], c2: list[list[int]]) -> list[list[int]]:
    """Every vertex of c2 blown up to an interval carrying a copy of c1."""
    n1, n2 = len(c1) - 1, len(c2) - 1
    n = n1 * n2
    col = _matrix(n)
    for u in range(1, n + 1):
        bu, xu = divmod(u - 1, n1)
        for v in range(u + 1, n + 1):
            bv, xv = divmod(v - 1, n1)
            c = c1[xu + 1][xv + 1] if bu == bv else c2[bu + 1][bv + 1]
            col[u][v] = col[v][u] = c
    return col


def mono_clique(m: int, color: int) -> list[list[int]]:
    col = _matrix(m)
    for u in range(1, m + 1):
        for v in range(u + 1, m + 1):
            col[u][v] = col[v][u] = color
    return col


def canonical(q: int, m: int) -> list[list[int]]:
    """The q-fold lex product of monochromatic m-cliques in colors 1..q."""
    col = mono_clique(m, 1)
    for c in range(2, q + 1):
        col = lex_product(col, mono_clique(m, c))
    return col


def shift(col: list[list[int]], q: int, t: int) -> list[list[int]]:
    n = len(col) - 1
    out = _matrix(n)
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            out[u][v] = out[v][u] = (col[u][v] + t - 2) % q + 1
    return out


def balance(col: list[list[int]], q: int) -> list[list[int]]:
    """Product of the q cyclic color shifts, as the paper's balanced product."""
    out = shift(col, q, 1)
    for t in range(2, q + 1):
        out = lex_product(out, shift(col, q, t))
    return out


def coloring_json(col: list[list[int]], q: int) -> dict:
    n = len(col) - 1
    return {
        "N": n,
        "q": q,
        "colors": [[u, v, col[u][v]] for u in range(1, n + 1) for v in range(u + 1, n + 1)],
    }


# ---------------------------------------------------------------------------
# tournaments as (N, q, edge list)


def transitive_edges(col: list[list[int]]) -> list[list[int]]:
    n = len(col) - 1
    return [[u, v, col[u][v]] for u in range(1, n + 1) for v in range(u + 1, n + 1)]


def flip_pairs(rng: random.Random, edges: list[list[int]], count: int) -> list[list[int]]:
    edges = [list(e) for e in edges]
    for i in rng.sample(range(len(edges)), count):
        u, v, c = edges[i]
        edges[i] = [v, u, c]
    return edges


def relabel(rng: random.Random, n: int, edges: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """The edges under a seeded vertex permutation, and the permutation."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    out = [[perm[u - 1], perm[v - 1], c] for u, v, c in edges]
    out.sort(key=lambda e: (min(e[0], e[1]), max(e[0], e[1])))
    return out, perm


def tournament(rng: random.Random, kind: str, n: int, q: int) -> dict:
    """One tournament of the given kind on n vertices with palette q.

    For the product kinds n is the size the construction lands on, and the
    caller picks parameters that reach it.
    """
    base, _, flipped = kind.partition("_")
    if base == "random":
        edges = []
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                c = rng.randint(1, q)
                edges.append([u, v, c] if rng.random() < 0.5 else [v, u, c])
    else:
        if base == "near":
            col = random_coloring(rng, n, q)
        elif base == "canonical":
            m = round(n ** (1.0 / q))
            col = canonical(q, m)
        elif base == "balance":
            m = round(n ** (1.0 / q))
            col = balance(random_coloring(rng, m, q), q)
        elif base == "product":
            a = _factor(n)
            col = lex_product(random_coloring(rng, a, q), random_coloring(rng, n // a, q))
        else:
            raise ValueError(f"unknown tournament kind {kind!r}")
        if len(col) - 1 != n:
            raise ValueError(f"{kind} cannot reach N = {n} with q = {q}")
        edges = transitive_edges(col)
        if base == "near" or flipped:
            edges = flip_pairs(rng, edges, max(1, n // 8))
    return {"N": n, "q": q, "edges": relabel(rng, n, edges)[0]}


def _factor(n: int) -> int:
    """The largest divisor of n that is at most its square root."""
    a = int(n**0.5)
    while n % a:
        a -= 1
    return a


def rng_for(seed: int, *tag) -> random.Random:
    return random.Random(":".join(str(x) for x in (seed,) + tag))


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
