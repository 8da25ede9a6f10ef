"""Lower-bound constructions: lexicographic products of colorings, the
digit-mixing product of increasing vector families, the fully balanced
product coloring, and the color-block product attaining m^|S| restricted
path lengths.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .core import VectorFamily, _coord_dtype, validate_increasing
from .tournament import OrderedColoring


def lex_product(k1: OrderedColoring, k2: OrderedColoring) -> OrderedColoring:
    """Blow every vertex of k2 up to an interval carrying a copy of k1.

    Edges between intervals inherit k2's colors; the longest monotone path
    restricted to any color set S multiplies exactly across the factors.
    """
    if k1.q != k2.q:
        raise ValueError(f"palette mismatch: {k1.q} vs {k2.q}")
    n1, n2 = k1.n_vertices, k2.n_vertices
    # blocks[b, x, c, y]: the color between vertex x of block b and vertex y of block c
    blocks = np.empty((n2, n1, n2, n1), k1.matrix.dtype)
    blocks[...] = k2.matrix[1:, None, 1:, None]
    same = np.arange(n2)
    blocks[same, :, same, :] = k1.matrix[1:, 1:]
    total = n1 * n2
    color = np.zeros((total + 1, total + 1), blocks.dtype)
    color[1:, 1:] = blocks.reshape(total, total)
    return OrderedColoring.from_matrix(k1.q, color)


def monochromatic_clique(m: int, color: int, q: int) -> OrderedColoring:
    matrix = np.full((m + 1, m + 1), color)
    matrix[0] = matrix[:, 0] = 0
    np.fill_diagonal(matrix, 0)
    return OrderedColoring.from_matrix(q, matrix)


def canonical_coloring(q: int, m: int) -> OrderedColoring:
    """The q-fold product of monochromatic m-cliques in colors 1..q.

    On m^q vertices, the longest monotone path using colors S has length
    exactly m^|S|, which realizes the general N^(r/q) upper bound.
    """
    if q < 1 or m < 1:
        raise ValueError("q and m must be positive")
    factors = [monochromatic_clique(m, c, q) for c in range(1, q + 1)]
    return reduce(lex_product, factors)


def balance_coloring(k: OrderedColoring) -> OrderedColoring:
    """Product of the q cyclic color shifts of k, equalizing every color.

    The factor for step t recolors c to ((c + t - 2) mod q) + 1.  In the
    result, the longest path avoiding any one color equals the product of
    all q avoidance lengths of k.
    """
    q = k.q
    factors = [
        k.recolored(lambda c, t=t: ((c + t - 2) % q) + 1) for t in range(1, q + 1)
    ]
    return reduce(lex_product, factors)


def product_boost_vectors(a: VectorFamily, b: VectorFamily) -> VectorFamily:
    """Combine two increasing families into one on the product grid.

    Coordinates mix as z_i = (x_i - 1) * n2 + y_i and members are ordered
    lexicographically by (index in a, index in b).  The output is validated
    before being returned.
    """
    if a.q != b.q:
        raise ValueError(f"dimension mismatch: {a.q} vs {b.q}")
    if a.r != b.r:
        raise ValueError(f"threshold mismatch: {a.r} vs {b.r}")
    if not validate_increasing(a).ok() or not validate_increasing(b).ok():
        raise ValueError("both factors must be increasing families")
    n_out = a.n * b.n
    coords = (a.coords[:, None].astype(_coord_dtype(n_out)) - 1) * b.n + b.coords[None]
    out = VectorFamily.from_array(coords.reshape(-1, a.q), a.r, n_out)
    cert = validate_increasing(out)
    if not cert.ok():
        raise AssertionError(f"product family failed validation at {cert.pair}")
    return out
