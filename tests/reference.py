"""Reference checkers that only the tests use.

``certificate_is_sound`` re-checks a comparability verdict against the
family it was issued for; ``pods_disjoint_voxel`` decides pod disjointness
from the explicit voxel sets; ``canonical_pattern`` rotates one triangle's
color triple, and ``three_color_path`` is the triangle-pattern finder
written over labels, per-triangle ``color`` reads and a scan of every
vertex per step; ``lex_least_longest_rescan`` walks an oracle's start
table by rescanning a whole level per placed vertex; ``levels_argsort``
orders the vertex sets by a stable sort of their popcounts;
``comparability_rows_whole`` builds ``exact_G``'s renumbered adjacency from
whole points x points matrices.  All are plain loops, whole scans or sorts,
kept apart from the numpy kernels they check.
"""

import numpy as np

from ramsey_pods.core import (
    ComparabilityCertificate,
    VectorFamily,
    Verdict,
    _below,
    validate_comparable,
    validate_increasing,
)
from ramsey_pods.decomposition import (
    AuditFailed,
    NoCyclicTriangles,
    PatternPathResult,
    SupportTooHigh,
    _support_levels,
    audit_pattern_path,
)
from ramsey_pods.paths import PathCertificate, PathConstraint, _level
from ramsey_pods.pods import Pod, pod_voxels
from ramsey_pods.tournament import ColoredTournament, _rows, cyclic_triangles


def _up(x, y) -> frozenset[int]:
    """The 1-based coordinates where x is below y."""
    return frozenset(i for i, (a, b) in enumerate(zip(x, y), start=1) if a < b)


def certificate_is_sound(fam: VectorFamily, cert: ComparabilityCertificate) -> bool:
    """Re-check a certificate against the family it was issued for."""
    rows, r = fam.coords.tolist(), fam.r
    if cert.verdict is Verdict.FAIL_PAIR:
        a, b = cert.pair
        if not 1 <= a < b <= len(rows):
            return False
        x, y = rows[a - 1], rows[b - 1]
        up, down = len(_up(x, y)), len(_up(y, x))
        if cert.check == "increasing":
            return up < r
        if cert.check == "comparable":
            return up < r and down < r
        return False
    if cert.verdict is Verdict.CYCLIC_TRIPLE:
        if not all(1 <= i <= len(rows) for i in cert.triple):
            return False
        x, y, z = (rows[i - 1] for i in cert.triple)
        wa, wb, wc = _up(x, y), _up(y, z), _up(z, x)
        # a witness set of size >= r is exactly a dominance step
        return (
            (wa, wb, wc) == (cert.witness_a, cert.witness_b, cert.witness_c)
            and min(len(wa), len(wb), len(wc)) >= r
        )
    # a positive verdict carries no witness: re-run the check that issues it
    if cert.verdict is Verdict.INCREASING:
        return validate_increasing(fam).ok()
    return validate_comparable(fam).ok()


def pods_disjoint_voxel(a: Pod, b: Pod) -> bool:
    """Brute-force disjointness over the explicit voxel sets."""
    if (a.q, a.r, a.n) != (b.q, b.r, b.n):
        raise ValueError("pods have different parameters")
    return not (pod_voxels(a) & pod_voxels(b))


def canonical_pattern(colors: tuple[int, int, int]) -> tuple[int, int, int]:
    """Lexicographically least cyclic rotation of a triangle's color triple."""
    rots = [colors, colors[1:] + colors[:1], colors[2:] + colors[:2]]
    return min(rots)


def three_color_path(t: ColoredTournament, min_support: int | None = None) -> PatternPathResult:
    """The triangle-pattern finder over label triples and per-triangle color reads.

    Buckets the triangles of ``cyclic_triangles`` by ``canonical_pattern``
    of three ``color`` reads each, peels the largest bucket (ties to the
    least pattern) with ``_support_levels``, starts from the least pattern
    rotation of a kept triangle and extends by the first vertex of
    ``t.vertices`` whose two edges lie in kept triangles with the
    pattern's next colors.
    """
    buckets: dict = {}
    for a, b, c in cyclic_triangles(t)[1]:
        pattern = canonical_pattern((t.color(a, b), t.color(b, c), t.color(c, a)))
        buckets.setdefault(pattern, []).append((a, b, c))
    if not buckets:
        raise NoCyclicTriangles("the tournament is transitive")
    pattern = min(buckets, key=lambda p: (-len(buckets[p]), p))
    triangles = buckets[pattern]
    levels = _support_levels(triangles)
    if min_support is None:
        min_support = max(levels)
    alive = [tri for tri, lv in zip(triangles, levels) if lv >= min_support]
    if not alive:
        raise SupportTooHigh(f"support threshold {min_support} deletes every edge")
    alive_edges = {e for a, b, c in alive for e in ((a, b), (b, c), (c, a))}
    rotations = [
        (x, y, z)
        for a, b, c in alive
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b))
        if (t.color(x, y), t.color(y, z), t.color(z, x)) == pattern
    ]
    path = list(min(rotations))
    while True:
        prev, cur = path[-2], path[-1]
        k = len(path)
        c_next, c_back = pattern[(k - 1) % 3], pattern[k % 3]
        found = None
        for w in t.vertices:
            if (
                w not in path
                and (cur, w) in alive_edges
                and (w, prev) in alive_edges
                and t.color(cur, w) == c_next
                and t.color(w, prev) == c_back
            ):
                found = w
                break
        if found is None:
            break
        path.append(found)
    cert = PathCertificate("directed", PathConstraint(allow=frozenset(pattern)), tuple(path))
    problem = audit_pattern_path(t, cert)
    if problem is not None:
        raise AuditFailed(f"pattern path failed its audit: {problem}")
    return PatternPathResult(cert, pattern)


def lex_least_longest_rescan(oracle) -> tuple[int, ...]:
    """``SubsetPathOracle.lex_least_longest`` by a whole-level rescan per vertex.

    For each remaining length, ORs the start table's words over every set
    of that size that avoids the vertices placed so far, and takes the
    least start the last vertex reaches.
    """
    words, shift, reach = oracle._table(False)
    full = (1 << oracle.n) - 1
    path: list[int] = []
    used = 0
    for rem in range(len(reach) - 1, 0, -1):
        level = _level(oracle.n, rem)
        starts = (int(np.bitwise_or.reduce(words[level[(level & used) == 0]])) >> shift) & full
        if path:
            starts &= oracle._masks[False][path[-1]]
        c = (starts & -starts).bit_length() - 1
        path.append(c)
        used |= 1 << c
    return tuple(oracle.labels[c] for c in path)


def levels_argsort(n: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Every n-bit vertex set by one stable argsort of the popcounts, and the level bounds.

    Level k, ``paths._level(n, k)``, is ``order[bounds[k]:bounds[k + 1]]``.
    """
    size = np.bitwise_count(np.arange(1 << n, dtype=np.uint32))
    order = np.argsort(size, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(size, minlength=n + 1))))
    return order, tuple(bounds.tolist())


def comparability_rows_whole(vecs: np.ndarray, r: int) -> tuple[np.ndarray, list[int]]:
    """``search._comparability_rows`` from whole points x points bool matrices.

    The relation is ``_below`` ORed with its transpose, the order a stable
    argsort of its negated row sums, and the rows those of the relation
    with both axes reordered.
    """
    below = _below(vecs, r)
    comparable = below | below.T
    order = np.argsort(-comparable.sum(axis=1), kind="stable")
    return order, _rows(comparable[np.ix_(order, order)])
