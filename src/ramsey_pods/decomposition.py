"""Proof-derived path finders for general edge-colored tournaments.

Two families of algorithms live here.  The triangle-pattern builder extracts
a long directed path using at most three colors from any tournament with
cyclic triangles, by bucketing cyclic triangles by their rotated color
pattern, keeping those of the largest bucket that survive a support peel
(one pass gives every triangle the largest threshold it survives), and
growing the path greedily; its output is the square of a path (consecutive
edges forward, distance-two edges backward) with colors periodic with
period three.

The recursive finder realizes the interval decomposition: order the
vertices, clean high-backward-degree vertices, rank top in/out path
endpoints of the two halves around the midpoint, glue matched halves
through a non-avoided forward edge, and recurse into the halves that are
large enough to beat the best path found so far.  Its candidates are the
exact subset DP at or below the exact cap, and above it the merged-color
baseline, the midpoint gluing and the two half recursions.

The proof's second case, an anchor/block chain through the diffuse colors,
is built and audited by ``build_gluing`` as a library function, which
derives its own long/short and condensed split of the colors.  The finder
neither chains blocks through it nor runs the triangle-pattern builder:
neither ever won a recursion node on the benchmark's decompose instances
or on the pinned corpus of ``tests/test_decomposition_pinned.py``.  At
desk scale these are heuristics; every returned path is re-validated,
never trusted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .paths import (
    EXACT_VERTEX_CAP,
    PathCertificate,
    PathConstraint,
    ProofParameters,
    SubsetPathOracle,
    longest_avoiding_directed_exact,
    proof_parameters,
    validate_path,
)
from .tournament import (
    ColoredTournament,
    backward_degrees,
    clean_degrees,
    heuristic_transitive_order,
    pattern_buckets,
)


class NoCyclicTriangles(Exception):
    pass


class SupportTooHigh(Exception):
    pass


class DegenerateScale(Exception):
    pass


class NotDiffuse(Exception):
    pass


class AuditFailed(Exception):
    def __init__(self, message: str, offender=None):
        super().__init__(message)
        self.offender = offender


# ---------------------------------------------------------------------------
# triangle-pattern path builder


@dataclass(frozen=True)
class PatternPathResult:
    certificate: PathCertificate
    pattern: tuple[int, int, int]


def _triangle_edges(tri: tuple[int, int, int]):
    a, b, c = tri
    return ((a, b), (b, c), (c, a))


def _support_levels(triangles: list[tuple[int, int, int]]) -> list[int]:
    """Per triangle, the largest m whose support peel keeps it (at least 1).

    The peel at m drops every edge lying in fewer than m live triangles,
    with the triangles through it, until none is left; the result does not
    depend on the drop order, and the peel at m + 1 of the peel at m is the
    peel at m + 1.  So each threshold's cascade starts from the survivors
    of the last, and one pass over rising m levels every triangle (the core
    decomposition of Batagelj and Zaversnik, on edges).
    """
    edge_tris: dict[tuple[int, int], list[int]] = {}
    for idx, tri in enumerate(triangles):
        for e in _triangle_edges(tri):
            edge_tris.setdefault(e, []).append(idx)
    support = {e: len(ts) for e, ts in edge_tris.items()}  # live edges only
    level = [0] * len(triangles)  # 0 while the triangle is alive
    m = 1
    while support:
        m += 1
        queue = [e for e, s in support.items() if s < m]
        while queue:
            e = queue.pop()
            if support.pop(e, None) is None:
                continue
            for idx in edge_tris[e]:
                if level[idx]:
                    continue
                level[idx] = m - 1
                for other in _triangle_edges(triangles[idx]):
                    if other in support:
                        support[other] -= 1
                        if support[other] < m:
                            queue.append(other)
    return level


def three_color_path(
    t: ColoredTournament, min_support: int | None = None
) -> PatternPathResult:
    """Grow a period-3 patterned path through well-supported cyclic triangles.

    Picks the largest canonical-pattern bucket and keeps its triangles that
    survive the peel at min_support (``_support_levels``): edges lying in
    fewer than min_support kept triangles of that pattern are dropped,
    cascading.  min_support=None takes the largest threshold that keeps any
    triangle.  From the least pattern rotation of a kept triangle, greedily
    appends vertices completing a kept pattern triangle with the last two.
    """
    buckets = pattern_buckets(t)
    if not buckets:
        raise NoCyclicTriangles("the tournament is transitive")
    pattern = min(buckets, key=lambda p: (-len(buckets[p]), p))
    triangles = buckets[pattern]
    levels = _support_levels(triangles)
    if min_support is None:
        min_support = max(levels)
    alive = [tri for tri, lv in zip(triangles, levels) if lv >= min_support]
    if not alive:
        raise SupportTooHigh(
            f"support threshold {min_support} deletes every edge"
        )
    alive_edges = {e for tri in alive for e in _triangle_edges(tri)}

    # the least rotation (x, y, z) of a kept triangle whose edges (x, y),
    # (y, z), (z, x) carry the pattern; rotating a triangle rotates its colors
    tris, colors = np.array(alive), t.cycle_colors(alive)
    rotations = []
    for k in range(3):
        hit = (np.roll(colors, -k, axis=1) == pattern).all(axis=1)
        rotations += np.roll(tris, -k, axis=1)[hit].tolist()
    path = min(rotations)
    used = set(path)
    while True:
        prev, cur = path[-2], path[-1]
        k = len(path)  # next edge color index: pattern[(k - 1) % 3]
        c_next = pattern[(k - 1) % 3]
        c_back = pattern[k % 3]
        found = None
        for w in t.vertices:
            if w in used:
                continue
            if (
                (cur, w) in alive_edges
                and (w, prev) in alive_edges
                and t.color(cur, w) == c_next
                and t.color(w, prev) == c_back
            ):
                found = w
                break
        if found is None:
            break
        path.append(found)
        used.add(found)
    cert = PathCertificate(
        "directed", PathConstraint(allow=frozenset(pattern)), tuple(path)
    )
    problem = validate_path(t, cert)
    if problem is not None:
        raise AuditFailed(f"pattern path failed validation: {problem}")
    return PatternPathResult(cert, pattern)


def audit_pattern_path(t: ColoredTournament, cert: PathCertificate) -> str | None:
    """Square-of-path audit: forward steps, backward skips, period 3."""
    problem = validate_path(t, cert)
    if problem is not None:
        return problem
    verts = cert.vertices
    colors = [t.color(a, b) for a, b in zip(verts, verts[1:])]
    if len(set(colors)) > 3:
        return f"{len(set(colors))} distinct colors on the path"
    for j in range(len(colors) - 3):
        if colors[j] != colors[j + 3]:
            return f"colors not 3-periodic at edge {j + 1}"
    for j in range(len(verts) - 2):
        if not t.has_edge(verts[j + 2], verts[j]):
            return f"distance-two pair ({verts[j]},{verts[j + 2]}) not backward"
    return None


# ---------------------------------------------------------------------------
# maximal-acyclic-subgraph levels: estimator and merged-color baseline


def _maximal_acyclic(masks: tuple[list[int], list[int]]) -> list[int]:
    """In-masks of a maximal acyclic subgraph of the allowed edges.

    ``masks`` is the (out, into) pair of ``ColoredTournament.allowed_masks``;
    bit x of the returned ``kept[y]`` is set iff x -> y is kept.  Keeps
    every forward edge, then each backward edge a -> b (positions a
    ascending, b ascending) that closes no cycle with the edges kept so
    far.  Keeping an edge out of a never changes the set R of vertices
    that reach a: a new path into a through a -> b would need b to reach a
    already, and then that edge was not kept.  So one reverse search over
    the kept in-masks per vertex with backward edges gives R, and a's kept
    backward edges are ``back & ~R``.
    """
    out, into = masks
    kept = [mask & ((1 << y) - 1) for y, mask in enumerate(into)]
    for a, adj in enumerate(out):
        back = adj & ((1 << a) - 1)
        if not back:
            continue
        # vertices above a still have only forward edges, so R lies below a
        reach = frontier = kept[a]
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            fresh = kept[bit.bit_length() - 1] & ~reach
            reach |= fresh
            frontier |= fresh
        back &= ~reach
        while back:
            bit = back & -back
            kept[bit.bit_length() - 1] |= 1 << a
            back ^= bit
    return kept


def _level_paths(masks: tuple[list[int], list[int]], vertices: tuple[int, ...]):
    """Longest-path levels of a maximal acyclic subgraph of allowed edges.

    ``masks`` is the (out, into) pair of ``ColoredTournament.allowed_masks``
    over ``vertices``.  Returns (levels, parents) keyed by label.  The
    level of v is the vertex count of the longest path ending at v inside
    the subgraph (``_maximal_acyclic``), so levels properly color the
    allowed edge set and max(levels) realizes an actual directed path.
    Levels are placed layer by layer: a vertex joins layer k once none of
    its kept in-neighbours is unplaced, and its parent is the smallest of
    those in layer k - 1.
    """
    m = len(vertices)
    into = _maximal_acyclic(masks)
    level = [1] * m
    parent = [-1] * m
    pending = (1 << m) - 1  # vertices not yet in a layer
    layer = 0  # the previous layer
    rest = range(m)
    k = 0
    while rest:
        k += 1
        now, blocked = 0, []
        for y in rest:
            if into[y] & pending:
                blocked.append(y)
                continue
            low = into[y] & layer  # empty in the first layer: parent -1
            level[y], parent[y] = k, (low & -low).bit_length() - 1
            now |= 1 << y
        pending ^= now
        layer, rest = now, blocked
    levels = {vertices[i]: level[i] for i in range(m)}
    parents = {vertices[i]: (vertices[parent[i]] if parent[i] >= 0 else None) for i in range(m)}
    return levels, parents


def _level_path_to(levels, parents, v) -> tuple[int, ...]:
    seq = [v]
    while parents[seq[-1]] is not None:
        seq.append(parents[seq[-1]])
    return tuple(reversed(seq))


def merged_color_baseline(t: ColoredTournament) -> tuple[int, PathCertificate]:
    """Best avoiding path over monochromatic and two-color merged classes.

    Scanning every singleton and pair dominates the fixed merge used by the
    pigeonhole guarantee, so the result is always at least ceil(N^(1/(q-1)))
    on q >= 3 palettes and ceil(sqrt(N)) for q = 2.  Each edge carries one
    color, so a pair class's (out, into) masks are the element-wise ORs of
    its two single-color masks: q mask builds serve all q + C(q, 2) classes.
    """
    q = t.q
    verts = tuple(sorted(t.vertices))
    if q == 1:
        cert = PathCertificate("directed", PathConstraint(avoid=1), (verts[0],))
        return 1, cert
    single = {c: t.allowed_masks(verts, frozenset({c})) for c in range(1, q + 1)}
    classes = [((c,), single[c]) for c in range(1, q + 1)]
    if q >= 3:
        classes += [
            ((a, b), tuple([x | y for x, y in zip(*side)] for side in zip(single[a], single[b])))
            for a in range(1, q + 1)
            for b in range(a + 1, q + 1)
        ]
    best: tuple[int, PathCertificate] | None = None
    for cls, masks in classes:
        avoided = min(c for c in range(1, q + 1) if c not in cls)
        levels, parents = _level_paths(masks, verts)
        top = max(levels.values())
        v = min(u for u, lv in levels.items() if lv == top)
        cert = PathCertificate(
            "directed", PathConstraint(avoid=avoided), _level_path_to(levels, parents, v)
        )
        if best is None or _preference(avoided, cert) < _preference(*best):
            best = (avoided, cert)
    assert validate_path(t, best[1]) is None
    return best


# ---------------------------------------------------------------------------
# classification of colors over the four intervals


@dataclass(frozen=True)
class ColorClassification:
    """Interval split and ranked endpoint sets per avoided color.

    ``ell_in[i][v]`` is the (exact or estimated) length of the longest
    i-avoiding path inside the left half ending at v, ``x_sets[i]`` the s
    best such endpoints; mirrored for the right half.  Paths witnessing the
    recorded lengths are kept for every ranked endpoint.
    """

    order: tuple[int, ...]
    params: ProofParameters
    interval_a: tuple[int, ...]
    interval_b: tuple[int, ...]
    interval_c: tuple[int, ...]
    interval_d: tuple[int, ...]
    x_sets: dict[int, tuple[int, ...]]
    y_sets: dict[int, tuple[int, ...]]
    ell_in: dict[int, dict[int, int]] = field(repr=False)
    ell_out: dict[int, dict[int, int]] = field(repr=False)
    in_paths: dict[int, dict[int, tuple[int, ...]]] = field(repr=False)
    out_paths: dict[int, dict[int, tuple[int, ...]]] = field(repr=False)


def _half_endpoint_data(t, allowed, half: tuple[int, ...], incoming: bool):
    """(lengths, path) for best avoiding paths ending (or starting) per vertex.

    ``path(v)`` builds one such path on demand: callers keep only a few
    ranked endpoints.  Lengths are exact up to ``EXACT_VERTEX_CAP`` vertices
    and level-method estimates above it.
    """
    if len(half) <= EXACT_VERTEX_CAP:
        oracle = SubsetPathOracle(t, allowed, half)
        if incoming:
            return oracle.lengths_to(), oracle.path_to
        return oracle.lengths_from(), oracle.path_from
    if incoming:
        levels, parents = _level_paths(t.allowed_masks(half, allowed), half)
        return levels, lambda v: _level_path_to(levels, parents, v)
    # starting lengths: the level method on the reversed orientation and order
    rev = tuple(reversed(half))
    levels, parents = _level_paths(t.allowed_masks(rev, allowed)[::-1], rev)
    return levels, lambda v: tuple(reversed(_level_path_to(levels, parents, v)))


def classify_colors(
    t: ColoredTournament, order, params: ProofParameters
) -> ColorClassification:
    """Rank endpoint sets per avoided color over four intervals.

    The order is cut into A|B|C|D with |B| = |C| = 4s around the midpoint;
    requires at least 16s vertices.  Per color, one endpoint table for each
    half: the s best ends of paths in A|B and the s best starts of paths in
    C|D.  Endpoint ranking ties break by vertex label ascending.
    """
    order = tuple(order)
    n = len(order)
    s = params.s
    if n < 16 * s:
        raise DegenerateScale(f"{n} vertices < 16s = {16 * s}")
    if sorted(order) != sorted(t.vertices):
        raise ValueError("order must be a permutation of the vertex set")
    h = n // 2
    interval_a = order[: h - 4 * s]
    interval_b = order[h - 4 * s : h]
    interval_c = order[h : h + 4 * s]
    interval_d = order[h + 4 * s :]
    left = interval_a + interval_b
    right = interval_c + interval_d
    q = params.q
    x_sets: dict[int, tuple[int, ...]] = {}
    y_sets: dict[int, tuple[int, ...]] = {}
    ell_in: dict[int, dict[int, int]] = {}
    ell_out: dict[int, dict[int, int]] = {}
    in_paths: dict[int, dict[int, tuple[int, ...]]] = {}
    out_paths: dict[int, dict[int, tuple[int, ...]]] = {}
    for i in range(1, q + 1):
        allowed = frozenset(c for c in range(1, q + 1) if c != i)
        if allowed:
            lengths_in, path_in = _half_endpoint_data(t, allowed, left, True)
            lengths_out, path_out = _half_endpoint_data(t, allowed, right, False)
        else:
            lengths_in = {v: 1 for v in left}
            lengths_out = {v: 1 for v in right}
            path_in = path_out = lambda v: (v,)
        ranked_left = sorted(left, key=lambda v: (-lengths_in[v], v))
        ranked_right = sorted(right, key=lambda v: (-lengths_out[v], v))
        x_sets[i] = tuple(ranked_left[:s])
        y_sets[i] = tuple(ranked_right[:s])
        ell_in[i] = lengths_in
        ell_out[i] = lengths_out
        in_paths[i] = {v: path_in(v) for v in x_sets[i]}
        out_paths[i] = {v: path_out(v) for v in y_sets[i]}
    return ColorClassification(
        order=order,
        params=params,
        interval_a=interval_a,
        interval_b=interval_b,
        interval_c=interval_c,
        interval_d=interval_d,
        x_sets=x_sets,
        y_sets=y_sets,
        ell_in=ell_in,
        ell_out=ell_out,
        in_paths=in_paths,
        out_paths=out_paths,
    )


# ---------------------------------------------------------------------------
# gluing structure


@dataclass(frozen=True)
class GluingStructure:
    """Anchors interleaved with blocks, wired by diffuse-colored edges."""

    anchors: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]
    delta_l: frozenset[int]
    s: int

    @property
    def t(self) -> int:
        return len(self.blocks)


def audit_gluing(
    t: ColoredTournament, order, structure: GluingStructure
) -> str | None:
    """Independent re-check of all four structural invariants."""
    pos = {v: i for i, v in enumerate(order)}
    anchors, blocks = structure.anchors, structure.blocks
    if len(anchors) != len(blocks) + 1:
        return "anchor/block counts disagree"
    seen: set[int] = set(anchors)
    if len(seen) != len(anchors):
        return "repeated anchor"
    for a, block in enumerate(blocks):
        if not block:
            return f"block {a + 1} is empty"
        if len(block) < structure.s:
            return f"block {a + 1} smaller than s = {structure.s}"
        if set(block) & seen:
            return f"block {a + 1} overlaps earlier vertices"
        seen |= set(block)
        for v in block:
            if not (pos[anchors[a]] < pos[v] < pos[anchors[a + 1]]):
                return f"vertex {v} breaks the interleaving order"
            if not t.has_edge(anchors[a], v):
                return f"edge ({anchors[a]},{v}) not directed anchor to block"
            if t.color(anchors[a], v) not in structure.delta_l:
                return f"edge ({anchors[a]},{v}) colored outside the diffuse set"
            if not t.has_edge(v, anchors[a + 1]):
                return f"edge ({v},{anchors[a + 1]}) not directed block to anchor"
            if t.color(v, anchors[a + 1]) not in structure.delta_l:
                return f"edge ({v},{anchors[a + 1]}) colored outside the diffuse set"
    return None


def _left_diffuse_colors(
    t: ColoredTournament, classification: ColorClassification
) -> list[int]:
    """Colors that are neither long nor left-condensed, ascending.

    A color is long when its avoiding path over the whole vertex set, exact
    up to ``EXACT_VERTEX_CAP`` vertices and a level-method estimate above
    it, has at least gamma*N vertices; left-condensed when at least s/2 of
    its ranked left endpoints ``x_sets[i]`` lie in B.
    """
    params = classification.params
    q, s = params.q, params.s
    n = len(classification.order)
    verts = tuple(sorted(t.vertices))
    b_set = set(classification.interval_b)
    diffuse = []
    for i in range(1, q + 1):
        if 2 * len(set(classification.x_sets[i]) & b_set) >= s:
            continue
        allowed = frozenset(c for c in range(1, q + 1) if c != i)
        if not allowed:
            estimate = 1
        elif n <= EXACT_VERTEX_CAP:
            estimate = SubsetPathOracle(t, allowed).longest()
        else:
            levels, _ = _level_paths(t.allowed_masks(verts, allowed), verts)
            estimate = max(levels.values())
        if estimate < params.gamma * n:
            diffuse.append(i)
    return diffuse


def build_gluing(
    t: ColoredTournament, order, classification: ColorClassification
) -> GluingStructure:
    """Anchor/block chain through the left-diffuse top endpoint sets.

    The left-diffuse colors come from ``_left_diffuse_colors``; the first p
    of them form the diffuse set.  Follows the recursive construction: after
    each anchor take the next 4s vertices of U as candidates, the following
    8s as anchor candidates, drop the current anchor's exceptional set, and
    pick the next anchor with few exceptional hits.  A vertex's exceptional
    set holds its ranked path, its color's ranked endpoints and its
    non-neighbours: the vertices of A|B whose pair with it ``t`` orients
    against ``classification.order``.  The result is audited edge by edge.
    """
    params = classification.params
    p, s = params.p, params.s
    diffuse = _left_diffuse_colors(t, classification)
    if len(diffuse) < p:
        raise NotDiffuse(f"{len(diffuse)} left-diffuse colors < p = {p}")
    delta_l = tuple(sorted(diffuse)[:p])
    pos = {v: i for i, v in enumerate(order)}
    a_set = set(classification.interval_a)
    iota: dict[int, int] = {}
    for i in delta_l:
        for v in classification.x_sets[i]:
            if v in a_set and v not in iota:
                iota[v] = i
    u_all = sorted(iota, key=lambda v: pos[v])
    if not u_all:
        raise NotDiffuse("no ranked endpoints fall inside the first interval")

    ranks = {v: k for k, v in enumerate(classification.order)}

    def neighbours(v: int, w: int) -> bool:
        first, last = (v, w) if ranks[v] < ranks[w] else (w, v)
        return t.has_edge(first, last)

    def exceptional(v: int) -> set[int]:
        i = iota[v]
        bad = set(classification.in_paths[i].get(v, (v,)))
        bad.update(
            w
            for w in classification.interval_a + classification.interval_b
            if w != v and not neighbours(v, w)
        )
        bad.update(classification.x_sets[i])
        return bad

    anchors = [u_all[0]]
    blocks: list[tuple[int, ...]] = []
    cursor = 0
    while True:
        rest = u_all[cursor + 1 :]
        if len(rest) < 12 * s:
            break
        i_cand = rest[: 4 * s]
        j_cand = rest[4 * s : 12 * s]
        exc_anchor = exceptional(anchors[-1])
        i_prime = [v for v in i_cand if v not in exc_anchor]
        if not i_prime:
            break
        exc_map = {v: exceptional(v) for v in i_prime}
        degrees = {w: sum(1 for v in i_prime if w in exc_map[v]) for w in j_cand}
        pick = next((w for w in j_cand if degrees[w] <= s), None)
        if pick is None:
            pick = min(j_cand, key=lambda w: (degrees[w], pos[w]))
        block = tuple(v for v in i_prime if pick not in exc_map[v])
        if not block:
            break
        blocks.append(block)
        anchors.append(pick)
        cursor = u_all.index(pick)
    structure = GluingStructure(
        anchors=tuple(anchors),
        blocks=tuple(blocks),
        delta_l=frozenset(delta_l),
        s=s,
    )
    problem = audit_gluing(t, order, structure)
    if problem is not None:
        raise AuditFailed(f"gluing audit failed: {problem}", offender=problem)
    return structure


# ---------------------------------------------------------------------------
# the recursive color-avoiding driver


def _driver_params(q: int, n: int) -> ProofParameters:
    """Formula parameters squeezed into the viable desk-scale window.

    The diffuse-set size is capped at the palette and the ranking size at
    n // 16 (the classification needs 16s vertices); the classification and
    gluing machinery stays a certificate-checked heuristic either way.
    """
    p = proof_parameters(q, n)
    s_eff = max(1, min(p.s, n // 16))
    return ProofParameters(q, n, p.gamma, min(p.p, q), s_eff, p.delta)


def _measured_delta(back: int, n: int, floor_delta: float) -> Fraction | None:
    """Smallest workable rational delta covering the observed backwardness."""
    if back == 0:
        cand = Fraction(1, 4 * n)
    else:
        root = math.isqrt(back)
        if root * root < back:
            root += 1
        cand = Fraction(root, n)
    formula = Fraction(floor_delta).limit_denominator(10**9)
    delta = max(cand, formula)
    if delta >= Fraction(1, 2):
        return None
    return delta


def recursive_color_avoiding(
    t: ColoredTournament, seed: int = 0, trace: list | None = None
) -> tuple[int, PathCertificate]:
    """Best color-avoiding directed path over the proof-derived branches.

    Branches: the exact subset DP up to ``EXACT_VERTEX_CAP`` vertices, and
    at any size when q = 1 (a path avoiding the only color is one vertex),
    color by color until one path covers every vertex; above it, the
    merged-color baseline, midpoint gluing of ranked endpoint paths across
    the cleaned order ("case1"), and recursion into the two halves.  A half
    is visited only when it has at least as many vertices as the longest
    candidate so far: a shorter half cannot hold a longer path, and an
    equal one may still win the tie-break.  The maximum is returned and
    always re-validated; ties prefer the smaller avoided color, then the
    lexicographically smaller vertex sequence.  With ``trace``, every node
    visited appends one record; skipped halves append none.
    """
    q = t.q
    n = t.n_vertices
    candidates: list[tuple[int, PathCertificate, str]] = []

    if n <= EXACT_VERTEX_CAP or q == 1:
        for i in range(1, q + 1):
            cert = longest_avoiding_directed_exact(t, i)
            candidates.append((i, cert, "exact"))
            if cert.length == n:
                break  # a later color can only tie, and ties go to the smaller
        return _select(t, candidates, trace)

    base_color, base_cert = merged_color_baseline(t)
    candidates.append((base_color, base_cert, "baseline"))

    order = heuristic_transitive_order(t, seed)

    classification = None
    degrees = backward_degrees(t, order)
    delta = _measured_delta(sum(degrees) // 2, n, _driver_params(q, n).delta)
    if delta is not None:
        try:
            sub_t, sub_order = clean_degrees(t, order, delta, degrees)
            classification = classify_colors(
                sub_t, sub_order, _driver_params(q, sub_t.n_vertices)
            )
        except (DegenerateScale, ValueError):
            classification = None

    if classification is not None:
        halves = (
            classification.interval_a + classification.interval_b,
            classification.interval_c + classification.interval_d,
        )
        # midpoint gluing: first forward non-i edge between ranked endpoint
        # sets; every v in B precedes every w in C in the cleaned order
        b_set = set(classification.interval_b)
        c_set = set(classification.interval_c)
        for i in range(1, q + 1):
            xs = sorted(v for v in classification.x_sets[i] if v in b_set)
            ys = sorted(w for w in classification.y_sets[i] if w in c_set)
            hit = None
            for v in xs:
                for w in ys:
                    if sub_t.has_edge(v, w) and sub_t.color(v, w) != i:
                        hit = (v, w)
                        break
                if hit:
                    break
            if hit is None:
                continue
            v, w = hit
            verts = classification.in_paths[i][v] + classification.out_paths[i][w]
            cert = PathCertificate("directed", PathConstraint(avoid=i), verts)
            if validate_path(t, cert) is None:
                expected = classification.ell_in[i][v] + classification.ell_out[i][w]
                assert cert.length == expected
                candidates.append((i, cert, "case1"))
    else:
        half = len(order) // 2
        halves = (order[:half], order[half:])

    for side, half_verts in zip(("left", "right"), halves):
        best = max(cert.length for _, cert, _ in candidates)
        # a path inside the half has at most len(half_verts) vertices, so a
        # shorter half cannot win; an equal one may still win the tie-break
        if len(half_verts) < max(2, best):
            continue
        sub = t.restrict(half_verts)
        color, cert = recursive_color_avoiding(sub, seed, trace)
        if validate_path(t, cert) is None:
            candidates.append((color, cert, f"recurse_{side}"))

    return _select(t, candidates, trace)


def _preference(color: int, cert: PathCertificate):
    """Sort key of the tie-break rule: the smallest key wins.

    Longer paths first, then the smaller avoided color, then the
    lexicographically smaller vertex sequence.
    """
    return (-cert.length, color, cert.vertices)


def _select(t, candidates, trace: list | None) -> tuple[int, PathCertificate]:
    """The preferred (color, certificate) of ``candidates``, re-validated.

    ``candidates`` holds (color, certificate, source) triples.  With
    ``trace``, appends the node's record: the chosen candidate's source as
    its case, and per source, in first-appearance order, the longest path
    among that source's candidates.
    """
    color, cert, case = min(candidates, key=lambda item: _preference(item[0], item[1]))
    problem = validate_path(t, cert)
    if problem is not None:
        raise AuditFailed(f"selected certificate failed validation: {problem}")
    if trace is not None:
        branch_lengths: dict[str, int] = {}
        for _, other, source in candidates:
            branch_lengths[source] = max(branch_lengths.get(source, 0), other.length)
        trace.append(
            {
                "case": case,
                "N": t.n_vertices,
                "chosen_color": color,
                "branch_lengths": branch_lengths,
            }
        )
    return color, cert


def trace_to_jsonl(trace: list) -> str:
    return "\n".join(json.dumps(node) for node in trace) + "\n"
