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
through a non-avoided forward edge (``build_gluing``), and recurse into
the halves that are large enough to beat the best path found so far.  Its
candidates are the exact subset DP at or below the exact cap, and above it
the merged-color baseline, the midpoint gluing and the two half
recursions.  At desk scale these are heuristics; every returned path is
re-validated, never trusted.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .paths import (
    EXACT_VERTEX_CAP,
    PathCertificate,
    PathConstraint,
    SubsetPathOracle,
    longest_avoiding_directed_exact,
    validate_path,
)
from .tournament import (
    ColoredTournament,
    backward_degrees,
    clean_degrees,
    cycle_patterns,
    cyclic_positions,
    heuristic_transitive_order,
)


class NoCyclicTriangles(Exception):
    pass


class SupportTooHigh(Exception):
    pass


class DegenerateScale(Exception):
    pass


class AuditFailed(Exception):
    pass


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

    Works on the position rows of ``cyclic_positions``; positions ascend
    with labels, so every tie-break lands on the vertex the labels would
    pick.  Takes the pattern with the most rows (``cycle_patterns``) and
    keeps its rows that survive the peel at min_support (``_support_levels``):
    edges lying in fewer than min_support kept triangles of that pattern
    are dropped, cascading.  min_support=None takes the largest threshold
    that keeps any triangle.  From the least pattern rotation of a kept
    triangle, greedily appends the first vertex completing a kept pattern
    triangle with the last two.  The path is checked by
    ``audit_pattern_path`` before it is returned.
    """
    rows = cyclic_positions(t)
    if not len(rows):
        raise NoCyclicTriangles("the tournament is transitive")
    colors, patterns, which = cycle_patterns(t, rows)
    best = np.bincount(which).argmax()  # patterns ascend: the least on a tie
    pattern = patterns[best]
    rows, colors = rows[which == best], colors[which == best]
    levels = np.array(_support_levels(rows.tolist()))
    keep = levels >= (levels.max() if min_support is None else min_support)
    if not keep.any():
        raise SupportTooHigh(f"support threshold {min_support} deletes every edge")
    rows, colors = rows[keep], colors[keep]
    # the least rotation (x, y, z) of a kept triangle whose edges (x, y),
    # (y, z), (z, x) carry the pattern; rotating a triangle rotates its colors
    starts = [np.roll(rows, -k, 1)[(np.roll(colors, -k, 1) == pattern).all(1)] for k in range(3)]
    path = min(np.concatenate(starts).tolist())
    # [x, y]: the color of x -> y where that edge lies in a kept triangle, else 0
    kept = np.zeros((t.n_vertices,) * 2, colors.dtype)
    kept[rows, rows[:, [1, 2, 0]]] = colors
    while True:
        # the first unused w with cur -> w and w -> prev in the pattern's next colors
        k = len(path)
        hit = (kept[path[-1]] == pattern[(k - 1) % 3]) & (kept[:, path[-2]] == pattern[k % 3])
        hit[path] = False
        if not hit.any():
            break
        path.append(int(hit.argmax()))
    vertices = tuple(t.vertices[i] for i in path)
    cert = PathCertificate("directed", PathConstraint(allow=frozenset(pattern)), vertices)
    problem = audit_pattern_path(t, cert)
    if problem is not None:
        raise AuditFailed(f"pattern path failed its audit: {problem}")
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


def _level_path_to(parents, v) -> tuple[int, ...]:
    seq = [v]
    while parents[seq[-1]] is not None:
        seq.append(parents[seq[-1]])
    return tuple(reversed(seq))


def merged_color_baseline(t: ColoredTournament) -> tuple[int, PathCertificate]:
    """Best avoiding path over the merged color classes.

    At q >= 3 the classes are the C(q, 2) color pairs, and ceil(q/2) of
    them cover the palette; at q = 2 they are the two single colors.  A
    maximal acyclic subgraph's levels differ on both ends of every allowed
    edge: a kept edge raises the level, and a dropped edge closes a cycle,
    so its head already reaches its tail.  Every edge lies in a class of
    the cover, so a vertex's tuple of levels over the cover is injective,
    and the path has at least ceil(N^(1/ceil(q/2))) vertices on q >= 3
    palettes (at least the N^(1/(q-1)) of one fixed merge) and
    ceil(sqrt(N)) for q = 2.  Each edge carries one color, so a pair
    class's (out, into) masks are the element-wise ORs of its two
    single-color masks: q mask builds serve every class.
    """
    q = t.q
    verts = tuple(sorted(t.vertices))
    if q == 1:
        cert = PathCertificate("directed", PathConstraint(avoid=1), (verts[0],))
        return 1, cert
    single = {c: t.allowed_masks(verts, frozenset({c})) for c in range(1, q + 1)}
    if q == 2:
        classes = [((c,), single[c]) for c in (1, 2)]
    else:
        classes = [
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
            "directed", PathConstraint(avoid=avoided), _level_path_to(parents, v)
        )
        if best is None or _preference(avoided, cert) < _preference(*best):
            best = (avoided, cert)
    assert validate_path(t, best[1]) is None
    return best


# ---------------------------------------------------------------------------
# classification of colors over the four intervals


@dataclass(frozen=True)
class ColorClassification:
    """The two halves around the midpoint and their ranked endpoint paths.

    The order is cut into A|B|C|D with |B| = |C| = 4s around the midpoint;
    ``left`` is A|B and ``right`` is C|D.  Per avoided color i,
    ``ends[i]`` maps each of the s best-ranked ends of i-avoiding paths in
    ``left`` that lies in B to one path of its ranked length ending there,
    and ``starts[i]`` maps each of the s best-ranked starts of paths in
    ``right`` that lies in C to one starting there
    (``_half_endpoint_data``).
    """

    left: tuple[int, ...]
    right: tuple[int, ...]
    ends: dict[int, dict[int, tuple[int, ...]]]
    starts: dict[int, dict[int, tuple[int, ...]]]


def _half_endpoint_data(t: ColoredTournament, half: tuple[int, ...], incoming: bool, s: int):
    """Per avoided color of ``t``'s palette, ascending: {endpoint: path}.

    Endpoints rank by the length of the longest path in ``half`` that
    avoids the color and ends (or, unless ``incoming``, starts) at them,
    longest first, ties broken by label ascending.  Of the s best, those
    among the 4s vertices of ``half`` next to the midpoint (its last 4s
    when ``incoming``, else its first 4s) are kept, each with one such
    path.  Lengths are exact up to ``EXACT_VERTEX_CAP`` vertices, where
    the colors' tables share packed passes (``SubsetPathOracle.packed``),
    and level-method estimates above it.
    """
    palette = frozenset(range(1, t.q + 1))
    allowed_sets = [palette - {i} for i in range(1, t.q + 1)]
    near = set(half[-4 * s :] if incoming else half[: 4 * s])

    def kept(lengths, path):
        ranked = sorted(half, key=lambda v: (-lengths[v], v))[:s]
        return {v: path(v) for v in ranked if v in near}

    if len(half) <= EXACT_VERTEX_CAP:
        # each oracle is read before the next is taken, so one pass at a
        # time stays in memory
        return [
            kept(oracle.lengths_to(), oracle.path_to)
            if incoming
            else kept(oracle.lengths_from(), oracle.path_from)
            for oracle in SubsetPathOracle.packed(t, allowed_sets, half)
        ]
    return [kept(*_level_endpoints(t, allowed, half, incoming)) for allowed in allowed_sets]


def _level_endpoints(t, allowed, half: tuple[int, ...], incoming: bool):
    """(lengths, path) of level-method paths ending (or starting) per vertex of ``half``."""
    if incoming:
        levels, parents = _level_paths(t.allowed_masks(half, allowed), half)
        return levels, lambda v: _level_path_to(parents, v)
    # starting lengths: the level method on the reversed orientation and order
    rev = tuple(reversed(half))
    levels, parents = _level_paths(t.allowed_masks(rev, allowed)[::-1], rev)
    return levels, lambda v: tuple(reversed(_level_path_to(parents, v)))


def classify_colors(t: ColoredTournament, order, s: int) -> ColorClassification:
    """Split the order into halves and keep their ranked endpoints near the midpoint.

    ``s`` is the ranking size (the finder takes it from ``_scale``).  The
    order is cut into A|B|C|D with |B| = |C| = 4s around the midpoint;
    requires at least 16s vertices.  Per color of ``t``'s palette, one
    endpoint table for each half: of the s best ends of paths in A|B those
    in B, and of the s best starts of paths in C|D those in C
    (``_half_endpoint_data``).  A half of at most ``EXACT_VERTEX_CAP``
    vertices fills its q tables in ceil(q / floor(64/n)) packed passes, one
    at a time.  Endpoint ranking ties break by vertex label ascending.
    """
    order = tuple(order)
    n = len(order)
    if n < 16 * s:
        raise DegenerateScale(f"{n} vertices < 16s = {16 * s}")
    if sorted(order) != sorted(t.vertices):
        raise ValueError("order must be a permutation of the vertex set")
    left, right = order[: n // 2], order[n // 2 :]
    colors = range(1, t.q + 1)
    return ColorClassification(
        left=left,
        right=right,
        ends=dict(zip(colors, _half_endpoint_data(t, left, True, s))),
        starts=dict(zip(colors, _half_endpoint_data(t, right, False, s))),
    )


# ---------------------------------------------------------------------------
# midpoint gluing


def build_gluing(
    t: ColoredTournament, classification: ColorClassification
) -> list[tuple[int, PathCertificate]]:
    """Ranked left and right paths glued across the midpoint, per color.

    For each avoided color i, takes the first forward non-i edge v -> w, in
    label order of (v, w), from a kept end v in B (``ends[i]``) to a kept
    start w in C (``starts[i]``); every vertex of B precedes every vertex
    of C in the order.  The glued path is v's ranked path followed by w's.
    A color with no such edge gives no path.  Returns the (color,
    certificate) pairs, colors ascending.
    """
    glued = []
    for i in range(1, t.q + 1):
        ends, starts = classification.ends[i], classification.starts[i]
        pairs = itertools.product(sorted(ends), sorted(starts))
        hit = next(((v, w) for v, w in pairs if t.has_edge(v, w) and t.color(v, w) != i), None)
        if hit is None:
            continue
        v, w = hit
        glued.append((i, PathCertificate("directed", PathConstraint(avoid=i), ends[v] + starts[w])))
    return glued


# ---------------------------------------------------------------------------
# the recursive color-avoiding driver


def _scale(q: int, n: int) -> tuple[int, float]:
    """The ranking size s and cleaning scale delta at n vertices, q colors.

    gamma = 1 / (2q * 2^sqrt(log2 q)) and delta = gamma / 8, as in the
    proof; s = floor(2 gamma n), clamped to at least 1 and at most n // 16,
    because the classification needs 16s vertices.
    """
    gamma = 1.0 / (2.0 * q * 2.0 ** math.sqrt(math.log2(q)))
    return max(1, min(math.floor(2.0 * gamma * n), n // 16)), gamma / 8.0


def _measured_delta(back: int, n: int, floor_delta: float) -> Fraction | None:
    """Smallest workable rational delta covering the observed backwardness.

    ``floor_delta`` is the cleaning scale of ``_scale``; a measured delta
    below it is raised to it.
    """
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
    the cleaned order (``build_gluing``, "case1"), and recursion into the
    two halves.  ``_scale`` gives the cleaning scale at the node and the
    ranking size at the cleaned node.  A half is visited only when it has
    at least as many vertices as the longest candidate so far: a shorter
    half cannot hold a longer path, and an equal one may still win the
    tie-break.  The maximum is returned and always re-validated; ties
    prefer the smaller avoided color, then the lexicographically smaller
    vertex sequence.  With ``trace``, every node visited appends one
    record; skipped halves append none.
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
    delta = _measured_delta(sum(degrees) // 2, n, _scale(q, n)[1])
    if delta is not None:
        try:
            sub_t, sub_order = clean_degrees(t, order, delta, degrees)
            s, _ = _scale(q, sub_t.n_vertices)
            classification = classify_colors(sub_t, sub_order, s)
        except DegenerateScale:
            classification = None

    if classification is not None:
        halves = (classification.left, classification.right)
        for i, cert in build_gluing(sub_t, classification):
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
