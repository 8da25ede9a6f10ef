"""The level method against a per-edge search and relaxation reference.

``_reference_level_paths`` takes out-masks only: every backward edge a -> b
runs its own depth-first search from b over the kept edges and is kept when
that search misses a, then levels and parents are relaxed edge by edge in a
smallest-first Kahn order.  ``_level_paths`` takes the (out, into) pair of
``allowed_masks`` and places levels layer by layer over the kept in-masks;
both must give the same (levels, parents) on every input.  The property
tests check the kept graph itself: acyclic, maximal among subgraphs of the
allowed edges, and every level path a real allowed path of ``levels[v]``
vertices.
"""

import random
from itertools import combinations
from math import comb

import pytest

from ramsey_pods import decomposition
from ramsey_pods.constructions import canonical_coloring, lex_product
from ramsey_pods.decomposition import (
    _level_path_to,
    _level_paths,
    _maximal_acyclic,
    _preference,
    merged_color_baseline,
)
from ramsey_pods.paths import PathCertificate, PathConstraint
from ramsey_pods.tournament import (
    ColoredTournament,
    random_ordered_coloring,
    random_tournament,
)


def _reference_level_paths(adj: list[int], vertices: tuple[int, ...]):
    m = len(vertices)
    keep = [0] * m  # maximal acyclic subgraph, starts from forward edges
    for a in range(m):
        forward_mask = ~((1 << (a + 1)) - 1)
        keep[a] = adj[a] & forward_mask

    def reachable(src: int, dst: int) -> bool:
        seen = 1 << src
        stack = [src]
        while stack:
            x = stack.pop()
            if x == dst:
                return True
            fresh = keep[x] & ~seen
            seen |= fresh
            while fresh:
                bit = fresh & -fresh
                stack.append(bit.bit_length() - 1)
                fresh ^= bit
        return False

    for a in range(m):
        back = adj[a] & ((1 << a) - 1)
        while back:
            bit = back & -back
            b = bit.bit_length() - 1
            back ^= bit
            if not reachable(b, a):
                keep[a] |= bit
    # Kahn topological order of the kept DAG, smallest position first
    indeg = [0] * m
    for a in range(m):
        mm = keep[a]
        while mm:
            bit = mm & -mm
            indeg[bit.bit_length() - 1] += 1
            mm ^= bit
    ready = sorted(i for i in range(m) if indeg[i] == 0)
    topo = []
    while ready:
        x = ready.pop(0)
        topo.append(x)
        mm = keep[x]
        inserts = []
        while mm:
            bit = mm & -mm
            y = bit.bit_length() - 1
            indeg[y] -= 1
            if indeg[y] == 0:
                inserts.append(y)
            mm ^= bit
        ready = sorted(ready + inserts)
    level = [1] * m
    parent = [-1] * m
    for x in topo:
        mm = keep[x]
        while mm:
            bit = mm & -mm
            y = bit.bit_length() - 1
            if level[x] + 1 > level[y] or (
                level[x] + 1 == level[y] and (parent[y] == -1 or x < parent[y])
            ):
                level[y] = level[x] + 1
                parent[y] = x
            mm ^= bit
    levels = {vertices[i]: level[i] for i in range(m)}
    parents = {vertices[i]: (vertices[parent[i]] if parent[i] >= 0 else None) for i in range(m)}
    return levels, parents


def _flipped(t: ColoredTournament, n_flips: int, seed: int) -> ColoredTournament:
    """t with n_flips random edges reversed, colors kept."""
    rng = random.Random(seed)
    edges = list(t.edges())
    for i in rng.sample(range(len(edges)), n_flips):
        u, v, c = edges[i]
        edges[i] = (v, u, c)
    return ColoredTournament(t.n_vertices, t.q, edges)


def _tournaments():
    """(name, tournament, allowed colors, or None to draw them at random)."""
    for n in (1, 2, 7, 23, 48, 100):
        yield f"random_{n}", random_tournament(n, 2 + n % 4, seed=n), None
    for n in (30, 64, 96):
        near = _flipped(random_ordered_coloring(n, 3, seed=n).as_tournament(), n // 4, n)
        yield f"near_{n}", near, None
    product = lex_product(canonical_coloring(2, 3), random_ordered_coloring(9, 2, seed=4))
    yield "product_flip_27", _flipped(product.as_tournament(), 12, 5), None
    yield "canonical_q3_m3", canonical_coloring(3, 3).as_tournament(), None
    yield "canonical_flip_q4_m2", _flipped(canonical_coloring(4, 2).as_tournament(), 10, 7), None
    # every edge kept, one vertex per layer: the deepest layering
    transitive = random_ordered_coloring(100, 1, seed=0).as_tournament()
    yield "transitive_100", transitive, frozenset({1})
    # every edge colored 1, only color 2 allowed: one layer, no parents
    edges = ((u, v, 1) for u, v, _ in random_tournament(40, 2, seed=40).edges())
    yield "avoided_40", ColoredTournament(40, 2, edges), frozenset({2})


def _cases():
    """(name, masks, labels): the (out, into) pair and its reverse (into, out),
    on sorted, permuted and subset labels."""
    rng = random.Random(9)
    yield "empty", ([], []), ()
    for name, t, allowed in _tournaments():
        verts = sorted(t.vertices)
        colors = range(1, t.q + 1)
        drawn = frozenset(rng.sample(colors, rng.randint(1, t.q)))
        allowed = drawn if allowed is None else allowed
        permuted = rng.sample(verts, len(verts))
        subset = sorted(rng.sample(verts, max(1, len(verts) * 2 // 3)))
        for order, labels in (("sorted", verts), ("permuted", permuted), ("subset", subset)):
            out, into = t.allowed_masks(labels, allowed)
            for side, masks in (("out", (out, into)), ("into", (into, out))):
                yield f"{name}_{order}_{side}", masks, tuple(labels)


CASES = list(_cases())


@pytest.mark.parametrize("name,masks,labels", CASES, ids=[c[0] for c in CASES])
def test_level_paths_match_reference(name, masks, labels):
    assert _level_paths(masks, labels) == _reference_level_paths(masks[0], labels)


def _reaches(keep: list[int], src: int, dst: int) -> bool:
    seen = frontier = 1 << src
    while frontier:
        bit = frontier & -frontier
        frontier ^= bit
        fresh = keep[bit.bit_length() - 1] & ~seen
        seen |= fresh
        frontier |= fresh
    return bool(seen >> dst & 1)


@pytest.mark.parametrize("name,masks,labels", CASES, ids=[c[0] for c in CASES])
def test_kept_graph_is_maximal_acyclic(name, masks, labels):
    adj = masks[0]
    into = _maximal_acyclic(masks)
    m = len(adj)
    keep = [sum(1 << y for y in range(m) if into[y] >> x & 1) for x in range(m)]
    for x in range(m):
        assert keep[x] & ~adj[x] == 0  # only allowed edges
        assert into[x] & ~masks[1][x] == 0  # in-masks, in the pair's orientation
        assert not any(_reaches(keep, y, x) for y in range(m) if keep[x] >> y & 1)
        dropped = adj[x] & ~keep[x]
        for y in range(m):
            if dropped >> y & 1:
                assert _reaches(keep, y, x), f"dropping {x} -> {y} closes no cycle"


@pytest.mark.parametrize("name,masks,labels", CASES, ids=[c[0] for c in CASES])
def test_level_paths_are_allowed_paths(name, masks, labels):
    adj = masks[0]
    levels, parents = _level_paths(masks, labels)
    pos = {v: i for i, v in enumerate(labels)}
    for v in labels:
        u, steps = v, 0
        while parents[u] is not None and steps < len(labels):
            u, steps = parents[u], steps + 1
        assert parents[u] is None, "parent links close a cycle"
        path = _level_path_to(parents, v)
        assert len(path) == levels[v] and path[-1] == v
        assert len(set(path)) == len(path)
        assert all(adj[pos[a]] >> pos[b] & 1 for a, b in zip(path, path[1:]))


def _reference_baseline(t: ColoredTournament):
    """Every class's mask built by ``allowed_masks``, levels by the reference."""
    q = t.q
    verts = tuple(sorted(t.vertices))
    classes = [frozenset({c}) for c in range(1, q + 1)]
    if q >= 3:
        classes += [frozenset(p) for p in combinations(range(1, q + 1), 2)]
    best = None
    for cls in classes:
        avoided = min(c for c in range(1, q + 1) if c not in cls)
        levels, parents = _reference_level_paths(t.allowed_masks(verts, cls)[0], verts)
        top = max(levels.values())
        v = min(u for u, lv in levels.items() if lv == top)
        cert = PathCertificate(
            "directed", PathConstraint(avoid=avoided), _level_path_to(parents, v)
        )
        if best is None or _preference(avoided, cert) < _preference(*best):
            best = (avoided, cert)
    return best


def _product(q: int, m: int, n: int, seed: int) -> ColoredTournament:
    """A random n-vertex q-coloring, each vertex blown up to a canonical
    (q, m) coloring, with a quarter as many edges flipped as vertices."""
    k = lex_product(canonical_coloring(q, m), random_ordered_coloring(n, q, seed=seed))
    return _flipped(k.as_tournament(), k.n_vertices // 4, seed)


@pytest.mark.parametrize(
    "q,t",
    [
        (2, random_tournament(40, 2, seed=1)),
        (3, random_tournament(56, 3, seed=2)),
        (4, _flipped(random_ordered_coloring(60, 4, seed=3).as_tournament(), 20, 3)),
        (4, _flipped(canonical_coloring(4, 2).as_tournament(), 8, 4)),
        (5, random_tournament(45, 5, seed=5)),
        # near-transitive, flipped canonical and flipped product, q >= 3
        (3, _flipped(random_ordered_coloring(48, 3, seed=6).as_tournament(), 12, 6)),
        (5, _flipped(random_ordered_coloring(100, 5, seed=7).as_tournament(), 25, 7)),
        (6, _flipped(random_ordered_coloring(150, 6, seed=8).as_tournament(), 37, 8)),
        (3, _flipped(canonical_coloring(3, 4).as_tournament(), 16, 9)),
        (4, _flipped(canonical_coloring(4, 3).as_tournament(), 20, 10)),
        (6, _flipped(canonical_coloring(6, 2).as_tournament(), 16, 11)),
        (3, _product(3, 2, 9, 12)),
        (4, _product(4, 2, 6, 13)),
        (5, _product(5, 2, 4, 14)),
    ],
)
def test_baseline_builds_one_mask_per_color(monkeypatch, q, t):
    # the baseline levels the C(q, 2) pair classes at q >= 3 and the two
    # single colors at q = 2; the reference also levels every single color
    # at q >= 3, and that never changes the answer
    masks, levels = [], []
    real_masks = ColoredTournament.allowed_masks
    real_levels = decomposition._level_paths

    def counted_masks(self, labels, allowed):
        masks.append(allowed)
        return real_masks(self, labels, allowed)

    def counted_levels(m, vertices):
        levels.append(len(vertices))
        return real_levels(m, vertices)

    monkeypatch.setattr(ColoredTournament, "allowed_masks", counted_masks)
    monkeypatch.setattr(decomposition, "_level_paths", counted_levels)
    got = merged_color_baseline(t)
    assert sorted(masks, key=sorted) == [frozenset({c}) for c in range(1, q + 1)]
    assert levels == [t.n_vertices] * (2 if q == 2 else comb(q, 2))
    monkeypatch.setattr(ColoredTournament, "allowed_masks", real_masks)
    assert got == _reference_baseline(t)
