"""Differential tests: the arc-matrix readers against out-mask references.

``ColoredTournament`` used to keep, beside its signed arc matrix, the
out-neighbour bitmask of each position as a Python int, and ``has_edge``,
``out_degree``, ``backward_degrees``, ``heuristic_transitive_order``,
``cyclic_triangles`` and ``greedy_directed_path`` read those masks.  The
references below are those routines, run on masks packed here from
``edges()``, so they share no code with the numpy reductions they check.
``pattern_buckets`` is checked against its per-triangle loop of three
``color`` calls over the reference triangles, rotated by the tuple
``canonical_pattern`` of ``reference.py``.
They are compared on random tournaments, restrictions with labels that are
not 1..N, q = 1, N <= 3 and the transitive tournaments of ordered colorings.
"""

import itertools
import random

import pytest

from ramsey_pods.paths import greedy_directed_path
from ramsey_pods.tournament import (
    ColoredTournament,
    backward_degrees,
    cyclic_triangles,
    heuristic_transitive_order,
    pattern_buckets,
    random_ordered_coloring,
    random_tournament,
)

from reference import canonical_pattern


class Ref:
    """A tournament's out-masks by position, packed from its edge list."""

    def __init__(self, t: ColoredTournament):
        self.t = t
        self.idx = {v: i for i, v in enumerate(t.vertices)}
        self.out = [0] * t.n_vertices
        for tail, head, _ in t.edges():
            self.out[self.idx[tail]] |= 1 << self.idx[head]

    def has_edge(self, u, v):
        return bool((self.out[self.idx[u]] >> self.idx[v]) & 1)

    def out_degree(self, u):
        return bin(self.out[self.idx[u]]).count("1")

    def backward_degrees(self, order):
        full = (1 << len(order)) - 1
        later = full
        degrees = []
        for u in order:
            i = self.idx[u]
            bit = 1 << i
            later ^= bit
            earlier = full ^ later ^ bit
            out = self.out[i]
            degrees.append(bin(later & ~out).count("1") + bin(earlier & out).count("1"))
        return degrees

    def heuristic_order(self, seed):
        rng = random.Random(seed)
        verts = list(self.t.vertices)
        rng.shuffle(verts)
        verts.sort(key=lambda v: -self.out_degree(v))
        improved = True
        while improved:
            improved = False
            for i in range(len(verts) - 1):
                if self.has_edge(verts[i + 1], verts[i]):
                    verts[i], verts[i + 1] = verts[i + 1], verts[i]
                    improved = True
        return tuple(verts)

    def triangle_count(self):
        n = len(self.out)
        full = (1 << n) - 1
        total = 0
        for a in range(n):
            in_a = full & ~self.out[a] & ~(1 << a)
            m = self.out[a]
            while m:
                b = (m & -m).bit_length() - 1
                total += bin(self.out[b] & in_a).count("1")
                m &= m - 1
        return total // 3

    def triangles(self):
        verts = self.t.vertices
        n = len(verts)
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    u, v, w = verts[i], verts[j], verts[k]
                    if self.has_edge(u, v):
                        if self.has_edge(v, w) and self.has_edge(w, u):
                            yield (u, v, w)
                    elif self.has_edge(w, v) and self.has_edge(v, u) and self.has_edge(u, w):
                        yield (u, w, v)

    def pattern_buckets(self):
        t = self.t
        buckets = {}
        for a, b, c in self.triangles():
            pat = canonical_pattern((t.color(a, b), t.color(b, c), t.color(c, a)))
            buckets.setdefault(pat, []).append((a, b, c))
        return buckets

    def greedy(self, allowed):
        t = self.t
        labels = sorted(t.vertices)

        def extend(start):
            path = [start]
            used = {start}
            while True:
                cur = path[-1]
                nxt, nxt_deg = None, -1
                for w in labels:
                    if w in used or not self.has_edge(cur, w) or t.color(cur, w) not in allowed:
                        continue
                    deg = sum(
                        1
                        for z in labels
                        if z not in used
                        and z != w
                        and self.has_edge(w, z)
                        and t.color(w, z) in allowed
                    )
                    if deg > nxt_deg:
                        nxt, nxt_deg = w, deg
                if nxt is None:
                    return path
                path.append(nxt)
                used.add(nxt)

        best = [labels[0]]
        for s in labels:
            cand = extend(s)
            if len(cand) > len(best):
                best = cand
        return tuple(best)


def _restricted(n, q, seed):
    """A random tournament on n of 2n vertices, so labels are not 1..n."""
    keep = random.Random(seed).sample(range(1, 2 * n + 1), n)
    return random_tournament(2 * n, q, seed=seed).restrict(keep)


def _instances(max_n):
    rng = random.Random(max_n)
    out = []
    for seed in range(8):
        n = rng.randint(4, max_n)
        q = rng.randint(2, 4)
        out.append((f"random_{seed}", random_tournament(n, q, seed=seed)))
        out.append((f"restricted_{seed}", _restricted(n, q, seed)))
        out.append((f"q1_{seed}", random_tournament(n, 1, seed=seed)))
        k = random_ordered_coloring(n, q, seed=seed)
        out.append((f"transitive_{seed}", k.as_tournament()))
    for n in (1, 2, 3):
        for seed in range(3):
            out.append((f"small_n{n}_{seed}", random_tournament(n, 2, seed=seed)))
            out.append((f"small_restricted_n{n}_{seed}", _restricted(n, 2, seed)))
    return out


INSTANCES = _instances(24)


@pytest.mark.parametrize("name,t", INSTANCES, ids=[name for name, _ in INSTANCES])
def test_pair_reads_match_the_masks(name, t):
    ref = Ref(t)
    for u, v in itertools.product(t.vertices, repeat=2):
        assert t.has_edge(u, v) is ref.has_edge(u, v), (u, v)
    assert [t.out_degree(v) for v in t.vertices] == [ref.out_degree(v) for v in t.vertices]


@pytest.mark.parametrize("name,t", INSTANCES, ids=[name for name, _ in INSTANCES])
def test_orders_match_the_masks(name, t):
    ref = Ref(t)
    rng = random.Random(name)
    for seed in range(5):
        order = list(t.vertices)
        rng.shuffle(order)
        got = backward_degrees(t, order)
        assert got == ref.backward_degrees(order)
        assert all(type(d) is int for d in got)
        assert heuristic_transitive_order(t, seed) == ref.heuristic_order(seed)


@pytest.mark.parametrize("name,t", INSTANCES, ids=[name for name, _ in INSTANCES])
def test_triangles_match_the_masks(name, t):
    ref = Ref(t)
    count, tris = cyclic_triangles(t)
    assert type(count) is int and count == ref.triangle_count()
    assert list(tris) == list(ref.triangles())


@pytest.mark.parametrize("name,t", INSTANCES, ids=[name for name, _ in INSTANCES])
def test_pattern_buckets_match_the_color_reads(name, t):
    # the same buckets, first seen first, each in triangle order
    assert list(pattern_buckets(t).items()) == list(Ref(t).pattern_buckets().items())


@pytest.mark.parametrize("name,t", INSTANCES, ids=[name for name, _ in INSTANCES])
def test_greedy_matches_the_mask_scan_on_every_palette(name, t):
    ref = Ref(t)
    colors = range(1, t.q + 1)
    for size in range(1, t.q + 1):
        for allowed in map(frozenset, itertools.combinations(colors, size)):
            assert greedy_directed_path(t, allowed) == ref.greedy(allowed), allowed


def test_triangles_match_the_masks_at_larger_n():
    for seed, n in enumerate((40, 57)):
        t = _restricted(n, 3, seed)
        ref = Ref(t)
        count, tris = cyclic_triangles(t)
        listed = list(tris)
        assert count == ref.triangle_count() == len(listed)
        assert listed == list(ref.triangles())
    # wide palettes: many distinct color triples, and colors past int64
    for t in (_restricted(30, 9, 5), random_tournament(14, 2**70, seed=5)):
        assert list(pattern_buckets(t).items()) == list(Ref(t).pattern_buckets().items())


def test_restrict_rejects_a_repeated_label():
    t = random_tournament(5, 2, seed=1)
    with pytest.raises(ValueError, match="vertex 1 listed twice"):
        t.restrict([1, 1, 2])
    with pytest.raises(ValueError, match="vertex 4 listed twice"):
        t.restrict([5, 4, 2, 4])
