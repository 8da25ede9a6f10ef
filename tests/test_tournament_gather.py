"""Differential tests: ``allowed_masks``, ``restrict`` and ``edges`` against
per-pair reference loops written over ``color`` and ``has_edge``.

The references are the loops these methods used to be; they read nothing
but the public per-pair accessors, so they pin what the shared gather must
return for every label order and every palette size, including the palettes
on either side of the int8 edge (q = 127, 128) and one beyond int64.
"""

import random

import pytest

from ramsey_pods.tournament import ColoredTournament, random_tournament

PALETTES = (1, 3, 127, 128, 2**70)


def ref_allowed_masks(t, labels, allowed):
    out = [0] * len(labels)
    into = [0] * len(labels)
    for a, u in enumerate(labels):
        for b, v in enumerate(labels):
            if a != b and t.color(u, v) in allowed:
                if t.has_edge(u, v):
                    out[a] |= 1 << b
                else:
                    into[a] |= 1 << b
    return out, into


def ref_edges(t, labels):
    edges = []
    for a in range(len(labels)):
        for b in range(a + 1, len(labels)):
            u, v = labels[a], labels[b]
            edges.append((u, v, t.color(u, v)) if t.has_edge(u, v) else (v, u, t.color(u, v)))
    return edges


def label_lists(t, rng):
    verts = list(t.vertices)
    half = len(verts) // 2
    yield verts
    yield rng.sample(verts, rng.randint(1, len(verts)))
    yield sorted(rng.sample(verts, rng.randint(1, len(verts))))
    yield verts[:half][::-1]
    yield verts[half:][::-1]


def allowed_sets(q, rng):
    colors = [1, q] + [rng.randint(1, q) for _ in range(3)]
    yield frozenset(colors)
    yield frozenset({rng.choice(colors)})
    yield frozenset(rng.sample(colors, 2)) | {0, q + 1}  # out-of-palette colors never match
    yield frozenset()


def extreme(n, q, seed):
    """Every pair colored q or 1, so both ends of the palette occur in both signs."""
    rng = random.Random(seed)
    edges = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            c = rng.choice((1, q))
            edges.append((u, v, c) if rng.random() < 0.5 else (v, u, c))
    return ColoredTournament(n, q, edges)


SIZES = (("random", 1), ("random", 2), ("random", 9), ("random", 23), ("extreme", 17))
CASES = [(kind, q, n) for q in PALETTES for kind, n in SIZES]


@pytest.mark.parametrize("kind, q, n", CASES, ids=[f"{k}_q{q}_n{n}" for k, q, n in CASES])
def test_gather_matches_per_pair_reference(kind, q, n):
    make = random_tournament if kind == "random" else extreme
    t = make(n, q, seed=n)
    rng = random.Random(f"{kind}_{q}_{n}")
    for labels in label_lists(t, rng):
        for allowed in allowed_sets(t.q, rng):
            assert t.allowed_masks(labels, allowed) == ref_allowed_masks(t, labels, allowed)
        sub = t.restrict(labels)
        keep = sorted(labels)
        assert sub.vertices == tuple(keep) and sub.q == t.q
        assert list(sub.edges()) == ref_edges(t, keep)
        assert [sub.out_degree(v) for v in keep] == [
            sum(t.has_edge(v, w) for w in keep) for v in keep
        ]
        # a restriction gathers from its own, relabeled matrix
        inner = rng.sample(keep, (len(keep) + 1) // 2)
        for allowed in allowed_sets(t.q, rng):
            assert sub.allowed_masks(inner, allowed) == ref_allowed_masks(t, inner, allowed)
        assert list(sub.restrict(inner).edges()) == ref_edges(t, sorted(inner))
    edges = list(t.edges())
    assert edges == ref_edges(t, list(t.vertices))
    assert all(type(x) is int for edge in edges for x in edge)
    assert ColoredTournament(t.n_vertices, t.q, edges).to_json() == t.to_json()


@pytest.mark.parametrize("q", PALETTES)
def test_color_reads_python_ints_at_palette_ends(q):
    t = ColoredTournament(3, q, [(1, 2, q), (3, 2, 1), (1, 3, q)])
    assert [t.color(1, 2), t.color(2, 1), t.color(2, 3), t.color(3, 1)] == [q, q, 1, q]
    assert all(type(t.color(u, v)) is int for u in t.vertices for v in t.vertices if u != v)
    assert list(t.edges()) == [(1, 2, q), (1, 3, q), (3, 2, 1)]


def test_gather_unknown_label_raises_key_error():
    t = random_tournament(5, 2, seed=0)
    with pytest.raises(KeyError):
        t.allowed_masks([1, 6], frozenset({1}))
    with pytest.raises(KeyError):
        t.restrict([2, 7])
