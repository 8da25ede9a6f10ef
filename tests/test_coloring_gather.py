"""Differential tests: the color-matrix builders and DPs of ``OrderedColoring``
against per-pair reference loops.

The references are the loops these functions used to be.  They read nothing
but the per-pair accessors (``color``, ``edges``) and build through the
per-edge constructor, so they pin what the matrix operations must return:
at N = 1, on random colorings up to N = 60, on canonical and balanced
products, at q = 1..5, and at q = 300, whose matrix is uint16.
"""

import itertools
import random

import numpy as np
import pytest

from ramsey_pods.constructions import (
    balance_coloring,
    canonical_coloring,
    lex_product,
)
from ramsey_pods.core import GridVector, VectorFamily
from ramsey_pods.paths import (
    PathCertificate,
    PathConstraint,
    longest_restricted_monotone,
    monotone_lengths_ending,
)
from ramsey_pods.reductions import (
    ColorPartition,
    coloring_to_vectors,
    merge_colors,
    vectors_to_coloring,
)
from ramsey_pods.tournament import (
    ColoredTournament,
    OrderedColoring,
    random_ordered_coloring,
    random_tournament,
)


def ref_lex_product(k1, k2):
    n1, n2 = k1.n_vertices, k2.n_vertices

    def color(u, v):
        bu, xu = divmod(u - 1, n1)
        bv, xv = divmod(v - 1, n1)
        if bu == bv:
            return k1.color(xu + 1, xv + 1)
        return k2.color(bu + 1, bv + 1)

    total = n1 * n2
    return OrderedColoring(
        total,
        k1.q,
        ((u, v, color(u, v)) for u in range(1, total + 1) for v in range(u + 1, total + 1)),
    )


def ref_recolored(k, mapping):
    new_q = max(mapping(c) for c in range(1, k.q + 1))
    return OrderedColoring(k.n_vertices, new_q, ((u, v, mapping(c)) for u, v, c in k.edges()))


def ref_merge_colors(instance, partition):
    edges = ((u, v, partition.block_of(c)) for u, v, c in instance.edges())
    if isinstance(instance, OrderedColoring):
        return OrderedColoring(instance.n_vertices, partition.q_new, edges)
    return ColoredTournament(instance.n_vertices, partition.q_new, edges)


def ref_vectors_to_coloring(fam):
    q = fam.q
    n_vertices = len(fam.vectors)

    def edge_color(a, b):
        xa, xb = fam.vectors[a - 1].coords, fam.vectors[b - 1].coords
        stalled = [i + 1 for i in range(q) if xa[i] >= xb[i]]
        return stalled[0] if stalled else 1

    return OrderedColoring(
        n_vertices,
        q,
        (
            (a, b, edge_color(a, b))
            for a in range(1, n_vertices + 1)
            for b in range(a + 1, n_vertices + 1)
        ),
    )


def ref_ending(k, colors):
    n = k.n_vertices
    ending = [0] + [1] * n
    for v in range(1, n + 1):
        for u in range(1, v):
            if k.color(u, v) in colors and ending[u] + 1 > ending[v]:
                ending[v] = ending[u] + 1
    return ending


def ref_coloring_to_vectors(k):
    n, q = k.n_vertices, k.q
    ending = [ref_ending(k, set(range(1, q + 1)) - {i}) for i in range(1, q + 1)]
    side = max(max(row[1:]) for row in ending)
    vectors = tuple(
        GridVector(tuple(ending[i][v] for i in range(q)), side) for v in range(1, n + 1)
    )
    return VectorFamily(vectors, max(1, q - 1))


def ref_longest_restricted_monotone(k, colors):
    allowed = frozenset(colors)
    n = k.n_vertices
    tail = [1] * (n + 1)
    for v in range(n, 0, -1):
        for w in range(v + 1, n + 1):
            if k.color(v, w) in allowed and tail[w] + 1 > tail[v]:
                tail[v] = tail[w] + 1
    best = max(tail[1:])
    path = []
    need = best
    prev = 0
    while need:
        for v in range(prev + 1, n + 1):
            if tail[v] >= need and (not path or k.color(path[-1], v) in allowed):
                path.append(v)
                prev = v
                break
        need -= 1
    return PathCertificate("monotone", PathConstraint(allow=allowed), tuple(path))


def colorings():
    """(name, coloring): N = 1, random up to N = 60, products, q = 1..5 and 300."""
    rng = random.Random(13)
    for q in (1, 2, 3, 4, 5):
        yield f"single_q{q}", OrderedColoring(1, q, [])
        for n in (2, 3, 7, rng.randint(8, 30), 60):
            yield f"random_n{n}_q{q}", random_ordered_coloring(n, q, seed=rng.randrange(1 << 30))
    yield "canonical_q3_m3", canonical_coloring(3, 3)
    yield "canonical_q5_m2", canonical_coloring(5, 2)
    yield "balance_n4_q3", balance_coloring(random_ordered_coloring(4, 3, seed=5))
    yield "balance_n3_q4", balance_coloring(random_ordered_coloring(3, 4, seed=6))
    yield "wide_q300", random_ordered_coloring(40, 300, seed=7)
    # every color 300 or 1, so both ends of the uint16 palette occur
    yield "extreme_q300", OrderedColoring(
        12, 300, ((u, v, 300 if (u * v) % 3 else 1) for u in range(1, 13) for v in range(u + 1, 13))
    )


CASES = list(colorings())
IDS = [name for name, _ in CASES]
KS = [k for _, k in CASES]


def color_sets(q, rng):
    yield frozenset({1})
    yield frozenset({q})
    yield frozenset(range(1, q + 1))
    yield frozenset(rng.sample(range(1, q + 1), rng.randint(1, q)))
    yield frozenset({rng.randint(1, q), q + 1})  # an out-of-palette color never matches


def assert_same(got, want):
    assert got == want
    assert got.q == want.q
    assert got.matrix.dtype == want.matrix.dtype
    assert list(got.edges()) == list(want.edges())
    assert got.to_json() == want.to_json()


def test_matrix_dtype_follows_the_palette():
    assert canonical_coloring(3, 2).matrix.dtype == np.uint8
    assert random_ordered_coloring(5, 255, seed=1).matrix.dtype == np.uint8
    assert random_ordered_coloring(5, 256, seed=1).matrix.dtype == np.uint16
    assert dict(CASES)["wide_q300"].matrix.dtype == np.uint16


@pytest.mark.parametrize("k", KS, ids=IDS)
def test_parse_round_trip(k):
    again = OrderedColoring.from_json(k.to_json())
    assert_same(again, k)
    assert again.n_vertices == k.n_vertices
    assert again.matrix.flags.writeable is False


@pytest.mark.parametrize("k", KS, ids=IDS)
def test_allowed_rows_match_colors(k):
    labels = range(k.n_vertices + 1)
    for allowed in ({1}, {0, k.q}, {0, k.q + 1}, set(range(k.q + 2))):
        want = [
            bytes(int(u != v and 0 not in (u, v) and k.color(u, v) in allowed) for v in labels)
            for u in labels
        ]
        assert k.allowed_rows(allowed) == want


@pytest.mark.parametrize("k", KS, ids=IDS)
def test_monotone_dps_match_reference(k):
    rng = random.Random(k.n_vertices * 1000 + k.q)
    for colors in color_sets(k.q, rng):
        assert longest_restricted_monotone(k, colors) == ref_longest_restricted_monotone(k, colors)
        assert monotone_lengths_ending(k, colors) == ref_ending(k, colors)


@pytest.mark.parametrize("k", KS, ids=IDS)
def test_recolored_matches_reference(k):
    q = k.q
    for mapping in (
        lambda c: c,
        lambda c: ((c + 1) % q) + 1,  # a cyclic shift, as in balance_coloring
        lambda c: (c + 1) // 2,  # merges neighbouring colors
        lambda c: 2 * c,  # leaves colors unused
    ):
        assert_same(k.recolored(mapping), ref_recolored(k, mapping))


@pytest.mark.parametrize("k", KS, ids=IDS)
def test_merge_colors_matches_reference(k):
    rng = random.Random(k.q)
    colors = list(range(1, k.q + 1))
    rng.shuffle(colors)
    cut = rng.randint(1, k.q)
    blocks = [frozenset(colors[:cut])] + ([frozenset(colors[cut:])] if cut < k.q else [])
    partition = ColorPartition(tuple(blocks))
    assert_same(merge_colors(k, partition), ref_merge_colors(k, partition))
    t = random_tournament(k.n_vertices, k.q, seed=k.n_vertices)
    merged, want = merge_colors(t, partition), ref_merge_colors(t, partition)
    assert merged.q == want.q
    assert merged.vertices == want.vertices
    assert list(merged.edges()) == list(want.edges())


@pytest.mark.parametrize("k", [k for k in KS if k.q >= 2], ids=[n for n, k in CASES if k.q >= 2])
def test_vector_translation_matches_reference(k):
    fam = coloring_to_vectors(k)
    want = ref_coloring_to_vectors(k)
    assert fam.to_json() == want.to_json()
    assert all(type(c) is int for v in fam.vectors for c in v.coords)
    assert_same(vectors_to_coloring(fam), ref_vectors_to_coloring(want))


def test_vectors_to_coloring_on_a_family_of_one():
    fam = VectorFamily.from_coords([(1, 1, 1)], 2)
    assert_same(vectors_to_coloring(fam), ref_vectors_to_coloring(fam))


def test_vectors_to_coloring_row_blocks(monkeypatch):
    # blocks of a few rows at a time give the same matrix as one block
    import ramsey_pods.reductions as reductions

    fam = coloring_to_vectors(random_ordered_coloring(23, 4, seed=9))
    whole = vectors_to_coloring(fam)
    for entries in (1, 4 * 23 * 2, 4 * 23 * 5 + 1):
        monkeypatch.setattr(reductions, "_BLOCK_ENTRIES", entries)
        assert_same(vectors_to_coloring(fam), whole)


@pytest.mark.parametrize("q", (1, 2, 3, 5, 300))
def test_lex_product_matches_reference(q):
    rng = random.Random(q)
    sizes = [(1, 1), (1, 4), (4, 1), (3, 5), (7, 6)]
    for n1, n2 in sizes:
        k1 = random_ordered_coloring(n1, q, seed=rng.randrange(1 << 30))
        k2 = random_ordered_coloring(n2, q, seed=rng.randrange(1 << 30))
        assert_same(lex_product(k1, k2), ref_lex_product(k1, k2))


def test_canonical_and_balanced_products_match_reference():
    for q, m in itertools.product((1, 2, 3, 4), (1, 2, 3)):
        want = OrderedColoring(1, q, [])
        for c in range(1, q + 1):
            clique = OrderedColoring(
                m, q, ((u, v, c) for u in range(1, m + 1) for v in range(u + 1, m + 1))
            )
            want = clique if c == 1 else ref_lex_product(want, clique)
        assert_same(canonical_coloring(q, m), want)
    for q, n in ((1, 5), (2, 4), (3, 4), (4, 3), (5, 2)):
        k = random_ordered_coloring(n, q, seed=q * n)
        shifts = [ref_recolored(k, lambda c, t=t: ((c + t - 2) % q) + 1) for t in range(1, q + 1)]
        want = shifts[0]
        for factor in shifts[1:]:
            want = ref_lex_product(want, factor)
        assert_same(balance_coloring(k), want)


@pytest.mark.parametrize("k", KS, ids=IDS)
def test_as_tournament_matches_edges(k):
    t = k.as_tournament()
    want = ColoredTournament(k.n_vertices, k.q, k.edges())
    assert t.vertices == want.vertices
    assert t.q == want.q
    assert list(t.edges()) == list(want.edges())
    assert all(t.has_edge(u, v) for u, v, _ in k.edges())
