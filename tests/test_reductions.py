import random

import pytest

from ramsey_pods.core import VectorFamily, validate_increasing
from ramsey_pods.paths import (
    PathCertificate,
    PathConstraint,
    ell_avoid_monotone,
    longest_restricted_monotone,
    validate_path,
)
from ramsey_pods.reductions import (
    ColorPartition,
    coloring_to_vectors,
    floor_reduction,
    merge_colors,
    vectors_to_coloring,
    vectors_to_tournament,
)
from ramsey_pods.tournament import (
    ColoredTournament,
    OrderedColoring,
    random_ordered_coloring,
    random_tournament,
)


def test_coloring_to_vectors_single_edge():
    k = OrderedColoring(2, 3, [(1, 2, 1)])
    fam = coloring_to_vectors(k)
    assert fam.vectors[0].coords == (1, 1, 1)
    assert fam.vectors[1].coords == (1, 2, 2)
    assert fam.r == 2


def test_coloring_to_vectors_monochromatic():
    n = 6
    k = OrderedColoring(
        n, 2, ((u, v, 1) for u in range(1, n + 1) for v in range(u + 1, n + 1))
    )
    fam = coloring_to_vectors(k)
    for a, vec in enumerate(fam.vectors, start=1):
        assert vec.coords == (1, a)


def test_coloring_to_vectors_always_increasing():
    rng = random.Random(0)
    for trial in range(30):
        q = rng.randint(2, 4)
        n = rng.randint(1, 12)
        k = random_ordered_coloring(n, q, seed=trial)
        fam = coloring_to_vectors(k)
        assert fam.r == q - 1
        assert validate_increasing(fam).ok()
        # the grid side is the tightest one: some coordinate attains it
        assert fam.n == max(max(v.coords) for v in fam.vectors)


def test_vectors_to_coloring_examples():
    fam = VectorFamily.from_coords([(1, 1, 1), (1, 2, 2)], 2)
    k = vectors_to_coloring(fam)
    assert k.color(1, 2) == 1  # coordinate 1 stalls

    fam = VectorFamily.from_coords([(1, 1), (2, 2)], 1)
    k = vectors_to_coloring(fam)
    assert k.color(1, 2) == 1  # nothing stalls, default color


def test_vectors_to_coloring_requires_threshold():
    fam = VectorFamily.from_coords([(1, 1, 1), (2, 2, 2)], 1)
    with pytest.raises(ValueError):
        vectors_to_coloring(fam)


def test_vectors_to_tournament_examples():
    # (2,1,3) beats (1,2,1) in coordinates 1 and 3; coordinate 2 does not grow
    t = vectors_to_tournament(VectorFamily.from_coords([(2, 1, 3), (1, 2, 1)], 2))
    assert t.has_edge(2, 1) and t.color(1, 2) == 2
    # every coordinate grows: color 1
    t = vectors_to_tournament(VectorFamily.from_coords([(1, 1, 1), (2, 2, 2)], 2))
    assert t.has_edge(1, 2) and t.color(1, 2) == 1
    # q = 2: each vector beats the other in one coordinate; the lower index is the tail
    t = vectors_to_tournament(VectorFamily.from_coords([(2, 1), (1, 2)], 1))
    assert t.has_edge(1, 2) and t.color(1, 2) == 1


def test_vectors_to_tournament_rejects_other_families():
    with pytest.raises(ValueError, match="threshold"):
        vectors_to_tournament(VectorFamily.from_coords([(1, 1, 1), (2, 2, 2)], 1))
    with pytest.raises(ValueError, match="comparable"):
        vectors_to_tournament(VectorFamily.from_coords([(1, 1, 2), (1, 2, 1)], 2))


def test_vectors_to_coloring_blocks_long_avoiding_paths():
    rng = random.Random(1)
    for trial in range(25):
        q = rng.randint(2, 4)
        base = random_ordered_coloring(rng.randint(2, 10), q, seed=trial)
        fam = coloring_to_vectors(base)
        k = vectors_to_coloring(fam)
        for i in range(1, q + 1):
            assert ell_avoid_monotone(k, i).length <= fam.n


def test_merge_colors_examples():
    part = ColorPartition((frozenset({1, 2}), frozenset({3}), frozenset({4})))
    t = random_tournament(6, 4, seed=2)
    merged = merge_colors(t, part)
    assert merged.q == 3
    for u, v, c in t.edges():
        assert merged.color(u, v) == part.block_of(c)

    pairing = ColorPartition((frozenset({1, 2}), frozenset({3, 4})))
    merged = merge_colors(t, pairing)
    assert merged.q == 2

    identity = ColorPartition(tuple(frozenset({c}) for c in range(1, 5)))
    same = merge_colors(t, identity)
    assert all(same.color(u, v) == c for u, v, c in t.edges())


def test_merge_colors_on_ordered_coloring():
    k = random_ordered_coloring(5, 4, seed=3)
    part = ColorPartition((frozenset({1, 4}), frozenset({2, 3})))
    merged = merge_colors(k, part)
    assert merged.q == 2
    assert all(merged.color(u, v) == part.block_of(c) for u, v, c in k.edges())


def test_merge_colors_keeps_tournament_labels():
    # a restricted tournament keeps labels that are not 1..N
    t = random_tournament(8, 4, seed=1).restrict([2, 3, 5, 8])
    part = ColorPartition(({1, 2}, {3, 4}))
    merged = merge_colors(t, part)
    assert merged.vertices == (2, 3, 5, 8)
    assert merged.q == 2
    for u, v, c in t.edges():
        assert merged.has_edge(u, v)
        assert merged.color(u, v) == part.block_of(c)


def test_merge_partition_validation():
    with pytest.raises(ValueError):
        ColorPartition((frozenset({1, 2}), frozenset({2, 3})))  # overlap
    with pytest.raises(ValueError):
        ColorPartition((frozenset({1}), frozenset({3})))  # gap
    part = ColorPartition((frozenset({1, 2}),))
    with pytest.raises(ValueError):
        merge_colors(random_tournament(4, 3, seed=0), part)


def test_partition_json_reads_integers_only():
    part = ColorPartition.from_json({"blocks": [[2, 1], [3]]})
    assert part.to_json() == {"blocks": [[1, 2], [3]]}
    for block in (["1", " 2 "], [1.0, 2]):
        with pytest.raises(TypeError):
            ColorPartition.from_json({"blocks": [block, [3]]})


def test_merged_certificate_pulls_back():
    rng = random.Random(4)
    for trial in range(15):
        t = random_tournament(8, 4, seed=trial)
        part = ColorPartition((frozenset({1, 2}), frozenset({3}), frozenset({4})))
        merged = merge_colors(t, part)
        # a monochromatic-in-block path, found greedily in the merged instance
        for label in range(1, 4):
            verts = [rng.choice(t.vertices)]
            while True:
                nxt = next(
                    (
                        w
                        for w in t.vertices
                        if w not in verts
                        and merged.has_edge(verts[-1], w)
                        and merged.color(verts[-1], w) == label
                    ),
                    None,
                )
                if nxt is None:
                    break
                verts.append(nxt)
            cert = PathCertificate(
                "directed",
                PathConstraint(allow=part.pull_back({label})),
                tuple(verts),
            )
            assert validate_path(t, cert) is None


def test_floor_reduction_examples():
    p, part = floor_reduction(7, 5)
    assert p == 3
    assert part.blocks == (
        frozenset({1, 2}),
        frozenset({3, 4}),
        frozenset({5, 6, 7}),
    )

    p, part = floor_reduction(5, 4)
    assert p == 5
    assert all(len(b) == 1 for b in part.blocks)

    p, part = floor_reduction(4, 2)
    assert p == 2
    assert part.blocks == (frozenset({1, 2}), frozenset({3, 4}))


def test_floor_reduction_inapplicable():
    with pytest.raises(ValueError):
        floor_reduction(3, 1)  # p = 1
    with pytest.raises(ValueError):
        floor_reduction(3, 3)


def test_round_trip_on_restricted_value():
    # a coloring whose every avoiding path is short converts to a long
    # increasing family and back without growing the avoiding paths
    k = random_ordered_coloring(9, 3, seed=7)
    fam = coloring_to_vectors(k)
    back = vectors_to_coloring(fam)
    bound = fam.n
    for i in range(1, 4):
        assert ell_avoid_monotone(back, i).length <= bound
