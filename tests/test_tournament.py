import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from ramsey_pods.tournament import (
    ColoredTournament,
    OrderedColoring,
    backward_degrees,
    backward_edge_count,
    canonical_pattern,
    clean_degrees,
    cyclic_triangles,
    exact_min_backward,
    heuristic_transitive_order,
    pattern_buckets,
    random_tournament,
)


def transitive(n, q=1, color=1):
    return ColoredTournament(
        n, q, ((u, v, color) for u in range(1, n + 1) for v in range(u + 1, n + 1))
    )


def three_cycle(colors=(1, 1, 1), q=1):
    (a, b, c) = colors
    return ColoredTournament(3, q, [(1, 2, a), (2, 3, b), (3, 1, c)])


def brute_min_backward(t):
    return min(
        backward_edge_count(t, perm) for perm in itertools.permutations(t.vertices)
    )


def test_backward_edge_count_examples():
    t = transitive(5)
    order = tuple(range(1, 6))
    assert backward_edge_count(t, order) == 0
    assert backward_edge_count(t, order[::-1]) == 10
    assert brute_min_backward(three_cycle()) == 1


def test_backward_count_complementarity():
    for seed in range(20):
        t = random_tournament(9, 2, seed=seed)
        order = heuristic_transitive_order(t, seed=seed)
        total = 9 * 8 // 2
        assert (
            backward_edge_count(t, order) + backward_edge_count(t, order[::-1])
            == total
        )


def test_backward_degrees_match_pair_scan():
    for seed in range(10):
        t = random_tournament(12, 3, seed=seed)
        # relabeled vertices, so positions in the order and internal indices differ
        order = list(t.vertices)
        random.Random(seed).shuffle(order)
        t = t.restrict(order[:10])
        order = [v for v in order if v in t.vertices]
        deg = {v: 0 for v in order}
        for i, u in enumerate(order):
            for v in order[i + 1 :]:
                if t.has_edge(v, u):
                    deg[u] += 1
                    deg[v] += 1
        assert backward_degrees(t, order) == [deg[v] for v in order]
        assert backward_edge_count(t, order) == sum(deg.values()) // 2


def test_backward_edge_count_rejects_non_permutation():
    with pytest.raises(ValueError):
        backward_edge_count(transitive(3), (1, 2))


def test_heuristic_order_on_transitive():
    t = transitive(8)
    order = heuristic_transitive_order(t)
    assert backward_edge_count(t, order) == 0
    assert order == tuple(range(1, 9))


def test_heuristic_order_on_three_cycle():
    t = three_cycle()
    order = heuristic_transitive_order(t)
    assert backward_edge_count(t, order) == 1


def test_heuristic_order_seed_reproducible():
    t = random_tournament(12, 2, seed=5)
    assert heuristic_transitive_order(t, seed=3) == heuristic_transitive_order(t, seed=3)


def test_exact_min_backward_matches_bruteforce():
    for seed in range(12):
        t = random_tournament(6, 2, seed=seed)
        value, order = exact_min_backward(t)
        assert value == brute_min_backward(t)
        assert backward_edge_count(t, order) == value


def test_heuristic_never_beats_exact():
    for seed in range(12):
        t = random_tournament(10, 3, seed=100 + seed)
        exact_value, _ = exact_min_backward(t)
        heur = backward_edge_count(t, heuristic_transitive_order(t))
        assert heur >= exact_value


def test_exact_min_backward_size_cap():
    with pytest.raises(ValueError):
        exact_min_backward(transitive(13))


def test_cyclic_triangles_examples():
    count, tris = cyclic_triangles(transitive(6))
    assert count == 0 and list(tris) == []
    count, tris = cyclic_triangles(three_cycle())
    assert count == 1
    assert list(tris) == [(1, 2, 3)]


def test_triangle_count_identity_and_enumeration():
    for seed in range(15):
        n = random.Random(seed).randint(4, 24)
        t = random_tournament(n, 2, seed=seed)
        count, tris = cyclic_triangles(t)
        listed = list(tris)
        assert len(listed) == count
        identity = _comb3(n) - sum(
            _comb2(t.out_degree(v)) for v in t.vertices
        )
        assert count == identity
        for (a, b, c) in listed:
            assert t.has_edge(a, b) and t.has_edge(b, c) and t.has_edge(c, a)


def _comb2(k):
    return k * (k - 1) // 2


def _comb3(k):
    return k * (k - 1) * (k - 2) // 6


def test_canonical_pattern_rotations():
    assert canonical_pattern((1, 2, 3)) == (1, 2, 3)
    assert canonical_pattern((2, 3, 1)) == (1, 2, 3)
    assert canonical_pattern((3, 1, 2)) == (1, 2, 3)
    assert canonical_pattern((2, 2, 2)) == (2, 2, 2)


def test_pattern_buckets_examples():
    t = three_cycle((1, 2, 3), q=3)
    buckets = pattern_buckets(t)
    assert set(buckets) == {(1, 2, 3)}
    t = three_cycle((2, 3, 1), q=3)
    assert set(pattern_buckets(t)) == {(1, 2, 3)}
    t = three_cycle((2, 2, 2), q=3)
    assert set(pattern_buckets(t)) == {(2, 2, 2)}


def test_pattern_buckets_partition_triangles():
    for seed in range(8):
        t = random_tournament(15, 3, seed=seed)
        count, _ = cyclic_triangles(t)
        buckets = pattern_buckets(t)
        assert sum(len(v) for v in buckets.values()) == count


def backward_partners(t, kept, v):
    """Vertices w of kept whose pair with v t orients against kept's order."""
    pos = {w: i for i, w in enumerate(kept)}
    return sum(
        1
        for w in kept
        if w != v and (t.has_edge(w, v) if pos[v] < pos[w] else t.has_edge(v, w))
    )


def test_clean_degrees_transitive_noop():
    t = transitive(10)
    order = tuple(range(1, 11))
    sub, kept = clean_degrees(t, order, Fraction(1, 10))
    assert sub.n_vertices == 10
    assert kept == order
    assert all(backward_partners(t, kept, v) == 0 for v in order)


def test_clean_degrees_single_reversal_under_threshold():
    edges = [
        (v, u, 1) if (u, v) == (4, 5) else (u, v, 1)
        for u in range(1, 11)
        for v in range(u + 1, 11)
    ]
    t = ColoredTournament(10, 1, edges)
    order = tuple(range(1, 11))
    assert backward_edge_count(t, order) == 1
    sub, kept = clean_degrees(t, order, Fraction(2, 5))
    assert sub.n_vertices == 10  # degree 1 <= 2*delta*N = 8, nobody deleted
    assert kept == order
    assert backward_partners(t, kept, 4) == 1
    assert backward_partners(t, kept, 3) == 0


def test_clean_degrees_postconditions_random():
    rng = random.Random(9)
    for trial in range(15):
        n0 = rng.randint(16, 36)
        delta = Fraction(1, 4)
        budget = int((delta * delta * n0 * n0))
        flips = rng.randint(0, max(0, budget - 1))
        pairs = [(u, v) for u in range(1, n0 + 1) for v in range(u + 1, n0 + 1)]
        flipped = set(rng.sample(pairs, min(flips, len(pairs))))
        edges = [
            (v, u, rng.randint(1, 2)) if (u, v) in flipped else (u, v, rng.randint(1, 2))
            for (u, v) in pairs
        ]
        t = ColoredTournament(n0, 2, edges)
        order = tuple(range(1, n0 + 1))
        sub, kept = clean_degrees(t, order, delta)
        n = sub.n_vertices
        assert Fraction(n) >= (1 - delta) * n0
        assert set(kept) == set(sub.vertices)
        assert kept == tuple(v for v in order if v in set(kept))
        for v in kept:
            # independent recount straight from the tournament orientation
            assert Fraction(backward_partners(t, kept, v)) <= 4 * delta * n


def test_clean_degrees_precondition_violation():
    t = three_cycle()
    with pytest.raises(ValueError, match="closeness"):
        clean_degrees(t, (1, 2, 3), Fraction(1, 100))
    with pytest.raises(ValueError, match="delta"):
        clean_degrees(t, (1, 2, 3), Fraction(3, 4))


def test_tournament_json_roundtrip():
    t = random_tournament(7, 3, seed=2)
    again = ColoredTournament.from_json(t.to_json())
    assert again.to_json() == t.to_json()


def test_tournament_validation():
    with pytest.raises(ValueError):
        ColoredTournament(3, 1, [(1, 2, 1), (2, 3, 1)])  # missing pair
    with pytest.raises(ValueError):
        ColoredTournament(3, 1, [(1, 2, 1), (2, 1, 1), (2, 3, 1), (1, 3, 1)])
    with pytest.raises(ValueError):
        ColoredTournament(2, 1, [(1, 2, 2)])  # color out of palette


FLOAT_EDGES = [(1, 2, 1.5), (1, 2, 1.0), (1.0, 2, 1), (1, 2.0, 1), (1, 2, np.float64(2))]


@pytest.mark.parametrize("edge", FLOAT_EDGES, ids=repr)
def test_tournament_rejects_float_vertex_or_color(edge):
    with pytest.raises(ValueError, match="needs integers"):
        ColoredTournament(2, 2, [edge])
    # numpy integers and True (read as 1) stay accepted
    t = ColoredTournament(2, 2, [(True, np.int64(2), np.int8(2))])
    assert t.to_json()["edges"] == [[1, 2, 2]]


@pytest.mark.parametrize("edge", FLOAT_EDGES, ids=repr)
def test_ordered_coloring_rejects_float_vertex_or_color(edge):
    with pytest.raises(ValueError, match="needs integers"):
        OrderedColoring(2, 2, [edge])
    k = OrderedColoring(2, 2, [(True, np.int64(2), np.int8(2))])
    assert k.color(1, 2) == 2


def test_ordered_coloring_roundtrip_and_tournament_view():
    k = OrderedColoring(4, 2, [(1, 2, 1), (1, 3, 2), (1, 4, 1), (2, 3, 2), (2, 4, 1), (3, 4, 2)])
    assert OrderedColoring.from_json(k.to_json()) == k
    t = k.as_tournament()
    assert all(t.has_edge(u, v) for u, v, _ in k.edges())
    assert all(t.color(u, v) == c for u, v, c in k.edges())


def test_ordered_coloring_json_holds_python_ints():
    k = OrderedColoring(np.int64(2), 2, [(1, 2, np.int64(2))])
    assert json.dumps(k.to_json()) == '{"N": 2, "q": 2, "colors": [[1, 2, 2]]}'
    k = OrderedColoring(np.int64(3), np.int64(2), [(1, 2, 1), (1, 3, np.uint8(2)), (2, 3, 1)])
    assert json.loads(json.dumps(k.to_json())) == k.to_json()
    t = ColoredTournament(np.int64(2), np.int64(2), [(2, 1, np.int64(2))])
    assert json.dumps(t.to_json()) == '{"N": 2, "q": 2, "edges": [[2, 1, 2]]}'


GOOD = [[0, 0, 0, 0], [0, 0, 1, 2], [0, 1, 0, 2], [0, 2, 2, 0]]
BAD_MATRICES = {
    "not_symmetric": ([[0, 0, 0, 0], [0, 0, 1, 2], [0, 1, 0, 2], [0, 1, 2, 0]], "not symmetric"),
    "nonzero_diagonal": ([[0, 0, 0, 0], [0, 1, 1, 2], [0, 1, 0, 2], [0, 2, 2, 0]], "zeros on its diagonal"),
    "nonzero_row_0": ([[0, 1, 0, 0], [1, 0, 1, 2], [0, 1, 0, 2], [0, 2, 2, 0]], "zeros on its diagonal"),
    "color_zero": ([[0, 0, 0, 0], [0, 0, 0, 2], [0, 0, 0, 2], [0, 2, 2, 0]], r"color 0 outside \[1, 2\]"),
    "color_above_q": ([[0, 0, 0, 0], [0, 0, 1, 3], [0, 1, 0, 2], [0, 3, 2, 0]], r"color 3 outside \[1, 2\]"),
    "color_negative": ([[0, 0, 0, 0], [0, 0, 1, -1], [0, 1, 0, 2], [0, -1, 2, 0]], r"color -1 outside \[1, 2\]"),
    "float_colors": ([[0.0, 0, 0, 0], [0, 0, 1, 2], [0, 1, 0, 2], [0, 2, 2, 0]], "needs integers"),
    "not_square": ([[0, 0, 0], [0, 0, 1]], "must be square"),
    "no_vertex": ([[0]], "at least one vertex"),
}


def test_from_matrix_accepts_a_valid_matrix_and_copies_it():
    m = np.array(GOOD)
    k = OrderedColoring.from_matrix(2, m)
    assert k == OrderedColoring(3, 2, [(1, 2, 1), (1, 3, 2), (2, 3, 2)])
    m[1, 2] = m[2, 1] = 2  # the caller's array is not the stored one
    assert k.color(1, 2) == 1
    with pytest.raises(ValueError):
        k.matrix[1, 2] = 2  # read-only


@pytest.mark.parametrize("name", BAD_MATRICES)
def test_from_matrix_rejects(name):
    rows, message = BAD_MATRICES[name]
    with pytest.raises(ValueError, match=message):
        OrderedColoring.from_matrix(2, np.array(rows))


def test_from_matrix_rejects_an_empty_palette():
    with pytest.raises(ValueError, match="palette must be nonempty"):
        OrderedColoring.from_matrix(0, np.array(GOOD))


def test_recolored_rejects_colors_below_one():
    k = OrderedColoring(3, 2, [(1, 2, 1), (1, 3, 2), (2, 3, 2)])
    # the new palette is 1..max(mapping), so only a color below 1 can leave it
    with pytest.raises(ValueError, match=r"color 0 outside \[1, 1\]"):
        k.recolored(lambda c: c - 1)
    with pytest.raises(ValueError, match="needs integers"):
        k.recolored(lambda c: c / 2)
    edges = [(1, 2, 1), (2, 3, 2), (3, 1, 3), (4, 1, 2), (4, 2, 3), (4, 3, 1)]
    t = ColoredTournament(4, 3, edges).restrict([2, 3, 4])
    with pytest.raises(ValueError, match=r"color 0 outside \[1, 2\]"):
        t.recolored(lambda c: c - 1)
    with pytest.raises(ValueError, match="needs integers"):
        t.recolored(lambda c: c / 2)


def test_tournament_recolored_keeps_labels_and_orientation():
    t = random_tournament(9, 4, seed=6).restrict([9, 2, 7, 4])
    shifted = t.recolored(lambda c: 5 - c)
    assert shifted.vertices == t.vertices
    assert shifted.q == 4
    assert [(u, v, 5 - c) for u, v, c in t.edges()] == list(shifted.edges())
    assert all(shifted.has_edge(u, v) for u, v, _ in t.edges())


def test_restrict_keeps_labels():
    t = random_tournament(8, 2, seed=3)
    sub = t.restrict([2, 5, 7, 8])
    assert sub.vertices == (2, 5, 7, 8)
    for u in sub.vertices:
        for v in sub.vertices:
            if u != v:
                assert sub.has_edge(u, v) == t.has_edge(u, v)
                assert sub.color(u, v) == t.color(u, v)


def test_allowed_masks_match_edges_and_colors():
    t = random_tournament(12, 3, seed=4)
    labels = (9, 2, 11, 5, 7, 1)  # unsorted, with gaps
    for allowed in (frozenset({1}), frozenset({2, 3}), frozenset({1, 2, 3})):
        out, into = t.allowed_masks(labels, allowed)
        for a, u in enumerate(labels):
            for b, v in enumerate(labels):
                edge = u != v and t.has_edge(u, v) and t.color(u, v) in allowed
                assert bool((out[a] >> b) & 1) == edge
                assert bool((into[b] >> a) & 1) == edge
