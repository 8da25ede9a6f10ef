"""The oracle's frontier fill against a dense reference fill.

``_pull_fill`` is the dense level fill the frontier push replaced: every
vertex set of a level pulls, for every v, the word of the set without v.
Both must give the same endpoint-mask table, word for word, and the same
per-level reach list, in each direction.  The laziness tests count table
builds: each caller builds only the direction it reads.
"""

import random

import numpy as np
import pytest

from ramsey_pods import decomposition
from ramsey_pods.constructions import canonical_coloring, lex_product
from ramsey_pods.paths import SubsetPathOracle, _level
from ramsey_pods.tournament import (
    ColoredTournament,
    random_ordered_coloring,
    random_tournament,
)


def _pull_fill(n: int, adj: list[int]) -> tuple[np.ndarray, list[int]]:
    """Level k from level k - 1 by a dense pull over all (set, vertex) pairs."""
    h = np.zeros(1 << n, dtype=np.uint32)
    bits = 1 << np.arange(n, dtype=np.intp)
    h[bits] = bits
    out = np.array(adj, dtype=np.uint32)
    reach = [0, (1 << n) - 1]
    for k in range(2, n + 1):
        sets = _level(n, k)
        pulled = h[sets[:, None] ^ bits] & out  # (sets, n); zero for v outside S
        starts = (pulled != 0).astype(np.uint32) << np.arange(n, dtype=np.uint32)
        h[sets] = np.bitwise_or.reduce(starts, axis=1)
        seen = int(np.bitwise_or.reduce(h[sets]))
        if not seen:
            break
        reach.append(seen)
    return h, reach


def _flipped(t: ColoredTournament, n_flips: int, seed: int) -> ColoredTournament:
    """t with n_flips random edges reversed, colors kept."""
    rng = random.Random(seed)
    edges = list(t.edges())
    for i in rng.sample(range(len(edges)), n_flips):
        u, v, c = edges[i]
        edges[i] = (v, u, c)
    return ColoredTournament(t.n_vertices, t.q, edges)


def _sparse_cases():
    for seed, n in enumerate((12, 15, 17, 19)):
        transitive = random_ordered_coloring(n, 2, seed=seed).as_tournament()
        near = _flipped(transitive, n // 8, seed)
        yield f"near_transitive_{n}_single", near, {1}, None
        yield f"near_transitive_{n}_both", near, {1, 2}, None
    product = lex_product(canonical_coloring(2, 2), random_ordered_coloring(5, 2, seed=3))
    flipped = _flipped(product.as_tournament(), 2, 5)
    yield "product_single", flipped, {2}, None
    yield "product_subset", flipped, {1, 2}, tuple(range(2, flipped.n_vertices, 2))
    canon = _flipped(canonical_coloring(3, 2).as_tournament(), 1, 7)
    yield "canonical_single", canon, {3}, None
    yield "canonical_pair", canon, {1, 3}, None


def _dense_cases():
    rng = random.Random(13)
    for n in (1, 2, 5, 9, 13, 16, 18):
        q = rng.randint(2, 3)
        t = random_tournament(n, q, seed=n)
        yield f"random_{n}_all", t, set(range(1, q + 1)), None
        yield f"random_{n}_some", t, set(rng.sample(range(1, q + 1), q - 1)), None


def _assert_same_tables(t, allowed, subset):
    oracle = SubsetPathOracle(t, frozenset(allowed), subset)
    for table, reach, adj in (
        (*oracle._start_table(), oracle._adj),
        (*oracle._end_table(), oracle._radj),
    ):
        want, want_reach = _pull_fill(oracle.n, adj)
        assert table.dtype == want.dtype
        assert np.array_equal(table, want)
        assert reach == want_reach
    return oracle


@pytest.mark.parametrize(
    "name,t,allowed,subset", list(_sparse_cases()) + list(_dense_cases())
)
def test_frontier_fill_matches_pull_fill(name, t, allowed, subset):
    _assert_same_tables(t, allowed, subset)


def test_fill_that_stops_early():
    t = _flipped(random_ordered_coloring(18, 2, seed=1).as_tournament(), 2, 1)
    oracle = _assert_same_tables(t, {1}, None)
    start, reach = oracle._start_table()
    assert oracle.longest() < oracle.n  # the fill stopped at an empty level
    # no word past the longest path's level was ever written
    sizes = np.bitwise_count(np.arange(start.size, dtype=np.intp))
    assert not start[sizes > len(reach) - 1].any()


@pytest.fixture()
def builds(monkeypatch):
    """Counts SubsetPathOracle table builds."""
    count = [0]
    raw = SubsetPathOracle._build

    def counting(self, adj):
        count[0] += 1
        return raw(self, adj)

    monkeypatch.setattr(SubsetPathOracle, "_build", counting)
    return count


@pytest.mark.parametrize("incoming", [True, False])
def test_a_half_builds_only_the_table_it_reads(builds, incoming):
    t = random_tournament(14, 3, seed=2)
    half = tuple(range(1, 15))
    lengths, path = decomposition._half_endpoint_data(
        t, frozenset({1, 2}), half, incoming
    )
    assert builds[0] == 1
    for v in sorted(half, key=lambda v: (-lengths[v], v))[:3]:
        seq = path(v)
        assert len(seq) == lengths[v] and seq[-1 if incoming else 0] == v
    assert builds[0] == 1


def test_classify_colors_builds_one_table_per_half_and_color(builds):
    n, q = 32, 3
    t = random_tournament(n, q, seed=4)
    order = tuple(range(1, n + 1))
    decomposition.classify_colors(t, order, 2)
    assert builds[0] == 2 * q  # halves of 16 vertices; the whole is above the cap


def test_classify_colors_builds_no_whole_node_table(builds):
    # the whole node is below the cap, but only the halves' tables are read
    n, q = 20, 3
    t = random_tournament(n, q, seed=6)
    decomposition.classify_colors(t, tuple(range(1, n + 1)), 1)
    assert builds[0] == 2 * q


def test_classify_colors_levels_only_the_halves(monkeypatch):
    calls = []
    raw = decomposition._level_paths

    def counting(masks, vertices):
        calls.append(len(vertices))
        return raw(masks, vertices)

    monkeypatch.setattr(decomposition, "_level_paths", counting)
    n, q = 46, 3  # halves of 23 vertices, one above the exact cap
    t = random_tournament(n, q, seed=8)
    decomposition.classify_colors(t, tuple(range(1, n + 1)), 2)
    assert calls == [23] * (2 * q)


def test_exact_node_builds_one_table(builds):
    t = random_tournament(12, 2, seed=9)
    oracle = SubsetPathOracle(t, frozenset({1}))
    assert builds[0] == 0  # nothing is built before a query
    oracle.lex_least_longest()
    oracle.longest()
    assert builds[0] == 1
    oracle.lengths_to()
    assert builds[0] == 2
    ends_only = SubsetPathOracle(t, frozenset({1}))
    ends_only.path_to(1)
    assert ends_only.longest() == oracle.longest()
    assert builds[0] == 3  # longest() reads the end table already built


def test_exact_recursion_node_builds_one_table_per_color(builds):
    """One table per color, up to the first color whose path covers every vertex."""
    cases = [
        # avoiding-path lengths [13, 13, 13]: color 1 covers every vertex
        (random_tournament(13, 3, seed=5), 1),
        # [12, 13, 13]: color 2 covers every vertex, color 3 is not built
        (random_tournament(13, 3, seed=3), 2),
        # [4, 4, 4] on 8 vertices: no color covers them, all three are built
        (canonical_coloring(3, 2).as_tournament(), 3),
    ]
    for t, expected in cases:
        builds[0] = 0
        decomposition.recursive_color_avoiding(t)
        assert builds[0] == expected
