"""The oracle's frontier fill against a dense reference fill, and packed passes.

``_pull_fill`` is the dense level fill the frontier push replaced: every
vertex set of a level pulls, for every v, the word of the set without v.
A lone oracle's table must equal it, word for word, with the same
per-level reach list, in each direction.  The fill takes a sparse route
(push the nonzero values, carry the frontier from the pushes) or a dense
one (push every value, scan the level) per level, and small levels are
always dense; the route tests count the level scans and check sparse,
dense, mixed and packed passes against ``_pull_fill`` and the reach lists
of the fill that scanned every level.
``_levels`` is checked against a stable argsort of the popcounts.  Packed oracles
(``SubsetPathOracle.packed``) share one pass per direction, which must
give every table it holds exactly the words and reach list of that table
built alone.  The laziness tests count packed passes and the tables in
each: each caller builds only the direction it reads.
"""

import math
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramsey_pods import decomposition, paths
from ramsey_pods.constructions import canonical_coloring, lex_product
from ramsey_pods.paths import SubsetPathOracle, _level, _levels
from ramsey_pods.tournament import (
    ColoredTournament,
    random_ordered_coloring,
    random_tournament,
)
from reference import levels_argsort


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
    for ends in (False, True):
        table, shift, reach = oracle._table(ends)
        want, want_reach = _pull_fill(oracle.n, oracle._masks[ends])
        assert shift == 0  # a lone oracle's pass holds its table alone
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
    start, _, reach = oracle._table(False)
    assert oracle.longest() < oracle.n  # the fill stopped at an empty level
    # no word past the longest path's level was ever written
    sizes = np.bitwise_count(np.arange(start.size, dtype=np.intp))
    assert not start[sizes > len(reach) - 1].any()


@pytest.fixture()
def passes(monkeypatch):
    """Records each packed pass as (vertices, in-masks of its tables)."""
    seen = []
    raw = paths._packed_fill

    def recording(n, in_masks):
        seen.append((n, [list(masks) for masks in in_masks]))
        return raw(n, in_masks)

    monkeypatch.setattr(paths, "_packed_fill", recording)
    return seen


def _shapes(passes):
    """(vertices, tables) per recorded pass."""
    return [(n, len(in_masks)) for n, in_masks in passes]


@pytest.mark.parametrize("incoming", [True, False])
def test_a_half_builds_only_the_table_it_reads(passes, incoming):
    t = random_tournament(14, 3, seed=2)
    half = tuple(range(1, 15))
    data = decomposition._half_endpoint_data(t, half, incoming, 3)
    # one pass holds the three colors' tables of the direction read: an end
    # table reads out-masks, a start table in-masks
    allowed_sets = [frozenset({1, 2, 3}) - {i} for i in (1, 2, 3)]
    assert passes == [
        (14, [t.allowed_masks(half, allowed)[0 if incoming else 1] for allowed in allowed_sets])
    ]
    # the 12 vertices next to the midpoint: the last ones of a left half
    near = half[2:] if incoming else half[:12]
    assert len(data) == 3
    for allowed, kept in zip(allowed_sets, data):
        lone = SubsetPathOracle(t, allowed, half)
        lengths = lone.lengths_to() if incoming else lone.lengths_from()
        ranked = sorted(half, key=lambda v: (-lengths[v], v))[:3]
        assert list(kept) == [v for v in ranked if v in near]
        for v, seq in kept.items():
            assert len(seq) == lengths[v] and seq[-1 if incoming else 0] == v


def test_classify_colors_builds_one_table_per_half_and_color(passes):
    n, q = 32, 3
    t = random_tournament(n, q, seed=4)
    order = tuple(range(1, n + 1))
    decomposition.classify_colors(t, order, 2)
    # halves of 16 vertices, whose q tables fit one pass each; the whole
    # is above the cap
    assert _shapes(passes) == [(16, q), (16, q)]


def test_classify_colors_builds_no_whole_node_table(passes):
    # the whole node is below the cap, but only the halves' tables are read
    n, q = 20, 3
    t = random_tournament(n, q, seed=6)
    decomposition.classify_colors(t, tuple(range(1, n + 1)), 1)
    assert _shapes(passes) == [(10, q), (10, q)]


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


def test_exact_node_builds_one_table(passes):
    t = random_tournament(12, 2, seed=9)
    oracle = SubsetPathOracle(t, frozenset({1}))
    assert passes == []  # nothing is built before a query
    oracle.lex_least_longest()
    oracle.longest()
    assert _shapes(passes) == [(12, 1)]
    oracle.lengths_to()
    assert _shapes(passes) == [(12, 1)] * 2
    ends_only = SubsetPathOracle(t, frozenset({1}))
    ends_only.path_to(1)
    assert _shapes(passes) == [(12, 1)] * 3
    assert ends_only.longest() == oracle.longest()
    assert _shapes(passes) == [(12, 1)] * 4  # longest() reads the start table


def test_exact_recursion_node_builds_one_table_per_color(passes):
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
        passes.clear()
        decomposition.recursive_color_avoiding(t)
        assert _shapes(passes) == [(t.n_vertices, 1)] * expected


# ---------------------------------------------------------------------------
# packed passes against one build per table


def _avoiding(q: int) -> list[frozenset[int]]:
    palette = frozenset(range(1, q + 1))
    return [palette - {i} for i in range(1, q + 1)]


def _assert_packed_matches_lone(t, allowed_sets, subset, ends):
    """Every start (or end) table of the packed oracles equals the table built alone."""
    reaches = []
    for allowed, oracle in zip(
        allowed_sets, SubsetPathOracle.packed(t, allowed_sets, subset), strict=True
    ):
        words, shift, reach = oracle._table(ends)
        fill, _ = oracle._passes[ends]
        tables_in_pass = len(fill()[1])
        assert words.dtype == (np.uint32 if tables_in_pass * oracle.n <= 32 else np.uint64)
        table = ((words >> shift) & ((1 << oracle.n) - 1)).astype(np.uint32)
        want, _, want_reach = SubsetPathOracle(t, allowed, subset)._table(ends)
        assert np.array_equal(table, want), sorted(allowed)
        assert reach == want_reach, sorted(allowed)
        reaches.append(reach)
    return reaches


@pytest.mark.parametrize("ends", [False, True])
def test_a_pass_of_exactly_64_bits(passes, ends):
    t = random_tournament(16, 4, seed=11)
    _assert_packed_matches_lone(t, _avoiding(4), None, ends)
    assert _shapes(passes)[0] == (16, 4)  # 4 * 16 bits fill the uint64 words


def test_packed_end_tables_share_one_pass(passes):
    t = random_tournament(14, 3, seed=2)
    oracles = list(SubsetPathOracle.packed(t, _avoiding(3)))
    lengths = [oracle.lengths_to() for oracle in oracles]
    assert _shapes(passes) == [(14, 3)]
    assert lengths == [SubsetPathOracle(t, a).lengths_to() for a in _avoiding(3)]


@pytest.mark.parametrize("ends", [False, True])
@pytest.mark.parametrize("n,shapes", [(21, [(21, 3)]), (22, [(22, 2), (22, 1)])])
def test_passes_at_the_cap(passes, ends, n, shapes):
    # near-transitive, so the tables stay sparse and the test fast
    t = _flipped(random_ordered_coloring(n, 3, seed=n).as_tournament(), n // 8, n)
    _assert_packed_matches_lone(t, _avoiding(3), None, ends)
    assert _shapes(passes)[: len(shapes)] == shapes


@pytest.mark.parametrize("ends", [False, True])
def test_five_colors_on_thirteen_vertices_take_two_passes(passes, ends):
    t = random_tournament(13, 5, seed=12)
    _assert_packed_matches_lone(t, _avoiding(5), None, ends)
    assert _shapes(passes)[:2] == [(13, 4), (13, 1)]


@pytest.mark.parametrize("ends", [False, True])
def test_a_pass_on_one_vertex(ends):
    t = ColoredTournament(1, 3, [])
    reaches = _assert_packed_matches_lone(t, _avoiding(3) + [frozenset()], None, ends)
    assert reaches == [[0, 1]] * 4


@pytest.mark.parametrize("ends", [False, True])
def test_tables_whose_levels_end_apart(ends):
    # a transitive tournament: each avoided color leaves its own longest path
    t = random_ordered_coloring(15, 3, seed=2).as_tournament()
    reaches = _assert_packed_matches_lone(t, _avoiding(3) + [frozenset({1})], None, ends)
    assert len({len(reach) for reach in reaches}) > 1


@pytest.mark.parametrize("ends", [False, True])
def test_a_pass_on_a_vertex_subset(ends):
    t = random_tournament(20, 3, seed=13)
    subset = tuple(range(3, 21, 2))
    _assert_packed_matches_lone(t, _avoiding(3) + [frozenset({2})], subset, ends)


def test_packed_oracles_hold_one_pass_at_a_time():
    t = random_tournament(13, 5, seed=12)
    oracles = SubsetPathOracle.packed(t, _avoiding(5))
    first = [next(oracles) for _ in range(4)]  # the first pass's four tables
    lengths = [oracle.longest() for oracle in first]
    words = weakref.ref(first[0]._table(False)[0])
    del first
    last = next(oracles)  # the second pass is made, not yet filled
    assert words() is None
    assert last.longest() == SubsetPathOracle(t, _avoiding(5)[4]).longest()
    assert lengths == [SubsetPathOracle(t, a).longest() for a in _avoiding(5)[:4]]


@st.composite
def _packed_cases(draw):
    n = draw(st.integers(1, 9))
    q = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 10**6))
    t = random_tournament(n, q, seed=seed)
    palette = list(range(1, q + 1))
    allowed_sets = draw(
        st.lists(st.frozensets(st.sampled_from(palette)), min_size=1, max_size=9)
    )
    subset = draw(st.lists(st.sampled_from(t.vertices), min_size=1, unique=True))
    return t, allowed_sets, tuple(subset), draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(_packed_cases())
def test_packed_passes_match_lone_tables(case):
    t, allowed_sets, subset, ends = case
    _assert_packed_matches_lone(t, allowed_sets, subset, ends)
    for allowed in allowed_sets:
        oracle = SubsetPathOracle(t, allowed, subset)
        table, _, reach = oracle._table(ends)
        want, want_reach = _pull_fill(oracle.n, oracle._masks[ends])
        assert np.array_equal(table, want) and reach == want_reach


# ---------------------------------------------------------------------------
# the fill's sparse and dense routes


def test_levels_match_a_stable_argsort_of_the_popcounts():
    for n in range(1, 23):
        order, bounds = _levels(n)
        want, want_bounds = levels_argsort(n)
        assert order.dtype == want.dtype
        assert np.array_equal(order, want), n
        assert bounds == want_bounds, n
        assert not order.flags.writeable
        with pytest.raises(ValueError):
            order[0] = 0


@pytest.fixture()
def scans(monkeypatch):
    """Records k of each ``paths._level(n, k)`` call: the levels a dense route scans."""
    seen = []
    raw = paths._level

    def counting(n, k):
        seen.append(k)
        return raw(n, k)

    monkeypatch.setattr(paths, "_level", counting)
    return seen


_FULL_18 = [0] + [(1 << 18) - 1] * 18

# the reach lists of the fill that scanned every level, per case and
# direction (starts, ends)
SCANNED_REACH = {
    "near_transitive_19_single": (
        [0, 524287, 32767, 15871, 5631, 511, 223, 95, 31, 7, 3, 1],
        [0, 524287, 524286, 524284, 524264, 524224, 520064, 519936, 519680, 518144, 245760, 163840],
    ),
    "random_18_all": (_FULL_18, _FULL_18),
    "random_18_some": (_FULL_18, _FULL_18),
}

_CASES = {name: case for name, *case in list(_sparse_cases()) + list(_dense_cases())}


def _scans_per_direction(name, scans):
    """The levels the fill of each direction scanned, its table and reach list checked."""
    t, allowed, subset = _CASES[name]
    oracle = SubsetPathOracle(t, frozenset(allowed), subset)
    per_direction = []
    for ends in (False, True):
        scans.clear()
        table, _, reach = oracle._table(ends)
        per_direction.append(list(scans))
        want, want_reach = _pull_fill(oracle.n, oracle._masks[ends])
        assert np.array_equal(table, want)
        assert reach == want_reach == SCANNED_REACH[name][ends]
    return oracle.n, per_direction


def _small(n: int) -> set[int]:
    """The levels of n-vertex sets too small for the sparse route."""
    return {k for k in range(n + 1) if math.comb(n, k) <= paths._SPARSE_VERTEX_SETS * n}


def test_a_sparse_fill_scans_only_the_small_levels(scans):
    n, per_direction = _scans_per_direction("near_transitive_19_single", scans)
    # the fill stops at level 11; of the levels it pushes into, only 2-4
    # have at most 256 n sets, and no larger one is scanned
    assert per_direction == [[2, 3, 4], [2, 3, 4]]
    assert all(k in _small(n) for scanned in per_direction for k in scanned)


def test_a_dense_fill_scans_every_level(scans):
    n, per_direction = _scans_per_direction("random_18_all", scans)
    assert per_direction == [list(range(2, n + 1))] * 2
    assert set(range(2, n + 1)) - _small(n)  # large levels too


def test_a_fill_that_switches_route(scans):
    # after the small levels, a few large ones push sparsely and the rest
    # are dense and scanned
    n, per_direction = _scans_per_direction("random_18_some", scans)
    for scanned in per_direction:
        skipped = set(range(2, n + 1)) - set(scanned)
        assert skipped and not skipped & _small(n)
        assert scanned[-1] == n


# per direction, the reach lists of the four tables of one pass, from the
# fill that scanned every level
PACKED_REACH = (
    [
        [0, 65535, 32767, 16383, 3071, 1023, 511, 127, 63, 15, 7, 3, 1],
        [0, 65535, 32767, 16383, 8191, 4095, 2047, 1023, 255, 127, 31, 15, 7, 3, 1],
        [0, 65535, 32767, 8191, 2047, 1023, 511, 255, 63, 31, 3],
        [0, 65535, 16383, 8191, 4095, 2047, 1023, 511, 255, 127, 63, 31, 15, 7, 3, 1],
    ],
    [
        [0, 65535, 65534, 65532, 65528, 65520, 65472, 65152, 65024, 63488, 61440, 49152, 32768],
        [0, 65535, 65534, 65532, 65528, 65520, 65504, 65408, 65280, 64512, 63488, 61440, 57344,
         49152, 32768],
        [0, 65535, 65516, 65504, 65472, 65280, 65024, 64512, 63488, 57344, 32768],
        [0, 65535, 65534, 65532, 65528, 65520, 65504, 65472, 65408, 65280, 65024, 64512, 63488,
         61440, 57344, 49152],
    ],
)


@pytest.mark.parametrize("ends", [False, True])
def test_a_packed_pass_takes_both_routes(scans, ends):
    # four tables of 16 bits in one uint64 word on a transitive tournament:
    # the middle levels are sparse, the others scanned
    t = random_ordered_coloring(16, 4, seed=16).as_tournament()
    oracles = list(SubsetPathOracle.packed(t, _avoiding(4)))
    reaches = [oracle._table(ends)[2] for oracle in oracles]
    assert reaches == PACKED_REACH[ends]
    longest = max(len(reach) for reach in reaches) - 1
    skipped = set(range(2, longest + 1)) - set(scans)
    assert skipped and not skipped & _small(16)
    assert scans[0] == 2 and scans[-1] == longest
    for oracle in oracles:
        words, shift, reach = oracle._table(ends)
        assert words.dtype == np.uint64
        want, want_reach = _pull_fill(16, oracle._masks[ends])
        assert np.array_equal(((words >> shift) & 0xFFFF).astype(np.uint32), want)
        assert reach == want_reach
