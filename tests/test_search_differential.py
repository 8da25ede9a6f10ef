"""The f/g minimizers against brute force that shares no code with them.

``exact_g`` is checked against every q-colored tournament on N <= 4
vertices, with the longest allowed path found by trying vertex orders;
``exact_f`` against every coloring of the ordered complete graph on N <= 5
vertices, with the longest monotone path found by trying vertex subsets.
The incremental prefix tables are checked on seeded random prefixes:
``exact_g``'s entry by entry against a fresh ``SubsetPathOracle``,
``exact_f``'s edge by edge, with jumps back to earlier edges, against
``monotone_lengths_ending``.  ``exact_f``'s room bound is checked against
a count of free grid points from scratch, on random colorings and on
optimal ones, none of which it may prune, and ``exact_f`` keeps the values
it had before the bound.  ``exact_G`` is checked against networkx's
maximum clique on every small grid, and its budget-tripped records on
``G 3 2 5``.

At r = q - 1 both minimizers first walk the maximizer's sides.  Their
values are checked against ``_minimize`` run as the branch-and-bound alone
(no walk, floor 1), and ``exact_f``'s against the least side m with
``exact_F(q, q-1, m) >= N``, found by a walk from m = 1.  The value floor
is checked on random and near-optimal colorings and tournaments.

``exact_F`` is checked against a subset DP over every set of grid points
on every grid of at most 16 points, and against its own unpruned form
(every child a call, one root per start with sorted coordinates) on every
grid of at most 125 points: the same value, status and witness, never more
nodes.  On the dominance pins' tripped budgets at (4, 2, 3) the records,
node counts included, are the same too.  The lemma its pruning rests on
(a point at least i in every coordinate is beaten only where i is) is
checked on random grids, and the rows it is read from are checked packed
block by block against whole relation matrices.
"""

import itertools
import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramsey_pods import core, search
from ramsey_pods.budget import Budget, BudgetExceeded
from ramsey_pods.constructions import canonical_coloring
from ramsey_pods.core import VectorFamily, _below, validate_comparable
from ramsey_pods.paths import SubsetPathOracle, monotone_lengths_ending
from ramsey_pods.reductions import vectors_to_tournament
from ramsey_pods.search import (
    EXACT,
    LOWER_BOUND,
    UPPER_BOUND,
    PrefixMonotoneTables,
    PrefixPathTables,
    _grid_vectors,
    _restricted_value_directed,
    _restricted_value_monotone,
    _value_floor,
    exact_f,
    exact_F,
    exact_g,
    exact_G,
    validate_record,
)
from ramsey_pods.tournament import (
    ColoredTournament,
    OrderedColoring,
    _rows,
    random_ordered_coloring,
    random_tournament,
)


DOMINANCE_PINS = Path(__file__).parent / "data" / "dominance_pinned.json"


def _pairs(n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(1, n + 1), 2))


def _longest_directed(n: int, arcs: dict, allowed: set) -> int:
    """Longest allowed path: every path is a prefix of some vertex order."""
    best = 1
    for order in itertools.permutations(range(1, n + 1)):
        length = 1
        while length < n and arcs.get((order[length - 1], order[length])) in allowed:
            length += 1
        best = max(best, length)
    return best


def _longest_monotone(n: int, color: dict, allowed: set) -> int:
    best = 1
    for size in range(2, n + 1):
        for verts in itertools.combinations(range(1, n + 1), size):
            if all(color[a, b] in allowed for a, b in zip(verts, verts[1:])):
                best = size
    return best


def _brute_g(q: int, r: int, n: int) -> int:
    subsets = [set(s) for s in itertools.combinations(range(1, q + 1), r)]
    pairs = _pairs(n)
    best = n
    for choice in itertools.product(range(2 * q), repeat=len(pairs)):
        arcs = {}
        for (u, v), x in zip(pairs, choice):
            tail, head = (u, v) if x < q else (v, u)
            arcs[tail, head] = x % q + 1
        best = min(best, max(_longest_directed(n, arcs, s) for s in subsets))
    return best


def _brute_f(q: int, r: int, n: int) -> int:
    subsets = [set(s) for s in itertools.combinations(range(1, q + 1), r)]
    pairs = _pairs(n)
    best = n
    for choice in itertools.product(range(1, q + 1), repeat=len(pairs)):
        color = dict(zip(pairs, choice))
        best = min(best, max(_longest_monotone(n, color, s) for s in subsets))
    return best


@pytest.mark.parametrize(
    "q,r,n", [(q, r, n) for q in (1, 2) for r in range(1, q + 1) for n in range(1, 5)]
)
def test_exact_g_matches_every_tournament(q, r, n):
    rec = exact_g(q, r, n)
    assert rec.status == EXACT
    assert rec.value == _brute_g(q, r, n)
    witness = ColoredTournament.from_json(rec.certificate)
    arcs = {(u, v): c for u, v, c in witness.edges()}
    subsets = [set(s) for s in itertools.combinations(range(1, q + 1), r)]
    assert max(_longest_directed(n, arcs, s) for s in subsets) == rec.value


@pytest.mark.parametrize("r,n", [(r, n) for r in (1, 2) for n in range(1, 6)])
def test_exact_f_matches_every_coloring(r, n):
    rec = exact_f(2, r, n)
    assert rec.status == EXACT
    assert rec.value == _brute_f(2, r, n)
    color = {(u, v): c for u, v, c in rec.certificate["colors"]}
    subsets = [set(s) for s in itertools.combinations((1, 2), r)]
    assert max(_longest_monotone(n, color, s) for s in subsets) == rec.value


def _random_arcs(rng: random.Random, n: int, q: int) -> dict:
    """(i, k) -> (tail, head, color) for every pair i < k."""
    arcs = {}
    for i, k in _pairs(n):
        tail, head = (i, k) if rng.random() < 0.5 else (k, i)
        arcs[i, k] = (tail, head, rng.randint(1, q))
    return arcs


def _check_prefix(tables, subsets, arcs: dict, q: int, k: int) -> None:
    prefix = ColoredTournament(k, q, [a for (i, j), a in arcs.items() if j <= k])
    for s, h in zip(subsets, tables._h):
        oracle = SubsetPathOracle(prefix, s)
        table, _, _ = oracle._table(False)
        assert h[: 1 << k] == [int(w) for w in table], (sorted(s), k)


@pytest.mark.parametrize("seed", range(12))
def test_prefix_tables_match_a_fresh_oracle(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    q = rng.randint(1, 3)
    r = rng.randint(1, q)
    subsets = [frozenset(s) for s in itertools.combinations(range(1, q + 1), r)]
    tables = PrefixPathTables(n, subsets)
    arcs = _random_arcs(rng, n, q)
    longest = 1
    for k in range(2, n + 1):
        longest = max(longest, tables.complete(k, [arcs[j, k] for j in range(1, k)], k + 1))
        prefix = ColoredTournament(k, q, [a for (i, j), a in arcs.items() if j <= k])
        assert longest == max(SubsetPathOracle(prefix, s).longest() for s in subsets)
        _check_prefix(tables, subsets, arcs, q, k)
    # go back to a random vertex, as the search does, and grow a new suffix;
    # a fill cut short at a small ``enough`` is redone by the next completion
    for _ in range(4):
        k0 = rng.randint(2, n)
        fresh = _random_arcs(rng, n, q)
        arcs.update({(i, k): a for (i, k), a in fresh.items() if k >= k0})
        for k in range(k0, n + 1):
            into = [arcs[j, k] for j in range(1, k)]
            if rng.random() < 0.5:
                assert tables.complete(k, into, 2) <= 2
            tables.complete(k, into, k + 1)
            _check_prefix(tables, subsets, arcs, q, k)


def _partial_coloring(color: dict, q: int, j: int, k: int) -> OrderedColoring:
    """The coloring on 1..k with edges (1,k)..(j,k) set: the later edges into
    k get color q + 1, which no subset of 1..q holds."""
    return OrderedColoring(
        k, q + 1, [(a, b, c if b < k or a <= j else q + 1) for (a, b), c in color.items() if b <= k]
    )


def _clique_order(n: int) -> list[tuple[int, int]]:
    return [(j, k) for k in range(2, n + 1) for j in range(1, k)]


@pytest.mark.parametrize("seed", range(12))
def test_monotone_prefix_tables_match_a_fresh_dp(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    q = rng.randint(1, 4)
    r = rng.randint(1, q)
    subsets = [frozenset(s) for s in itertools.combinations(range(1, q + 1), r)]
    tables = PrefixMonotoneTables(n, subsets)
    order = _clique_order(n)
    color = {pair: rng.randint(1, q) for pair in order}

    def add_from(e0: int) -> None:
        # with enough = n + 1 the room bound never prunes, so each call
        # returns the longest path found so far that ends at k
        for j, k in order[e0:]:
            got = tables.add(j, k, (j, k, color[j, k]), n + 1)
            partial = _partial_coloring(color, q, j, k)
            assert got == max(monotone_lengths_ending(partial, s)[k] for s in subsets), (j, k)

    add_from(0)
    # go back to a random earlier edge, as the search does, and recolor from
    # there: each row is keyed by its edge (j, k), so a jump into the middle
    # of k's edges keeps (k, j - 1) and the final rows of 1..k-1
    for _ in range(6):
        e0 = rng.randrange(len(order))
        color.update({pair: rng.randint(1, q) for pair in order[e0:]})
        add_from(e0)


def _covering_families(q: int, r: int) -> list[tuple[frozenset[int], ...]]:
    t = -(-q // r)
    subsets = [frozenset(s) for s in itertools.combinations(range(1, q + 1), r)]
    palette = set(range(1, q + 1))
    return [f for f in itertools.combinations(subsets, t) if frozenset().union(*f) == palette]


def _free_points(col: OrderedColoring, k: int, v: int, family) -> int:
    """Points of [v]^t that no point P(j), j <= k, of the family dominates."""
    ending = [monotone_lengths_ending(col, s) for s in family]
    points = [tuple(e[j] for e in ending) for j in range(1, k + 1)]
    return sum(
        not any(all(x <= p for x, p in zip(grid, pt)) for pt in points)
        for grid in itertools.product(range(1, v + 1), repeat=len(family))
    )


def _assert_room(col: OrderedColoring, r: int) -> None:
    """Drive the tables over ``col`` at its own value v: no add prunes it,
    and every completed prefix leaves at least N - k free points per family."""
    n, q = col.n_vertices, col.q
    v = _restricted_value_monotone(col, r)
    subsets = [frozenset(s) for s in itertools.combinations(range(1, q + 1), r)]
    families = _covering_families(q, r)
    tables = PrefixMonotoneTables(n, subsets)
    for j, k in _clique_order(n):
        assert tables.add(j, k, (j, k, col.color(j, k)), v + 1) <= v
        if j == k - 1 and k < n:
            free = min(_free_points(col, k, v, fam) for fam in families)
            # each of the n - k later vertices needs a free point of its own
            assert free >= n - k
            assert tables.room(k, v) == free


@pytest.mark.parametrize("seed", range(40))
def test_room_bound_keeps_room_on_random_colorings(seed):
    rng = random.Random(seed)
    q = rng.randint(2, 5)
    r = rng.randint(1, q - 1)
    n = rng.randint(2, 8)
    _assert_room(random_ordered_coloring(n, q, rng.randrange(1 << 30)), r)


def test_room_bound_skips_a_prefix_already_at_enough():
    # n = 9, t = 4: the grid [9]^4 passes ROOM_GRID_CAP, so vertices 2 and 3
    # complete with no room bound, and vertex 3 ends a 3-vertex path of color 1
    tables = PrefixMonotoneTables(9, [frozenset({c}) for c in range(1, 5)])
    tables.add(1, 2, (1, 2, 1), 10)
    tables.add(1, 3, (1, 3, 1), 10)
    assert tables.add(2, 3, (2, 3, 1), 10) == 3
    # the incumbent drops to 3, as when a sibling branch closes: vertex 4's
    # own paths stay at 2, and vertex 3's path already reaches enough, so
    # the search prunes and the tables may not build a grid of [2]^4 from it
    assert tables.add(1, 4, (1, 4, 2), 3) == 2
    assert tables.add(2, 4, (2, 4, 3), 3) == 2
    assert tables.add(3, 4, (3, 4, 4), 3) == 2


# f at r < q - 1 as the search found it when it pruned only on complete
# vertices, with no room bound: f 4 2 7, f 5 3 6 and f 6 4 5 took 25 k to
# 180 k nodes that way
F_VALUES = {
    (4, 2, 5): 3, (4, 2, 6): 4, (4, 2, 7): 4,
    (5, 2, 5): 3, (5, 2, 6): 3,
    (5, 3, 5): 4, (5, 3, 6): 4,
    (6, 3, 5): 4, (6, 4, 5): 5,
}


@pytest.mark.parametrize("key", sorted(F_VALUES))
def test_f_keeps_its_values_under_the_room_bound(key):
    rec = exact_f(*key)
    assert (rec.value, rec.status) == (F_VALUES[key], EXACT)
    assert validate_record(rec) is None
    # an optimal coloring leaves the least room
    _assert_room(OrderedColoring.from_json(rec.certificate), key[1])


# every grid of at most 64 points with q <= 6 and n <= 8: n = 1 would allow
# any q, and at q = 1 every n gives a complete graph, on which networkx
# spends about 0.2 s once n is near 64
SMALL_GRIDS = [
    (q, r, n) for q in range(1, 7) for r in range(1, q + 1) for n in range(1, 9) if n**q <= 64
]


def test_exact_G_matches_networkx_clique():
    nx = pytest.importorskip("networkx")
    for q, r, n in SMALL_GRIDS:
        below = _below(_grid_vectors(q, n), r)
        graph = nx.from_numpy_array(below | below.T)
        rec = exact_G(q, r, n)
        assert rec.status == EXACT
        assert rec.value == len(nx.max_weight_clique(graph, weight=None)[0]), (q, r, n)
        witness = VectorFamily.from_json(rec.certificate)
        assert len(witness) == rec.value
        assert validate_comparable(witness).ok()


def test_exact_G_budget_keeps_a_growing_comparable_witness():
    values = []
    for nodes in (1, 2, 10, 100, 1000):
        rec = exact_G(3, 2, 5, Budget(max_nodes=nodes))
        assert rec.status == LOWER_BOUND
        assert rec.value <= 11
        witness = VectorFamily.from_json(rec.certificate)
        assert len(witness) == rec.value
        assert validate_comparable(witness).ok()
        values.append(rec.value)
    # one deterministic search: a larger budget only lets the incumbent grow
    assert values == sorted(values)


# r = q - 1 keys on which the walk, the floor and the plain search all close
BRIDGE_KEYS = (
    [(3, 2, n) for n in range(2, 9)]
    + [(2, 1, n) for n in range(2, 10)]
    + [(4, 3, n) for n in range(2, 6)]
)
BRIDGE_G_KEYS = (
    [(3, 2, n) for n in range(2, 6)]
    + [(2, 1, n) for n in range(2, 9)]
    + [(4, 3, n) for n in range(2, 6)]
)


def _plain_search(monkeypatch, kind: str, key) -> search.ExtremalRecord:
    """``_minimize`` as the branch-and-bound alone: no maximizer walk, floor 1."""
    monkeypatch.setattr(search, "_least_side", lambda kind, q, n, floor, stop, clock: (floor, None))
    monkeypatch.setattr(search, "_value_floor", lambda q, r, n: 1)
    return search._minimize(kind, *key, None)


@pytest.mark.parametrize("kind,keys", [("f", BRIDGE_KEYS), ("g", BRIDGE_G_KEYS)])
def test_bridge_matches_the_plain_search(monkeypatch, kind, keys):
    oracle = exact_f if kind == "f" else exact_g
    bridged = {key: oracle(*key) for key in keys}
    for key, rec in bridged.items():
        assert rec.status == EXACT, key
        assert validate_record(rec) is None, key
        plain = _plain_search(monkeypatch, kind, key)
        assert plain.status == EXACT
        assert rec.value == plain.value, key


@pytest.mark.parametrize("key", BRIDGE_KEYS)
def test_f_is_the_least_side_with_F_at_least_N(key):
    q, _, n = key
    side = next(m for m in itertools.count(1) if exact_F(q, q - 1, m).value >= n)
    assert exact_f(*key).value == side


@pytest.mark.parametrize("q,n", [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (4, 4)])
def test_f_through_F_matches_every_coloring(q, n):
    rec = exact_f(q, q - 1, n)
    assert rec.status == EXACT
    assert rec.value == _brute_f(q, q - 1, n)


def test_f_walk_shares_one_budget():
    # f 3 2 9 walks F 3 2 3 (11 nodes, 4 vectors), F 3 2 4 (84 nodes, 8) and
    # F 3 2 5, which has 10 vectors within 300 nodes and closes at 817
    whole = exact_f(3, 2, 9)
    assert (whole.value, whole.status, whole.nodes_explored) == (5, EXACT, 912)
    for nodes in (3, 100):  # tripped below 9 vectors: the start stays, as a bound
        rec = exact_f(3, 2, 9, Budget(max_nodes=nodes))
        assert (rec.status, rec.nodes_explored) == (UPPER_BOUND, nodes + 1)
        assert rec.value >= whole.value
        assert validate_record(rec) is None
    # tripped inside F 3 2 5 after 9 vectors, with both smaller sides closed
    rec = exact_f(3, 2, 9, Budget(max_nodes=500))
    assert (rec.value, rec.status, rec.nodes_explored) == (5, EXACT, 501)


def test_g_walk_shares_one_budget():
    # G 3 2 3 needs 9 nodes; tripped inside it, g keeps the balanced start
    rec = exact_g(3, 2, 5, Budget(max_nodes=3))
    assert (rec.value, rec.status, rec.nodes_explored) == (4, UPPER_BOUND, 4)
    assert validate_record(rec) is None


def test_f_walk_stops_at_the_grid_cap(monkeypatch):
    # [3]^3 has 27 points: the walk stops before F 3 2 3, and the search proves f
    monkeypatch.setattr(search, "GRID_POINT_CAP", 8)
    rec = exact_f(3, 2, 5)
    assert (rec.value, rec.status) == (4, EXACT)
    assert rec.nodes_explored > 0


@pytest.mark.parametrize("q,r,n", [(2, 1, 10), (3, 2, 5), (3, 1, 9), (4, 3, 17), (5, 2, 28)])
def test_value_floor_is_the_least_root(q, r, n):
    k = -(-q // r)
    v = _value_floor(q, r, n)
    assert v**k >= n > (v - 1) ** k


def _near_floor_instances(rng: random.Random, q: int, n: int):
    """A random coloring and tournament, and two built to sit near the floor."""
    seed = rng.randrange(1 << 30)
    yield random_ordered_coloring(n, q, seed)
    yield random_tournament(n, q, seed)
    side = next(m for m in itertools.count(1) if m**q >= n)
    big = canonical_coloring(q, side)
    keep = sorted(rng.sample(range(1, big.n_vertices + 1), n))
    pairs = itertools.combinations(range(len(keep)), 2)
    yield OrderedColoring(n, q, [(i + 1, j + 1, big.color(keep[i], keep[j])) for i, j in pairs])
    fam = VectorFamily.from_json(exact_G(q, q - 1, side + 1).certificate)
    if len(fam) >= n:
        coords = fam.coords[rng.sample(range(len(fam)), n)]
        yield vectors_to_tournament(VectorFamily.from_array(coords, q - 1, side + 1))


@pytest.mark.parametrize("seed", range(30))
def test_no_small_instance_beats_the_floor(seed):
    rng = random.Random(seed)
    q = rng.randint(2, 4)
    n = rng.randint(2, 10)
    for inst in _near_floor_instances(rng, q, n):
        for r in range(1, q):
            floor = _value_floor(q, r, n)
            if isinstance(inst, OrderedColoring):
                assert _restricted_value_monotone(inst, r) >= floor
            else:
                assert _restricted_value_directed(inst, r) >= floor


# every grid of at most 16 points: n = 1 would allow any q, so q stops at 6
TINY_GRIDS = [
    (q, r, n) for q in range(1, 7) for r in range(1, q + 1) for n in range(1, 17) if n**q <= 16
]


def _brute_F(q: int, r: int, n: int) -> int:
    """The largest r-increasing chain in [n]^q, by a DP over every subset of the grid.

    A set S is a chain iff some x in S beats every other point of S in at
    least r coordinates and S - {x} is a chain: x is the chain's last point.
    """
    points = list(itertools.product(range(1, n + 1), repeat=q))
    # beaten[x]: the points that x beats in at least r coordinates
    beaten = [
        sum(1 << j for j, y in enumerate(points) if sum(a > b for a, b in zip(x, y)) >= r)
        for x in points
    ]
    chain = bytearray(1 << len(points))
    chain[0] = 1
    best = 0
    for s in range(1, len(chain)):
        rest = s
        while rest:
            bit = rest & -rest
            rest ^= bit
            x = bit.bit_length() - 1
            if not (s ^ bit) & ~beaten[x] and chain[s ^ bit]:
                chain[s] = 1
                best = max(best, s.bit_count())
                break
    return best


@pytest.mark.parametrize("q,r,n", TINY_GRIDS)
def test_exact_F_matches_every_chain(q, r, n):
    rec = exact_F(q, r, n)
    assert rec.status == EXACT
    assert rec.value == _brute_F(q, r, n)
    assert validate_record(rec) is None


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda q: st.tuples(st.just(q), st.integers(1, q), st.integers(1, 5))))
def test_up_rows_only_drop_starts_that_cannot_win(key):
    # the lemma exact_F prunes by: if j is at least i in every coordinate,
    # every point that beats j in r coordinates beats i in them too
    q, r, n = key
    vecs = _grid_vectors(q, n)
    greater, up = search._chain_rows(vecs, r)
    wins = (vecs[None, :, :] > vecs[:, None, :]).sum(axis=2)  # [i, j]: coordinates j beats i in
    at_least = (vecs[None, :, :] >= vecs[:, None, :]).all(axis=2)
    np.fill_diagonal(at_least, False)
    assert greater == _rows(wins >= r)
    assert up == _rows(at_least)
    for i, row in enumerate(up):
        for j in range(len(vecs)):
            if row >> j & 1:
                assert greater[j] & ~greater[i] == 0, (vecs[i], vecs[j])
    # the all-ones point is below every other point: one root suffices
    assert up[0] == (1 << len(vecs)) - 2


@pytest.mark.parametrize("q,r,n", [(2, 1, 7), (3, 2, 4), (3, 1, 3), (4, 3, 2)])
def test_chain_rows_packed_block_by_block(monkeypatch, q, r, n):
    # blocks of one to six rows, so most rows' own bit sits past the block start
    monkeypatch.setattr(core, "_BLOCK_CELLS", 100)
    vecs = _grid_vectors(q, n)
    assert len(list(core._win_blocks(vecs))) > 1
    greater, up = search._chain_rows(vecs, r)
    at_least = ~_below(-vecs, 1)
    np.fill_diagonal(at_least, False)
    assert greater == _rows(_below(vecs, r))
    assert up == _rows(at_least)


def _unpruned_F(q: int, r: int, n: int, budget: Budget | None = None) -> search.ExtremalRecord:
    """``exact_F`` as it was before a child was settled in the loop.

    Every child is a call, memo hits and children too small to win
    included; the memo check and the incumbent chain sit at the call's
    entry.  It is the reference for the values, witnesses and node counts
    of the pruned loop.
    """
    clock = (budget or Budget()).start()
    vecs = _grid_vectors(q, n)
    greater = _rows(_below(vecs, r))
    memo: dict[int, tuple[int, int]] = {}
    best_chain: list[int] = []

    def walk(mask: int) -> list[int]:
        chain = []
        while mask:
            length, first = memo[mask]
            if length == 0:
                break
            chain.append(first)
            mask &= greater[first]
        return chain

    def solve(mask: int, prefix: list[int]) -> int:
        if len(prefix) > len(best_chain):
            best_chain[:] = prefix
        if mask in memo:
            return memo[mask][0]
        clock.tick()
        best_len, best_first = 0, -1
        mm = mask
        while mm:
            bit = mm & -mm
            i = bit.bit_length() - 1
            mm ^= bit
            prefix.append(i)
            sub = solve(mask & greater[i], prefix)
            prefix.pop()
            if sub + 1 > best_len:
                best_len, best_first = sub + 1, i
        memo[mask] = (best_len, best_first)
        return best_len

    full = (1 << len(vecs)) - 1
    canonical_starts = np.flatnonzero((np.diff(vecs) >= 0).all(axis=1)).tolist()
    try:
        best = 0
        for i in canonical_starts:
            best = max(best, solve(full & greater[i], [i]) + 1)
        chain: list[int] = []
        for i in canonical_starts:
            if memo[full & greater[i]][0] + 1 == best:
                chain = [i] + walk(full & greater[i])
                break
        status = EXACT
    except BudgetExceeded:
        chain = list(best_chain)
        best = len(chain)
        status = LOWER_BOUND
    witness = VectorFamily.from_array(vecs[chain], r, n)
    return search.ExtremalRecord("F", q, r, n, best, status, witness.to_json(), clock.nodes)


# every grid of at most 125 points; the unpruned search gets this many nodes
REFERENCE_GRIDS = [
    (q, r, n) for q in range(1, 7) for r in range(1, q + 1) for n in range(2, 126) if n**q <= 125
]
REFERENCE_NODES = 20_000


@pytest.mark.parametrize("q,r,n", REFERENCE_GRIDS)
def test_exact_F_keeps_the_unpruned_records(q, r, n):
    ref = _unpruned_F(q, r, n, Budget(max_nodes=REFERENCE_NODES))
    rec = exact_F(q, r, n, Budget(max_nodes=REFERENCE_NODES))
    if ref.status == EXACT:
        assert (rec.value, rec.status, rec.certificate) == (ref.value, EXACT, ref.certificate)
        assert rec.nodes_explored <= ref.nodes_explored
    else:
        # only r = 1 on 64 or more points: the lexicographic order is a chain
        # through the whole grid, which the pruned search closes on
        assert r == 1
        assert (rec.value, rec.status) == (n**q, EXACT)


# the dominance pins' budget keys.  At (4, 2, 3) the budget trips at the
# same node with the same incumbent as in the unpruned search.  At
# (3, 2, 5, 300) the search that drops each taken child's up row has found
# another 10-vector chain when it trips, so there the record is only checked
# against its pin: a chain that re-validates and stays within F(3, 2, 5) = 10
@pytest.mark.parametrize("q,r,n,nodes", [(3, 2, 5, 300), (4, 2, 3, 300), (4, 2, 3, 100)])
def test_exact_F_budget_records_match_the_unpruned_search(q, r, n, nodes):
    ref = _unpruned_F(q, r, n, Budget(max_nodes=nodes))
    rec = exact_F(q, r, n, Budget(max_nodes=nodes))
    assert ref.status == rec.status == LOWER_BOUND
    fields = ("value", "status", "nodes_explored", "certificate")
    got = [getattr(rec, f) for f in fields]
    if (q, r, n) == (4, 2, 3):
        assert got == [getattr(ref, f) for f in fields]
        return
    pinned = json.loads(DOMINANCE_PINS.read_text())["search"][f"F_{q}_{r}_{n}_b{nodes}"]
    assert got == pinned
    assert validate_record(rec) is None
    assert rec.value <= exact_F(q, r, n).value
