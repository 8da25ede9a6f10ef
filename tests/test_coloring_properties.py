"""Property tests for the paper's identities on ordered colorings.

- Lex-product multiplicativity: under every color subset S, the longest
  monotone path of ``lex_product(k1, k2)`` is the product of the factors'.
- Balance equalization: avoiding any one color, ``balance_coloring(k)`` has
  longest monotone path equal to the product of k's q avoidance lengths.
- The vector round trip: ``coloring_to_vectors(k)`` is (q-1)-increasing on
  the grid whose side is k's longest avoiding path, and
  ``vectors_to_coloring`` of it keeps each edge's color c where coordinate c
  stalls and colors it 1 otherwise; avoiding color i, its longest path is at
  most k's.
- The tournament map: ``vectors_to_tournament`` of a (q-1)-comparable family
  in [n]^q orients each pair along its dominance (the lower index is the
  tail when both directions hold), colors it by the first coordinate that
  does not grow, and has no path on at most q-1 colors longer than n.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from ramsey_pods.constructions import balance_coloring, lex_product
from ramsey_pods.core import VectorFamily, validate_increasing
from ramsey_pods.paths import SubsetPathOracle, ell_avoid_monotone, longest_restricted_monotone
from ramsey_pods.reductions import coloring_to_vectors, vectors_to_coloring, vectors_to_tournament
from ramsey_pods.tournament import OrderedColoring


@st.composite
def colorings(draw, q, max_n):
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    colors = draw(st.lists(st.integers(1, q), min_size=len(pairs), max_size=len(pairs)))
    return OrderedColoring(n, q, [(u, v, c) for (u, v), c in zip(pairs, colors)])


def _longest(k, colors):
    return longest_restricted_monotone(k, colors).length


def _subsets(q):
    for size in range(1, q + 1):
        yield from itertools.combinations(range(1, q + 1), size)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda q: st.tuples(colorings(q, 7), colorings(q, 7))))
def test_lex_product_multiplies_every_color_subset(factors):
    k1, k2 = factors
    prod = lex_product(k1, k2)
    assert prod.n_vertices == k1.n_vertices * k2.n_vertices
    for s in _subsets(k1.q):
        assert _longest(prod, s) == _longest(k1, s) * _longest(k2, s)


# n^q stays at most 256 vertices
_BALANCE_SIZES = {1: 8, 2: 8, 3: 6, 4: 4}


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(lambda q: colorings(q, _BALANCE_SIZES[q])))
def test_balance_equalizes_every_avoidance_length(k):
    q = k.q
    balanced = balance_coloring(k)
    assert balanced.n_vertices == k.n_vertices**q
    product = 1
    for i in range(1, q + 1):
        product *= ell_avoid_monotone(k, i).length
    for i in range(1, q + 1):
        assert ell_avoid_monotone(balanced, i).length == product


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5).flatmap(lambda q: colorings(q, 12)))
def test_vector_round_trip(k):
    q = k.q
    fam = coloring_to_vectors(k)
    avoid = [ell_avoid_monotone(k, i).length for i in range(1, q + 1)]
    assert (fam.q, fam.r, fam.n) == (q, q - 1, max(avoid))
    assert validate_increasing(fam).ok()
    for i in range(q):
        assert max(v.coords[i] for v in fam.vectors) == avoid[i]
    back = vectors_to_coloring(fam)
    assert (back.n_vertices, back.q) == (k.n_vertices, q)
    for u, v, c in k.edges():
        stalls = fam.vectors[u - 1].coords[c - 1] >= fam.vectors[v - 1].coords[c - 1]
        assert back.color(u, v) == (c if stalls else 1)
    for i in range(1, q + 1):
        assert ell_avoid_monotone(back, i).length <= avoid[i - 1]


def _beats(x, y, r) -> bool:
    """y is larger than x in at least r coordinates."""
    return sum(b > a for a, b in zip(x, y)) >= r


@st.composite
def comparable_families(draw):
    """Grown greedily from drawn candidates, keeping each one comparable to all kept."""
    q = draw(st.integers(2, 4))
    n = draw(st.integers(1, 4))
    candidates = draw(st.lists(st.tuples(*[st.integers(1, n)] * q), min_size=1, max_size=40))
    kept: list = []
    for v in candidates:
        if len(kept) < 12 and all(_beats(u, v, q - 1) or _beats(v, u, q - 1) for u in kept):
            kept.append(v)
    return VectorFamily.from_coords(kept, q - 1, n)


@settings(max_examples=80, deadline=None)
@given(comparable_families())
def test_vectors_to_tournament_orients_along_dominance(fam):
    q, x = fam.q, fam.coords.tolist()
    t = vectors_to_tournament(fam)
    assert (t.n_vertices, t.q) == (len(x), q)
    for a, b in itertools.combinations(range(1, len(x) + 1), 2):
        up = _beats(x[a - 1], x[b - 1], q - 1)
        tail, head = (a, b) if up else (b, a)
        assert t.has_edge(tail, head)
        grows = [h > s for s, h in zip(x[tail - 1], x[head - 1])]
        assert t.color(a, b) == (grows.index(False) + 1 if False in grows else 1)
    for s in itertools.combinations(range(1, q + 1), q - 1):
        assert SubsetPathOracle(t, frozenset(s)).longest() <= fam.n
