"""Differential tests: the coordinate-array readers and writers of
``VectorFamily`` against per-vector reference loops.

The references are the loops these functions used to be.  They build one
``GridVector`` per vector and read nothing but ``coords`` tuples, so they pin
what the array operations must return: at m = 1, at q = 1..5, on random
increasing families, and on a family whose grid side is above 2^63, whose
array has object dtype.  The rest checks what ``VectorFamily._set`` rejects.
"""

import itertools
import random

import numpy as np
import pytest

from ramsey_pods.constructions import product_boost_vectors
from ramsey_pods.core import (
    GridVector,
    VectorFamily,
    find_cyclic_triple,
    reordered,
    transitive_order,
    validate_increasing,
)
from ramsey_pods.reductions import coloring_to_vectors
from ramsey_pods.search import _grid_vectors
from ramsey_pods.tournament import OrderedColoring, random_ordered_coloring


def ref_product_boost_vectors(a, b):
    n2 = b.n
    n_out = a.n * n2
    vectors = []
    for x in a.vectors:
        for y in b.vectors:
            coords = tuple((xc - 1) * n2 + yc for xc, yc in zip(x.coords, y.coords))
            vectors.append(GridVector(coords, n_out))
    return VectorFamily(tuple(vectors), a.r)


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


def ref_reordered(fam, order):
    return VectorFamily(tuple(fam.vectors[i - 1] for i in order), fam.r)


def ref_from_json(data):
    n = int(data["n"])
    vectors = tuple(GridVector(tuple(row), n) for row in data["vectors"])
    fam = VectorFamily(vectors, int(data["r"]))
    if fam.q != int(data["q"]):
        raise ValueError("declared q does not match vector width")
    return fam


def ref_grid_vectors(q, n):
    return list(itertools.product(range(1, n + 1), repeat=q))


def increasing_family(rng, q, m):
    """A random r-increasing family, r = max(1, q - 1), from a random coloring."""
    if q == 1:
        rows = sorted(rng.sample(range(1, 3 * m + 1), m))
        return VectorFamily.from_coords([(x,) for x in rows], 1)
    return coloring_to_vectors(random_ordered_coloring(m, q, seed=rng.randrange(1 << 30)))


def families():
    """(name, family): m = 1, q = 1..5, random increasing, and n above 2^63."""
    rng = random.Random(14)
    for q in (1, 2, 3, 4, 5):
        yield f"single_q{q}", VectorFamily.from_coords([tuple(range(1, q + 1))], max(1, q - 1))
        for m in (2, 5, rng.randint(6, 30)):
            yield f"increasing_q{q}_m{m}", increasing_family(rng, q, m)
    big = 2**70
    rows = [(1, 2**64), (2**65, 2**64 + 1), (big, big)]
    yield "object_dtype", VectorFamily.from_coords(rows, 1, big)


CASES = list(families())
IDS = [name for name, _ in CASES]
FAMS = [fam for _, fam in CASES]


def test_cases_cover_both_dtypes():
    assert {fam.coords.dtype for fam in FAMS} == {np.dtype(np.int64), np.dtype(object)}
    assert all(validate_increasing(fam).ok() for fam in FAMS)


@pytest.mark.parametrize("fam", FAMS, ids=IDS)
def test_json_round_trip_matches_reference(fam):
    data = fam.to_json()
    again = VectorFamily.from_json(data)
    assert again == fam
    assert again.to_json() == data == ref_from_json(data).to_json()
    assert all(type(c) is int for row in data["vectors"] for c in row)
    assert type(data["n"]) is int and type(data["q"]) is int


@pytest.mark.parametrize("fam", FAMS, ids=IDS)
def test_vectors_property_rebuilds_the_rows(fam):
    assert [v.coords for v in fam.vectors] == [tuple(row) for row in fam.to_json()["vectors"]]
    assert all(v.n == fam.n for v in fam.vectors)
    assert VectorFamily(fam.vectors, fam.r) == fam


@pytest.mark.parametrize("fam", FAMS, ids=IDS)
def test_reordered_matches_reference(fam):
    rng = random.Random(len(fam))
    order = list(range(1, len(fam) + 1))
    rng.shuffle(order)
    for o in (order, order[::-1], order[:1], [1] * 3):
        assert reordered(fam, o).to_json() == ref_reordered(fam, o).to_json()


@pytest.mark.parametrize("a", FAMS, ids=IDS)
def test_product_boost_matches_reference(a):
    rng = random.Random(a.q * 100 + len(a))
    same = [b for b in FAMS if (b.q, b.r) == (a.q, a.r)]
    for b in (a, rng.choice(same)):
        assert product_boost_vectors(a, b).to_json() == ref_product_boost_vectors(a, b).to_json()


def test_product_boost_above_int64_keeps_exact_coordinates():
    a = VectorFamily.from_coords([(1, 1), (2**40, 2**40)], 1, 2**40)
    got = product_boost_vectors(a, a)
    assert got.coords.dtype == object
    assert got.n == 2**80
    assert got.to_json() == ref_product_boost_vectors(a, a).to_json()


def coloring_cases():
    rng = random.Random(15)
    for q in (2, 3, 4, 5):
        yield OrderedColoring(1, q, [])
        for n in (2, 7, rng.randint(8, 40)):
            yield random_ordered_coloring(n, q, seed=rng.randrange(1 << 30))


@pytest.mark.parametrize("k", list(coloring_cases()))
def test_coloring_to_vectors_matches_reference(k):
    assert coloring_to_vectors(k).to_json() == ref_coloring_to_vectors(k).to_json()


@pytest.mark.parametrize("q,n", [(q, n) for q in (1, 2, 3, 4) for n in (1, 2, 3, 5)])
def test_grid_vectors_match_reference(q, n):
    grid = _grid_vectors(q, n)
    assert grid.shape == (n**q, q)
    assert [tuple(row) for row in grid.tolist()] == ref_grid_vectors(q, n)


def test_transitive_order_and_cyclic_triple_reject_an_incomparable_family():
    fam = VectorFamily.from_coords([(1, 1, 1), (1, 1, 1)], 2)
    for check in (transitive_order, find_cyclic_triple):
        with pytest.raises(ValueError, match="input family is not comparable"):
            check(fam)


@pytest.mark.parametrize(
    "coords,r,n,message",
    [
        ([], 1, 3, "a family must contain at least one vector"),
        (np.empty((0, 2), np.int64), 1, 3, "a family must contain at least one vector"),
        ([[]], 1, 3, "a grid vector needs at least one coordinate"),
        ([[1, 2], [3]], 1, 3, r"all members must share the same \(q, n\) ambient"),
        ([[1, 2], [3, 0], [4, 1]], 1, 3, r"coordinate 0 outside \[1, 3\]"),
        ([[1, 5], [4, 1]], 1, 3, r"coordinate 5 outside \[1, 3\]"),
        ([[1, 2**70]], 1, 3, rf"coordinate {2**70} outside \[1, 3\]"),
        ([[1.0, 2.0]], 1, 3, "coordinates need integers"),
        ([["1", 2]], 1, 3, "coordinates need integers"),
        ([1, 2], 1, 3, r"an \(m, q\) array"),
        ([[1, 2]], 0, 3, r"threshold r=0 outside \[1, 2\]"),
        ([[1, 2]], 3, 3, r"threshold r=3 outside \[1, 2\]"),
        # a list numpy reads as float64: the object fallback names the -1
        ([[-1, 2**63]], 1, 2**70, rf"coordinate -1 outside \[1, {2**70}\]"),
    ],
)
def test_set_rejections(coords, r, n, message):
    with pytest.raises(ValueError, match=message):
        VectorFamily.from_array(coords, r, n)


def test_ragged_rows_keep_the_ambient_message():
    with pytest.raises(ValueError, match=r"^all members must share the same \(q, n\) ambient$"):
        VectorFamily.from_coords([(1, 2), (1, 2, 3)], 1)
    with pytest.raises(ValueError, match=r"^all members must share the same \(q, n\) ambient$"):
        VectorFamily((GridVector((1, 2), 3), GridVector((1, 2, 3), 3)), 1)


def test_string_and_float_numbers_are_not_integers():
    with pytest.raises(TypeError):
        GridVector((1.7, 2), 3)
    data = {"q": 2, "n": 3, "r": 1, "vectors": [[1, 1], [2, 3]]}
    assert VectorFamily.from_json(data).to_json() == data
    for key, value in (("n", "3"), ("r", "1"), ("q", "2")):
        with pytest.raises(TypeError):
            VectorFamily.from_json(dict(data, **{key: value}))
    with pytest.raises(ValueError, match="coordinates need integers"):
        VectorFamily.from_json(dict(data, vectors=[["1", 1], [2, " 3 "]]))


def test_coords_are_read_only_copies():
    rows = np.array([[1, 2], [2, 3]])
    fam = VectorFamily.from_array(rows, 1, 3)
    rows[0, 0] = 3
    assert fam.coords[0, 0] == 1
    with pytest.raises(ValueError):
        fam.coords[0, 0] = 2
    with pytest.raises(ValueError):
        reordered(fam, (2, 1)).coords[0, 0] = 2
