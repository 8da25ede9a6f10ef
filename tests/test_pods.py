import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramsey_pods.core import GridVector
from ramsey_pods.pods import Packing, Pod, packing_density, pod_voxels
from ramsey_pods.search import exact_G

from reference import pods_disjoint_voxel


def pod(q, r, n, apex):
    return Pod(q, r, n, GridVector(tuple(apex), n))


def voxel_count_inclusion_exclusion(q, r, n):
    """Independent oracle: alternating sum over sets of corner faces."""
    faces = list(itertools.combinations(range(q), r - 1))
    total = 0
    for k in range(1, len(faces) + 1):
        for combo in itertools.combinations(faces, k):
            support = set(combo[0])
            for f in combo[1:]:
                support &= set(f)
            total += (-1) ** (k + 1) * n ** len(support)
    return total


def test_tripod_order_four_has_ten_voxels():
    assert len(pod_voxels(pod(3, 2, 4, (1, 1, 1)))) == 10


def test_voxels_match_inclusion_exclusion():
    for (q, r, n) in [(3, 2, 4), (3, 3, 2), (4, 3, 3), (4, 1, 5), (2, 2, 3), (5, 2, 2)]:
        assert len(pod_voxels(pod(q, r, n, (1,) * q))) == voxel_count_inclusion_exclusion(q, r, n)


def test_degenerate_pods():
    only_apex = pod_voxels(pod(4, 1, 5, (2, 3, 1, 5)))
    assert only_apex == frozenset({(2, 3, 1, 5)})
    full_corner = pod_voxels(pod(3, 3, 2, (1, 1, 1)))
    assert len(full_corner) == 7  # the three corner squares, not the cube


def disjoint(a, b):
    return Packing.of((a, b)).valid


def test_disjointness_examples():
    a = pod(3, 2, 3, (1, 1, 1))
    assert disjoint(a, pod(3, 2, 3, (2, 2, 1)))
    b = pod(3, 2, 3, (2, 1, 1))
    assert not disjoint(a, b)
    assert (2, 1, 1) in (pod_voxels(a) & pod_voxels(b))  # coordinatewise max
    assert not disjoint(a, a)
    with pytest.raises(ValueError):
        disjoint(a, pod(3, 2, 4, (1, 1, 1)))


@pytest.mark.parametrize(
    "q,r,sides",
    [(3, 2, (2, 3)), (4, 3, (2,)), (3, 3, (2,)), (2, 1, (2, 3))],
)
def test_voxel_and_comparability_oracles_agree(q, r, sides):
    for n in sides:
        apices = list(itertools.product(range(1, n + 1), repeat=q))
        pods = [pod(q, r, n, a) for a in apices]
        for i in range(len(pods)):
            for j in range(i, len(pods)):
                assert disjoint(pods[i], pods[j]) == pods_disjoint_voxel(pods[i], pods[j])


@st.composite
def pod_pairs(draw):
    q = draw(st.integers(1, 5))
    r = draw(st.integers(1, q))
    n = draw(st.integers(1, 6))
    apex = st.lists(st.integers(1, n), min_size=q, max_size=q)
    return pod(q, r, n, draw(apex)), pod(q, r, n, draw(apex))


@settings(max_examples=300, deadline=None)
@given(pod_pairs())
def test_pods_disjoint_iff_packing_valid(pair):
    # the exhaustive sweep above covers every apex pair of a few small grids;
    # this samples grids up to [6]^5, where the pods hold thousands of voxels
    a, b = pair
    packing = Packing.of(pair)
    assert packing.valid == pods_disjoint_voxel(a, b)
    assert packing.certificate.pair == (None if packing.valid else (1, 2))


def test_packing_validity_is_comparability():
    good = Packing.from_apices(3, 2, 2, [[1, 1, 1], [2, 2, 1]])
    assert good.valid
    bad = Packing.from_apices(3, 2, 2, [[1, 1, 1], [2, 1, 1]])
    assert not bad.valid


def test_max_packing_matches_comparable_optimum():
    # exhaustively: the largest valid packing with apices in [2]^3 has the
    # same size as the largest 2-comparable set there
    apices = list(itertools.product((1, 2), repeat=3))
    best = 0
    for size in range(1, len(apices) + 1):
        if any(
            Packing.from_apices(3, 2, 2, combo).valid
            for combo in itertools.combinations(apices, size)
        ):
            best = size
    record = exact_G(3, 2, 2)
    assert best == record.value == 2


def test_packing_density_values():
    single = Packing.from_apices(3, 2, 2, [[1, 1, 1]])
    assert packing_density(single) == Fraction(4, 27)
    empty = Packing.of(())
    assert packing_density(empty) == 0
    record = exact_G(3, 2, 2)
    fam = record.certificate["vectors"]
    max_packing = Packing.from_apices(3, 2, 2, fam)
    assert max_packing.valid
    assert packing_density(max_packing) == record.value * Fraction(4, 27)


def test_density_rejects_invalid():
    bad = Packing.from_apices(3, 2, 2, [[1, 1, 1], [2, 1, 1]])
    with pytest.raises(ValueError):
        packing_density(bad)


def test_packing_json_roundtrip():
    p = Packing.from_apices(3, 2, 2, [[1, 1, 1], [2, 2, 1]])
    again = Packing.from_json(p.to_json())
    assert again == p
