import itertools
import random

import pytest

from ramsey_pods.core import (
    COMPARABLE,
    INCREASING,
    ComparabilityCertificate,
    Comparison,
    GridVector,
    VectorFamily,
    Verdict,
    compare_r,
    find_cyclic_triple,
    less_r,
    reordered,
    transitive_order,
    validate_comparable,
    validate_increasing,
)

from reference import certificate_is_sound


def gv(coords, n):
    return GridVector(tuple(coords), n)


def fam(rows, r, n=None):
    return VectorFamily.from_coords(rows, r, n)


def test_less_r_examples():
    assert less_r(gv((1, 2, 3), 3), gv((2, 3, 1), 3), 2)
    assert not less_r(gv((1, 1), 2), gv((1, 1), 2), 1)
    assert not less_r(gv((1, 1, 1), 2), gv((2, 1, 1), 2), 2)


def test_less_r_errors():
    with pytest.raises(ValueError):
        less_r(gv((1, 2), 2), gv((1, 2, 1), 2), 1)
    with pytest.raises(ValueError):
        less_r(gv((1, 2), 2), gv((1, 2), 3), 1)
    with pytest.raises(ValueError):
        less_r(gv((1, 2), 2), gv((1, 2), 2), 0)
    with pytest.raises(ValueError):
        less_r(gv((1, 2), 2), gv((1, 2), 2), 3)


def test_compare_r_examples():
    assert compare_r(gv((1, 1), 2), gv((2, 2), 2), 1) is Comparison.FORWARD
    assert compare_r(gv((1, 2), 2), gv((2, 1), 2), 1) is Comparison.BOTH
    got = compare_r(gv((1, 2, 3), 3), gv((2, 3, 1), 3), 2)
    assert got is Comparison.FORWARD  # r > q/2 forbids antiparallel


def test_antisymmetry_above_half():
    rng = random.Random(0)
    for _ in range(200):
        q = rng.randint(2, 5)
        r = rng.randint(q // 2 + 1, q)
        n = rng.randint(2, 4)
        x = gv([rng.randint(1, n) for _ in range(q)], n)
        y = gv([rng.randint(1, n) for _ in range(q)], n)
        assert not (less_r(x, y, r) and less_r(y, x, r))


def test_validate_increasing_examples():
    lex = fam(sorted(itertools.product((1, 2), repeat=2)), 1, 2)
    assert validate_increasing(lex).verdict is Verdict.INCREASING
    assert len(lex) == 4

    bad = fam([(1, 1, 1), (2, 2, 1), (2, 2, 2)], 2)
    cert = validate_increasing(bad)
    assert cert.verdict is Verdict.FAIL_PAIR
    assert cert.pair == (2, 3)

    assert validate_increasing(fam([(1, 1, 1), (1, 2, 2)], 2)).ok()


def test_validate_comparable_examples():
    rps = fam([(1, 2, 3), (2, 3, 1), (3, 1, 2)], 2)
    assert validate_comparable(rps).verdict is Verdict.COMPARABLE

    cert = validate_comparable(fam([(1, 1, 2), (1, 2, 1)], 2))
    assert cert.verdict is Verdict.FAIL_PAIR

    dup = fam([(1, 2), (1, 2)], 1)
    assert validate_comparable(dup).verdict is Verdict.FAIL_PAIR


def test_find_cyclic_triple_rps():
    rps = fam([(1, 2, 3), (2, 3, 1), (3, 1, 2)], 2)
    cert = find_cyclic_triple(rps)
    assert cert is not None
    assert cert.triple == (1, 2, 3)
    assert cert.witness_a == frozenset({1, 2})
    assert cert.witness_b == frozenset({1, 3})
    assert cert.witness_c == frozenset({2, 3})
    assert certificate_is_sound(rps, cert)


def test_find_cyclic_triple_small_family_absent():
    two = fam([(1, 1), (2, 2)], 1)
    assert find_cyclic_triple(two) is None


def test_find_cyclic_triple_requires_comparable():
    with pytest.raises(ValueError):
        find_cyclic_triple(fam([(1, 1, 2), (1, 2, 1)], 2))


def _all_comparable_subsets(q, r, n, max_size=None):
    """Grow comparability cliques by brute force; independent of the library
    validators beyond the pair relation."""
    vecs = [gv(c, n) for c in itertools.product(range(1, n + 1), repeat=q)]
    comp = {
        (i, j): compare_r(vecs[i], vecs[j], r) is not Comparison.INCOMPARABLE
        for i in range(len(vecs))
        for j in range(len(vecs))
        if i < j
    }
    out = []

    def grow(cur, start):
        if cur:
            out.append(list(cur))
        if max_size and len(cur) >= max_size:
            return
        for j in range(start, len(vecs)):
            if all(comp[(i, j)] for i in cur):
                grow(cur + [j], j + 1)

    grow([], 0)
    return vecs, out


@pytest.mark.parametrize("q,r", [(3, 3), (4, 3), (4, 4), (5, 4), (5, 5)])
def test_acyclicity_above_two_thirds_exhaustive_n2(q, r):
    assert 3 * r > 2 * q
    vecs, subsets = _all_comparable_subsets(q, r, 2)
    for idxs in subsets:
        family = VectorFamily(tuple(vecs[i] for i in idxs), r)
        assert find_cyclic_triple(family) is None
        order = transitive_order(family)
        assert isinstance(order, tuple)
        assert validate_increasing(reordered(family, order)).ok()


def test_transitive_order_examples():
    assert transitive_order(fam([(2, 2), (1, 1)], 1)) == (2, 1)
    rps = fam([(1, 2, 3), (2, 3, 1), (3, 1, 2)], 2)
    cert = transitive_order(rps)
    assert cert.verdict is Verdict.CYCLIC_TRIPLE
    assert certificate_is_sound(rps, cert)


def test_transitive_order_with_both_edges():
    # r <= q/2 lets pairs relate both ways; order must still validate
    family = fam([(2, 1), (1, 2)], 1)
    order = transitive_order(family)
    assert isinstance(order, tuple)
    assert validate_increasing(reordered(family, order)).ok()


def test_coordinate_deletion_property():
    rng = random.Random(1)
    kept = 0
    while kept < 40:
        q = rng.randint(3, 5)
        r = rng.randint(2, q)
        n = rng.randint(2, 3)
        rows = [
            tuple(rng.randint(1, n) for _ in range(q))
            for _ in range(rng.randint(2, 5))
        ]
        family = fam(rows, r, n)
        t = rng.randint(1, r - 1)
        cropped_rows = [row[: q - t] for row in rows]
        if validate_increasing(family).ok():
            cropped = fam(cropped_rows, r - t, n)
            assert validate_increasing(cropped).ok()
            kept += 1
        if validate_comparable(family).ok():
            cropped = fam(cropped_rows, r - t, n)
            assert validate_comparable(cropped).ok()
            kept += 1


def test_cyclic_triple_witnesses_always_sound():
    rng = random.Random(2)
    found = 0
    while found < 10:
        q, n = 3, 3
        rows = {
            tuple(rng.randint(1, n) for _ in range(q))
            for _ in range(rng.randint(3, 6))
        }
        family = VectorFamily(tuple(gv(r, n) for r in sorted(rows)), 2)
        if not validate_comparable(family).ok():
            continue
        cert = find_cyclic_triple(family)
        if cert is None:
            continue
        assert certificate_is_sound(family, cert)
        assert min(
            len(cert.witness_a), len(cert.witness_b), len(cert.witness_c)
        ) >= family.r
        found += 1


def test_fail_pair_certificates_name_their_check():
    family = fam([(2, 2), (1, 1)], 1)  # comparable, not increasing
    cert = validate_increasing(family)
    assert (cert.pair, cert.check) == ((1, 2), "increasing")
    assert certificate_is_sound(family, cert)
    dup = fam([(1, 2), (1, 2)], 1)
    cert = validate_comparable(dup)
    assert (cert.pair, cert.check) == ((1, 2), "comparable")
    assert certificate_is_sound(dup, cert)


def test_forged_certificates_are_rejected():
    family = fam([(2, 2), (1, 1)], 1)
    forged = ComparabilityCertificate(Verdict.FAIL_PAIR, pair=(1, 2), check="comparable")
    assert not certificate_is_sound(family, forged)
    for pair in ((0, 1), (2, 1), (1, 3)):
        cert = ComparabilityCertificate(Verdict.FAIL_PAIR, pair=pair, check="increasing")
        assert not certificate_is_sound(family, cert)
    unsigned = ComparabilityCertificate(Verdict.FAIL_PAIR, pair=(1, 2))
    assert not certificate_is_sound(family, unsigned)
    assert not certificate_is_sound(family, INCREASING)
    assert certificate_is_sound(family, COMPARABLE)
    rps = fam([(1, 2, 3), (2, 3, 1), (3, 1, 2)], 2)
    cert = find_cyclic_triple(rps)
    shifted = ComparabilityCertificate(
        Verdict.CYCLIC_TRIPLE,
        triple=(0, 1, 2),
        witness_a=cert.witness_c,
        witness_b=cert.witness_a,
        witness_c=cert.witness_b,
    )
    assert not certificate_is_sound(rps, shifted)


def test_family_rejects_r_zero():
    with pytest.raises(ValueError):
        fam([(1, 1)], 0)


def test_family_json_roundtrip():
    family = fam([(1, 2, 3), (2, 3, 1)], 2, 3)
    again = VectorFamily.from_json(family.to_json())
    assert again == family
    assert again.to_json() == family.to_json()
