"""The numpy dominance kernel against pure-Python pair loops.

Every all-pairs user of the threshold relation (the two validators,
``transitive_order``, ``find_cyclic_triple``, ``Packing.of`` and the bitmask
rows of ``exact_F``/``exact_G``) is compared with a loop over pairs kept
here, on seeded random families.  The block size is shrunk in some runs so
that families of a few rows already span many row blocks.
"""

import itertools
import random

import numpy as np
import pytest

from ramsey_pods import core
from ramsey_pods.core import (
    GridVector,
    VectorFamily,
    Verdict,
    certificate_is_sound,
    find_cyclic_triple,
    transitive_order,
    validate_comparable,
    validate_increasing,
)
from ramsey_pods.pods import Packing, Pod, pods_disjoint_voxel
from ramsey_pods.tournament import _rows

BLOCK_CELLS = (1, 37, 1 << 18)


def below(x, y, r) -> bool:
    """y is strictly larger than x in at least r coordinates."""
    return sum(1 for a, b in zip(x, y) if a < b) >= r


def loop_first_increasing(rows, r):
    for a, b in itertools.combinations(range(len(rows)), 2):
        if not below(rows[a], rows[b], r):
            return a + 1, b + 1
    return None


def loop_first_comparable(rows, r):
    for a, b in itertools.combinations(range(len(rows)), 2):
        if not below(rows[a], rows[b], r) and not below(rows[b], rows[a], r):
            return a + 1, b + 1
    return None


def loop_transitive_order(rows, r):
    """Drain smallest index first; a pair related both ways points to the higher index."""
    m = len(rows)
    beats = [set() for _ in range(m)]
    indeg = [0] * m
    for a, b in itertools.combinations(range(m), 2):
        if below(rows[a], rows[b], r):
            beats[a].add(b)
            indeg[b] += 1
        else:
            beats[b].add(a)
            indeg[a] += 1
    order, removed = [], [False] * m
    for _ in range(m):
        src = next((v for v in range(m) if not removed[v] and indeg[v] == 0), None)
        if src is None:
            return None
        removed[src] = True
        order.append(src + 1)
        for w in beats[src]:
            indeg[w] -= 1
    return tuple(order)


def loop_cyclic_triple(rows, r):
    for a, b, c in itertools.combinations(range(len(rows)), 3):
        for i, j, k in ((a, b, c), (a, c, b)):
            if below(rows[i], rows[j], r) and below(rows[j], rows[k], r) and below(rows[k], rows[i], r):
                return i + 1, j + 1, k + 1
    return None


def _random_rows(rng, q, n, m):
    rows = [tuple(rng.randint(1, n) for _ in range(q)) for _ in range(m)]
    if rng.random() < 0.3:  # duplicates
        rows += rng.sample(rows, rng.randint(1, m))
        rng.shuffle(rows)
    if rng.random() < 0.5:
        rows.sort(key=sum)
    return rows


def _lex_rows(rng, q, n):
    """Distinct vectors in lexicographic order (1-increasing), one pair swapped at random."""
    rows = sorted(set(tuple(rng.randint(1, n) for _ in range(q)) for _ in range(40)))
    if len(rows) > 1 and rng.random() < 0.7:
        i = rng.randrange(len(rows) - 1)
        rows[i], rows[i + 1] = rows[i + 1], rows[i]
    return rows


def _validator_cases():
    rng = random.Random(11)
    for trial in range(60):
        q, n = rng.randint(1, 6), rng.randint(1, 5)
        if trial % 3:
            rows = _random_rows(rng, q, n, rng.randint(1, 40))
        else:
            rows = _lex_rows(rng, q, n)
        for r in range(1, q + 1):
            yield rows, r, n


def _comparable_rows(rng, q, n, r, tries):
    kept = []
    for _ in range(tries):
        v = tuple(rng.randint(1, n) for _ in range(q))
        if all(below(u, v, r) or below(v, u, r) for u in kept):
            kept.append(v)
    return kept


@pytest.mark.parametrize("cells", BLOCK_CELLS)
def test_validators_match_pair_loop(monkeypatch, cells):
    monkeypatch.setattr(core, "_BLOCK_CELLS", cells)
    for rows, r, n in _validator_cases():
        family = VectorFamily.from_coords(rows, r, n)
        for check, loop in (
            (validate_increasing, loop_first_increasing),
            (validate_comparable, loop_first_comparable),
        ):
            cert = check(family)
            want = loop(rows, r)
            assert cert.pair == want, (rows, r, check.__name__)
            assert cert.ok() == (want is None)
            assert certificate_is_sound(family, cert)


@pytest.mark.parametrize("cells", BLOCK_CELLS)
def test_order_and_cyclic_triple_match_pair_loop(monkeypatch, cells):
    monkeypatch.setattr(core, "_BLOCK_CELLS", cells)
    rng = random.Random(12)
    cycles = 0
    for _ in range(80):
        q, n = rng.randint(1, 6), rng.randint(2, 4)
        r = rng.randint(1, q)
        rows = _comparable_rows(rng, q, n, r, rng.randint(1, 60))
        family = VectorFamily.from_coords(rows, r, n)
        want_triple = loop_cyclic_triple(rows, r)
        want_order = loop_transitive_order(rows, r)
        triple = find_cyclic_triple(family)
        order = transitive_order(family)
        if want_triple is None:
            assert triple is None
        else:
            cycles += 1
            assert triple.triple == want_triple
            assert certificate_is_sound(family, triple)
        if want_order is None:
            assert order == triple
        else:
            assert order == want_order
    assert cycles >= 5


def test_packing_validity_matches_voxels():
    rng = random.Random(13)
    for _ in range(60):
        q, n = rng.randint(1, 3), rng.randint(1, 3)
        r = rng.randint(1, q)
        grid = list(itertools.product(range(1, n + 1), repeat=q))
        apices = [rng.choice(grid) for _ in range(rng.randint(1, 5))]
        packing = Packing.from_apices(q, r, n, apices)
        pods = [Pod(q, r, n, GridVector(a, n)) for a in apices]
        clashes = [
            (i + 1, j + 1)
            for i, j in itertools.combinations(range(len(pods)), 2)
            if not pods_disjoint_voxel(pods[i], pods[j])
        ]
        assert packing.valid == (not clashes)
        assert packing.certificate.pair == (clashes[0] if clashes else None)


def test_bitmask_rows_match_pair_loop():
    for q, r, n in [(1, 1, 5), (2, 1, 3), (2, 2, 4), (3, 2, 3), (3, 1, 2), (4, 3, 2), (3, 3, 3)]:
        vecs = list(itertools.product(range(1, n + 1), repeat=q))
        m = len(vecs)
        greater = [0] * m  # exact_F's rows: bit j iff vecs[j] is above vecs[i]
        adj = [0] * m  # exact_G's rows: bit j iff the pair is comparable
        for i, j in itertools.product(range(m), repeat=2):
            if i != j and below(vecs[i], vecs[j], r):
                greater[i] |= 1 << j
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        rel = core._below(np.array(vecs), r)
        assert _rows(rel) == greater
        assert _rows(rel | rel.T) == adj


def test_empty_array_has_empty_relation():
    assert core._below(np.zeros((0, 3), dtype=int), 1).shape == (0, 0)


def test_wide_family_counts_past_255():
    """q = 300: a count that wrapped at 256 would misjudge these thresholds."""
    rng = random.Random(14)
    q = 300
    diagonal = [tuple([k] * q) for k in range(1, 6)]
    mixed = [tuple(rng.randint(1, 2) for _ in range(q)) for _ in range(12)]
    # rows that beat the first in exactly 260..299 coordinates
    partial = [diagonal[0]] + [tuple([2] * s + [1] * (q - s)) for s in (260, 280, 299)]
    for rows in (diagonal, diagonal[::-1], mixed, partial):
        for r in (1, 100, 256, 270, 299, 300):
            family = VectorFamily.from_coords(rows, r)
            assert validate_increasing(family).pair == loop_first_increasing(rows, r)
            assert validate_comparable(family).pair == loop_first_comparable(rows, r)
    family = VectorFamily.from_coords(diagonal, q)
    assert validate_increasing(family).verdict is Verdict.INCREASING
    assert transitive_order(VectorFamily.from_coords(diagonal[::-1], q)) == (5, 4, 3, 2, 1)
