"""Acceptance suite: one test per criterion, each printing a pass/fail line
and holding its stated wall-clock budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from ramsey_pods.budget import Budget
from ramsey_pods.constructions import canonical_coloring, lex_product
from ramsey_pods.core import (
    Comparison,
    GridVector,
    VectorFamily,
    compare_r,
    find_cyclic_triple,
    reordered,
    transitive_order,
    validate_increasing,
)
from ramsey_pods.decomposition import (
    NoCyclicTriangles,
    audit_pattern_path,
    recursive_color_avoiding,
    three_color_path,
)
from ramsey_pods.paths import (
    longest_avoiding_directed_exact,
    longest_restricted_monotone,
    validate_path,
)
from ramsey_pods.pods import Packing, Pod, pod_voxels
from ramsey_pods.search import EXACT, exact_F, exact_G, exact_f
from ramsey_pods.tournament import (
    ColoredTournament,
    clean_degrees,
    cyclic_triangles,
    random_ordered_coloring,
    random_tournament,
)

from reference import pods_disjoint_voxel


@contextmanager
def criterion(number: int, limit_seconds: float, detail: str):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL: {detail}")
        raise
    elapsed = time.monotonic() - t0
    line = f"criterion {number}: PASS: {detail} ({elapsed:.2f}s < {limit_seconds:.0f}s)"
    print(line)
    assert elapsed < limit_seconds, line


def test_criterion_01_closed_forms():
    with criterion(1, 10, "F(q,1,n) = n^q and F(q,q,n) = n on the stated grid"):
        for q in (1, 2, 3):
            for n in (1, 2):
                rec = exact_F(q, 1, n)
                assert rec.status == EXACT and rec.value == n**q, (q, n, rec.value)
        for q in (1, 2, 3, 4):
            for n in (1, 2, 3, 4):
                rec = exact_F(q, q, n)
                assert rec.status == EXACT and rec.value == n, (q, n, rec.value)


def test_criterion_02_square_root_tightness():
    with criterion(2, 1, "exact_f(2,1,4) = 2 against full 2^6 enumeration"):
        edges = [(u, v) for u in range(1, 5) for v in range(u + 1, 5)]
        best = 5
        for assignment in itertools.product((1, 2), repeat=6):
            coloring = dict(zip(edges, assignment))
            longest = 1
            tail = {v: {1: 1, 2: 1} for v in range(1, 5)}
            for v in range(1, 5):
                for u in range(1, v):
                    c = coloring[(u, v)]
                    tail[v][c] = max(tail[v][c], tail[u][c] + 1)
                longest = max(longest, max(tail[v].values()))
            best = min(best, longest)
        assert best == 2
        rec = exact_f(2, 1, 4)
        assert rec.status == EXACT and rec.value == 2
        witness = canonical_coloring(2, 2)
        attained = max(
            longest_restricted_monotone(witness, {c}).length for c in (1, 2)
        )
        assert attained == 2


def test_criterion_03_lex_product_exactness():
    with criterion(3, 30, "200 random products multiply for every color subset"):
        rng = random.Random(303)
        for trial in range(200):
            q = rng.randint(1, 3)
            k1 = random_ordered_coloring(rng.randint(1, 6), q, seed=2 * trial)
            k2 = random_ordered_coloring(rng.randint(1, 6), q, seed=2 * trial + 1)
            prod = lex_product(k1, k2)
            for size in range(1, q + 1):
                for subset in itertools.combinations(range(1, q + 1), size):
                    left = longest_restricted_monotone(k1, subset).length
                    right = longest_restricted_monotone(k2, subset).length
                    together = longest_restricted_monotone(prod, subset).length
                    assert together == left * right, (trial, subset)


def test_criterion_04_increasing_equals_comparable_above_two_thirds():
    with criterion(4, 120, "[2]^4, r=3: every comparable family orders; F = G"):
        q, r, n = 4, 3, 2
        vecs = [
            GridVector(c, n) for c in itertools.product(range(1, n + 1), repeat=q)
        ]
        comp = {
            (i, j): compare_r(vecs[i], vecs[j], r) is not Comparison.INCOMPARABLE
            for i in range(len(vecs))
            for j in range(i + 1, len(vecs))
        }
        families = []

        def grow(cur, start):
            if cur:
                families.append(list(cur))
            for j in range(start, len(vecs)):
                if all(comp[(min(i, j), max(i, j))] for i in cur):
                    grow(cur + [j], j + 1)

        grow([], 0)
        assert families
        for idxs in families:
            family = VectorFamily(tuple(vecs[i] for i in idxs), r)
            assert find_cyclic_triple(family) is None
            order = transitive_order(family)
            assert isinstance(order, tuple)
            assert validate_increasing(reordered(family, order)).ok()
        rec_f = exact_F(q, r, n)
        rec_g = exact_G(q, r, n)
        assert rec_f.status == rec_g.status == EXACT
        assert rec_f.value == rec_g.value


def test_criterion_05_pod_equivalence():
    with criterion(5, 60, "voxel and comparability oracles agree; 10-voxel regression"):
        assert len(pod_voxels(Pod(3, 2, 4, GridVector((1, 1, 1), 4)))) == 10
        for (q, r, sides) in [(3, 2, (2, 3)), (4, 3, (2,))]:
            for n in sides:
                apices = list(itertools.product(range(1, n + 1), repeat=q))
                pods = [Pod(q, r, n, GridVector(a, n)) for a in apices]
                for i in range(len(pods)):
                    for j in range(i, len(pods)):
                        assert Packing.of((pods[i], pods[j])).valid == pods_disjoint_voxel(
                            pods[i], pods[j]
                        )


def test_criterion_06_vector_coloring_round_trip():
    with criterion(6, 600, "f(3,2,N) <= n iff F(3,2,n) >= N on exact values"):
        budget = Budget(max_seconds=120)
        f_vals = {}
        for n_vertices in range(1, 7):
            rec = exact_f(3, 2, n_vertices, budget)
            assert rec.status == EXACT, f"f(3,2,{n_vertices}) did not close"
            f_vals[n_vertices] = rec.value
        big_f = {}
        for n in range(1, 5):
            rec = exact_F(3, 2, n, budget)
            assert rec.status == EXACT, f"F(3,2,{n}) did not close"
            big_f[n] = rec.value
        for n_vertices in range(1, 7):
            for n in range(1, 5):
                assert (f_vals[n_vertices] <= n) == (big_f[n] >= n_vertices), (
                    n_vertices,
                    n,
                    f_vals[n_vertices],
                    big_f[n],
                )


def test_criterion_07_submultiplicativity():
    with criterion(7, 300, "f(2,1,2) * f(2,1,3) >= f(2,1,6), witnessed by a product"):
        rec2 = exact_f(2, 1, 2)
        rec3 = exact_f(2, 1, 3)
        rec6 = exact_f(2, 1, 6)
        assert rec2.status == rec3.status == rec6.status == EXACT
        assert rec2.value * rec3.value >= rec6.value
        from ramsey_pods.tournament import OrderedColoring

        w2 = OrderedColoring.from_json(rec2.certificate)
        w3 = OrderedColoring.from_json(rec3.certificate)
        product = lex_product(w2, w3)
        assert product.n_vertices == 6
        value = max(
            longest_restricted_monotone(product, {c}).length for c in (1, 2)
        )
        assert rec6.value <= value <= rec2.value * rec3.value


def test_criterion_08_triangle_identity():
    with criterion(8, 10, "100 random tournaments: count matches the out-degree identity"):
        rng = random.Random(808)
        for trial in range(100):
            n = rng.randint(3, 50)
            t = random_tournament(n, 2, seed=trial)
            count, _ = cyclic_triangles(t)
            identity = math.comb(n, 3) - sum(
                math.comb(t.out_degree(v), 2) for v in t.vertices
            )
            assert count == identity


def test_criterion_09_pattern_path_soundness():
    with criterion(9, 60, "50 random N=60 q=5 builds pass the square-of-path audits"):
        for seed in range(50):
            t = random_tournament(60, 5, seed=seed)
            result = three_color_path(t)
            cert = result.certificate
            assert audit_pattern_path(t, cert) is None
            used = {
                t.color(a, b) for a, b in zip(cert.vertices, cert.vertices[1:])
            }
            assert len(used) <= 3
        for seed in range(5):
            rng = random.Random(seed)
            n = 30
            t = ColoredTournament(
                n,
                5,
                (
                    (u, v, rng.randint(1, 5))
                    for u in range(1, n + 1)
                    for v in range(u + 1, n + 1)
                ),
            )
            try:
                three_color_path(t)
                raise AssertionError("transitive input must report no cyclic triangles")
            except NoCyclicTriangles:
                pass


def test_criterion_10_decomposition_soundness_and_floor():
    with criterion(10, 300, "100-instance suite: validated, bracketed, and exact on monochromes"):
        rng = random.Random(1010)
        instances = 0
        # small instances against the exact oracle
        for trial in range(62):
            n = rng.randint(3, 12)
            q = rng.randint(3, 4)
            t = random_tournament(n, q, seed=trial)
            color, cert = recursive_color_avoiding(t)
            assert validate_path(t, cert) is None
            assert cert.length <= longest_avoiding_directed_exact(t, color).length
            assert cert.length >= math.ceil(n ** (1.0 / (q - 1)) - 1e-9)
            instances += 1
        # monochromatic transitive instances return the whole order
        for n in range(5, 25):
            t = ColoredTournament(
                n, 2, ((u, v, 1) for u in range(1, n + 1) for v in range(u + 1, n + 1))
            )
            color, cert = recursive_color_avoiding(t)
            assert (color, cert.length) == (2, n)
            instances += 1
        # medium instances: certified and above the merged-color floor
        for trial in range(18):
            n = rng.randint(23, 34)
            q = rng.choice((3, 4, 5))
            t = random_tournament(n, q, seed=5000 + trial)
            color, cert = recursive_color_avoiding(t)
            assert validate_path(t, cert) is None
            assert cert.length >= math.ceil(n ** (1.0 / (q - 1)) - 1e-9)
            instances += 1
        assert instances == 100


def test_criterion_11_degree_cleaning_postconditions():
    with criterion(11, 30, "100 random close instances: size and degree bounds audited"):
        rng = random.Random(1111)
        for trial in range(100):
            n0 = rng.randint(16, 40)
            delta = Fraction(1, 4)
            max_flips = int(delta * delta * n0 * n0)
            pairs = [(u, v) for u in range(1, n0 + 1) for v in range(u + 1, n0 + 1)]
            flipped = set(
                rng.sample(pairs, rng.randint(0, min(max_flips, len(pairs))))
            )
            edges = [
                (v, u, rng.randint(1, 3)) if (u, v) in flipped else (u, v, rng.randint(1, 3))
                for (u, v) in pairs
            ]
            t = ColoredTournament(n0, 3, edges)
            order = tuple(range(1, n0 + 1))
            sub, kept = clean_degrees(t, order, delta)
            n = sub.n_vertices
            assert Fraction(n) >= (1 - delta) * n0
            assert set(kept) == set(sub.vertices)
            assert kept == tuple(v for v in order if v in set(kept))
            pos = {v: i for i, v in enumerate(kept)}
            for v in kept:
                bad = sum(
                    1
                    for w in kept
                    if w != v
                    and (t.has_edge(w, v) if pos[v] < pos[w] else t.has_edge(v, w))
                )
                assert Fraction(bad) <= 4 * delta * n
