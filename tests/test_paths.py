import math
import random

import pytest

from ramsey_pods.budget import BudgetExceeded
from ramsey_pods.decomposition import _scale
from ramsey_pods.paths import (
    PathCertificate,
    PathConstraint,
    SubsetPathOracle,
    ell_avoid_monotone,
    longest_avoiding_directed_exact,
    longest_restricted_monotone,
    validate_path,
)
from ramsey_pods.tournament import (
    ColoredTournament,
    OrderedColoring,
    random_ordered_coloring,
    random_tournament,
)


def mono_clique(n, q=1, color=1):
    return OrderedColoring(
        n, q, ((u, v, color) for u in range(1, n + 1) for v in range(u + 1, n + 1))
    )


def small_k():
    return OrderedColoring(3, 2, [(1, 2, 1), (2, 3, 2), (1, 3, 1)])


def test_restricted_monotone_examples():
    cert = longest_restricted_monotone(small_k(), {1})
    assert cert.length == 2
    assert cert.vertices == (1, 2)  # lex-least among (1,2) and (1,3)
    cert = longest_restricted_monotone(small_k(), {1, 2})
    assert cert.length == 3
    cert = longest_restricted_monotone(mono_clique(5, q=2, color=1), {2})
    assert cert.length == 1


def test_ell_avoid_monotone_examples():
    assert ell_avoid_monotone(small_k(), 1).vertices == (2, 3)
    assert ell_avoid_monotone(small_k(), 2).vertices == (1, 2)
    assert ell_avoid_monotone(mono_clique(4), 1).length == 1


def test_monotone_dp_equals_exhaustive():
    rng = random.Random(0)
    for trial in range(40):
        n = rng.randint(1, 8)
        q = rng.randint(1, 3)
        k = random_ordered_coloring(n, q, seed=trial)
        allowed = frozenset(
            rng.sample(range(1, q + 1), rng.randint(1, q))
        )
        best = 1
        stack = [(v,) for v in range(1, n + 1)]
        while stack:
            path = stack.pop()
            best = max(best, len(path))
            for w in range(path[-1] + 1, n + 1):
                if k.color(path[-1], w) in allowed:
                    stack.append(path + (w,))
        assert longest_restricted_monotone(k, allowed).length == best


def test_directed_exact_examples():
    cyc = ColoredTournament(3, 2, [(1, 2, 1), (2, 3, 1), (3, 1, 1)])
    assert longest_avoiding_directed_exact(cyc, 2).length == 3
    assert longest_avoiding_directed_exact(cyc, 1).length == 1


def test_directed_exact_matches_enumeration():
    rng = random.Random(1)
    for trial in range(25):
        n = rng.randint(2, 10)
        q = rng.randint(2, 3)
        t = random_tournament(n, q, seed=trial)
        i = rng.randint(1, q)
        allowed = frozenset(c for c in range(1, q + 1) if c != i)
        best = 1
        stack = [((v,), frozenset((v,))) for v in t.vertices]
        while stack:
            path, used = stack.pop()
            best = max(best, len(path))
            for w in t.vertices:
                if w not in used and t.has_edge(path[-1], w) and t.color(path[-1], w) in allowed:
                    stack.append((path + (w,), used | {w}))
        cert = longest_avoiding_directed_exact(t, i)
        assert cert.length == best
        assert validate_path(t, cert) is None


def test_monotone_directed_consistency_on_transitive():
    for seed in range(10):
        n = random.Random(seed).randint(2, 12)
        k = random_ordered_coloring(n, 3, seed=seed)
        t = k.as_tournament()
        for i in range(1, 4):
            assert (
                ell_avoid_monotone(k, i).length
                == longest_avoiding_directed_exact(t, i).length
            )


def test_monochromatic_floor_over_singletons():
    # any tournament has a single-color path of length at least N^(1/q)
    for seed in range(10):
        n = random.Random(seed).randint(3, 12)
        q = random.Random(seed + 50).randint(2, 3)
        t = random_tournament(n, q, seed=seed)
        best = max(
            SubsetPathOracle(t, {c}).longest()
            for c in range(1, q + 1)
        )
        assert best >= math.ceil(n ** (1.0 / q) - 1e-9)


def test_scale_pinned_values():
    s, delta = _scale(16, 1280)  # gamma = 1/128
    assert s == 20
    assert delta == pytest.approx(1 / 1024)
    assert _scale(16, 64)[0] == 1  # clamped floor
    assert _scale(4, 100)[1] == pytest.approx(1.0 / (64 * 2 ** math.sqrt(2)))


def test_scale_ranking_size_from_delta():
    # s = 2 gamma n = 16 delta n before rounding, clamped to [1, n // 16]
    for q in (2, 4, 7, 16):
        for n in (10, 100, 999, 5000):
            s, delta = _scale(q, n)
            assert s == max(1, min(math.floor(16 * delta * n), n // 16))


def test_gamma_matches_profile_example():
    assert 8 * _scale(16, 1)[1] == pytest.approx(1 / 128)


def test_validate_path_examples():
    k = small_k()
    good = PathCertificate("monotone", PathConstraint(avoid=2), (1, 2))
    assert validate_path(k, good) is None
    dup = PathCertificate("monotone", PathConstraint(avoid=2), (1, 2, 1))
    assert "duplicate" in validate_path(k, dup)
    wrong_color = PathCertificate("monotone", PathConstraint(avoid=1), (1, 2))
    assert "color" in validate_path(k, wrong_color)
    backwards = PathCertificate("monotone", PathConstraint(avoid=2), (2, 1))
    assert "increasing" in validate_path(k, backwards)


def test_validate_path_directed():
    cyc = ColoredTournament(3, 2, [(1, 2, 1), (2, 3, 1), (3, 1, 1)])
    good = PathCertificate("directed", PathConstraint(avoid=2), (1, 2, 3))
    assert validate_path(cyc, good) is None
    bad = PathCertificate("directed", PathConstraint(avoid=2), (2, 1))
    assert "wrong way" in validate_path(cyc, bad)


def test_budget_cap_raises_with_fallback():
    t = random_tournament(24, 2, seed=4)
    with pytest.raises(BudgetExceeded) as exc:
        longest_avoiding_directed_exact(t, 1)
    best = exc.value.best
    assert best is not None
    assert validate_path(t, best) is None
    assert best.constraint.avoid == 1


def test_certificate_json_roundtrip():
    cert = PathCertificate("directed", PathConstraint(avoid=3), (4, 2, 7))
    assert PathCertificate.from_json(cert.to_json()) == cert
    cert = PathCertificate("monotone", PathConstraint(allow=frozenset({1, 2})), (1, 5))
    assert PathCertificate.from_json(cert.to_json()) == cert


def test_subset_oracle_respects_subset():
    t = random_tournament(10, 2, seed=6)
    oracle = SubsetPathOracle(t, frozenset({1, 2}), vertices=(2, 4, 6, 8))
    path = oracle.lex_least_longest()
    assert set(path) <= {2, 4, 6, 8}
    for a, b in zip(path, path[1:]):
        assert t.has_edge(a, b)


def test_subset_oracle_rejects_empty_subset():
    with pytest.raises(ValueError):
        SubsetPathOracle(random_tournament(4, 2, seed=0), frozenset({1}), vertices=())


def test_subset_oracle_rejects_a_repeated_label():
    # on the 3-cycle 1 -> 2 -> 3 -> 1 a repeated 1 would close the cycle
    # into the "path" (1, 2, 3, 1) of length 4
    cycle = ColoredTournament(3, 1, [(1, 2, 1), (2, 3, 1), (3, 1, 1)])
    with pytest.raises(ValueError, match="vertex 1 listed twice"):
        SubsetPathOracle(cycle, {1}, [1, 1, 2, 3]).lex_least_longest()
