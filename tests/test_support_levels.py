"""``_support_levels`` against a fixpoint support peel.

The peel at m drops every edge lying in fewer than m live triangles, with
the triangles through it, until nothing changes.  ``_support_levels`` gives
each triangle the largest m whose peel keeps it, in one pass; here the peel
is re-run from scratch for every m, on random, near-transitive and
relabelled tournaments, over every pattern bucket and over all cyclic
triangles at once (whose levels run higher).
"""

import random
from collections import Counter

import pytest

from ramsey_pods.decomposition import SupportTooHigh, _support_levels, three_color_path
from ramsey_pods.tournament import ColoredTournament, pattern_buckets, random_tournament


def _edges(tri):
    a, b, c = tri
    return {(a, b), (b, c), (c, a)}


def _fixpoint_peel(triangles, m) -> set[int]:
    """Indices of the triangles the peel at m keeps."""
    alive = set(range(len(triangles)))
    while True:
        support = Counter(e for i in alive for e in _edges(triangles[i]))
        weak = {e for e, s in support.items() if s < m}
        keep = {i for i in alive if not _edges(triangles[i]) & weak}
        if keep == alive:
            return alive
        alive = keep


def _near_transitive(n, q, seed):
    rng = random.Random(seed)
    edges = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            c = rng.randint(1, q)
            edges.append((v, u, c) if rng.random() < 0.05 else (u, v, c))
    return ColoredTournament(n, q, edges)


def _relabelled(t: ColoredTournament, seed: int) -> ColoredTournament:
    """The same tournament on labels 1..N shuffled."""
    perm = list(range(1, t.n_vertices + 1))
    random.Random(seed).shuffle(perm)
    return ColoredTournament(
        t.n_vertices, t.q, [(perm[u - 1], perm[v - 1], c) for u, v, c in t.edges()]
    )


def _instances():
    out = [(f"random_n{n}_q{q}", random_tournament(n, q, seed=n * q)) for n in (9, 20, 48) for q in (2, 3, 4)]
    out += [(f"near_n{n}_q{q}", _near_transitive(n, q, seed=n + q)) for n, q in ((30, 2), (60, 3))]
    out += [("relabelled_n24_q3", _relabelled(random_tournament(24, 3, seed=5), seed=6))]
    keep = random.Random(7).sample(range(1, 41), 20)
    out += [("restricted_n20_of_40_q3", random_tournament(40, 3, seed=40).restrict(keep))]
    return out


INSTANCES = _instances()


@pytest.mark.parametrize("name,t", INSTANCES, ids=[name for name, _ in INSTANCES])
def test_support_levels_match_the_fixpoint_peel(name, t):
    buckets = list(pattern_buckets(t).values())
    for triangles in [sum(buckets, [])] + buckets:
        levels = _support_levels(triangles)
        assert min(levels) >= 1
        for m in range(1, max(levels) + 2):
            kept = {i for i, lv in enumerate(levels) if lv >= m}
            assert kept == _fixpoint_peel(triangles, m), (name, m)


@pytest.mark.parametrize("name,t", INSTANCES, ids=[name for name, _ in INSTANCES])
def test_default_threshold_is_the_top_level(name, t):
    buckets = pattern_buckets(t)
    pattern = min(buckets, key=lambda p: (-len(buckets[p]), p))
    top = max(_support_levels(buckets[pattern]))
    assert three_color_path(t) == three_color_path(t, top)
    with pytest.raises(SupportTooHigh):
        three_color_path(t, top + 1)
