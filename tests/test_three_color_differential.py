"""``three_color_path`` against its label-based reference.

The finder works on rows of vertex positions; ``reference.three_color_path``
is the same step over label triples, with per-triangle ``color`` reads, a
set of kept edges and a scan of every vertex per step.  Both must return
the same ``PatternPathResult`` or raise the same exception, with the same
message, on random tournaments (N = 24-120, q = 3-5), near-transitive ones,
restrictions whose labels are not 1..N, every explicit support threshold
up to one above the top level, and transitive tournaments.
"""

import random

import pytest

from ramsey_pods.decomposition import NoCyclicTriangles, SupportTooHigh, three_color_path
from ramsey_pods.tournament import ColoredTournament, random_ordered_coloring, random_tournament

import reference


def _near_transitive(n: int, q: int, seed: int) -> ColoredTournament:
    """The transitive order 1..n with about 5% of its pairs reversed."""
    rng = random.Random(seed)
    edges = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            c = rng.randint(1, q)
            edges.append((v, u, c) if rng.random() < 0.05 else (u, v, c))
    return ColoredTournament(n, q, edges)


def _restricted(n: int, q: int, seed: int) -> ColoredTournament:
    """A random tournament on n of 2n vertices, so labels are not 1..n."""
    keep = random.Random(seed).sample(range(1, 2 * n + 1), n)
    return random_tournament(2 * n, q, seed=seed).restrict(keep)


def _outcome(t: ColoredTournament, finder, min_support=None):
    try:
        return finder(t, min_support)
    except (NoCyclicTriangles, SupportTooHigh) as exc:
        return type(exc), str(exc)


def _instances():
    out = []
    for seed in range(20):
        n, q = 24 + seed * 96 // 19, 3 + seed % 3
        out.append((f"random_n{n}_q{q}_s{seed}", random_tournament(n, q, seed=seed)))
    for n, q in ((24, 3), (48, 4), (60, 5)):
        out.append((f"near_n{n}_q{q}", _near_transitive(n, q, seed=n * q)))
    for n, q in ((20, 3), (40, 4), (64, 5)):
        out.append((f"restricted_n{n}_q{q}", _restricted(n, q, seed=n + q)))
    out.append(("transitive_n30_q3", random_ordered_coloring(30, 3, seed=3).as_tournament()))
    return out


INSTANCES = _instances()


@pytest.mark.parametrize("name,t", INSTANCES, ids=[name for name, _ in INSTANCES])
def test_three_color_matches_the_label_reference(name, t):
    assert _outcome(t, three_color_path) == _outcome(t, reference.three_color_path)


SMALL = [(name, t) for name, t in INSTANCES if t.n_vertices <= 48]


@pytest.mark.parametrize("name,t", SMALL, ids=[name for name, _ in SMALL])
def test_every_explicit_threshold_matches_the_label_reference(name, t):
    # thresholds 1, 2, ... up to the first that keeps no triangle; the one
    # below it is the top level, which the default threshold takes
    default = _outcome(t, three_color_path)
    m, last = 1, None
    while True:
        got = _outcome(t, three_color_path, m)
        assert got == _outcome(t, reference.three_color_path, m), m
        if isinstance(got, tuple):
            break
        m, last = m + 1, got
    if last is None:  # no cyclic triangle at any threshold
        assert got[0] is NoCyclicTriangles and default == got
    else:
        assert got[0] is SupportTooHigh and default == last
