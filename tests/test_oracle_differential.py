"""SubsetPathOracle against implementations outside the package.

Small instances are checked against every directed path enumerated as a
permutation of a vertex subset; transitive tournaments, whose allowed edges
form a DAG, against networkx's DAG longest path.  At 18-22 vertices, beyond
the enumeration, ``lex_least_longest`` is checked against a walk that
rescans a whole level of the start table per placed vertex.
"""

import itertools
import random

import pytest

from reference import lex_least_longest_rescan

from ramsey_pods.paths import SubsetPathOracle
from ramsey_pods.tournament import ColoredTournament, random_tournament


def _is_path(t, allowed, seq) -> bool:
    return len(set(seq)) == len(seq) and all(
        t.has_edge(a, b) and t.color(a, b) in allowed for a, b in zip(seq, seq[1:])
    )


def _all_paths(t, allowed, labels) -> list[tuple[int, ...]]:
    return [
        seq
        for r in range(1, len(labels) + 1)
        for seq in itertools.permutations(labels, r)
        if _is_path(t, allowed, seq)
    ]


def _cases():
    rng = random.Random(7)
    for trial in range(40):
        q = rng.randint(1, 3)
        n = rng.randint(1, 10)
        t = random_tournament(n, q, seed=trial)
        allowed = frozenset(rng.sample(range(1, q + 1), rng.randint(1, q)))
        if n <= 8 and trial % 3:
            yield t, allowed, None
        else:  # a vertex subset of at most 8 labels
            yield t, allowed, tuple(sorted(rng.sample(t.vertices, rng.randint(1, min(n, 8)))))


@pytest.mark.parametrize("t,allowed,subset", list(_cases()))
def test_oracle_matches_path_enumeration(t, allowed, subset):
    oracle = SubsetPathOracle(t, allowed, subset)
    labels = oracle.labels
    paths = _all_paths(t, allowed, labels)
    best = max(map(len, paths))
    assert oracle.longest() == best
    want_from = {v: max(len(p) for p in paths if p[0] == v) for v in labels}
    want_to = {v: max(len(p) for p in paths if p[-1] == v) for v in labels}
    assert oracle.lengths_from() == want_from
    assert oracle.lengths_to() == want_to
    for v in labels:
        assert oracle.longest_from(v) == want_from[v]
        assert oracle.longest_to(v) == want_to[v]
        forward = oracle.path_from(v)
        assert forward[0] == v and len(forward) == want_from[v]
        assert set(forward) <= set(labels) and _is_path(t, allowed, forward)
        backward = oracle.path_to(v)
        assert backward[-1] == v and len(backward) == want_to[v]
        assert set(backward) <= set(labels) and _is_path(t, allowed, backward)
    assert oracle.lex_least_longest() == min(p for p in paths if len(p) == best)


def _transitive(n: int, q: int, seed: int) -> ColoredTournament:
    """Edges follow a random vertex order, with random colors."""
    rng = random.Random(seed)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = [
        (order[a], order[b], rng.randint(1, q))
        for a in range(n)
        for b in range(a + 1, n)
    ]
    return ColoredTournament(n, q, edges)


def test_transitive_longest_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(11)
    for seed in range(24):
        n = rng.randint(1, 18)
        q = rng.randint(2, 4)
        t = _transitive(n, q, seed)
        allowed = frozenset(rng.sample(range(1, q + 1), rng.randint(1, q - 1)))
        dag = nx.DiGraph()
        dag.add_nodes_from(t.vertices)
        dag.add_edges_from((u, v) for u, v, c in t.edges() if c in allowed)
        oracle = SubsetPathOracle(t, allowed)
        assert oracle.longest() == len(nx.dag_longest_path(dag))
        assert _is_path(t, allowed, oracle.lex_least_longest())


@pytest.mark.parametrize("n", range(18, 23))
def test_lex_least_longest_matches_a_level_rescan(n):
    # at q = 5 and 8 a single color leaves anything from short paths with
    # several optimal vertex sets to near-Hamiltonian ones; the packed
    # oracles past the first read their table at a nonzero shift
    for seed, q in itertools.product((1, 2, 3), (5, 8)):
        t = random_tournament(n, q, seed=seed)
        allowed_sets = [frozenset({1}), frozenset({2}), frozenset({1, 2})]
        for allowed, oracle in zip(allowed_sets, SubsetPathOracle.packed(t, allowed_sets)):
            want = lex_least_longest_rescan(oracle)
            assert oracle.lex_least_longest() == want, (seed, q, sorted(allowed))
