import json
import math
import random
from pathlib import Path

import pytest

from ramsey_pods import decomposition
from ramsey_pods.constructions import canonical_coloring
from ramsey_pods.decomposition import (
    AuditFailed,
    DegenerateScale,
    NoCyclicTriangles,
    SupportTooHigh,
    _level_paths,
    audit_pattern_path,
    build_gluing,
    classify_colors,
    merged_color_baseline,
    recursive_color_avoiding,
    three_color_path,
)
from ramsey_pods.paths import (
    ProofParameters,
    SubsetPathOracle,
    longest_avoiding_directed_exact,
    validate_path,
)
from ramsey_pods.tournament import ColoredTournament, random_tournament


def transitive(n, q):
    return ColoredTournament(
        n, q, ((u, v, 1) for u in range(1, n + 1) for v in range(u + 1, n + 1))
    )


def near_transitive(n, q, flip_rate, seed):
    rng = random.Random(seed)
    edges = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            c = rng.randint(1, q)
            if rng.random() < flip_rate:
                edges.append((v, u, c))
            else:
                edges.append((u, v, c))
    return ColoredTournament(n, q, edges)


# ---------------------------------------------------------------------------
# triangle-pattern paths


def test_three_color_transitive_raises():
    with pytest.raises(NoCyclicTriangles):
        three_color_path(transitive(6, 2))


def test_three_color_single_triangle():
    t = ColoredTournament(3, 3, [(1, 2, 1), (2, 3, 2), (3, 1, 3)])
    res = three_color_path(t, min_support=1)
    assert res.certificate.vertices == (1, 2, 3)
    assert res.pattern == (1, 2, 3)
    assert audit_pattern_path(t, res.certificate) is None


def test_three_color_support_too_high():
    t = ColoredTournament(3, 3, [(1, 2, 1), (2, 3, 2), (3, 1, 3)])
    with pytest.raises(SupportTooHigh):
        three_color_path(t, min_support=5)


def test_three_color_random_audits():
    for seed in range(8):
        t = random_tournament(40, 4, seed=seed)
        res = three_color_path(t)
        assert audit_pattern_path(t, res.certificate) is None
        edge_colors = {
            t.color(a, b)
            for a, b in zip(res.certificate.vertices, res.certificate.vertices[1:])
        }
        assert edge_colors <= set(res.pattern)


def test_pattern_audit_catches_violations():
    t = transitive(4, 2)
    from ramsey_pods.paths import PathCertificate, PathConstraint

    cert = PathCertificate("directed", PathConstraint(allow=frozenset({1})), (1, 2, 3))
    # forward path in a transitive tournament: distance-two edge points forward
    assert "backward" in audit_pattern_path(t, cert)


# ---------------------------------------------------------------------------
# classification


def test_classify_monochromatic_long_short_split():
    n = 32
    t = transitive(n, 2)
    order = tuple(range(1, n + 1))
    params = ProofParameters(q=2, n_vertices=n, gamma=1 / 8, p=1, s=1, delta=1 / 64)
    cls = classify_colors(t, order, params)
    assert cls.x_sets[1] == (1,)  # ties rank the earliest labels, outside B


def test_classify_interval_and_ranking_sizes():
    for seed in range(5):
        n = 36
        q = 3
        t = near_transitive(n, q, 0.0, seed)
        order = tuple(range(1, n + 1))
        params = ProofParameters(q=q, n_vertices=n, gamma=0.05, p=2, s=2, delta=0.01)
        cls = classify_colors(t, order, params)
        s = params.s
        assert len(cls.interval_b) == 4 * s
        assert len(cls.interval_c) == 4 * s
        assert len(cls.interval_a) == n // 2 - 4 * s
        for i in range(1, q + 1):
            assert len(cls.x_sets[i]) == s
            assert len(cls.y_sets[i]) == s


FLAG_CASES = [
    (20, 3, 5, 1.0, []),  # every color has a Hamiltonian path: all long
    (20, 3, 5, 1.05, [1, 3]),  # none long; color 2's top endpoint is in B
    (36, 3, 0, 31 / 36, [1]),  # level estimates 30, 32, 32
    (36, 2, 3, 0.75, [2]),  # estimates 27, 24; color 1 condensed
]


def test_classify_flags_recomputable():
    for n, q, seed, gamma, want in FLAG_CASES:
        t = random_tournament(n, q, seed=seed)
        verts = tuple(range(1, n + 1))
        params = ProofParameters(
            q=q, n_vertices=n, gamma=gamma, p=2, s=1, delta=0.01
        )
        cls = classify_colors(t, verts, params)
        expected = []
        for i in range(1, q + 1):
            allowed = frozenset(range(1, q + 1)) - {i}
            if n <= 22:  # exact over the whole node, else the level estimate
                whole = SubsetPathOracle(t, allowed).longest()
            else:
                levels, _ = _level_paths(t.allowed_masks(verts, allowed), verts)
                whole = max(levels.values())
            long = whole >= gamma * n
            b_set = set(cls.interval_b)
            condensed = 2 * len(set(cls.x_sets[i]) & b_set) >= params.s
            if not long and not condensed:
                expected.append(i)
        assert expected == want, (n, q, seed, gamma)


def test_classify_ranking_audit():
    # nobody outside X_i beats the weakest member of X_i
    n, q = 48, 3
    t = near_transitive(n, q, 0.02, 13)
    order = tuple(range(1, n + 1))
    params = ProofParameters(q=q, n_vertices=n, gamma=0.08, p=2, s=3, delta=0.01)
    cls = classify_colors(t, order, params)
    left = cls.interval_a + cls.interval_b
    for i in range(1, q + 1):
        inside = min(cls.ell_in[i][v] for v in cls.x_sets[i])
        for v in left:
            if v not in cls.x_sets[i]:
                assert cls.ell_in[i][v] <= inside


def test_classify_witness_paths_validate():
    n, q = 36, 3
    t = near_transitive(n, q, 0.02, 17)
    order = tuple(range(1, n + 1))
    params = ProofParameters(q=q, n_vertices=n, gamma=0.08, p=2, s=2, delta=0.01)
    cls = classify_colors(t, order, params)
    left = set(cls.interval_a + cls.interval_b)
    for i in range(1, q + 1):
        for v, path in cls.in_paths[i].items():
            assert path[-1] == v
            assert set(path) <= left
            assert len(path) == cls.ell_in[i][v]
            for a, b in zip(path, path[1:]):
                assert t.has_edge(a, b) and t.color(a, b) != i


def test_classify_engineered_condensed():
    # all avoid-1 structure sits right at the midpoint: edges into B carry
    # color 2, everything else color 1, so the top avoid-1 endpoints are B
    n, s = 32, 1
    order = tuple(range(1, n + 1))
    h = n // 2
    b_members = set(order[h - 4 * s : h])
    t = ColoredTournament(
        n,
        2,
        (
            (u, v, 2 if v in b_members else 1)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
        ),
    )
    params = ProofParameters(q=2, n_vertices=n, gamma=1 / 4, p=1, s=s, delta=0.01)
    cls = classify_colors(t, order, params)
    assert set(cls.x_sets[1]) <= b_members  # condensed on the left
    assert set(cls.y_sets[1]) <= set(cls.interval_c)  # and on the right


def test_classify_empty_palette_strands_every_vertex():
    # with one color there is nothing to allow: every vertex ends and starts
    # only its one-vertex path, with halves at the exact cap and above it
    for n in (32, 48):
        t = transitive(n, 1)
        params = ProofParameters(q=1, n_vertices=n, gamma=0.1, p=1, s=2, delta=0.01)
        cls = classify_colors(t, tuple(range(1, n + 1)), params)
        assert set(cls.ell_in[1].values()) == set(cls.ell_out[1].values()) == {1}
        assert cls.x_sets[1] == (1, 2)
        assert cls.y_sets[1] == (n // 2 + 1, n // 2 + 2)
        assert cls.in_paths[1] == {1: (1,), 2: (2,)}
        assert cls.out_paths[1] == {v: (v,) for v in cls.y_sets[1]}


def test_classify_degenerate_scale():
    t = transitive(10, 2)
    params = ProofParameters(q=2, n_vertices=10, gamma=0.1, p=1, s=1, delta=0.01)
    with pytest.raises(DegenerateScale):
        classify_colors(t, tuple(range(1, 11)), params)


# ---------------------------------------------------------------------------
# midpoint gluing


def _glued_fixture():
    """A classified near-transitive tournament and its midpoint gluing.

    With s = 2, color 3's ranked pairs from B to C all point backward or
    carry color 3.  Colors 1, 2 and 4 glue; one of them has at least two
    forward non-i edges to choose from, one meets a backward non-i pair
    before its first forward one, and one glues to a start other than its
    least ranked one in C.
    """
    n, q = 32, 4
    t = near_transitive(n, q, 0.1, 6)
    params = ProofParameters(q=q, n_vertices=n, gamma=0.08, p=2, s=2, delta=0.01)
    cls = classify_colors(t, tuple(range(1, n + 1)), params)
    return t, cls, build_gluing(t, cls)


def _ranked_edges(t, cls, i):
    """Forward non-i edges from ranked endpoints in B to ranked starts in C."""
    return [
        (v, w)
        for v in cls.x_sets[i]
        if v in cls.interval_b
        for w in cls.y_sets[i]
        if w in cls.interval_c and t.has_edge(v, w) and t.color(v, w) != i
    ]


def test_build_gluing_certificates_validate():
    t, cls, glued = _glued_fixture()
    left = set(cls.interval_a + cls.interval_b)
    assert glued
    for i, cert in glued:
        assert validate_path(t, cert) is None
        assert cert.constraint.avoid == i
        # the left path ends at v and the right one starts at w
        k = sum(v in left for v in cert.vertices)
        v, w = cert.vertices[k - 1], cert.vertices[k]
        assert cert.vertices[:k] == cls.in_paths[i][v]
        assert cert.vertices[k:] == cls.out_paths[i][w]
        assert cert.length == cls.ell_in[i][v] + cls.ell_out[i][w]


def test_build_gluing_takes_the_first_edge_in_label_order():
    t, cls, glued = _glued_fixture()
    assert max(len(_ranked_edges(t, cls, i)) for i, _ in glued) >= 2
    for i, cert in glued:
        v, w = min(_ranked_edges(t, cls, i))
        assert cert.vertices == cls.in_paths[i][v] + cls.out_paths[i][w]


def test_build_gluing_skips_colors_without_an_edge():
    t, cls, glued = _glued_fixture()
    colors = {i for i, _ in glued}
    assert colors == {i for i in range(1, t.q + 1) if _ranked_edges(t, cls, i)}
    # color 3 has ranked pairs from B to C, but none is a forward non-3 edge
    assert any(v in cls.interval_b for v in cls.x_sets[3])
    assert any(w in cls.interval_c for w in cls.y_sets[3])
    assert 3 not in colors


def test_build_gluing_colors_ascend():
    _, _, glued = _glued_fixture()
    assert [i for i, _ in glued] == [1, 2, 4]


# ---------------------------------------------------------------------------
# the recursive driver


def test_recursive_monochromatic_returns_whole_order():
    for n in (8, 30):
        t = transitive(n, 2)
        color, cert = recursive_color_avoiding(t)
        assert color == 2
        assert cert.length == n
        assert validate_path(t, cert) is None


def test_recursive_small_instances_bracketed():
    rng = random.Random(0)
    for trial in range(12):
        n = rng.randint(3, 12)
        q = rng.randint(3, 4)
        t = random_tournament(n, q, seed=trial)
        color, cert = recursive_color_avoiding(t)
        assert validate_path(t, cert) is None
        exact = longest_avoiding_directed_exact(t, color)
        assert cert.length <= exact.length
        floor = math.ceil(n ** (1.0 / (q - 1)) - 1e-9)
        assert cert.length >= floor


def test_recursive_beats_baseline_by_construction():
    for seed in (1, 2):
        t = random_tournament(30, 3, seed=seed)
        base_color, base_cert = merged_color_baseline(t)
        color, cert = recursive_color_avoiding(t)
        assert cert.length >= base_cert.length
        assert validate_path(t, cert) is None


def test_recursive_skips_halves_shorter_than_the_best_path():
    # the baseline already spans all 30 vertices; neither 15-vertex half can win
    trace = []
    color, cert = recursive_color_avoiding(transitive(30, 2), trace=trace)
    assert (color, cert.length) == (2, 30)
    assert len(trace) == 1
    assert set(trace[0]["branch_lengths"]) == {"baseline", "case1"}


def test_recursive_visits_halves_that_can_still_win():
    # halves of 40 and 41 vertices against a best of 25: both are visited,
    # and the right half's 31-vertex path wins at the root
    data = json.loads(
        (Path(__file__).parent / "data" / "decomposition_pinned.json").read_text()
    )
    t = ColoredTournament.from_json(data["canonical_flip_instance"])
    trace = []
    color, cert = recursive_color_avoiding(t, trace=trace)
    root = trace[-1]
    assert root["case"] == "recurse_right"
    assert root["branch_lengths"]["case1"] == 25
    assert root["branch_lengths"]["recurse_right"] == cert.length == 31
    assert sorted(node["N"] for node in trace) == [20, 20, 40, 41, 81]


def test_recursive_case1_fires_on_near_transitive():
    t = near_transitive(48, 3, 0.01, 42)
    trace = []
    color, cert = recursive_color_avoiding(t, trace=trace)
    assert validate_path(t, cert) is None
    root = trace[-1]
    assert root["N"] == 48
    assert set(root) == {"case", "N", "chosen_color", "branch_lengths"}
    assert "case1" in root["branch_lengths"]


def _patch_classify(monkeypatch, exc):
    calls = []

    def fail(*args):
        calls.append(args[0].n_vertices)
        raise exc("classification failed")

    monkeypatch.setattr(decomposition, "classify_colors", fail)
    return calls


def test_recursive_raises_a_classification_error(monkeypatch):
    # a ValueError from the classification is a bug, not a reason to fall
    # back to the midpoint halves
    t = canonical_coloring(5, 2).as_tournament()
    calls = _patch_classify(monkeypatch, ValueError)
    with pytest.raises(ValueError, match="classification failed"):
        recursive_color_avoiding(t)
    assert calls == [32]


def test_recursive_degenerate_scale_recurses_into_midpoint_halves(monkeypatch):
    # unpatched, case1 wins at the root with 16 vertices; with no
    # classification the halves of the uncleaned order carry the answer
    t = canonical_coloring(5, 2).as_tournament()
    calls = _patch_classify(monkeypatch, DegenerateScale)
    trace = []
    color, cert = recursive_color_avoiding(t, trace=trace)
    assert calls == [32]
    assert validate_path(t, cert) is None
    assert (color, cert.length) == (5, 16)
    assert [node["N"] for node in trace] == [16, 16, 32]
    assert trace[-1]["case"] == "recurse_left"
    assert set(trace[-1]["branch_lengths"]) == {"baseline", "recurse_left", "recurse_right"}


def test_recursive_deterministic():
    t = random_tournament(26, 3, seed=9)
    first = recursive_color_avoiding(t, seed=5)
    second = recursive_color_avoiding(t, seed=5)
    assert first == second


def test_recursive_transitive_floor():
    from ramsey_pods.tournament import random_ordered_coloring

    for seed in range(6):
        n = 10 + 3 * seed  # crosses the exact-floor boundary at 22
        k = random_ordered_coloring(n, 3, seed=seed)
        t = k.as_tournament()
        color, cert = recursive_color_avoiding(t)
        assert validate_path(t, cert) is None
        assert cert.length >= math.ceil(n ** (1 / 2) - 1e-9)


def test_recursive_medium_instance_floor():
    t = random_tournament(40, 4, seed=11)
    color, cert = recursive_color_avoiding(t)
    assert validate_path(t, cert) is None
    assert cert.length >= math.ceil(40 ** (1 / 3) - 1e-9)


def test_merged_baseline_floor():
    for seed in range(6):
        q = 3 + (seed % 2)
        n = 20 + 5 * seed
        t = random_tournament(n, q, seed=seed)
        color, cert = merged_color_baseline(t)
        assert validate_path(t, cert) is None
        assert cert.length >= math.ceil(n ** (1.0 / (q - 1)) - 1e-9)
