import dataclasses
import json
import math
import random
from pathlib import Path

import pytest

from ramsey_pods import decomposition
from ramsey_pods.constructions import canonical_coloring
from ramsey_pods.decomposition import (
    AuditFailed,
    ColorClassification,
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
    EXACT_VERTEX_CAP,
    PathCertificate,
    PathConstraint,
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
    cert = PathCertificate("directed", PathConstraint(allow=frozenset({1})), (1, 2, 3))
    # forward path in a transitive tournament: distance-two edge points forward
    assert "backward" in audit_pattern_path(t, cert)


# ---------------------------------------------------------------------------
# classification


def _half_lengths(t, half, i, incoming):
    """Longest i-avoiding path lengths in ``half`` ending (or starting) per vertex.

    Exact from a lone oracle up to the cap, else the level estimate, on the
    reversed orientation and order for starts.
    """
    allowed = frozenset(range(1, t.q + 1)) - {i}
    if len(half) <= EXACT_VERTEX_CAP:
        oracle = SubsetPathOracle(t, allowed, half)
        return oracle.lengths_to() if incoming else oracle.lengths_from()
    if incoming:
        return _level_paths(t.allowed_masks(half, allowed), half)[0]
    rev = half[::-1]
    return _level_paths(t.allowed_masks(rev, allowed)[::-1], rev)[0]


def _assert_ranked(t, order, cls, s):
    """Kept endpoints are the s best-ranked ones within 4s of the midpoint, with valid paths."""
    h = len(order) // 2
    assert cls.left == order[:h] and cls.right == order[h:]
    for i in range(1, t.q + 1):
        for half, kept, near, incoming in (
            (cls.left, cls.ends[i], order[h - 4 * s : h], True),
            (cls.right, cls.starts[i], order[h : h + 4 * s], False),
        ):
            lengths = _half_lengths(t, half, i, incoming)
            ranked = sorted(half, key=lambda v: (-lengths[v], v))[:s]
            assert list(kept) == [v for v in ranked if v in near], (i, incoming)
            for v, path in kept.items():
                assert path[-1 if incoming else 0] == v
                assert set(path) <= set(half)
                assert len(path) == lengths[v]
                cert = PathCertificate("directed", PathConstraint(avoid=i), path)
                assert validate_path(t, cert) is None


def test_classification_holds_four_fields():
    names = [f.name for f in dataclasses.fields(ColorClassification)]
    assert names == ["left", "right", "ends", "starts"]


def test_classify_monochromatic_long_short_split():
    n = 32
    t = transitive(n, 2)
    order = tuple(range(1, n + 1))
    cls = classify_colors(t, order, 1)
    assert cls.ends[1] == {}  # ties rank the earliest label, outside B


def test_classify_interval_and_ranking_sizes():
    for seed in range(5):
        n = 36
        q = 3
        t = near_transitive(n, q, 0.0, seed)
        order = tuple(range(1, n + 1))
        s = 2
        cls = classify_colors(t, order, s)
        assert len(cls.left) == len(cls.right) == n // 2
        for i in range(1, q + 1):
            assert len(cls.ends[i]) <= s and len(cls.starts[i]) <= s
        _assert_ranked(t, order, cls, s)


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
        s = 1
        cls = classify_colors(t, verts, s)
        expected = []
        for i in range(1, q + 1):
            allowed = frozenset(range(1, q + 1)) - {i}
            if n <= 22:  # exact over the whole node, else the level estimate
                whole = SubsetPathOracle(t, allowed).longest()
            else:
                levels, _ = _level_paths(t.allowed_masks(verts, allowed), verts)
                whole = max(levels.values())
            long = whole >= gamma * n
            condensed = 2 * len(cls.ends[i]) >= s
            if not long and not condensed:
                expected.append(i)
        assert expected == want, (n, q, seed, gamma)


def test_classify_ranking_audit():
    # halves of 24 vertices, above the cap: the ranking reads level estimates
    n, q = 48, 3
    t = near_transitive(n, q, 0.02, 13)
    order = tuple(range(1, n + 1))
    cls = classify_colors(t, order, 3)
    assert any(cls.ends.values()) and any(cls.starts.values())
    _assert_ranked(t, order, cls, 3)


def test_classify_witness_paths_validate():
    # halves of 18 vertices: the ranking reads exact lengths
    n, q = 36, 3
    t = near_transitive(n, q, 0.02, 17)
    order = tuple(range(1, n + 1))
    cls = classify_colors(t, order, 2)
    assert any(cls.ends.values()) and any(cls.starts.values())
    _assert_ranked(t, order, cls, 2)


def test_classify_engineered_condensed():
    # all avoid-1 structure sits right at the midpoint: edges into B carry
    # color 2, everything else color 1, so the top avoid-1 endpoints are B
    n, s = 32, 1
    order = tuple(range(1, n + 1))
    t = ColoredTournament(
        n,
        2,
        (
            (u, v, 2 if v in order[n // 2 - 4 * s : n // 2] else 1)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
        ),
    )
    cls = classify_colors(t, order, s)
    assert len(cls.ends[1]) == s  # condensed on the left
    assert len(cls.starts[1]) == s  # and on the right
    _assert_ranked(t, order, cls, s)


def test_classify_empty_palette_strands_every_vertex():
    # with one color there is nothing to allow: every vertex ends and starts
    # only its one-vertex path, with halves at the exact cap and above it;
    # ties rank the labels 1, 2 (outside B) and n/2 + 1, n/2 + 2 (in C)
    for n in (32, 48):
        t = transitive(n, 1)
        cls = classify_colors(t, tuple(range(1, n + 1)), 2)
        assert cls.ends[1] == {}
        assert cls.starts[1] == {v: (v,) for v in (n // 2 + 1, n // 2 + 2)}


def test_classify_degenerate_scale():
    t = transitive(10, 2)
    with pytest.raises(DegenerateScale):
        classify_colors(t, tuple(range(1, 11)), 1)


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
    cls = classify_colors(t, tuple(range(1, n + 1)), 2)
    return t, cls, build_gluing(t, cls)


def _ranked_edges(t, cls, i):
    """Forward non-i edges from kept ends in B to kept starts in C."""
    return [
        (v, w)
        for v in cls.ends[i]
        for w in cls.starts[i]
        if t.has_edge(v, w) and t.color(v, w) != i
    ]


def test_build_gluing_certificates_validate():
    t, cls, glued = _glued_fixture()
    left = set(cls.left)
    assert glued
    for i, cert in glued:
        assert validate_path(t, cert) is None
        assert cert.constraint.avoid == i
        # the left path ends at v and the right one starts at w
        k = sum(v in left for v in cert.vertices)
        v, w = cert.vertices[k - 1], cert.vertices[k]
        assert cert.vertices[:k] == cls.ends[i][v]
        assert cert.vertices[k:] == cls.starts[i][w]
        ell_in = _half_lengths(t, cls.left, i, True)[v]
        ell_out = _half_lengths(t, cls.right, i, False)[w]
        assert cert.length == ell_in + ell_out


def test_build_gluing_takes_the_first_edge_in_label_order():
    t, cls, glued = _glued_fixture()
    assert max(len(_ranked_edges(t, cls, i)) for i, _ in glued) >= 2
    for i, cert in glued:
        v, w = min(_ranked_edges(t, cls, i))
        assert cert.vertices == cls.ends[i][v] + cls.starts[i][w]


def test_build_gluing_skips_colors_without_an_edge():
    t, cls, glued = _glued_fixture()
    colors = {i for i, _ in glued}
    assert colors == {i for i in range(1, t.q + 1) if _ranked_edges(t, cls, i)}
    # color 3 has kept pairs from B to C, but none is a forward non-3 edge
    assert cls.ends[3] and cls.starts[3]
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
    # ceil(q/2) pair classes cover the palette, and a vertex's levels over
    # them are injective, so some pair's path has N^(1/ceil(q/2)) vertices;
    # canonical colorings at q = 4..7 meet that bound exactly
    randoms = [random_tournament(20 + 9 * seed, 3 + seed % 5, seed=seed) for seed in range(10)]
    canonicals = [
        canonical_coloring(q, m).as_tournament() for q, m in ((3, 3), (4, 3), (5, 2), (6, 2), (7, 2))
    ]
    for t in randoms + canonicals:
        n, q = t.n_vertices, t.q
        color, cert = merged_color_baseline(t)
        assert validate_path(t, cert) is None
        assert cert.length ** math.ceil(q / 2) >= n
        assert cert.length >= math.ceil(n ** (1.0 / (q - 1)) - 1e-9)
