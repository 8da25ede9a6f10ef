"""Tests of the benchmark itself: its checkers, its generator, its counts.

    python3 -m pytest -q bench/selftest.py

Run from the repository root.  The file name keeps these tests out of the
package's own test run; they take about a minute.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checkers as ck  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# ---------------------------------------------------------------------------
# checkers reject forged certificates


@pytest.fixture
def instance_and_path():
    """A 3-colored tournament with a valid path avoiding color 1."""
    rng = corpus.rng_for(7, "selftest")
    tour, path = workloads._tournament_with_path(rng, 5, 4, 3)
    cert = {"mode": "directed", "constraint": {"avoid": 1}, "vertices": path}
    return ck.Tournament(tour), cert


def test_directed_path_accepts_the_genuine_certificate(instance_and_path):
    t, cert = instance_and_path
    assert ck.check_directed_path(t, cert, ck.path_floor(t.n, t.q)) is None


def test_directed_path_rejects_a_reversed_edge(instance_and_path):
    t, cert = instance_and_path
    v = cert["vertices"]
    forged = dict(cert, vertices=v[:1] + [v[2], v[1]] + v[3:])
    assert "reversed" in ck.check_directed_path(t, forged)


def test_directed_path_rejects_a_repeated_vertex(instance_and_path):
    t, cert = instance_and_path
    forged = dict(cert, vertices=cert["vertices"] + [cert["vertices"][0]])
    assert "repeated" in ck.check_directed_path(t, forged)


def test_directed_path_rejects_a_forbidden_color(instance_and_path):
    t, cert = instance_and_path
    a, b = cert["vertices"][:2]
    forged = dict(cert, constraint={"avoid": t.edge(a, b)})
    assert "avoided color" in ck.check_directed_path(t, forged)


def test_directed_path_rejects_a_path_below_the_floor(instance_and_path):
    t, cert = instance_and_path
    forged = dict(cert, vertices=cert["vertices"][:1])
    assert "below" in ck.check_directed_path(t, forged, ck.path_floor(t.n, t.q))


def test_path_floor_is_the_ceiling_root():
    assert ck.path_floor(49, 2) == 7
    assert ck.path_floor(50, 2) == 8
    assert ck.path_floor(27, 4) == 3
    assert ck.path_floor(28, 4) == 4


def test_family_checker_computes_dominance_from_coordinates():
    fam = {"q": 3, "n": 3, "r": 2, "vectors": [[1, 1, 1], [2, 2, 1], [3, 3, 2]]}
    assert ck.family_problem(fam, "sequence") is None
    swapped = dict(fam, vectors=[fam["vectors"][1], fam["vectors"][0], fam["vectors"][2]])
    assert "not increasing" in ck.family_problem(swapped, "sequence")
    assert ck.family_problem(swapped, "comparable") is None
    # the forged FAIL_PAIR case from the roadmap: (2,2) and (1,1) are comparable at r=1
    assert ck.family_problem({"q": 2, "n": 2, "r": 1, "vectors": [[2, 2], [1, 1]]}, "comparable") is None
    twin = dict(fam, vectors=fam["vectors"] + [fam["vectors"][0]])
    assert "incomparable" in ck.family_problem(twin, "comparable")


def _record(kind, q, r, size, value, status, certificate):
    return {"kind": kind, "q": q, "r": r, "size": size, "value": value, "status": status,
            "certificate": certificate}


def test_search_checker_rejects_a_wrong_recorded_value():
    witness = {"q": 3, "n": 4, "r": 2, "vectors": [[1, 1, 1], [2, 2, 1], [3, 3, 2]]}
    key = ("F", 3, 2, 4)
    forged = _record("F", 3, 2, 4, 3, "exact", witness)
    assert "!= known 8" in ck.search_problem(forged, key, 8, 0)
    bigger = _record("F", 3, 2, 4, 8, "exact", witness)
    assert "witness has 3 vectors" in ck.search_problem(bigger, key, 8, 0)
    # the same three vectors are a fine lower bound
    assert ck.search_problem(_record("F", 3, 2, 4, 3, "lower_bound", witness), key, 8, 2) is None
    assert "not lower_bound" in ck.search_problem(_record("F", 3, 2, 4, 3, "exact", witness), key, 8, 2)
    assert "exit code 0" in ck.search_problem(_record("F", 3, 2, 4, 3, "lower_bound", witness), key, 8, 0)


# a 4-coloring of the ordered K6 whose paths in at most two colors have at most 4 vertices
F_4_2_6_WITNESS = {
    "N": 6, "q": 4,
    "colors": [[1, 2, 1], [1, 3, 2], [1, 4, 2], [1, 5, 3], [1, 6, 3], [2, 3, 2], [2, 4, 2], [2, 5, 3],
               [2, 6, 3], [3, 4, 1], [3, 5, 3], [3, 6, 3], [4, 5, 3], [4, 6, 3], [5, 6, 1]],
}


def test_a_bound_key_may_close_with_the_known_value():
    """f 4 2 6 stops at a bound under its node budget now; closing it is not a failure."""
    key = ("f", 4, 2, 6)
    (value,) = [v for k, q, r, n, _, v in workloads.SEARCH_KEYS if (k, q, r, n) == key]
    assert ck.brute_monotone(ck.coloring_matrix(F_4_2_6_WITNESS), 2) == value == 4
    closed = _record(*key, value, "exact", F_4_2_6_WITNESS)
    assert ck.search_problem(closed, key, value, 0) is None
    assert ck.search_problem(_record(*key, value, "upper_bound", F_4_2_6_WITNESS), key, value, 2) is None
    wrong = _record(*key, value - 1, "exact", F_4_2_6_WITNESS)
    assert "!= known 4" in ck.search_problem(wrong, key, value, 0)
    too_good = _record(*key, value - 1, "upper_bound", F_4_2_6_WITNESS)
    assert "beats the known value" in ck.search_problem(too_good, key, value, 2)
    one_color = dict(F_4_2_6_WITNESS, colors=[[u, v, 1] for u, v, _ in F_4_2_6_WITNESS["colors"]])
    assert "witness value 6" in ck.search_problem(_record(*key, value, "exact", one_color), key, value, 0)


def test_search_checker_recomputes_minimizer_witnesses_by_brute_force():
    col = corpus.random_coloring(corpus.rng_for(1, "f"), 5, 2)
    true = ck.brute_monotone(col, 1)
    payload = corpus.coloring_json(col, 2)
    assert ck.search_problem(_record("f", 2, 1, 5, true, "upper_bound", payload), ("f", 2, 1, 5), 1, 2) is None
    lie = _record("f", 2, 1, 5, true - 1, "upper_bound", payload)
    assert "witness value" in ck.search_problem(lie, ("f", 2, 1, 5), 1, 2)
    tour = corpus.tournament(corpus.rng_for(1, "g"), "random", 5, 3)
    true = ck.brute_directed(ck.Tournament(tour), 2)
    lie = _record("g", 3, 2, 5, true + 1, "upper_bound", tour)
    assert "witness value" in ck.search_problem(lie, ("g", 3, 2, 5), 1, 2)


def test_brute_force_path_search_agrees_with_the_monotone_dp():
    for seed in range(5):
        col = corpus.random_coloring(corpus.rng_for(seed, "dp"), 7, 3)
        for allowed in ({1}, {1, 2}, {2, 3}):
            dp = ck.longest_monotone(col, allowed)
            assert dp == len(ck.longest_monotone_path(col, allowed))
        assert ck.brute_monotone(col, 2) == max(
            ck.longest_monotone(col, s) for s in ({1, 2}, {1, 3}, {2, 3})
        )


def test_construction_checks_reject_a_tampered_file(tmp_path):
    rng = corpus.rng_for(2, "tamper")
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    out = tmp_path / "out.json"
    corpus.write_json(a, corpus.coloring_json(corpus.random_coloring(rng, 4, 3), 3))
    corpus.write_json(b, corpus.coloring_json(corpus.random_coloring(rng, 5, 3), 3))
    good = corpus.coloring_json(
        corpus.lex_product(ck.coloring_matrix(ck.load(a)), ck.coloring_matrix(ck.load(b))), 3
    )
    spec = {"type": "product", "a": str(a), "b": str(b), "out": str(out)}
    corpus.write_json(out, good)
    assert workloads._check_product(spec, "") == (None, 20)
    bad = copy.deepcopy(good)
    bad["colors"][7][2] = bad["colors"][7][2] % 3 + 1
    corpus.write_json(out, bad)
    assert workloads._check_product(spec, "")[0] is not None


def test_expected_table_holds_the_readme_anchor():
    table = {(k, q, r, n): value for k, q, r, n, _, value in workloads.SEARCH_KEYS}
    assert table[("F", 3, 2, 4)] == 8


def test_expected_comparable_set_sizes_match_an_independent_clique_search():
    nx = pytest.importorskip("networkx")
    import itertools

    for kind, q, r, n, _, value in workloads.SEARCH_KEYS:
        if kind != "G":
            continue
        grid = list(itertools.product(range(1, n + 1), repeat=q))
        g = nx.Graph()
        g.add_nodes_from(range(len(grid)))
        for i, j in itertools.combinations(range(len(grid)), 2):
            x, y = grid[i], grid[j]
            if ck.strictly_above(x, y) >= r or ck.strictly_above(y, x) >= r:
                g.add_edge(i, j)
        size = max(len(c) for c in nx.find_cliques(g))
        assert size == value, (kind, q, r, n)


# ---------------------------------------------------------------------------
# the generator


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_equal_seeds_generate_byte_identical_corpora(tmp_path, workload):
    a = workloads.build(workload, 5, tmp_path / "a")
    b = workloads.build(workload, 5, tmp_path / "b")
    assert json.dumps(a).replace("/a/", "/x/") == json.dumps(b).replace("/b/", "/x/")
    assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")
    workloads.build(workload, 6, tmp_path / "c")
    if workload != "search":  # the search keys are fixed
        assert _tree_bytes(tmp_path / "a") != _tree_bytes(tmp_path / "c")


def test_generated_tournaments_are_complete_and_in_range():
    for kind, n, q in workloads.DECOMPOSE_EXACT + workloads.DECOMPOSE_LEVEL:
        t = corpus.tournament(corpus.rng_for(0, kind), kind, n, q)
        pairs = {(min(u, v), max(u, v)) for u, v, _ in t["edges"]}
        assert len(pairs) == len(t["edges"]) == n * (n - 1) // 2
        assert all(1 <= c <= q for _, _, c in t["edges"])


# ---------------------------------------------------------------------------
# counts repeat across traced runs


COUNTED = {"decompose_level": 3, "search": None, "certify": None}
CHEAP_SEARCH = {("F", 3, 2, 4), ("F", 3, 2, 5), ("G", 4, 2, 3), ("f", 3, 2, 5), ("f", 2, 1, 10), ("g", 3, 2, 4)}


def _small_jobs(workload: str, seed: int, workdir: Path) -> list[dict]:
    jobs = workloads.build(workload, seed, workdir)
    if workload == "search":
        jobs = [j for j in jobs if tuple(j["check"]["key"]) in CHEAP_SEARCH]
        jobs[0]["reset"] = [jobs[0]["argv"][-1]]
        return jobs
    if workload == "certify":
        return [j for j in jobs if not j["id"].startswith(("verify_comparable", "construct_boost"))]
    return jobs[: COUNTED[workload]]


def _traced_counts(workload: str, workdir: Path) -> tuple[dict, list]:
    jobs = _small_jobs(workload, 4, workdir / "files")
    jobs_path = workdir / "jobs.json"
    jobs_path.write_text(json.dumps(jobs))
    result_path = workdir / "result.json"
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(jobs_path), str(result_path),
         "--src", str(ROOT / "src"), "--seconds", "0", "--trace", "1"],
        check=True, timeout=300,
    )
    result = json.loads(result_path.read_text())
    metrics, _ = run.per_layer(result)
    counts = {k: v for k, v in metrics.items() if run.unit_of(k) == "count"}
    outcomes = [[(j["id"], j["size"], j["exact"], j["problem"]) for j in p["jobs"]] for p in result["passes"]]
    return counts, outcomes


@pytest.mark.parametrize("workload", sorted(COUNTED))
def test_counts_repeat_exactly_across_two_traced_runs(tmp_path, workload):
    first, passes_a = _traced_counts(workload, tmp_path / "one")
    second, passes_b = _traced_counts(workload, tmp_path / "two")
    assert first == second
    assert passes_a[0] == passes_b[0]
    assert all(p == passes_a[0] for p in passes_a)  # every pass gives the same answers
    assert all(problem is None for _, _, _, problem in passes_a[0])
    assert any(v for v in first.values())


# ---------------------------------------------------------------------------
# the command and BENCHMARK.json


def test_benchmark_json_lists_what_run_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E
    empty = {"traced": True, "layers": {}, "wins": {}, "spans": 0, "raw_wall_s": 1.0}
    metrics, _ = run.per_layer({"passes": [dict(empty, traced=False), empty], "span_cost_s": 1e-6})
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {k: run.unit_of(k) for k in metrics}



def test_run_fails_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert "{" not in out.stdout
