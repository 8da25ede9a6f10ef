import gc
import json

import pytest

from ramsey_pods import search
from ramsey_pods.cli import main
from ramsey_pods.paths import ell_avoid_monotone, longest_restricted_monotone
from ramsey_pods.tournament import (
    ColoredTournament,
    OrderedColoring,
    random_ordered_coloring,
    random_tournament,
)


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("RAMSEY_PODS_CACHE", str(tmp_path / "cache.jsonl"))
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_search_exact_exit_zero(workdir, capsys):
    code, out, _ = run(capsys, "search", "F", "2", "1", "2")
    assert code == 0
    assert "kind,q,r,size,value,status" in out
    assert "F,2,1,2,4,exact" in out


def test_search_json_output(workdir, capsys):
    code, out, _ = run(capsys, "search", "f", "2", "1", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 2 and payload["status"] == "exact"


def test_search_bound_exit_two(workdir, capsys):
    code, out, _ = run(capsys, "search", "F", "3", "2", "4", "--budget", "5")
    assert code == 2
    assert "lower_bound" in out


def test_search_G_budget_before_first_leaf_exit_two(workdir, capsys):
    # one node trips the budget before the clique search reaches a leaf
    code, out, _ = run(
        capsys, "search", "G", "2", "1", "10", "--budget", "1", "--no-cache", "--json"
    )
    assert code == 2
    payload = json.loads(out)
    assert (payload["value"], payload["status"]) == (1, "lower_bound")
    assert len(payload["certificate"]["vectors"]) == 1


def test_search_invalid_exit_one(workdir, capsys):
    code, _, err = run(capsys, "search", "F", "2", "3", "2")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("budget", ["nans", "nan", "-5", "-1s", "-0.5s", "5x", "1.5"])
def test_search_bad_budget_exit_one(workdir, capsys, budget):
    # a NaN seconds limit never trips, so it would run with no limit at all;
    # the "=" form lets argparse take a value that starts with "-"
    code, out, err = run(capsys, "search", "F", "3", "2", "5", f"--budget={budget}", "--no-cache")
    assert code == 1
    assert out == ""
    assert err == f"error: bad budget {budget!r}: use a node count or '<seconds>s'\n"


@pytest.mark.parametrize("budget,code", [("0", 2), ("0s", 2), ("0.0s", 2)])
def test_search_zero_budget_is_accepted(workdir, capsys, budget, code):
    # both limits are checked at every node, so a zero budget of either kind
    # trips at the first one, before F(2, 1, 3) can close
    got, out, _ = run(capsys, "search", "F", "2", "1", "3", "--budget", budget, "--no-cache")
    assert got == code
    assert json.loads(out.splitlines()[0])["status"] == ("exact" if code == 0 else "lower_bound")


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["search", "F", "3", "2", "5", "--budget", "-1s"],
        ["search", "F", "3", "2", "x"],
        ["verify", "nope", "x.json"],
        ["construct", "cube"],
        ["decompose", "recursive"],
        ["decompose", "three-color", "t.json", "--min-support", "x"],
    ],
)
def test_usage_error_exit_one(workdir, capsys, argv):
    # exit 2 is a bound-only search result, so a usage error exits 1
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("usage: ramsey-pods")
    assert "\nerror: " in err


@pytest.mark.parametrize("argv", [["--help"], ["search", "--help"]])
def test_help_exit_zero(workdir, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ramsey-pods")


def test_search_g_above_exact_cap_exit_one(workdir, capsys):
    code, out, err = run(
        capsys, "search", "g", "2", "1", "23", "--budget", "10", "--no-cache"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "22" in err


def test_search_g_cached_above_exact_cap_exit_one(workdir, capsys):
    # a cached witness the subset DP cannot re-check is skipped like a
    # corrupt one, and the search then refuses the key as it does uncached
    record = {
        "kind": "g", "q": 3, "r": 2, "size": 23, "value": 9, "status": "upper_bound",
        "certificate": random_tournament(23, 3, seed=1).to_json(),
    }
    (workdir / "c.jsonl").write_text(json.dumps(record) + "\n")
    code, out, err = run(capsys, "search", "g", "3", "2", "23", "--cache", "c.jsonl")
    assert code == 1
    assert out == ""
    assert err == "error: g needs at most 22 vertices, got 23\n"


def test_search_F_above_grid_cap_exit_one(workdir, capsys):
    # 129^2 = 16641 grid points: the points x points relation is not built
    code, out, err = run(
        capsys, "search", "F", "2", "1", "129", "--budget", "10", "--no-cache"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "16384" in err


@pytest.mark.parametrize("kind", ["F", "G"])
def test_search_chain_through_the_whole_grid(workdir, capsys, kind):
    # at r = 1 the lexicographic order of [32]^2 is one chain of 1,024
    # points, deeper than Python's recursion limit: the searches keep their
    # open nodes on a stack of their own
    code, out, err = run(capsys, "search", kind, "2", "1", "32", "--no-cache", "--json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert (payload["value"], payload["status"]) == (1024, "exact")


def test_search_repeated_bound_cached_once(workdir, capsys):
    for _ in range(3):
        code, _, _ = run(
            capsys, "search", "f", "4", "2", "6", "--budget", "80", "--cache", "c.jsonl"
        )
        assert code == 2
    lines = [l for l in (workdir / "c.jsonl").read_text().splitlines() if l.strip()]
    assert len(lines) == 1


@pytest.mark.parametrize(
    "argv,value",
    [
        # f 2 1 10 meets the floor ceil(sqrt 10) = 4 at the start
        (["f", "2", "1", "10", "--budget", "20000"], 4),
        # the tournament of G 3 2 3's witness meets the floor 3
        (["g", "3", "2", "5", "--budget", "80"], 3),
    ],
)
def test_search_r_q_minus_one_closes_within_budget(workdir, capsys, argv, value):
    code, out, _ = run(capsys, "search", *argv, "--no-cache", "--json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["value"], payload["status"]) == (value, "exact")


def test_search_hits_cache(workdir, capsys):
    run(capsys, "search", "g", "2", "1", "3")
    code, out, _ = run(capsys, "search", "g", "2", "1", "3", "--json")
    assert code == 0
    assert json.loads(out)["value"] == 2


def test_construct_and_verify_roundtrip(workdir, capsys):
    code, out, _ = run(capsys, "construct", "canonical", "3", "2", "-o", "can.json")
    assert code == 0
    data = json.loads((workdir / "can.json").read_text())
    assert data["N"] == 8

    code, _, _ = run(capsys, "construct", "balance", "can.json", "-o", "bal.json")
    assert code == 0

    fam = {"q": 2, "n": 2, "r": 1, "vectors": [[1, 1], [1, 2], [2, 1], [2, 2]]}
    (workdir / "fam.json").write_text(json.dumps(fam))
    code, _, _ = run(capsys, "construct", "boost", "fam.json", "fam.json", "-o", "out.json")
    assert code == 0
    code, out, _ = run(capsys, "verify", "sequence", "out.json")
    assert code == 0 and "ok" in out


@pytest.mark.parametrize("q,m", [(4, 4), (3, 2), (1, 3)])
def test_construct_canonical_prints_single_color_lengths(workdir, capsys, q, m):
    code, out, _ = run(capsys, "construct", "canonical", str(q), str(m), "--json", "-o", "k.json")
    assert code == 0
    k = OrderedColoring.from_json(json.loads((workdir / "k.json").read_text()))
    want = {str(c): longest_restricted_monotone(k, {c}).length for c in range(1, q + 1)}
    assert json.loads(out)["stats"]["single_color_longest"] == want


@pytest.mark.parametrize("n,q,seed", [(7, 3, 2), (5, 2, 1), (4, 1, 0)])
def test_construct_balance_prints_avoiding_lengths(workdir, capsys, n, q, seed):
    (workdir / "k.json").write_text(json.dumps(random_ordered_coloring(n, q, seed=seed).to_json()))
    code, out, _ = run(capsys, "construct", "balance", "k.json", "--json", "-o", "b.json")
    assert code == 0
    b = OrderedColoring.from_json(json.loads((workdir / "b.json").read_text()))
    want = {str(c): ell_avoid_monotone(b, c).length for c in range(1, q + 1)}
    assert json.loads(out)["stats"]["avoiding_lengths"] == want


def test_verify_detects_violation(workdir, capsys):
    fam = {"q": 3, "n": 2, "r": 2, "vectors": [[1, 1, 1], [2, 2, 1], [2, 2, 2]]}
    (workdir / "fam.json").write_text(json.dumps(fam))
    code, out, _ = run(capsys, "verify", "sequence", "fam.json")
    assert code == 1
    assert "(2, 3)" in out


def test_verify_packing(workdir, capsys):
    good = {"q": 3, "r": 2, "n": 2, "apices": [[1, 1, 1], [2, 2, 1]]}
    (workdir / "p.json").write_text(json.dumps(good))
    code, out, _ = run(capsys, "verify", "packing", "p.json")
    assert code == 0
    bad = {"q": 3, "r": 2, "n": 2, "apices": [[1, 1, 1], [2, 1, 1]]}
    (workdir / "p.json").write_text(json.dumps(bad))
    code, out, _ = run(capsys, "verify", "packing", "p.json")
    assert code == 1
    assert "1 and 2" in out


def test_verify_parse_error_exit_three(workdir, capsys):
    (workdir / "junk.json").write_text("{not json")
    code, _, err = run(capsys, "verify", "sequence", "junk.json")
    assert code == 3


@pytest.mark.parametrize(
    "constraint", [{"avoid": 1, "allow": [2]}, {}], ids=["avoid_and_allow", "neither"]
)
def test_verify_path_constraint_needs_exactly_one_key(workdir, capsys, constraint):
    (workdir / "t.json").write_text(json.dumps(random_tournament(3, 2, seed=0).to_json()))
    cert = {"mode": "directed", "constraint": constraint, "vertices": [1]}
    (workdir / "c.json").write_text(json.dumps(cert))
    code, out, err = run(capsys, "verify", "path", "t.json", "c.json")
    assert code == 3
    assert out == ""
    assert err == "error: bad certificate: exactly one of avoid/allow must be given\n"


def _malformed_inputs(workdir):
    """One command per file-reading path, each given a structurally bad file."""
    t = random_tournament(4, 2, seed=0).to_json()
    t["edges"] = t["edges"][:-1]  # one vertex pair left without an edge
    (workdir / "t.json").write_text(json.dumps(t))
    cert = {"mode": "directed", "constraint": {"avoid": 1}, "vertices": [1]}
    (workdir / "c.json").write_text(json.dumps(cert))
    (workdir / "k.json").write_text(json.dumps({"N": 3, "q": 2, "colors": [[1, 2, 1]]}))
    (workdir / "f.json").write_text(json.dumps({"q": 2, "n": 2, "r": 1, "vectors": [[1, 3]]}))
    for name, n in (("t0.json", 0), ("t_neg.json", -2)):
        (workdir / name).write_text(json.dumps({"N": n, "q": 2, "edges": []}))
    return {
        "verify_path": ["verify", "path", "t.json", "c.json"],
        "construct_product": ["construct", "product", "k.json", "k.json"],
        "construct_balance": ["construct", "balance", "k.json"],
        "construct_boost": ["construct", "boost", "f.json", "f.json"],
        "decompose_no_vertices": ["decompose", "recursive", "t0.json"],
        "decompose_negative_vertices": ["decompose", "recursive", "t_neg.json"],
    }


@pytest.mark.parametrize(
    "command",
    [
        "verify_path",
        "construct_product",
        "construct_balance",
        "construct_boost",
        "decompose_no_vertices",
        "decompose_negative_vertices",
    ],
)
def test_malformed_input_exit_three(workdir, capsys, command):
    code, _, err = run(capsys, *_malformed_inputs(workdir)[command])
    assert code == 3
    assert err.startswith("error: bad ")


@pytest.mark.parametrize(
    "args,message",
    [(["x", "3"], "invalid literal for int()"), (["0", "3"], "q and m must be positive")],
)
def test_construct_canonical_bad_arguments_exit_one(workdir, capsys, args, message):
    code, out, err = run(capsys, "construct", "canonical", *args)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and message in err


def _float_inputs(workdir):
    """One command per input file kind, each file holding one float literal."""
    t = random_tournament(4, 2, seed=0).to_json()
    (workdir / "t.json").write_text(json.dumps(t))
    cert = '{"mode": "directed", "constraint": {"avoid": 1}, "vertices": [%s]}'
    (workdir / "c.json").write_text(cert % "1")
    (workdir / "c_float.json").write_text(cert % "1.9, 2.2")
    u, v, _ = t["edges"][0]
    t["edges"][0] = [u, v, 1.5]
    (workdir / "t_float.json").write_text(json.dumps(t))
    (workdir / "f.json").write_text('{"q": 2, "n": 3, "r": 1, "vectors": [[1, 1], [2.5, 3]]}')
    (workdir / "k.json").write_text('{"N": 2, "q": 2, "colors": [[1, 2, 1e0]]}')
    (workdir / "p.json").write_text('{"q": 3, "r": 2, "n": 2, "apices": [[1, 1, Infinity]]}')
    return {
        "certificate": ["verify", "path", "t.json", "c_float.json"],
        "tournament": ["verify", "path", "t_float.json", "c.json"],
        "family": ["verify", "sequence", "f.json"],
        "coloring": ["construct", "balance", "k.json"],
        "packing": ["verify", "packing", "p.json"],
    }


@pytest.mark.parametrize(
    "kind", ["certificate", "tournament", "family", "coloring", "packing"]
)
def test_float_literal_exit_three(workdir, capsys, kind):
    code, out, err = run(capsys, *_float_inputs(workdir)[kind])
    assert code == 3
    assert out == ""
    assert err.startswith("error: cannot parse ") and "non-integer number" in err


def _string_number_inputs(workdir):
    """One command per input file kind, each file holding a number written as a string."""
    t = random_tournament(3, 2, seed=0).to_json()
    (workdir / "t.json").write_text(json.dumps(t))
    (workdir / "t_str.json").write_text(json.dumps(dict(t, N="3")))
    cert = {"mode": "directed", "constraint": {"avoid": "2"}, "vertices": ["1", " 2 "]}
    (workdir / "c_str.json").write_text(json.dumps(cert))
    fam = {"q": 2, "n": 3, "r": 1, "vectors": [["1", 1], [2, " 3 "]]}
    (workdir / "f_str.json").write_text(json.dumps(fam))
    (workdir / "k_str.json").write_text(json.dumps({"N": 2, "q": "2", "colors": [[1, 2, 1]]}))
    (workdir / "p_str.json").write_text(json.dumps({"q": 2, "r": 1, "n": 3, "apices": [["1", 1]]}))
    return {
        "certificate": ["verify", "path", "t.json", "c_str.json"],
        "tournament": ["decompose", "recursive", "t_str.json"],
        "family": ["verify", "sequence", "f_str.json"],
        "coloring": ["construct", "balance", "k_str.json"],
        "packing": ["verify", "packing", "p_str.json"],
    }


@pytest.mark.parametrize(
    "kind", ["certificate", "tournament", "family", "coloring", "packing"]
)
def test_string_number_exit_three(workdir, capsys, kind):
    code, out, err = run(capsys, *_string_number_inputs(workdir)[kind])
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: bad {kind}: ")


def test_verify_packing_names_first_intersecting_pair(workdir, capsys):
    apices = [[1, 1, 1], [2, 2, 1], [2, 2, 2], [2, 1, 2], [1, 2, 1]]
    (workdir / "p.json").write_text(json.dumps({"q": 3, "r": 2, "n": 2, "apices": apices}))
    code, out, _ = run(capsys, "verify", "packing", "p.json", "--json")
    assert code == 1
    # (1,2,1) meets (1,1,1) and (2,1,2) meets (2,2,1); the pair of pod 1 comes first
    assert json.loads(out) == {"ok": False, "violation": "pods 1 and 5 intersect"}


def test_decompose_recursive_and_verify(workdir, capsys):
    t = random_tournament(10, 3, seed=1)
    (workdir / "t.json").write_text(json.dumps(t.to_json()))
    code, out, _ = run(
        capsys, "decompose", "recursive", "t.json", "-o", "cert.json", "--trace", "tr.jsonl"
    )
    assert code == 0
    code, out, _ = run(capsys, "verify", "path", "t.json", "cert.json")
    assert code == 0
    lines = (workdir / "tr.jsonl").read_text().splitlines()
    node = json.loads(lines[0])
    assert set(node) == {"case", "N", "chosen_color", "branch_lengths"}


def test_decompose_monochromatic_transitive(workdir, capsys):
    t = ColoredTournament(
        8, 2, ((u, v, 1) for u in range(1, 9) for v in range(u + 1, 9))
    )
    (workdir / "t.json").write_text(json.dumps(t.to_json()))
    code, out, _ = run(capsys, "decompose", "recursive", "t.json", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"] == {"length": 8, "avoided_color": 2}


def test_decompose_recursive_one_color_above_cap(workdir, capsys):
    # every edge has the only color, so the path avoiding it is one vertex
    t = random_tournament(30, 1, seed=1)
    (workdir / "t.json").write_text(json.dumps(t.to_json()))
    code, _, _ = run(capsys, "decompose", "recursive", "t.json", "-o", "cert.json")
    assert code == 0
    cert = json.loads((workdir / "cert.json").read_text())
    assert cert["constraint"] == {"avoid": 1} and len(cert["vertices"]) == 1
    code, _, _ = run(capsys, "verify", "path", "t.json", "cert.json")
    assert code == 0


def test_decompose_three_color_transitive_exit_two(workdir, capsys):
    t = ColoredTournament(
        6, 2, ((u, v, 1) for u in range(1, 7) for v in range(u + 1, 7))
    )
    (workdir / "t.json").write_text(json.dumps(t.to_json()))
    code, out, _ = run(capsys, "decompose", "three-color", "t.json")
    assert code == 2


def test_decompose_three_color_writes_certificate(workdir, capsys):
    t = random_tournament(20, 3, seed=4)
    (workdir / "t.json").write_text(json.dumps(t.to_json()))
    code, _, _ = run(capsys, "decompose", "three-color", "t.json", "-o", "c.json")
    assert code == 0
    code, out, _ = run(capsys, "verify", "path", "t.json", "c.json")
    assert code == 0


def test_seed_reproducibility_byte_for_byte(workdir, capsys):
    t = random_tournament(26, 3, seed=2)
    (workdir / "t.json").write_text(json.dumps(t.to_json()))
    outputs = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "decompose", "recursive", "t.json", "--seed", "7", "-o", "c.json", "--json"
        )
        assert code == 0
        outputs.append(out + (workdir / "c.json").read_text())
    assert outputs[0] == outputs[1]


def _refuse_oracle(monkeypatch):
    def refuse(*args):
        raise AssertionError("the oracle ran")

    monkeypatch.setitem(search._ORACLES, "F", refuse)


@pytest.mark.parametrize(
    "path,message",
    [
        ("d", "error: cannot read cache d: [Errno 21] Is a directory"),
        ("nope/c.jsonl", "error: cannot write cache nope/c.jsonl: [Errno 2] No such file"),
        ("bad.jsonl", "error: cannot read cache bad.jsonl: 'utf-8' codec can't decode"),
    ],
    ids=["directory", "missing_directory", "not_utf8"],
)
def test_search_unusable_cache_exit_three(workdir, capsys, monkeypatch, path, message):
    # the cache is read, and opened for append, before the search runs
    _refuse_oracle(monkeypatch)
    (workdir / "d").mkdir()
    (workdir / "bad.jsonl").write_bytes(b"\xff\xfe\n")
    code, out, err = run(capsys, "search", "F", "2", "1", "3", "--cache", path)
    assert code == 3
    assert out == ""
    assert err.startswith(message) and err.count("\n") == 1


def test_search_exact_hit_needs_no_writable_cache(workdir, capsys, monkeypatch):
    code, first, _ = run(capsys, "search", "F", "2", "1", "3", "--cache", "c.jsonl", "--json")
    assert code == 0
    _refuse_oracle(monkeypatch)

    def refuse_append(path, text):
        raise search.CacheError(f"cannot write cache {path}")

    monkeypatch.setattr(search, "_append", refuse_append)
    code, again, err = run(capsys, "search", "F", "2", "1", "3", "--cache", "c.jsonl", "--json")
    assert (code, again, err) == (0, first, "")


def _collector_cases(workdir):
    """Commands that read (and one that writes) a JSON file: argv, exit code, stderr start."""
    (workdir / "t.json").write_text(json.dumps(random_tournament(4, 2, seed=0).to_json()))
    cert = {"mode": "directed", "constraint": {"avoid": 1}, "vertices": [1]}
    (workdir / "c.json").write_text(json.dumps(cert))
    (workdir / "k.json").write_text(json.dumps(random_ordered_coloring(3, 2, seed=0).to_json()))
    (workdir / "junk.json").write_text("{not json")
    (workdir / "float.json").write_text('{"q": 2, "n": 3, "r": 1, "vectors": [[1, 1.5]]}')
    (workdir / "invalid.json").write_text('{"q": 2, "n": 2, "r": 1, "vectors": [[1, 3]]}')
    (workdir / "bool.json").write_text('{"q": 2, "n": 2, "r": 1, "vectors": [[1, true]]}')
    return {
        "verify_path": (["verify", "path", "t.json", "c.json"], 0, ""),
        "construct_product": (["construct", "product", "k.json", "k.json", "-o", "p.json"], 0, ""),
        "unreadable": (["verify", "sequence", "missing.json"], 3, "error: cannot parse "),
        "not_json": (["verify", "sequence", "junk.json"], 3, "error: cannot parse "),
        "float_literal": (["verify", "sequence", "float.json"], 3, "error: cannot parse "),
        "invalid_object": (["verify", "sequence", "invalid.json"], 3, "error: bad family: "),
        "boolean": (["verify", "sequence", "bool.json"], 3, "error: bad family: boolean true"),
    }


@pytest.fixture(params=[True, False], ids=["collector_on", "collector_off"])
def collector(request):
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize(
    "case",
    [
        "verify_path",
        "construct_product",
        "unreadable",
        "not_json",
        "float_literal",
        "invalid_object",
        "boolean",
    ],
)
def test_json_io_restores_collector_state(workdir, capsys, collector, case):
    # decoding and encoding pause the cyclic collector and put it back as
    # they found it, on success and on every exit-3 path of reading a file
    argv, want, err_start = _collector_cases(workdir)[case]
    code, _, err = run(capsys, *argv)
    assert (code, gc.isenabled()) == (want, collector)
    assert err.startswith(err_start)
