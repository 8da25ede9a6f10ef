import dataclasses
import json
import tracemalloc

import pytest

from ramsey_pods import search
from ramsey_pods.budget import Budget
from ramsey_pods.core import VectorFamily, validate_comparable, validate_increasing
from ramsey_pods.search import (
    EXACT,
    LOWER_BOUND,
    UPPER_BOUND,
    ExtremalRecord,
    cache_get,
    cache_put,
    exact_F,
    exact_G,
    exact_f,
    exact_g,
    run_search,
    validate_record,
)

# values pinned by the standalone brute-force oracles
PINNED_F = {(2, 1, 2): 4, (3, 2, 2): 2, (4, 3, 2): 2, (3, 2, 3): 4, (2, 2, 3): 3}
PINNED_G = {(3, 2, 2): 2, (4, 3, 2): 2, (3, 2, 3): 5}
PINNED_f = {
    (2, 1, 2): 2,
    (2, 1, 3): 2,
    (2, 1, 4): 2,
    (2, 1, 5): 3,
    (2, 1, 6): 3,
    (3, 2, 3): 3,
    (3, 2, 4): 3,
    (3, 2, 5): 4,
}
PINNED_g = {(2, 1, 3): 2, (2, 1, 4): 2}
# values closed before exact_F dropped dominated starts, at 75,533 to
# 1,181,698 nodes and up to 26 s; each key now closes in under a second.
# f at r = q - 1 is the least m with F(q, q - 1, m) >= N
CLOSED_F = {(3, 2, 6): 14, (3, 2, 7): 17, (4, 3, 6): 9}
CLOSED_f = {(3, 2, 15): 7, (3, 2, 16): 7, (3, 2, 17): 7, (4, 3, 8): 6, (4, 3, 9): 6}


@pytest.mark.parametrize("key,value", sorted(PINNED_F.items()))
def test_exact_F_pinned(key, value):
    rec = exact_F(*key)
    assert rec.status == EXACT
    assert rec.value == value
    assert validate_record(rec) is None


@pytest.mark.parametrize(
    "solver,key,value",
    [
        pytest.param(solver, key, value, id="_".join(map(str, (kind, *key))))
        for kind, solver, closed in (("F", exact_F, CLOSED_F), ("f", exact_f, CLOSED_f))
        for key, value in closed.items()
    ],
)
def test_closed_values_pinned(solver, key, value):
    rec = solver(*key)
    assert rec.status == EXACT
    assert rec.value == value
    assert validate_record(rec) is None


def test_exact_F_memo_holds_one_length_per_mask():
    # F 3 2 7 memoizes 98,242 masks; with (length, first point) tuples as
    # values its traced peak is 18.9 MiB, with lengths alone 13.6 MiB
    tracemalloc.start()
    try:
        rec = exact_F(3, 2, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rec.value, rec.nodes_explored) == (17, 98_242)
    assert peak < 16 * 2**20


@pytest.mark.parametrize("key,value", sorted(PINNED_G.items()))
def test_exact_G_pinned(key, value):
    rec = exact_G(*key)
    assert rec.status == EXACT
    assert rec.value == value
    assert validate_record(rec) is None


@pytest.mark.parametrize("key,value", sorted(PINNED_f.items()))
def test_exact_f_pinned(key, value):
    rec = exact_f(*key)
    assert rec.status == EXACT
    assert rec.value == value
    assert validate_record(rec) is None


@pytest.mark.parametrize("key,value", sorted(PINNED_g.items()))
def test_exact_g_pinned(key, value):
    rec = exact_g(*key)
    assert rec.status == EXACT
    assert rec.value == value
    assert validate_record(rec) is None


def test_diagonal_families():
    for q in (1, 2, 3, 4):
        for n in (1, 2, 3):
            assert exact_F(q, q, n).value == n
    assert exact_f(3, 3, 5).value == 5
    assert exact_g(2, 2, 4).value == 4
    assert exact_g(3, 3, 1).value == 1
    assert exact_g(3, 1, 1).value == 1


@pytest.mark.parametrize("solver,q,r,n", [(exact_f, 6, 4, 5), (exact_g, 4, 3, 4)])
def test_r_at_least_n_minus_one_needs_no_search(solver, q, r, n):
    # a path through all n vertices has n - 1 edges, whose colors fit in
    # one r-subset, so every coloring or tournament has value n
    rec = solver(q, r, n)
    assert (rec.value, rec.status, rec.nodes_explored) == (n, EXACT, 0)
    assert validate_record(rec) is None


def test_g_equals_f_at_n_five():
    # the only desk-scale probe of whether non-transitive instances can be
    # strictly worse: they are not at this size (g is pinned by the
    # monochromatic floor ceil(sqrt(5)) = 3 = f from below)
    rec_g = exact_g(2, 1, 5)
    rec_f = exact_f(2, 1, 5)
    assert rec_g.status == rec_f.status == EXACT
    assert rec_g.value == rec_f.value == 3


def test_F_strict_below_G_at_two_thirds():
    # r = 2q/3 exactly; the increasing and comparable questions separate
    assert exact_F(3, 2, 3).value == 4
    assert exact_G(3, 2, 3).value == 5


@pytest.mark.parametrize("solver", [exact_F, exact_G])
@pytest.mark.parametrize("q,n", [(2, 129), (15, 2)])
def test_grid_above_cap_raises(solver, q, n):
    # refused before any grid point or the points x points relation is built
    with pytest.raises(ValueError, match="above the cap of 16384"):
        solver(q, 1, n, Budget(max_nodes=10))


def test_sandwich_bounds():
    for key in PINNED_F:
        if key in PINNED_G:
            assert exact_F(*key).value <= exact_G(*key).value
    assert exact_g(2, 1, 4).value <= exact_f(2, 1, 4).value
    assert exact_g(2, 1, 3).value <= exact_f(2, 1, 3).value


def test_deletion_monotonicity_on_exact_records():
    assert exact_F(3, 2, 2).value <= exact_F(2, 1, 2).value
    assert exact_F(4, 3, 2).value <= exact_F(3, 2, 2).value
    assert exact_G(4, 3, 2).value <= exact_G(3, 2, 2).value


def test_merge_bounds_on_exact_records():
    assert exact_f(3, 2, 4).value >= exact_f(2, 1, 4).value
    assert exact_f(4, 2, 4).value >= exact_f(2, 1, 4).value


def test_witnesses_revalidate():
    rec = exact_F(3, 2, 3)
    fam = VectorFamily.from_json(rec.certificate)
    assert validate_increasing(fam).ok()
    assert len(fam) == rec.value
    rec = exact_G(3, 2, 3)
    fam = VectorFamily.from_json(rec.certificate)
    assert validate_comparable(fam).ok()


def test_budget_downgrades_to_bound():
    rec = exact_F(3, 2, 4, Budget(max_nodes=20))
    assert rec.status == LOWER_BOUND
    assert rec.value >= 1
    assert validate_record(rec) is None
    rec = exact_f(3, 2, 5, Budget(max_nodes=3))
    assert rec.status == UPPER_BOUND
    assert validate_record(rec) is None
    # the downgraded bounds must bracket the true values
    assert rec.value >= PINNED_f[(3, 2, 5)]


def test_open_grid_value_closes():
    # whether the 4-side grid reaches the 8-vector ceiling was left to the
    # oracle; it closes quickly and meets the product-construction bound
    rec = exact_F(3, 2, 4)
    assert rec.status == EXACT
    assert rec.value == 8


def test_invalid_parameters():
    with pytest.raises(ValueError):
        exact_F(2, 3, 2)
    with pytest.raises(ValueError):
        run_search("X", 2, 1, 2)
    with pytest.raises(ValueError):
        exact_f(2, 0, 3)


def test_cache_roundtrip(tmp_path):
    path = tmp_path / "c.jsonl"
    rec = exact_F(2, 1, 2)
    assert cache_put(rec, path)
    got = cache_get("F", 2, 1, 2, path)
    assert got is not None and got.value == 4 and got.status == EXACT
    assert cache_get("F", 9, 9, 9, path) is None


def test_cache_never_weakens_exact(tmp_path):
    path = tmp_path / "c.jsonl"
    cache_put(exact_F(2, 1, 2), path)
    bound = exact_F(2, 1, 2, Budget(max_nodes=1))
    assert bound.status == LOWER_BOUND
    assert not cache_put(bound, path)
    assert cache_get("F", 2, 1, 2, path).status == EXACT


def test_cache_rejects_corrupt_lines(tmp_path):
    path = tmp_path / "c.jsonl"
    cache_put(exact_F(2, 1, 2), path)
    with open(path, "a") as fh:
        fh.write("not json at all\n")
        fh.write('[1, 2]\n"x"\n7\nnull\n')  # JSON, but not an object
        fh.write("[" * 10**5 + "]" * 10**5 + "\n")  # too deep for the decoder
        broken = exact_F(2, 1, 2).to_json()
        broken["value"] = 99  # witness no longer matches
        fh.write(json.dumps(broken) + "\n")
    got = cache_get("F", 2, 1, 2, path)
    assert got is not None and got.value == 4


@pytest.mark.parametrize("solver", [exact_f, exact_g])
def test_validate_record_rejects_r_zero(solver):
    # the record's parameters are checked before its witness is valued
    rec = dataclasses.replace(solver(2, 1, 3), r=0)
    assert validate_record(rec) == "corrupt witness: r=0 outside [1, 2]"


@pytest.mark.parametrize("status", ["bogus", 1, None, UPPER_BOUND])
def test_F_record_status_is_exact_or_lower_bound(tmp_path, status):
    # a bad status is skipped on read like a corrupt line, and never written
    path = tmp_path / "c.jsonl"
    good = exact_F(3, 2, 4, Budget(max_nodes=2))
    bad = dataclasses.replace(exact_F(3, 2, 4), status=status)
    assert validate_record(bad) == f"F records are exact or lower_bound, not {status!r}"
    cache_put(good, path)
    with open(path, "a") as fh:
        fh.write(json.dumps(bad.to_json()) + "\n")
    assert cache_get("F", 3, 2, 4, path) == good
    with pytest.raises(ValueError, match="refusing to persist"):
        cache_put(bad, path)


def test_f_record_status_is_exact_or_upper_bound():
    rec = exact_f(2, 1, 4)
    assert validate_record(dataclasses.replace(rec, status=UPPER_BOUND)) is None
    bad = dataclasses.replace(rec, status=LOWER_BOUND)
    assert validate_record(bad) == "f records are exact or upper_bound, not 'lower_bound'"


def test_cache_prefers_strongest_bound(tmp_path):
    # F 3 2 4 = 8 closes in 84 nodes: both budgets trip, at 3 and 8 vectors
    path = tmp_path / "c.jsonl"
    weak = exact_F(3, 2, 4, Budget(max_nodes=2))
    strong = exact_F(3, 2, 4, Budget(max_nodes=20))
    assert weak.status == strong.status == LOWER_BOUND
    cache_put(weak, path)
    cache_put(strong, path)
    assert cache_get("F", 3, 2, 4, path).value == max(weak.value, strong.value)


def test_cache_skips_bounds_no_stronger_than_cached(tmp_path):
    path = tmp_path / "c.jsonl"
    weak = exact_F(3, 2, 4, Budget(max_nodes=2))
    strong = exact_F(3, 2, 4, Budget(max_nodes=20))
    assert weak.status == strong.status == LOWER_BOUND
    assert weak.value < strong.value
    assert cache_put(strong, path)
    assert not cache_put(weak, path)
    assert not cache_put(strong, path)
    lines = [l for l in path.read_text().splitlines() if l.strip()]
    assert len(lines) == 1


def test_cache_validates_only_the_key_it_reads(tmp_path, monkeypatch):
    path = tmp_path / "c.jsonl"
    for rec in (exact_F(2, 1, 2), exact_F(2, 2, 2), exact_g(2, 1, 3), exact_f(2, 1, 4)):
        cache_put(rec, path)
    seen = []

    def counting(rec):
        seen.append((rec.kind, rec.q, rec.r, rec.size))
        return validate_record(rec)

    monkeypatch.setattr(search, "validate_record", counting)
    assert cache_get("g", 2, 1, 3, path).value == 2
    assert seen == [("g", 2, 1, 3)]
    seen.clear()
    assert cache_put(exact_F(2, 1, 2, Budget(max_nodes=1)), path) is False
    assert seen == [("F", 2, 1, 2)] * 2  # the new record, then the cached one


def test_cache_env_default(tmp_path, monkeypatch):
    target = tmp_path / "env.jsonl"
    monkeypatch.setenv("RAMSEY_PODS_CACHE", str(target))
    rec = run_search("F", 2, 1, 2)
    assert rec.status == EXACT
    assert target.exists()
    assert cache_get("F", 2, 1, 2).value == 4


def test_run_search_uses_cache(tmp_path):
    path = tmp_path / "c.jsonl"
    first = run_search("f", 2, 1, 4, cache=path)
    assert first.status == EXACT
    again = run_search("f", 2, 1, 4, cache=path)
    assert again.to_json() == first.to_json()


def test_record_json_roundtrip():
    rec = exact_g(2, 1, 3)
    assert ExtremalRecord.from_json(rec.to_json()) == rec


def test_record_json_reads_integers_only(tmp_path):
    data = exact_F(2, 1, 2).to_json()
    for key in ("q", "r", "size", "value", "nodes_explored"):
        for bad in (str(data[key]), float(data[key])):
            with pytest.raises(TypeError):
                ExtremalRecord.from_json(dict(data, **{key: bad}))
    # the cache skips such a line instead of reading "3" as 3
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(dict(data, q="2")) + "\n")
    assert cache_get("F", 2, 1, 2, path) is None


def test_record_json_reads_wall_seconds_as_a_number(tmp_path):
    data = exact_F(2, 1, 2).to_json()
    assert ExtremalRecord.from_json(dict(data, wall_seconds=1)).wall_seconds == 1.0
    for key, bad in (("wall_seconds", " 0.5 "), ("wall_seconds", True), ("q", True)):
        with pytest.raises(TypeError):
            ExtremalRecord.from_json(dict(data, **{key: bad}))
    # the cache skips such a line instead of reading " 0.5 " as 0.5
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(dict(data, wall_seconds=" 0.5 ")) + "\n")
    assert cache_get("F", 2, 1, 2, path) is None
