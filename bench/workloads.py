"""The benchmark's four workloads: seeded input files, job lists and checks.

A job is one ``ramsey-pods`` command (``{"argv": [...]}``) or one direct
library call the command line does not expose (``{"call": name}``).  Every
job carries the exit code it must return and a check that recomputes its
output independently (see checkers.py).  Sizes are fixed here, before any
measurement; the seed only changes the contents of the files.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import checkers as ck
import corpus

WORKLOADS = ("decompose_exact", "decompose_level", "search", "certify")

# (kind, N, q).  N = 21 sits at the exact DP's cap edge; N <= 22 goes to the
# exact DP whole, and N = 26-32 splits into halves of 13-16 vertices that it
# solves.  Most jobs cost about the same, so the job-time median and tail
# fall inside a cluster rather than in a gap between two sizes.
DECOMPOSE_EXACT = [
    ("near", 21, 2),
    ("random", 17, 3),
    ("near", 17, 5),
    ("near", 18, 4),
    ("product", 18, 3),
    ("random", 26, 5),
    ("balance", 27, 3),
    ("random", 28, 4),
    ("near", 28, 5),
    ("near", 30, 4),
    ("product_flip", 30, 5),
    ("near", 32, 3),
    ("product", 32, 4),
]

# Top-level sizes whose recursion never hands 16-22 vertices to the exact DP:
# 48-58 splits into halves of 24-29 and 96 into halves of 48, and those
# split into halves of at most 15.
DECOMPOSE_LEVEL = [
    ("random", 48, 3),
    ("near", 48, 4),
    ("canonical_flip", 49, 2),
    ("balance_flip", 49, 2),
    ("random", 52, 3),
    ("near", 52, 5),
    ("product_flip", 54, 4),
    ("random", 56, 3),
    ("near", 56, 4),
    ("product", 56, 4),
    ("near", 58, 3),
    ("near", 96, 4),
    ("product_flip", 96, 4),
]

# (kind, q, r, size, node budget, value).  F 3 2 4 = 8 is the README's
# anchor; F 2 1 n = n^q (lexicographic order) and f 2 1 N = ceil(sqrt N)
# (Erdos-Szekeres) are classical; the G values match an independent clique
# search (selftest.py).  The other values were computed by the program with
# budgets large enough to close: f 4 2 6 = 4 in about 180k nodes, g 3 2 5 = 3
# in 4.3k nodes.  Every key may close or stop at a bound (exit code 0 or 2);
# at the commit that introduced the benchmark, f 4 2 6, f 2 1 10 and g 3 2 5
# trip their node budget and return a bound.  A bound must not beat the
# value, and only closed keys add to exact_frac.
SEARCH_KEYS = [
    ("F", 3, 2, 4, 100_000, 8),
    ("F", 3, 2, 5, 100_000, 10),
    ("F", 2, 1, 6, 100_000, 36),
    ("G", 3, 2, 5, 400_000, 11),
    ("G", 4, 2, 3, 200_000, 11),
    ("f", 3, 2, 5, 100_000, 4),
    ("f", 2, 1, 6, 100_000, 3),
    ("f", 4, 2, 6, 8_000, 4),
    ("f", 2, 1, 10, 20_000, 4),
    ("g", 3, 2, 4, 100_000, 3),
    ("g", 2, 1, 6, 100_000, 3),
    ("g", 3, 2, 5, 80, 3),
]

# decompose --trace branch names, counted into decomposition.wins.*
BRANCHES = ("exact", "baseline", "pattern", "case1", "case2", "recurse_left", "recurse_right")


def build(workload: str, seed: int, workdir: Path) -> list[dict]:
    """Write the workload's inputs under workdir and return its job list."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload in ("decompose_exact", "decompose_level"):
        specs = DECOMPOSE_EXACT if workload == "decompose_exact" else DECOMPOSE_LEVEL
        return _decompose_jobs(specs, seed, workdir)
    if workload == "search":
        return _search_jobs(workdir)
    if workload == "certify":
        return _certify_jobs(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def _decompose_jobs(specs, seed: int, workdir: Path) -> list[dict]:
    jobs = []
    for i, (kind, n, q) in enumerate(specs):
        name = f"t{i:02d}_{kind}_{n}_{q}"
        inst = workdir / f"{name}.json"
        corpus.write_json(inst, corpus.tournament(corpus.rng_for(seed, name), kind, n, q))
        argv = ["decompose", "recursive", str(inst), "-o", str(workdir / f"{name}.cert.json")]
        jobs.append(
            {
                "id": name,
                "argv": argv,
                "trace_argv": ["--trace", str(workdir / f"{name}.trace.jsonl")],
                "expect": [0],
                "check": {"type": "decompose", "instance": str(inst), "cert": argv[4]},
            }
        )
    return jobs


def _search_jobs(workdir: Path) -> list[dict]:
    """Two sweeps over the fixed key list against a cache that starts empty.

    The keys are the inputs and they are fixed, so the seed changes nothing
    here: another order would change what each query finds in the cache.
    """
    cache = str(workdir / "cache.jsonl")
    jobs = []
    for sweep in (1, 2):
        for kind, q, r, size, nodes, value in SEARCH_KEYS:
            argv = ["search", kind, str(q), str(r), str(size), "--budget", str(nodes), "--cache", cache]
            jobs.append(
                {
                    "id": f"s{sweep}_{kind}_{q}_{r}_{size}",
                    "argv": argv,
                    "expect": [0, 2],
                    "check": {"type": "search", "key": [kind, q, r, size], "value": value},
                }
            )
    jobs[0]["reset"] = [cache]
    return jobs


def _certify_jobs(seed: int, workdir: Path) -> list[dict]:
    w = workdir
    rng = corpus.rng_for(seed, "certify")
    jobs: list[dict] = []

    def job(name, argv=None, call=None, expect=0, **check):
        entry = {"id": name, "expect": [expect], "check": check}
        if argv is not None:
            entry["argv"] = [str(a) for a in argv]
        else:
            entry["call"] = call
        jobs.append(entry)

    def put(name: str, payload: dict) -> str:
        path = w / name
        corpus.write_json(path, payload)
        return str(path)

    # constructions: the program writes the file, the benchmark rebuilds it
    job("construct_canonical", ["construct", "canonical", 4, 4, "-o", w / "canon.json"],
        type="canonical", out=str(w / "canon.json"), q=4, m=4)
    base = corpus.random_coloring(rng, 7, 3)
    base_path = put("base.json", corpus.coloring_json(base, 3))
    job("construct_balance", ["construct", "balance", base_path, "-o", w / "bal.json"],
        type="balance", base=base_path, out=str(w / "bal.json"))
    fa = put("pa.json", corpus.coloring_json(corpus.random_coloring(rng, 15, 3), 3))
    fb = put("pb.json", corpus.coloring_json(corpus.random_coloring(rng, 20, 3), 3))
    job("construct_product", ["construct", "product", fa, fb, "-o", w / "prod.json"],
        type="product", a=fa, b=fb, out=str(w / "prod.json"))
    va = _increasing_family(rng, 16)
    vb = _increasing_family(rng, 48)
    pva, pvb = put("va.json", va), put("vb.json", vb)
    job("construct_boost", ["construct", "boost", pva, pvb, "-o", w / "boost.json"],
        type="boost", a=pva, b=pvb, out=str(w / "boost.json"))

    # verification: benchmark-made files with a known verdict, half of them planted
    seq = ck.boost(va, vb)
    # planted defects sit at the end, so finding them costs a full scan
    vecs = seq["vectors"]
    seq_bad = dict(seq, vectors=vecs[:-2] + [vecs[-1], vecs[-2]])
    job("verify_sequence", ["verify", "sequence", put("seq.json", seq)], size=len(seq["vectors"]))
    job("verify_sequence_bad", ["verify", "sequence", put("seq_bad.json", seq_bad)], expect=1)
    comp = dict(seq, vectors=rng.sample(vecs, 512))
    comp_bad = dict(comp, vectors=comp["vectors"] + [comp["vectors"][-1]])
    job("verify_comparable", ["verify", "comparable", put("comp.json", comp)], size=len(comp["vectors"]))
    job("verify_comparable_bad", ["verify", "comparable", put("comp_bad.json", comp_bad)], expect=1)
    apices = rng.sample(vecs, 384)
    pack = {"q": seq["q"], "r": seq["r"], "n": seq["n"], "apices": apices}
    pack_bad = dict(pack, apices=apices + [apices[-1]])
    pack_path = put("pack.json", pack)
    job("verify_packing", ["verify", "packing", pack_path], size=len(apices))
    job("verify_packing_bad", ["verify", "packing", put("pack_bad.json", pack_bad)], expect=1)

    bal = corpus.balance(corpus.random_coloring(rng, 8, 3), 3)
    bal_path = put("bal_in.json", corpus.coloring_json(bal, 3))
    mono = ck.longest_monotone_path(bal, {2, 3})
    cert = {"mode": "monotone", "constraint": {"avoid": 1}, "vertices": mono}
    job("verify_path_monotone", ["verify", "path", bal_path, put("mono.json", cert)], size=len(mono))
    bad = dict(cert, constraint={"avoid": bal[mono[-2]][mono[-1]]})
    job("verify_path_monotone_bad", ["verify", "path", bal_path, put("mono_bad.json", bad)], expect=1)
    tour, path = _tournament_with_path(rng, 24, 20, 3)
    tour_path = put("tour.json", tour)
    cert = {"mode": "directed", "constraint": {"avoid": 1}, "vertices": path}
    job("verify_path_directed", ["verify", "path", tour_path, put("dir.json", cert)], size=len(path))
    bad = dict(cert, vertices=path[:-2] + [path[-1], path[-2]])
    job("verify_path_directed_bad", ["verify", "path", tour_path, put("dir_bad.json", bad)], expect=1)

    # library calls the command line does not expose
    rt_in = put("rt_in.json", corpus.coloring_json(corpus.random_coloring(rng, 220, 3), 3))
    job("reductions_roundtrip", call={"name": "roundtrip", "input": rt_in, "out": str(w / "rt")},
        type="roundtrip", input=rt_in, out=str(w / "rt"))
    merge_in = put("merge_in.json", corpus.tournament(rng, "random", 340, 4))
    blocks = [[1, 2], [3, 4]]
    job("reductions_merge",
        call={"name": "merge", "input": merge_in, "blocks": blocks, "out": str(w / "merged.json")},
        type="merge", input=merge_in, blocks=blocks, out=str(w / "merged.json"))
    shuffled = dict(seq, vectors=rng.sample(vecs, 192))
    reorder_in = put("reorder_in.json", shuffled)
    job("core_reorder", call={"name": "reorder", "input": reorder_in, "out": str(w / "order.json")},
        type="reorder", input=reorder_in, out=str(w / "order.json"))
    job("pods_density", call={"name": "density", "input": pack_path, "out": str(w / "density.json")},
        type="density", input=pack_path, out=str(w / "density.json"))
    return jobs


def _increasing_family(rng: random.Random, size: int) -> dict:
    """A (q-1)-increasing family: per-vertex avoiding lengths of a random coloring."""
    vectors = ck.ending_vectors(corpus.random_coloring(rng, size, 3), 3)
    return {"q": 3, "n": max(max(v) for v in vectors), "r": 2, "vectors": vectors}


def _tournament_with_path(rng: random.Random, a: int, b: int, q: int):
    """A relabeled, lightly flipped lex product and an avoiding path in it."""
    col = corpus.lex_product(corpus.random_coloring(rng, a, q), corpus.random_coloring(rng, b, q))
    n = len(col) - 1
    mono = ck.longest_monotone_path(col, set(range(2, q + 1)))
    on_path = set(zip(mono, mono[1:]))
    edges = corpus.transitive_edges(col)
    off = [i for i, (u, v, _) in enumerate(edges) if (u, v) not in on_path]
    for i in rng.sample(off, n // 8):
        u, v, c = edges[i]
        edges[i] = [v, u, c]
    relabeled, perm = corpus.relabel(rng, n, edges)
    return {"N": n, "q": q, "edges": relabeled}, [perm[v - 1] for v in mono]


# ---------------------------------------------------------------------------
# checks


def check_job(job: dict, rc: int | None, stdout: str) -> tuple[str | None, int, bool]:
    """(problem, size, exact) for one finished job.

    ``size`` is what the job adds to cert_len_sum; ``exact`` says whether it
    returned a final answer rather than a bound.
    """
    if rc not in job["expect"]:
        return f"exit code {rc} not in expected {job['expect']}", 0, False
    spec = job["check"]
    kind = spec.get("type")
    try:
        if kind == "decompose":
            inst = ck.load(spec["instance"])
            t = ck.Tournament(inst)
            cert = ck.load(spec["cert"])
            problem = ck.check_directed_path(t, cert, ck.path_floor(t.n, t.q))
            return problem, len(cert.get("vertices", ())), True
        if kind == "search":
            record = json.loads(stdout.splitlines()[0])
            problem = ck.search_problem(record, tuple(spec["key"]), spec["value"], rc)
            return problem, ck.witness_size(record), rc == 0
        if kind is None:
            return None, spec.get("size", 0), True
        problem, size = _CERTIFY_CHECKS[kind](spec, stdout)
        return problem, size, True
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"output unreadable: {type(exc).__name__}: {exc}", 0, False


def _check_canonical(spec, stdout):
    out = ck.load(spec["out"])
    q, m = spec["q"], spec["m"]
    if out.get("N") != m**q or out.get("q") != q:
        return "wrong size or palette", 0
    col = ck.coloring_matrix(out)
    if col != corpus.canonical(q, m):
        return "coloring differs from the q-fold product of cliques", 0
    for c in range(1, q + 1):
        if ck.longest_monotone(col, {c}) != m:
            return f"single color {c} path is not {m}", 0
    return None, m**q


def _check_balance(spec, stdout):
    base = ck.load(spec["base"])
    q = base["q"]
    out = ck.load(spec["out"])
    col = ck.coloring_matrix(out)
    if col != corpus.balance(ck.coloring_matrix(base), q):
        return "coloring differs from the product of color shifts", 0
    bcol = ck.coloring_matrix(base)
    product = 1
    for c in range(1, q + 1):
        product *= ck.longest_monotone(bcol, set(range(1, q + 1)) - {c})
    for c in range(1, q + 1):
        got = ck.longest_monotone(col, set(range(1, q + 1)) - {c})
        if got != product:
            return f"avoiding color {c} gives {got}, not the product {product}", 0
    reported = {int(k): v for k, v in _stats(stdout)["avoiding_lengths"].items()}
    if reported != {c: product for c in range(1, q + 1)}:
        return f"printed avoiding lengths {reported} disagree", 0
    return None, out["N"]


def _check_product(spec, stdout):
    out = ck.load(spec["out"])
    want = corpus.lex_product(ck.coloring_matrix(ck.load(spec["a"])), ck.coloring_matrix(ck.load(spec["b"])))
    if ck.coloring_matrix(out) != want:
        return "coloring differs from the lex product", 0
    return None, out["N"]


def _check_boost(spec, stdout):
    out = ck.load(spec["out"])
    want = ck.boost(ck.load(spec["a"]), ck.load(spec["b"]))
    if (out.get("q"), out.get("n"), out.get("r"), out.get("vectors")) != (
        want["q"], want["n"], want["r"], want["vectors"]
    ):
        return "family differs from the digit-mixing product", 0
    problem = ck.family_problem(out, "sequence")
    return (f"boosted family: {problem}" if problem else None), len(out["vectors"])


def _check_roundtrip(spec, stdout):
    src = ck.load(spec["input"])
    col = ck.coloring_matrix(src)
    vectors = ck.ending_vectors(col, src["q"])
    fam = ck.load(spec["out"] + ".vectors.json")
    if fam.get("vectors") != vectors or fam.get("r") != src["q"] - 1:
        return "vectors differ from the per-vertex avoiding lengths", 0
    back = ck.load(spec["out"] + ".coloring.json")
    if ck.coloring_matrix(back) != ck.stalled_coloring(vectors):
        return "round-trip coloring differs from the stalled-coordinate rule", 0
    return None, len(vectors)


def _check_merge(spec, stdout):
    src = ck.load(spec["input"])
    block = {c: i + 1 for i, b in enumerate(spec["blocks"]) for c in b}
    want = sorted([u, v, block[c]] for u, v, c in src["edges"])
    out = ck.load(spec["out"])
    if out.get("q") != len(spec["blocks"]) or sorted(out.get("edges", [])) != want:
        return "merged tournament differs from the block relabeling", 0
    return None, src["N"]


def _check_reorder(spec, stdout):
    fam = ck.load(spec["input"])
    order = ck.load(spec["out"])["order"]
    if sorted(order) != list(range(1, len(fam["vectors"]) + 1)):
        return "order is not a permutation", 0
    problem = ck.family_problem(dict(fam, vectors=[fam["vectors"][i - 1] for i in order]), "sequence")
    return (f"reordered family: {problem}" if problem else None), len(order)


def _check_density(spec, stdout):
    pack = ck.load(spec["input"])
    want = ck.packing_density(pack["q"], pack["r"], pack["n"], len(pack["apices"]))
    got = ck.load(spec["out"])["density"]
    if got != [want.numerator, want.denominator]:
        return f"density {got} != {want}", 0
    return None, len(pack["apices"])


def _stats(stdout: str) -> dict:
    """The ``key: value`` lines construct prints, parsed back."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key != "wrote":
            out[key] = json.loads(value.replace("'", '"'))
    return out


_CERTIFY_CHECKS = {
    "canonical": _check_canonical,
    "balance": _check_balance,
    "product": _check_product,
    "boost": _check_boost,
    "roundtrip": _check_roundtrip,
    "merge": _check_merge,
    "reorder": _check_reorder,
    "density": _check_density,
}
