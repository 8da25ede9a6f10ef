"""The ramsey-pods benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The seed generates the workload's input files (bench/corpus.py,
bench/workloads.py); the program only ever sees those files.  The job list
runs in a child process (bench/worker.py), so peak RSS is the workload's
own.  Every output is checked by bench/checkers.py, which does not import
the package.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of the traced passes.  The lines
before it name each metric with its unit.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from worker import MIN_PASSES, reference_loop, to_reference_speed  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_SPAWNS = 9
WORKER_TIMEOUT_S = 170
SETUP_CODE = "import ramsey_pods.cli as c; c.build_parser()"

E2E = {  # name -> unit
    "wall_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "frac",
    "cert_len_sum": "count",
    "exact_frac": "frac",
}


def measure_setup() -> list[float]:
    """Fresh interpreter to ``ramsey_pods.cli`` imported and its parser built.

    Scaled to the reference speed like the job times (see worker.py).
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # an untimed first spawn reads the interpreter and the package from disk
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True, timeout=60)
    times = []
    ref_before = reference_loop()
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True, timeout=60)
        seconds = time.perf_counter() - start
        ref_after = reference_loop()
        times.append(to_reference_speed(seconds, ref_before, ref_after))
        ref_before = ref_after
    return times


def tail_rank(samples: int) -> float:
    """The highest percentile with ten samples beyond it."""
    return 100.0 * (samples - 10) / samples


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def fastest_runs(passes: list[dict], k: int) -> list[float]:
    """Each job's k fastest times, so every run has the same sample count."""
    per_job = zip(*([j["s"] for j in p["jobs"]] for p in passes))
    return [t for times in per_job for t in sorted(times)[:k]]


def end_to_end(result: dict, setup: list[float]):
    passes = result["passes"]
    times = fastest_runs(passes, MIN_PASSES)
    records = [j for p in passes for j in p["jobs"]]
    ok = [j for j in records if j["problem"] is None]
    first = passes[0]["jobs"]
    pct = tail_rank(len(times))
    metrics = {
        # the drift only ever slows a job down, so each job's fastest time
        # is the steadiest estimate of its cost
        "wall_s": sum(fastest_runs(passes, 1)),
        "job_p50_s": statistics.median(times),
        "job_tail_s": percentile(times, pct),
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(setup),
        "ok_frac": len(ok) / len(records),
        "cert_len_sum": sum(j["size"] for j in first if j["problem"] is None),
        "exact_frac": sum(1 for j in records if j["exact"] and j["problem"] is None) / len(records),
    }
    notes = {
        "raw_wall_s": round(statistics.median(p["raw_wall_s"] for p in passes), 4),
        "passes": len(passes),
        "job_samples": len(times),
        "job_tail_percentile": round(pct, 2),
        "job_tail_beyond": len(times) - math.ceil(pct / 100.0 * len(times)),
        "setup_spawns": len(setup),
    }
    return metrics, notes


def per_layer(result: dict) -> tuple[dict, dict]:
    """Counts from the first traced pass, times as medians over traced passes."""
    passes = result["passes"]
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    first = traced[0]["layers"]

    def agg(name: str, field: str, source=first) -> float:
        return source.get(name, {}).get(field, 0)

    def med(name: str, field: str) -> float:
        return statistics.median(agg(name, field, p["layers"]) for p in traced)

    m: dict[str, float] = {}
    states = agg("paths.oracle_build", "count")
    biggest = agg("paths.oracle_build", "max")
    m["paths.oracle_build.calls"] = agg("paths.oracle_build", "calls")
    m["paths.oracle_build.s"] = med("paths.oracle_build", "s")
    m["paths.oracle_build.states"] = states
    m["paths.oracle_build.n_max"] = next(n for n in range(64) if n << n >= biggest) if biggest else 0
    for layer in ("paths.oracle_query", "paths.monotone", "paths.validate"):
        m[f"{layer}.calls"] = agg(layer, "calls")
        m[f"{layer}.s"] = med(layer, "s")
    for layer in ("order", "triangles", "clean"):
        m[f"tournament.{layer}.s"] = med(f"tournament.{layer}", "s")
    m["tournament.restrict.calls"] = agg("tournament.restrict", "calls")
    m["tournament.restrict.s"] = med("tournament.restrict", "s")
    m["tournament.parse.s"] = med("tournament.parse", "s")
    m["decomposition.nodes"] = agg("decomposition.node", "all")
    m["decomposition.self_s"] = med("decomposition.node", "self_s")
    m["decomposition.baseline.s"] = med("decomposition.baseline", "s")
    m["decomposition.pattern.s"] = med("decomposition.pattern", "s")
    m["decomposition.classify.self_s"] = med("decomposition.classify", "self_s")
    m["decomposition.gluing.s"] = med("decomposition.gluing", "s")
    m["decomposition.level.calls"] = agg("decomposition.level", "calls")
    m["decomposition.level.s"] = med("decomposition.level", "s")
    wins = traced[0]["wins"]
    for branch in workloads.BRANCHES:
        m[f"decomposition.wins.{branch}"] = wins.get(branch, 0)
    for kind in "FGfg":
        nodes = agg(f"search.{kind}", "count")
        seconds = med(f"search.{kind}", "s")
        m[f"search.{kind}.nodes"] = nodes
        m[f"search.{kind}.s"] = seconds
        m[f"search.{kind}.nodes_per_s"] = nodes / seconds if seconds else 0
    for layer in ("cache_get", "cache_put", "validate_record"):
        m[f"search.{layer}.calls"] = agg(f"search.{layer}", "calls")
        m[f"search.{layer}.s"] = med(f"search.{layer}", "s")
    m["constructions.lex_product.calls"] = agg("constructions.lex_product", "calls")
    m["constructions.lex_product.s"] = med("constructions.lex_product", "s")
    for layer in ("canonical", "balance", "boost"):
        m[f"constructions.{layer}.s"] = med(f"constructions.{layer}", "s")
    m["core.validate.calls"] = agg("core.validate", "calls")
    m["core.validate.s"] = med("core.validate", "s")
    m["core.validate.pairs"] = agg("core.validate", "count")
    m["core.transitive_order.s"] = med("core.transitive_order", "s")
    m["reductions.translate.s"] = med("reductions.translate", "s")
    m["reductions.merge.s"] = med("reductions.merge", "s")
    m["pods.packing.s"] = med("pods.packing", "s")
    m["pods.density.s"] = med("pods.density", "s")
    m["cli.self_s"] = med("cli", "self_s")
    spans = statistics.median(p["spans"] for p in traced)
    untraced_raw = statistics.median(p["raw_wall_s"] for p in plain)
    m["bench.trace_overhead_frac"] = spans * result["span_cost_s"] / untraced_raw
    notes = {"traced_passes": len(traced), "untraced_passes": len(plain)}
    return m, notes


def unit_of(name: str) -> str:
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("nodes_per_s"):
        return "1/s"
    if name.endswith(".s") or name.endswith("self_s"):
        return "s"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ramsey_pods" / "cli.py").is_file():
        print(f"error: no package source under {SRC}; run from the repository root", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        setup = measure_setup() if not args.trace else []
        jobs = workloads.build(args.workload, args.seed, work / "files")
        jobs_path = work / "jobs.json"
        jobs_path.write_text(json.dumps(jobs))
        result_path = work / "result.json"
        subprocess.run(
            [
                sys.executable, str(HERE / "worker.py"), str(jobs_path), str(result_path),
                "--src", str(SRC), "--seconds", str(args.seconds), "--trace", str(args.trace),
            ],
            check=True,
            timeout=WORKER_TIMEOUT_S,
        )
        result = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    records = [j for p in result["passes"] for j in p["jobs"]]
    failed = [j for j in records if j["problem"] is not None]
    for j in failed[:20]:
        print(f"FAILED {j['id']}: {j['problem']}")
    if args.trace:
        metrics, notes = per_layer(result)
        units = {name: unit_of(name) for name in metrics}
    else:
        metrics, notes = end_to_end(result, setup)
        units = E2E
    print(f"workload {args.workload} seed {args.seed}: " + ", ".join(f"{k} {v}" for k, v in notes.items()))
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>14.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(records),
                "failed": len(failed),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
