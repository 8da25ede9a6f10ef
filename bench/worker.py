"""Runs one workload's job list in passes, in a process of its own.

    python3 bench/worker.py JOBS.json RESULT.json --src SRC --seconds S --trace 0|1

A closed loop with one client: each job starts when the previous one has
finished.  Every pass runs the whole job list; a job's time covers only the
job, and its output is checked right after, outside that time.  Passes go on
while another one fits in the time given, with at least ``MIN_PASSES``.  In
a traced run the passes alternate between untraced and traced, starting
untraced.

The host's speed drifts: a fixed Python loop took from 0.6x to 1.7x its
median time, in stretches of several seconds to a minute, on the 2-vCPU
machine the benchmark was written on.  So a fixed reference loop is timed
between jobs, with a warm cache, and each job's time is scaled to the
reference speed, at which that loop takes ``REF_NOMINAL_S``.  The raw time
is kept beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import sys
import time
from collections import Counter
from pathlib import Path

import tracing
import workloads

MIN_PASSES = 3
REF_STEPS = 100_000
REF_NOMINAL_S = 0.008  # the reference loop's time at the reference speed
_REF_CHAIN = list(range(1 << 12))
random.Random(0).shuffle(_REF_CHAIN)


def _chase(steps: int) -> int:
    chain = _REF_CHAIN
    i = total = 0
    for _ in range(steps):
        i = chain[i]
        total += i * i
    return total


def reference_loop() -> float:
    """Seconds the fixed reference loop takes now.

    It follows a shuffled 4096-entry list, small enough to stay in the
    core's own cache.  An untimed pass over the list first brings it back
    into cache, so the timed runs measure the core's speed, not what the
    job before it left in the cache.  The faster of two timed runs is kept,
    so that a hiccup of a few milliseconds does not count as a slow host.
    """
    _chase(len(_REF_CHAIN))
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        _chase(REF_STEPS)
        best = min(best, time.perf_counter() - start)
    return best


def to_reference_speed(seconds: float, ref_before: float, ref_after: float) -> float:
    """A job's time at the reference speed.

    The faster of the loop times around the job is the divisor: a slow
    reading on one side alone would make the job look fast, and each
    job's fastest time is what the statistics keep.
    """
    return seconds * REF_NOMINAL_S / min(ref_before, ref_after)


def _call(spec: dict) -> int:
    """Library calls the command line does not expose; output goes to files.

    The names are looked up at call time, so a traced pass gets the tracer's
    wrappers.
    """
    from ramsey_pods.core import VectorFamily, transitive_order
    from ramsey_pods.pods import Packing, packing_density
    from ramsey_pods.reductions import (
        ColorPartition,
        coloring_to_vectors,
        merge_colors,
        vectors_to_coloring,
    )
    from ramsey_pods.tournament import ColoredTournament, OrderedColoring

    data = json.loads(Path(spec["input"]).read_text())
    name = spec["name"]
    if name == "roundtrip":
        fam = coloring_to_vectors(OrderedColoring.from_json(data))
        back = vectors_to_coloring(fam)
        Path(spec["out"] + ".vectors.json").write_text(json.dumps(fam.to_json()))
        Path(spec["out"] + ".coloring.json").write_text(json.dumps(back.to_json()))
    elif name == "merge":
        partition = ColorPartition(tuple(frozenset(b) for b in spec["blocks"]))
        merged = merge_colors(ColoredTournament.from_json(data), partition)
        Path(spec["out"]).write_text(json.dumps(merged.to_json()))
    elif name == "reorder":
        order = transitive_order(VectorFamily.from_json(data))
        if not isinstance(order, tuple):
            return 1
        Path(spec["out"]).write_text(json.dumps({"order": list(order)}))
    elif name == "density":
        density = packing_density(Packing.from_json(data))
        Path(spec["out"]).write_text(json.dumps({"density": [density.numerator, density.denominator]}))
    else:
        raise ValueError(f"unknown call {name!r}")
    return 0


def settle_heap() -> None:
    """Collect the garbage earlier jobs left and set the rest aside.

    A command-line call starts with a fresh heap.  Here the heap holds the
    worker's state and what earlier jobs left, and the collector would walk
    it during the next job at moments that depend on the job's history.
    Freezing what is alive before the job keeps the collector, which stays
    on with its default thresholds, to the job's own objects.
    """
    gc.unfreeze()
    gc.collect()
    gc.freeze()


def run_job(job: dict, cli, traced: bool) -> tuple[float, int | None, str, str]:
    """(seconds, exit code or None on an exception, stdout, error text)."""
    for path in job.get("reset", ()):
        Path(path).unlink(missing_ok=True)
    argv = job.get("argv")
    if traced and "trace_argv" in job:
        argv = argv + job["trace_argv"]
        Path(job["trace_argv"][1]).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    rc: int | None
    settle_heap()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv) if argv is not None else _call(job["call"])
    except SystemExit as exc:  # argparse rejects its arguments
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed job, not a failed benchmark
        rc = None
        err.write(f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    return seconds, rc, out.getvalue(), err.getvalue()


def run_pass(jobs: list[dict], cli, traced: bool) -> dict:
    records = []
    wins: Counter = Counter()
    ref_before = reference_loop()
    for job in jobs:
        seconds, rc, stdout, stderr = run_job(job, cli, traced)
        ref_after = reference_loop()
        scaled = to_reference_speed(seconds, ref_before, ref_after)
        ref_before = ref_after
        if rc is None:
            problem, size, exact = f"exception: {stderr.strip()}", 0, False
        else:
            problem, size, exact = workloads.check_job(job, rc, stdout)
        records.append(
            {"id": job["id"], "s": scaled, "raw_s": seconds, "rc": rc, "problem": problem,
             "size": size, "exact": exact}
        )
        if traced and rc == 0 and "trace_argv" in job:
            for line in Path(job["trace_argv"][1]).read_text().splitlines():
                if line.strip():
                    wins[json.loads(line)["case"]] += 1
    return {
        "jobs": records,
        "raw_wall_s": sum(r["raw_s"] for r in records),
        "wins": dict(wins),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("jobs")
    parser.add_argument("result")
    parser.add_argument("--src", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    import ramsey_pods.cli as cli
    import ramsey_pods.reductions  # noqa: F401  (the tracer wraps it; cli does not import it)

    jobs = json.loads(Path(args.jobs).read_text())
    tracer = tracing.Tracer() if args.trace else None
    passes = []
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            started = time.perf_counter()
            record = run_pass(jobs, cli, traced)
            record["elapsed_s"] = time.perf_counter() - started
        finally:
            if traced:
                tracer.uninstall()
        record["traced"] = traced
        if traced:
            spans = tracer.take()
            record["spans"] = len(spans)
            record["layers"] = tracing.layer_metrics(spans)
        passes.append(record)
        used = time.perf_counter() - begin
        longest = max(p["elapsed_s"] for p in passes)
        if len(passes) >= MIN_PASSES and used + longest > args.seconds:
            break
    result = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["span_cost_s"] = tracing.span_cost()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
