"""Pinned certificates of the recursive color-avoiding finder.

``data/decomposition_pinned.json`` holds the ``(color, vertices)`` that
``recursive_color_avoiding`` returned on a fixed corpus: criterion 10's
medium random instances, random and near-transitive tournaments at
N = 24/64/80, the canonical and balanced constructions with seeded reversals
and a relabeling, and an N = 81 ``canonical_flip`` instance drawn by the
benchmark's generator, stored as an edge list (on it, the half-recursion is
what wins).  Any change
that prunes branches of the finder must reproduce these byte for byte.
``TRACE_SHA256`` pins the bytes of its recursion traces on the same corpus,
seeds 0 and 1.  Regenerate (only after an intended output change) with
``PYTHONPATH=src python tests/test_decomposition_pinned.py``; that reads the
``canonical_flip`` instance from ``bench/corpus.py`` and prints the trace
digest.
"""

import hashlib
import json
import random
from pathlib import Path

from ramsey_pods.constructions import balance_coloring, canonical_coloring
from ramsey_pods.decomposition import recursive_color_avoiding, trace_to_jsonl
from ramsey_pods.tournament import (
    ColoredTournament,
    OrderedColoring,
    random_ordered_coloring,
    random_tournament,
)

DATA = Path(__file__).parent / "data" / "decomposition_pinned.json"
SIZES = (24, 64, 80)
PALETTES = (2, 3, 4)
# sha256 of trace_to_jsonl per instance and seed, concatenated in corpus order
TRACE_SHA256 = "6534ba1a1a1947f37cf073dfada08c327bead1eae99e9b0d49c6d7bc582176cf"


def _criterion_10_medium() -> list[tuple[str, ColoredTournament]]:
    """The 18 medium instances of criterion 10, drawn the way it draws them."""
    rng = random.Random(1010)
    for _ in range(62):
        rng.randint(3, 12)
        rng.randint(3, 4)
    out = []
    for trial in range(18):
        n = rng.randint(23, 34)
        q = rng.choice((3, 4, 5))
        out.append((f"c10_{trial}", random_tournament(n, q, seed=5000 + trial)))
    return out


def _near_transitive(n: int, q: int, seed: int) -> ColoredTournament:
    rng = random.Random(seed)
    edges = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            c = rng.randint(1, q)
            edges.append((v, u, c) if rng.random() < 0.02 else (u, v, c))
    return ColoredTournament(n, q, edges)


def _flipped_relabeled(k: OrderedColoring, seed: int) -> ColoredTournament:
    """The transitive tournament of k with n // 8 pairs reversed, relabeled."""
    rng = random.Random(seed)
    n = k.n_vertices
    edges = list(k.edges())
    for i in rng.sample(range(len(edges)), max(1, n // 8)):
        u, v, c = edges[i]
        edges[i] = (v, u, c)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return ColoredTournament(n, k.q, [(perm[u - 1], perm[v - 1], c) for u, v, c in edges])


def _corpus(flip_instance: dict) -> list[tuple[str, ColoredTournament]]:
    out = _criterion_10_medium()
    for n in SIZES:
        for q in PALETTES:
            out.append((f"random_n{n}_q{q}", random_tournament(n, q, seed=n + q)))
            out.append((f"near_n{n}_q{q}", _near_transitive(n, q, seed=100 + n + q)))
    constructions = [
        ("canonical_q4_m3", canonical_coloring(4, 3)),
        ("canonical_q3_m4", canonical_coloring(3, 4)),
        ("balance_q3_m4", balance_coloring(random_ordered_coloring(4, 3, seed=7))),
    ]
    for seed, (name, k) in enumerate(constructions):
        out.append((name, _flipped_relabeled(k, seed)))
    out.append(("canonical_flip_n81", ColoredTournament.from_json(flip_instance)))
    return out


def _record(flip_instance: dict) -> dict:
    out = {}
    for name, t in _corpus(flip_instance):
        color, cert = recursive_color_avoiding(t)
        out[name] = [color, list(cert.vertices)]
    return out


def _trace_digest(flip_instance: dict) -> str:
    digest = hashlib.sha256()
    for _, t in _corpus(flip_instance):
        for seed in (0, 1):
            trace: list = []
            recursive_color_avoiding(t, seed=seed, trace=trace)
            digest.update(trace_to_jsonl(trace).encode())
    return digest.hexdigest()


def test_recursive_certificates_are_pinned():
    pinned = json.loads(DATA.read_text())
    got = _record(pinned["canonical_flip_instance"])
    assert got.keys() == pinned["certificates"].keys()
    for name, rec in pinned["certificates"].items():
        assert got[name] == rec, name


def test_recursive_traces_are_pinned():
    pinned = json.loads(DATA.read_text())
    assert _trace_digest(pinned["canonical_flip_instance"]) == TRACE_SHA256


if __name__ == "__main__":
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "corpus", Path(__file__).parents[1] / "bench" / "corpus.py"
    )
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    flip = corpus.tournament(corpus.rng_for(100, "canonical_flip"), "canonical_flip", 81, 4)
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(
        json.dumps({"canonical_flip_instance": flip, "certificates": _record(flip)}, sort_keys=True)
        + "\n"
    )
    print(f"TRACE_SHA256 = {_trace_digest(flip)!r}")
