"""Pinned certificates of the triangle-pattern finder.

``data/three_color_pinned.json`` holds the ``(pattern, vertices)`` that
``three_color_path`` returned on a fixed corpus: criterion 9's N = 60, q = 5
instances (seeds 0-9), random tournaments at N = 24 and 48 with q = 3 and 4,
a near-transitive tournament at N = 48, and a restriction whose labels are
not 1..N.  The finder reads every cyclic triangle in the order
``cyclic_triangles`` yields them, so any change to that enumeration must
reproduce these byte for byte.  Regenerate (only after an intended output
change) with ``PYTHONPATH=src python tests/test_three_color_pinned.py``.
"""

import json
import random
from pathlib import Path

from ramsey_pods.decomposition import three_color_path
from ramsey_pods.tournament import ColoredTournament, random_tournament

DATA = Path(__file__).parent / "data" / "three_color_pinned.json"


def _near_transitive(n: int, q: int, seed: int) -> ColoredTournament:
    """The transitive order 1..n with about 5% of its pairs reversed."""
    rng = random.Random(seed)
    edges = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            c = rng.randint(1, q)
            edges.append((v, u, c) if rng.random() < 0.05 else (u, v, c))
    return ColoredTournament(n, q, edges)


def _corpus() -> list[tuple[str, ColoredTournament]]:
    out = [(f"c09_{seed}", random_tournament(60, 5, seed=seed)) for seed in range(10)]
    for n in (24, 48):
        for q in (3, 4):
            out.append((f"random_n{n}_q{q}", random_tournament(n, q, seed=n + q)))
    out.append(("near_n48_q3", _near_transitive(48, 3, seed=148)))
    keep = random.Random(7).sample(range(1, 81), 40)
    out.append(("restricted_n40_of_80_q4", random_tournament(80, 4, seed=80).restrict(keep)))
    return out


def _record() -> dict:
    out = {}
    for name, t in _corpus():
        result = three_color_path(t)
        out[name] = [list(result.pattern), list(result.certificate.vertices)]
    return out


def test_three_color_certificates_are_pinned():
    pinned = json.loads(DATA.read_text())
    got = _record()
    assert got.keys() == pinned.keys()
    for name, rec in pinned.items():
        assert got[name] == rec, name


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(_record(), sort_keys=True) + "\n")
