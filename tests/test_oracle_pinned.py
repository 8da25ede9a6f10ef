"""Pinned outputs of the exact directed-path oracle and the recursive finder.

``data/oracle_pinned.json`` holds what ``SubsetPathOracle`` and
``recursive_color_avoiding`` returned on a fixed corpus.  The tie-breaks of
``path_from``/``path_to`` decide the gluing step's endpoint paths and so the
recursive certificates; any rewrite of the oracle must reproduce them byte
for byte.  Regenerate (only after an intended output change) with
``PYTHONPATH=src python tests/test_oracle_pinned.py``.
"""

import json
from pathlib import Path

from ramsey_pods.decomposition import recursive_color_avoiding
from ramsey_pods.paths import SubsetPathOracle
from ramsey_pods.tournament import random_tournament

DATA = Path(__file__).parent / "data" / "oracle_pinned.json"
SEEDS = (0, 1, 2)
SIZES = (1, 2, 7, 13, 17)
ALLOWED = ((1,), (1, 2), (1, 2, 3))
# N = 32 splits into halves of 16 whose midpoint gluing (case 1) wins
DECOMPOSE_N = 32


def _oracle_record(oracle: SubsetPathOracle) -> dict:
    return {
        "longest": oracle.longest(),
        "lengths_from": list(oracle.lengths_from().values()),
        "lengths_to": list(oracle.lengths_to().values()),
        "path_from": [list(oracle.path_from(v)) for v in oracle.labels],
        "path_to": [list(oracle.path_to(v)) for v in oracle.labels],
        "lex_least_longest": list(oracle.lex_least_longest()),
    }


def _record() -> dict:
    out: dict = {"oracle": {}, "decompose": {}}
    for seed in SEEDS:
        for n in SIZES:
            t = random_tournament(n, 3, seed)
            for allowed in ALLOWED:
                key = f"n{n}_s{seed}_a{''.join(map(str, allowed))}"
                out["oracle"][key] = _oracle_record(SubsetPathOracle(t, frozenset(allowed)))
        # a vertex subset with gaps in the labels
        t = random_tournament(17, 3, seed)
        subset = tuple(range(1, 18, 2))
        for allowed in ALLOWED:
            key = f"subset_s{seed}_a{''.join(map(str, allowed))}"
            oracle = SubsetPathOracle(t, frozenset(allowed), subset)
            out["oracle"][key] = _oracle_record(oracle)
        t = random_tournament(DECOMPOSE_N, 3, seed)
        color, cert = recursive_color_avoiding(t, seed=seed)
        out["decompose"][f"n{DECOMPOSE_N}_s{seed}"] = [color, list(cert.vertices)]
    return out


def test_oracle_and_decompose_outputs_are_pinned():
    pinned = json.loads(DATA.read_text())
    got = _record()
    assert got["oracle"].keys() == pinned["oracle"].keys()
    for key, rec in pinned["oracle"].items():
        assert got["oracle"][key] == rec, key
    assert got["decompose"] == pinned["decompose"]


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(_record(), sort_keys=True) + "\n")
