"""Pinned records of the f/g minimizers and the G maximizer.

``data/search_pinned.json`` holds ``to_json()`` minus ``wall_seconds`` for
every f, g and G key of the benchmark's search workload at its node budget,
plus a few more budgets that trip at different depths.  Value, status,
``nodes_explored`` and witness all depend on the search order and on the
per-node objective, so any rewrite of either must reproduce them byte for
byte, budget-tripped records included.  Regenerate (only after an intended
output change) with ``PYTHONPATH=src python tests/test_search_pinned.py``.
"""

import json
from pathlib import Path

import pytest

from ramsey_pods.budget import Budget
from ramsey_pods.search import exact_f, exact_g, exact_G

DATA = Path(__file__).parent / "data" / "search_pinned.json"
ORACLES = {"f": exact_f, "g": exact_g, "G": exact_G}
# (kind, q, r, size, node budget or None)
KEYS = [
    ("f", 3, 2, 5, 100_000),
    ("f", 2, 1, 6, 100_000),
    ("f", 4, 2, 6, 2_000),
    ("f", 4, 2, 6, 8_000),
    ("f", 4, 2, 6, 30_000),
    ("f", 2, 1, 10, 20_000),
    ("g", 3, 2, 4, 100_000),
    ("g", 2, 1, 5, None),
    ("g", 2, 1, 6, 100_000),
    ("g", 3, 2, 5, 80),
    ("g", 3, 2, 5, 3_000),
    ("G", 3, 2, 5, 400_000),
    ("G", 4, 2, 3, 200_000),
    # the trivial cases: one vertex, and r >= q
    ("f", 3, 2, 1, None),
    ("g", 3, 2, 1, None),
    ("f", 3, 3, 4, None),
    ("g", 3, 3, 4, None),
]


def _name(key) -> str:
    kind, q, r, size, nodes = key
    return f"{kind}_{q}_{r}_{size}_b{nodes}"


def _record(key) -> dict:
    kind, q, r, size, nodes = key
    rec = ORACLES[kind](q, r, size, Budget(max_nodes=nodes))
    data = rec.to_json()
    del data["wall_seconds"]
    return data


@pytest.mark.parametrize("key", KEYS, ids=_name)
def test_search_record_is_pinned(key):
    pinned = json.loads(DATA.read_text())
    assert json.loads(json.dumps(_record(key))) == pinned[_name(key)]


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps({_name(k): _record(k) for k in KEYS}, sort_keys=True) + "\n")
