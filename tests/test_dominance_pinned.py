"""Pinned outputs of every all-pairs user of the threshold dominance relation.

``data/dominance_pinned.json`` holds what the validators, ``transitive_order``,
``find_cyclic_triple`` and the ``exact_F``/``exact_G`` searches returned on a
fixed seeded corpus.  The certificate pairs, the drain order and the search
witnesses all depend on tie-breaks; any rewrite of the relation's evaluation
must reproduce them byte for byte.  Regenerate (only after an intended output
change) with ``PYTHONPATH=src python tests/test_dominance_pinned.py``.
"""

import itertools
import json
import random
from pathlib import Path

from ramsey_pods.budget import Budget
from ramsey_pods.core import (
    Comparison,
    GridVector,
    VectorFamily,
    compare_r,
    find_cyclic_triple,
    transitive_order,
    validate_comparable,
    validate_increasing,
)
from ramsey_pods.search import exact_F, exact_G

DATA = Path(__file__).parent / "data" / "dominance_pinned.json"
SEARCH_KEYS = [(2, 1, 3), (3, 2, 3), (3, 2, 4), (2, 2, 3), (4, 3, 2), (4, 2, 2), (3, 1, 3)]
BUDGET_KEYS = [(3, 2, 5, 300), (4, 2, 3, 300), (4, 2, 3, 100)]


def _random_family(rng: random.Random) -> VectorFamily:
    q = rng.randint(1, 5)
    n = rng.randint(1, 4)
    rows = [tuple(rng.randint(1, n) for _ in range(q)) for _ in range(rng.randint(1, 25))]
    if rng.random() < 0.5:  # sorted by coordinate sum, so some pass as increasing
        rows.sort(key=sum)
    return VectorFamily.from_coords(rows, rng.randint(1, q), n)


def _comparable_family(rng: random.Random) -> VectorFamily:
    """Greedily grown from random candidates; every kept pair is comparable."""
    q = rng.randint(2, 5)
    n = rng.randint(2, 4)
    r = rng.randint(1, q)
    kept: list[GridVector] = []
    for _ in range(rng.randint(2, 60)):
        v = GridVector(tuple(rng.randint(1, n) for _ in range(q)), n)
        if all(compare_r(u, v, r) is not Comparison.INCOMPARABLE for u in kept):
            kept.append(v)
    return VectorFamily(tuple(kept), r)


def _record() -> dict:
    rng = random.Random(2024)
    validators = []
    # [5]^4 in lexicographic order is 1-increasing; 625 rows span several blocks
    lex = [tuple(v) for v in itertools.product(range(1, 6), repeat=4)]
    big = [
        VectorFamily.from_coords(lex, 1),
        VectorFamily.from_coords(lex[:-2] + [lex[-1], lex[-2]], 1),
        VectorFamily.from_coords(lex + [lex[-1]], 1),
        VectorFamily.from_coords(lex[::-1], 1),
    ]
    for fam in big + [_random_family(rng) for _ in range(120)]:
        validators.append(
            [fam.to_json(), validate_increasing(fam).to_json(), validate_comparable(fam).to_json()]
        )
    orders = []
    for _ in range(40):
        fam = _comparable_family(rng)
        order = transitive_order(fam)
        triple = find_cyclic_triple(fam)
        orders.append(
            [
                fam.to_json(),
                validate_increasing(fam).to_json(),
                list(order) if isinstance(order, tuple) else order.to_json(),
                None if triple is None else triple.to_json(),
            ]
        )
    search = {}
    for q, r, n in SEARCH_KEYS:
        for name, fn in (("F", exact_F), ("G", exact_G)):
            rec = fn(q, r, n)
            search[f"{name}_{q}_{r}_{n}"] = [rec.value, rec.status, rec.nodes_explored, rec.certificate]
    for q, r, n, nodes in BUDGET_KEYS:
        for name, fn in (("F", exact_F), ("G", exact_G)):
            rec = fn(q, r, n, Budget(max_nodes=nodes))
            search[f"{name}_{q}_{r}_{n}_b{nodes}"] = [
                rec.value, rec.status, rec.nodes_explored, rec.certificate
            ]
    return {"validators": validators, "orders": orders, "search": search}


def test_dominance_outputs_are_pinned():
    pinned = json.loads(DATA.read_text())
    got = json.loads(json.dumps(_record()))
    for key in ("validators", "orders"):
        assert len(got[key]) == len(pinned[key])
        for i, (have, want) in enumerate(zip(got[key], pinned[key])):
            assert have == want, (key, i)
    assert got["search"] == pinned["search"]
    # G 4 2 3 closes in 263 nodes, so its 300-node key pins an exact record;
    # the 100-node key keeps a tripped G budget pinned
    assert got["search"]["G_4_2_3_b100"][1] == "lower_bound"


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(_record(), sort_keys=True) + "\n")
