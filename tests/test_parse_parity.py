"""Edge-list parsing: pinned errors on malformed files, pinned matrices on real ones.

The expected exception types, messages and exit codes below are fixed
values, not regenerated from the code under test: a faster parser has to
reject every malformed file exactly as the per-edge reference loop always
has, with the same check firing first.  The matrix digests pin the
color matrix and out-neighbour bitmasks of each parsed tournament, and the
color matrix of each parsed coloring, read through ``color``/``has_edge``
from the benchmark's ``certify`` inputs for seed 1 (written by
``bench/corpus.py``, which never calls the package).
"""

import hashlib
import importlib
import json
import re
from pathlib import Path

import pytest

from ramsey_pods.cli import main
from ramsey_pods.tournament import ColoredTournament, OrderedColoring

TOURNAMENT = [[1, 2, 1], [2, 3, 2], [3, 1, 1]]
COLORING = [[1, 2, 1], [1, 3, 2], [2, 3, 1]]
NOT_ENOUGH = "not enough values to unpack (expected 3, got 2)"
# later interpreters append ", got 4"; the prefix is the message pinned
TOO_MANY = re.escape("too many values to unpack (expected 3") + r"(, got 4)?\)"
NOT_IN_RANGE = "is not an ordered pair in range"
CMP = "'<=' not supported between instances of 'int' and 'str'"


def _replace(edges, i, edge):
    return edges[:i] + [edge] + edges[i + 1 :]


T, C = TOURNAMENT, COLORING
# name -> (edge list, exception type, message)
TOURNAMENT_CASES = {
    "unknown_vertex": (_replace(T, 1, [2, 4, 2]), ValueError, "edge (2,4) references an unknown vertex"),
    "loop": (_replace(T, 1, [2, 2, 2]), ValueError, "edge (2,2) references an unknown vertex"),
    "color_zero": (_replace(T, 1, [2, 3, 0]), ValueError, "color 0 outside [1, 2]"),
    "color_q_plus_one": (_replace(T, 1, [2, 3, 3]), ValueError, "color 3 outside [1, 2]"),
    "twice_same": (T + [[2, 3, 1]], ValueError, "pair (2,3) oriented twice"),
    "twice_reversed": (T + [[3, 2, 1]], ValueError, "pair (3,2) oriented twice"),
    "missing_pair": (T[:2], ValueError, "every vertex pair needs exactly one directed edge"),
    "arity_two": (_replace(T, 1, [2, 3]), ValueError, NOT_ENOUGH),
    "arity_four": (_replace(T, 1, [2, 3, 2, 1]), ValueError, TOO_MANY),
    "not_a_list": (_replace(T, 1, 7), TypeError, "'int' object is not iterable"),
    "null_edge": (_replace(T, 1, None), TypeError, "'NoneType' object is not iterable"),
    "true_vertex_twice": (T + [[True, 2, 1]], ValueError, "pair (True,2) oriented twice"),
    "string_vertex": (_replace(T, 1, ["2", 3, 2]), ValueError, "edge (2,3) references an unknown vertex"),
    "list_vertex": (_replace(T, 1, [[2], 3, 2]), TypeError, "unhashable type: 'list'"),
    "string_color": (_replace(T, 1, [2, 3, "1"]), TypeError, CMP),
}
COLORING_CASES = {
    "unknown_vertex": (_replace(C, 2, [2, 4, 1]), ValueError, f"edge (2,4) {NOT_IN_RANGE}"),
    "loop": (_replace(C, 2, [2, 2, 1]), ValueError, f"edge (2,2) {NOT_IN_RANGE}"),
    "reversed_pair": (_replace(C, 2, [3, 2, 1]), ValueError, f"edge (3,2) {NOT_IN_RANGE}"),
    "color_zero": (_replace(C, 2, [2, 3, 0]), ValueError, "color 0 outside [1, 2]"),
    "color_q_plus_one": (_replace(C, 2, [2, 3, 3]), ValueError, "color 3 outside [1, 2]"),
    "twice_same": (C + [[2, 3, 1]], ValueError, "edge (2,3) colored twice"),
    "twice_reversed": (C + [[3, 2, 1]], ValueError, f"edge (3,2) {NOT_IN_RANGE}"),
    "missing_pair": (C[:2], ValueError, "every vertex pair must be colored exactly once"),
    "arity_two": (_replace(C, 2, [2, 3]), ValueError, NOT_ENOUGH),
    "arity_four": (_replace(C, 2, [2, 3, 1, 1]), ValueError, TOO_MANY),
    "not_a_list": (_replace(C, 2, 7), TypeError, "'int' object is not iterable"),
    "null_edge": (_replace(C, 2, None), TypeError, "'NoneType' object is not iterable"),
    "true_vertex_twice": (C + [[True, 2, 1]], ValueError, "edge (True,2) colored twice"),
    "string_vertex": (_replace(C, 2, ["2", 3, 1]), TypeError, CMP),
    "string_color": (_replace(C, 2, [2, 3, "1"]), TypeError, CMP),
}
CASES = [("edges", ColoredTournament, name, *case) for name, case in TOURNAMENT_CASES.items()]
CASES += [("colors", OrderedColoring, name, *case) for name, case in COLORING_CASES.items()]


def _pattern(message: str) -> str:
    return message if message is TOO_MANY else re.escape(message)


@pytest.mark.parametrize(
    "key, cls, name, edges, exc, message", CASES, ids=[f"{c[0]}-{c[2]}" for c in CASES]
)
def test_malformed_edge_list(tmp_path, capsys, key, cls, name, edges, exc, message):
    data = {"N": 3, "q": 2, key: edges}
    with pytest.raises(exc, match=f"^{_pattern(message)}$"):
        cls.from_json(data)
    instance, cert = tmp_path / "instance.json", tmp_path / "cert.json"
    instance.write_text(json.dumps(data))
    cert.write_text(json.dumps({"mode": "directed", "constraint": {"avoid": 1}, "vertices": [1]}))
    assert main(["verify", "path", str(instance), str(cert)]) == 3
    err = capsys.readouterr().err
    assert re.search(f"bad instance: {_pattern(message)}$", err.strip())


def test_true_vertex_reads_as_one(capsys, tmp_path):
    # The library parsers take Python's True as 1, as a dict key and in
    # comparisons; pinned so that a parser change cannot alter it unnoticed
    t = ColoredTournament.from_json({"N": 3, "q": 2, "edges": _replace(T, 0, [True, 2, 1])})
    assert list(t.edges()) == list(ColoredTournament(3, 2, T).edges())
    k = OrderedColoring.from_json({"N": 3, "q": 2, "colors": _replace(C, 0, [True, 2, 1])})
    assert k == OrderedColoring(3, 2, C)
    # no input file format has a boolean field, so the CLI rejects a JSON
    # true or false anywhere in a file that would otherwise parse
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"mode": "directed", "constraint": {"avoid": 1}, "vertices": [1]}))
    for key, edges in (("edges", T), ("colors", C)):
        instance = tmp_path / f"{key}.json"
        instance.write_text(json.dumps({"N": 3, "q": 2, key: _replace(edges, 0, [True, 2, 1])}))
        assert main(["verify", "path", str(instance), str(cert)]) == 3
        assert capsys.readouterr().err.strip().endswith("bad instance: boolean true is not an integer")
    instance = tmp_path / "plain.json"
    instance.write_text(json.dumps({"N": 3, "q": 2, "edges": T}))
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps({"mode": "directed", "constraint": {"avoid": False}, "vertices": [1]}))
    assert main(["verify", "path", str(instance), str(forged)]) == 3
    assert capsys.readouterr().err.strip().endswith("bad certificate: boolean false is not an integer")
    # a "true" inside a string is no boolean
    k1 = tmp_path / "k1.json"
    k1.write_text(json.dumps({"N": 2, "q": 2, "colors": [[1, 2, 1]], "note": "true"}))
    assert main(["construct", "product", str(k1), str(k1), "-o", str(tmp_path / "out.json")]) == 0
    product = tmp_path / "bool.json"
    product.write_text('{"N": 2, "q": 2, "colors": [[1, 2, true]]}')
    assert main(["construct", "product", str(product), str(product)]) == 3
    assert capsys.readouterr().err.strip().endswith("bad coloring: boolean true is not an integer")


def _tournament_blob(t: ColoredTournament) -> str:
    # position-indexed color rows (0 on the diagonal) and out-neighbour masks
    verts = t.vertices
    colors = [[t.color(u, v) if u != v else 0 for v in verts] for u in verts]
    out = [sum(1 << b for b, v in enumerate(verts) if t.has_edge(u, v)) for u in verts]
    return repr((verts, colors, out))


def _coloring_blob(k: OrderedColoring) -> str:
    # label-indexed color rows, with an all-zero row and column 0
    labels = range(k.n_vertices + 1)
    return repr([[k.color(u, v) if u and v and u != v else 0 for v in labels] for u in labels])


CERTIFY_SEED_1_DIGESTS = {
    "bal_in.json": "eccb5d60f44bb7818624fe5bca3f12930fa7dd9b32b3644a69e869020419d778",
    "base.json": "7ab658f2e251d2b4192e12ed3acd86701e1f4c8af8332e2951d6e0c0e8fcb2ba",
    "merge_in.json": "45d62b7407d9e934268f2e844edab328241ee90331d05ee45d0e712639dd7552",
    "pa.json": "a3877af09be9098e1e42f33b5b9527bcb2ad0de75e536598300877e4c5110148",
    "pb.json": "0ca06c768bed69e0b5047e6f8762d4d6ce8bd45a9e3cd8b3e5c2b13dac279051",
    "rt_in.json": "735ec8253662f567f6d915efd3ba40c3a6281d7b0d374b11ddb643761869e6ff",
    "tour.json": "aa4642e11f3df20202e105bd12ba11ad7543b0495814a7ae90e252c78f300db7",
}


def test_certify_inputs_parse_to_pinned_matrices(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
    importlib.import_module("workloads").build("certify", 1, tmp_path)
    got = {}
    for path in sorted(tmp_path.glob("*.json")):
        data = json.loads(path.read_text())
        if "edges" in data:
            blob = _tournament_blob(ColoredTournament.from_json(data))
        elif "colors" in data:
            blob = _coloring_blob(OrderedColoring.from_json(data))
        else:
            continue
        got[path.name] = hashlib.sha256(blob.encode()).hexdigest()
    assert got == CERTIFY_SEED_1_DIGESTS
