"""Edge-list parsing: pinned errors on malformed files, pinned matrices on real ones.

The expected exception types, messages and exit codes below are fixed
values, not regenerated from the code under test: a faster parser has to
reject every malformed file exactly as the per-edge reference loop always
has, with the same check firing first, with one exception: a list with
fewer entries than vertex pairs is rejected by its length before any entry
is read (and before the N x N table is allocated), so a short list with a
malformed entry gets the count message.  The matrix digests pin the
color matrix and out-neighbour bitmasks of each parsed tournament, and the
color matrix of each parsed coloring, read through ``color``/``has_edge``
from the benchmark's ``certify`` inputs for seed 1 (written by
``bench/corpus.py``, which never calls the package).

The command line reads a plain instance file's rows into one integer array
(``cli._plain_instance``) that the constructors check in numpy, and falls
back to ``json`` and the per-edge loop on anything else; the tests below
hold both routes to the same objects, exit codes and messages.
"""

import hashlib
import importlib
import json
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramsey_pods import cli
from ramsey_pods.cli import main
from ramsey_pods.paths import PathCertificate, validate_path
from ramsey_pods.tournament import (
    ColoredTournament,
    OrderedColoring,
    random_ordered_coloring,
    random_tournament,
)

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
    "twice_in_full_list": (_replace(T, 2, [2, 1, 1]), ValueError, "pair (2,1) oriented twice"),
    "missing_pair": (T[:2], ValueError, "every vertex pair needs exactly one directed edge"),
    "short_and_unknown_vertex": (
        [T[0], [2, 4, 2]], ValueError, "every vertex pair needs exactly one directed edge"
    ),
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
    "twice_in_full_list": (_replace(C, 2, [1, 2, 2]), ValueError, "edge (1,2) colored twice"),
    "missing_pair": (C[:2], ValueError, "every vertex pair must be colored exactly once"),
    "short_and_unknown_vertex": (
        [C[0], [2, 4, 1]], ValueError, "every vertex pair must be colored exactly once"
    ),
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
    if all(type(e) is list and len(e) == 3 and {type(x) for x in e} == {int} for e in edges):
        # the same rows as an array fail its numpy check and get the loop's message
        with pytest.raises(exc, match=f"^{_pattern(message)}$"):
            cls.from_json({**data, key: np.array(edges, np.int64)})
    instance, cert = tmp_path / "instance.json", tmp_path / "cert.json"
    cert.write_text(json.dumps({"mode": "directed", "constraint": {"avoid": 1}, "vertices": [1]}))
    # files whose rows are all positive ints reach the array check, in any
    # layout; the others fall back to json
    for layout in ({}, {"separators": (",", ":")}, {"indent": 2}):
        instance.write_text(json.dumps(data, **layout))
        assert main(["verify", "path", str(instance), str(cert)]) == 3
        err = capsys.readouterr().err
        assert re.search(f"bad instance: {_pattern(message)}$", err.strip())


@pytest.mark.parametrize(
    "key, cls, message",
    [
        ("edges", ColoredTournament, "every vertex pair needs exactly one directed edge"),
        ("colors", OrderedColoring, "every vertex pair must be colored exactly once"),
    ],
    ids=["edges", "colors"],
)
def test_short_list_fails_before_the_table(tmp_path, capsys, key, cls, message):
    # an N x N table of Python ints at N = 3000 is about 72 MB
    data = {"N": 3000, "q": 2, key: []}
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cls.from_json(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    instance, cert = tmp_path / "instance.json", tmp_path / "cert.json"
    instance.write_text(json.dumps(data))
    cert.write_text(json.dumps({"mode": "directed", "constraint": {"avoid": 1}, "vertices": [1]}))
    assert main(["verify", "path", str(instance), str(cert)]) == 3
    assert capsys.readouterr().err.strip().endswith(f"bad instance: {message}")


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


def _certify_inputs(tmp_path, monkeypatch) -> Path:
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
    importlib.import_module("workloads").build("certify", 1, tmp_path)
    return tmp_path


def test_certify_inputs_parse_to_pinned_matrices(tmp_path, monkeypatch):
    got, loaded = {}, {}
    for path in sorted(_certify_inputs(tmp_path, monkeypatch).glob("*.json")):
        data = json.loads(path.read_text())
        if "edges" in data:
            cls, blob = ColoredTournament, _tournament_blob
        elif "colors" in data:
            cls, blob = OrderedColoring, _coloring_blob
        else:
            continue
        got[path.name] = hashlib.sha256(blob(cls.from_json(data)).encode()).hexdigest()
        obj = cli._load(str(path), cli._parse_instance, "instance")
        loaded[path.name] = hashlib.sha256(blob(obj).encode()).hexdigest()
    assert got == CERTIFY_SEED_1_DIGESTS
    assert loaded == CERTIFY_SEED_1_DIGESTS


def test_instance_text_skips_json(tmp_path, monkeypatch, capsys):
    # a silent fall back to json would still pass every parity test above
    decoded = []
    loads = json.loads

    def spy(text, *args, **kwargs):
        decoded.append(text)
        return loads(text, *args, **kwargs)

    work = _certify_inputs(tmp_path, monkeypatch)
    assert main(["construct", "canonical", "4", "4", "-o", str(work / "canon.json")]) == 0
    one = {"mode": "monotone", "constraint": {"avoid": 1}, "vertices": [1]}
    (work / "one.json").write_text(json.dumps(one))
    capsys.readouterr()
    monkeypatch.setattr(json, "loads", spy)
    pairs = [("tour.json", "dir.json"), ("bal_in.json", "mono.json"), ("canon.json", "one.json")]
    for instance, cert in pairs:
        assert main(["verify", "path", str(work / instance), str(work / cert)]) == 0
        assert capsys.readouterr().out == "ok\n"
    assert decoded and not [t for t in decoded if '"edges"' in t or '"colors"' in t]


# a valid instance of either kind; its rows form a transitive tournament
BASE = '{"N": 3, "q": 2, "%s": [[1, 2, 1], [1, 3, 2], [2, 3, 1]]}'
# name -> the middle row's replacement, or a function of the whole text
TEXT_CASES = {
    "leading_zero": "[1, 3, 02]",
    "negative": "[1, 3, -1]",
    "plus_sign": "[1, 3, +1]",
    "float": "[1, 3, 1.0]",
    "exponent": "[1, 3, 1e0]",
    "twenty_digits": "[1, 3, 12345678901234567890]",
    "above_int64": lambda text: text.replace('"q": 2', '"q": 9999999999999999999').replace(
        "[1, 3, 2]", "[1, 3, 9300000000000000000]"
    ),
    "empty_row": "[]",
    "two_ints": "[1, 3]",
    "four_ints": "[1, 3, 2, 1]",
    "empty_slot": "[1,, 2]",
    "space_in_number": "[1 3, 2]",
    "space_in_slot": "[1 3, 2, 1]",
    "form_feed": "[1,\f3, 2]",
    "reordered_keys": lambda text: text.replace('"N": 3, "q": 2', '"q": 2, "N": 3'),
    "extra_key": lambda text: text[:-1] + ', "note": 1}',
    "repeated_N": lambda text: text.replace('"N": 3', '"N": 4, "N": 3'),
    "text_after_brace": lambda text: text + " x",
    "byte_order_mark": lambda text: "\ufeff" + text,
}


def _list_route(path: Path, cert: PathCertificate) -> tuple[int, str]:
    """Exit code and stderr of ``verify path`` with json.loads and from_json on lists."""
    reject = cli._reject_float
    try:
        data = json.loads(path.read_text(), parse_float=reject, parse_constant=reject)
    except ValueError as exc:
        return 3, f"error: cannot parse {path}: {exc}\n"
    try:
        obj = (ColoredTournament if "edges" in data else OrderedColoring).from_json(data)
    except (KeyError, ValueError, TypeError) as exc:
        return 3, f"error: bad instance: {exc}\n"
    return (0 if validate_path(obj, cert) is None else 1), ""


@pytest.mark.parametrize("key", ["edges", "colors"])
@pytest.mark.parametrize("name", list(TEXT_CASES))
def test_text_malformation_matches_list_route(tmp_path, capsys, key, name):
    case, base = TEXT_CASES[name], BASE % key
    text = case(base) if callable(case) else base.replace("[1, 3, 2]", case)
    assert cli._plain_instance(base.encode()) is not None
    instance, cert = tmp_path / "instance.json", tmp_path / "cert.json"
    instance.write_text(text, encoding="utf-8")
    assert cli._plain_instance(instance.read_bytes()) is None
    mode = "directed" if key == "edges" else "monotone"
    one = {"mode": mode, "constraint": {"avoid": 1}, "vertices": [1]}
    cert.write_text(json.dumps(one))
    code = main(["verify", "path", str(instance), str(cert)])
    assert (code, capsys.readouterr().err) == _list_route(instance, PathCertificate.from_json(one))


def test_fromstring_that_stops_early(monkeypatch):
    # numpy 2.0 warns and returns the values read so far where later numpy
    # raises: the count check refuses the text, and no warning escapes
    fromstring = np.fromstring

    def stops_early(text, dtype, sep):
        try:
            return fromstring(text, dtype, sep=sep)
        except ValueError:
            warnings.warn("string or file could not be read to its end", DeprecationWarning)
            return np.ones(1, dtype)  # one value read before the bad text

    monkeypatch.setattr(np, "fromstring", stops_early)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for row in ("[1 3, 2, 1]", "[1,, 2]", "[1, 3, 2 1]"):
            text = (BASE % "edges").replace("[1, 3, 2]", row)
            assert cli._plain_instance(text.encode()) is None
        assert cli._plain_instance((BASE % "edges").encode()) is not None


def _spaced(text: str, rng) -> str:
    """``text`` with random JSON whitespace before and after every token."""
    gaps = ["", " ", "\n", "\t", "\r\n", "  \n    "]
    tokens = re.findall(r'"[a-zA-Z]+"|[0-9]+|[{}\[\],:]', text)
    return "".join(rng.choice(gaps) + tok for tok in tokens) + rng.choice(gaps)


def _same_tournament(a: ColoredTournament, b: ColoredTournament) -> bool:
    # the arc matrix is compared whole, dtype included
    same_arcs = a._arc.dtype == b._arc.dtype and np.array_equal(a._arc, b._arc)
    return (a.vertices, a.q) == (b.vertices, b.q) and same_arcs


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["edges", "colors"]),
    st.integers(1, 9),
    st.sampled_from([1, 2, 3, 5, 127, 128, 255, 256, 70000]),
    st.randoms(use_true_random=False),
)
def test_spaced_instances_load_as_lists_do(tmp_path_factory, key, n, q, rng):
    if key == "edges":
        obj = random_tournament(n, q, seed=rng.randrange(1000))
    else:
        obj = random_ordered_coloring(n, q, seed=rng.randrange(1000))
    data = obj.to_json()
    rng.shuffle(data[key])
    path = tmp_path_factory.mktemp("spaced") / "instance.json"
    path.write_bytes(_spaced(json.dumps(data), rng).encode())
    assert cli._plain_instance(path.read_bytes()) is not None
    got = cli._load(str(path), cli._parse_instance, "instance")
    want = type(obj).from_json(json.loads(path.read_text()))
    if key == "edges":
        assert _same_tournament(got, want)
    else:
        assert got == want and got.matrix.dtype == want.matrix.dtype
