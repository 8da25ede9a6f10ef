"""The file writer emits exactly the bytes of ``json.dumps(payload, indent=2)``.

Every file ``construct`` and ``decompose -o`` write goes through
``cli._write_json``, which fills the common shapes (flat int lists, rows of
ints) from templates instead of the stdlib's pure-Python indenting encoder.
The property tests feed it the shapes that must not take those fast paths:
bools and None inside int rows, ragged rows, mixed rows, huge ints.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from ramsey_pods.cli import _indented, _write_json, main
from ramsey_pods.constructions import (
    balance_coloring,
    canonical_coloring,
    lex_product,
    product_boost_vectors,
)
from ramsey_pods.core import VectorFamily
from ramsey_pods.decomposition import recursive_color_avoiding
from ramsey_pods.reductions import coloring_to_vectors
from ramsey_pods.tournament import random_ordered_coloring, random_tournament


def _stdlib(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def test_cli_outputs_match_stdlib(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    k1 = random_ordered_coloring(5, 3, seed=1)
    k2 = random_ordered_coloring(4, 3, seed=2)
    fam = coloring_to_vectors(random_ordered_coloring(6, 3, seed=3))
    t = random_tournament(14, 3, seed=4)
    inputs = {"k1.json": k1.to_json(), "k2.json": k2.to_json(), "fam.json": fam.to_json(),
              "t.json": t.to_json()}
    for name, payload in inputs.items():
        (tmp_path / name).write_text(json.dumps(payload))
    expected = {
        "canonical": (["construct", "canonical", "3", "3"], canonical_coloring(3, 3).to_json()),
        "balance": (["construct", "balance", "k1.json"], balance_coloring(k1).to_json()),
        "product": (["construct", "product", "k1.json", "k2.json"], lex_product(k1, k2).to_json()),
        "boost": (["construct", "boost", "fam.json", "fam.json"],
                  product_boost_vectors(fam, fam).to_json()),
        "certificate": (["decompose", "recursive", "t.json"],
                        recursive_color_avoiding(t)[1].to_json()),
    }
    for name, (argv, payload) in expected.items():
        out = tmp_path / f"{name}.out.json"
        assert main(argv + ["-o", str(out)]) == 0, name
        assert out.read_text() == _stdlib(payload), name
    capsys.readouterr()


def test_write_json_matches_stdlib_on_payloads(tmp_path):
    payloads = [
        canonical_coloring(4, 3).to_json(),
        balance_coloring(random_ordered_coloring(6, 3, seed=5)).to_json(),
        random_tournament(30, 4, seed=6).to_json(),
        VectorFamily.from_json({"q": 3, "n": 9, "r": 2,
                                "vectors": [[9, 1, 1], [1, 9, 2]]}).to_json(),
        {"stats": {"N": 3, "lengths": {"1": 2}}, "written": None, "ok": True},
    ]
    out = tmp_path / "p.json"
    for payload in payloads:
        _write_json(str(out), payload)
        assert out.read_text() == _stdlib(payload)


_big = st.one_of(
    st.integers(),
    st.integers(min_value=2**63, max_value=2**90),
    st.integers(min_value=-(2**90), max_value=-1),
)
# mostly ints, so that whole rows of ints (the fast path) come up often
_cell = st.one_of(_big, _big, _big, st.booleans(), st.none())


def _rows(width: int):
    return st.lists(st.lists(_cell, min_size=width, max_size=width), min_size=1, max_size=5)


_leaves = st.one_of(
    _big,
    st.booleans(),
    st.none(),
    st.floats(),
    st.text(),
    st.lists(_cell, max_size=6),
    st.integers(min_value=0, max_value=4).flatmap(_rows),
    st.lists(st.lists(_big, max_size=4), max_size=5),  # ragged
    st.lists(st.one_of(_big, st.text(), st.lists(_big, max_size=2)), max_size=5),  # mixed
)
_keys = st.one_of(st.text(), st.sampled_from(['"', "\\", "\n\t", "é", "ключ", " ", "\x00"]))
_trees = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_keys, children, max_size=4),
        st.dictionaries(st.one_of(st.integers(), st.booleans(), st.none()), children, max_size=3),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(_trees)
def test_indented_matches_stdlib(tree):
    assert _indented(tree, "") == json.dumps(tree, indent=2)


# the shapes of the written files, under string keys, so that each value
# reaches the fast paths and a stray bool or None has to be caught there
_shapes = st.one_of(st.lists(_cell, min_size=1, max_size=6), st.integers(1, 4).flatmap(_rows))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_keys, _shapes, min_size=1, max_size=3))
def test_indented_matches_stdlib_on_file_shapes(payload):
    assert _indented(payload, "") == json.dumps(payload, indent=2)


def test_indented_keeps_bools_in_int_rows():
    rows = [[1, True, 3], [4, 5, False]]
    assert _indented({"edges": rows}, "") == json.dumps({"edges": rows}, indent=2)
    assert "true" in _indented([[True, 1]], "") and "false" in _indented([0, False], "")

