"""The file writer emits exactly the bytes of ``json.dumps(payload, indent=2)``.

Every file ``construct`` and ``decompose -o`` write goes through
``cli._write_json``, which lays out the common shapes at C speed instead of
running the stdlib's pure-Python indenting encoder: a flat int list is one
join, and a 2-D array of integers in 0..2^63 - 1 (the rows of a coloring,
tournament or family payload) is formatted in numpy by
``cli._indented_rows``.  The property tests feed it those arrays, with
values at the digit-count boundaries, and the shapes that must not take
the fast paths: bools and None inside int lists, ragged and mixed rows,
huge ints, and arrays that are empty, negative, bool, object or at least
2^63.  ``to_json()`` keeps its lists and bytes for library callers.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ramsey_pods import cli
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
    assert _indented(tree, b"") == json.dumps(tree, indent=2).encode()


def _stdlib_at(value, indent: bytes) -> bytes:
    """``json.dumps(value, indent=2)`` as nested at ``indent``."""
    return json.dumps(value, indent=2).encode().replace(b"\n", b"\n" + indent)


_INDENTS = [b"", b"  ", b"    ", b"      "]
# the largest value of each digit count and the smallest of the next
_EDGES = sorted({0, 1, 2**63 - 1} | {10**j + d for j in range(1, 19) for d in (-1, 0)})


def _values(dtype):
    hi = min(np.iinfo(dtype).max, 2**63 - 1)
    edges = [x for x in _EDGES if x <= hi]
    return st.one_of(st.integers(0, hi), st.sampled_from(edges), st.integers(0, 12))


_row_arrays = st.sampled_from([np.uint8, np.uint16, np.uint32, np.int64]).flatmap(
    lambda dtype: hnp.arrays(
        dtype, st.tuples(st.integers(1, 6), st.integers(1, 4)), elements=_values(dtype)
    )
)


@settings(max_examples=300, deadline=None)
@given(_row_arrays, st.sampled_from(_INDENTS))
def test_indented_rows_match_stdlib(a, indent):
    expected = _stdlib_at(a.tolist(), indent)
    assert _indented(a, indent) == expected
    assert cli._indented_rows(a, indent) == expected


_FALLBACK_ARRAYS = {
    "no_rows": np.zeros((0, 3), np.int64),
    "no_columns": np.zeros((2, 0), np.int64),
    "negative": np.array([[1, 2], [3, -4]], np.int64),
    "bool": np.array([[True, False], [False, True]]),
    "uint64_at_2_63": np.array([[1, 2**63]], np.uint64),
    "uint64_max": np.array([[2**64 - 1], [7]], np.uint64),
    "object_family": VectorFamily.from_json(
        {"q": 2, "n": 2**64, "r": 1, "vectors": [[1, 2**64], [2**63, 5]]}
    ).payload()["vectors"],
}


@pytest.mark.parametrize("name", list(_FALLBACK_ARRAYS))
def test_indented_arrays_outside_the_array_route(monkeypatch, name):
    a = _FALLBACK_ARRAYS[name]

    def refuse(a, indent):
        raise AssertionError("took the array route")

    monkeypatch.setattr(cli, "_indented_rows", refuse)
    for indent in _INDENTS:
        assert _indented(a, indent) == _stdlib_at(a.tolist(), indent)
    assert _indented({"vectors": a}, b"") == json.dumps({"vectors": a.tolist()}, indent=2).encode()


def test_write_json_writes_an_object_family(tmp_path):
    fam = VectorFamily.from_json({"q": 2, "n": 2**64, "r": 1, "vectors": [[1, 2**64], [3, 4]]})
    assert fam.coords.dtype == object
    out = tmp_path / "f.json"
    _write_json(str(out), fam.payload())
    assert out.read_bytes() == _stdlib(fam.to_json()).encode()


# the shapes of the written files, under string keys, so that each value
# reaches the fast paths and a stray bool or None has to be caught there
_file_arrays = st.one_of(
    _row_arrays,
    hnp.arrays(
        st.sampled_from([np.int8, np.int64, np.uint64, np.bool_]),
        st.tuples(st.integers(0, 4), st.integers(0, 3)),
    ),
)
_shapes = st.one_of(st.lists(_cell, min_size=1, max_size=6), _file_arrays)


def _listed(payload: dict) -> dict:
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in payload.items()}


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_keys, _shapes, min_size=1, max_size=3))
def test_indented_matches_stdlib_on_file_shapes(payload):
    assert _indented(payload, b"") == json.dumps(_listed(payload), indent=2).encode()


def test_indented_keeps_bools_in_int_rows():
    rows = [[1, True, 3], [4, 5, False]]
    assert _indented({"edges": rows}, b"") == json.dumps({"edges": rows}, indent=2).encode()
    assert b"true" in _indented([[True, 1]], b"") and b"false" in _indented([0, False], b"")


def _boosted():
    fam = coloring_to_vectors(random_ordered_coloring(6, 3, seed=3))
    return product_boost_vectors(fam, fam)


# sha256 of json.dumps(x.to_json()) as it was when to_json built its lists directly
_TO_JSON_DIGESTS = {
    "canonical_4_3": (
        canonical_coloring(4, 3),
        "26f24814c72d7a55fb346eb74a160781ac1eff31af7c9b2bc8f84f4a6561bfc0",
    ),
    "tournament_30_4": (
        random_tournament(30, 4, seed=6),
        "f8bdc117765dfa25e46bb6049adc2d7a127ab19d723c037551e77e3f46c0a2fb",
    ),
    "boosted_family": (
        _boosted(),
        "9d95d06c81a4137c5457b7fcf5f88a4ede215c860fa361d91e97b96dcb1ad334",
    ),
}


def _only_ints_and_lists(value) -> bool:
    if type(value) is list:
        return all(map(_only_ints_and_lists, value))
    return type(value) is int


@pytest.mark.parametrize("name", list(_TO_JSON_DIGESTS))
def test_to_json_is_unchanged(name):
    obj, digest = _TO_JSON_DIGESTS[name]
    data = obj.to_json()
    assert type(data) is dict and all(map(_only_ints_and_lists, data.values()))
    assert hashlib.sha256(json.dumps(data).encode()).hexdigest() == digest

