"""The CLI's JSON writer: ``serialize._json_text(x)`` is
``json.dumps(x, indent=2)`` byte for byte, and raises what it raises."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from aaqpt import serialize
from aaqpt.cli import build_parser

GOLDEN = Path(__file__).with_name("golden_reports.json")

EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-5, 1e22, -1.5e-7]
FLOATS = st.one_of(
    st.floats(),
    st.sampled_from(EDGE_FLOATS),
    st.sampled_from(EDGE_FLOATS).map(np.float64),  # a float subclass
)
ESCAPED = ["", '"', "\\", "\n\t\x00\x1f", "é€", "\U0001f600", "\ud800"]
TEXT = st.one_of(st.text(), st.sampled_from(ESCAPED))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), FLOATS, TEXT)
KEYS = st.one_of(TEXT, st.integers(), FLOATS, st.booleans(), st.none())
PAIRS = st.lists(st.lists(FLOATS, min_size=2, max_size=2), min_size=1, max_size=4)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(KEYS, children, max_size=4),
        st.lists(FLOATS, max_size=4),  # the float-list path
        PAIRS,  # the [re, im] row path
        st.lists(PAIRS, max_size=3),  # a matrix
    )


PAYLOADS = st.recursive(SCALARS, containers, max_leaves=30)


def assert_same_text(payload):
    assert serialize._json_text(payload) == json.dumps(payload, indent=2)


@given(PAYLOADS)
@example([[1.0], [2.0, 3.0, 4.0]])  # as many floats as two pairs hold
@example([[0.5, 1.0], (0.5, 1.0)])
@example([[0.5, 1.0], {0.5: 0, 1.0: 1}])  # a dict of two float keys
@example([[0.5, math.nan], [0.5, 1.0]])
def test_equals_json_dumps(payload):
    assert_same_text(payload)


def test_equals_json_dumps_on_golden_reports():
    runs = json.loads(GOLDEN.read_text())
    for run in runs:
        assert_same_text(run["report"])
    assert_same_text(runs)


def test_shared_and_repeated_items_are_not_circular():
    row, doc, mixed = [0.5, -0.0], {"x": [1]}, [1, "a"]
    assert_same_text({"a": [row, row], "b": [[row, row], [row, row]]})
    assert_same_text([doc, doc, {"c": doc}, mixed, [mixed, mixed]])


def payload(argv):
    args = build_parser().parse_args(argv)
    return args.func(args).payload


def test_equals_json_dumps_for_every_subcommand(tmp_path):
    m_file = tmp_path / "m.json"
    pair = []
    for name, source in (("in", "bell2"), ("out", "bell2")):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload(["catalog", source])))
        pair.append(str(path))
    extracted = payload(["extract", *pair])
    m_file.write_text(json.dumps(extracted))
    for argv in (
        ["catalog"],
        ["catalog", "horodecki", "--a", "0.4"],
        ["faithful", "--catalog", "sigmaE", "--p", "0.3"],
        ["entangle-check", "--catalog", "horodecki"],
        ["extract", *pair],
        ["predict", str(m_file), "--probe", "plus"],
        ["experiment", "--shots", "8", "--batches", "8", "--seed", "5"],
        ["experiment", "--exact"],
        ["bound-sweep", "--a-grid", "0.2,0.5"],
    ):
        assert_same_text(payload(argv))


class Opaque:
    pass


def circular():
    loop = [1.0]
    loop.append(loop)
    return {"a": loop}


@pytest.mark.parametrize(
    "bad",
    [
        Opaque(),
        [1.0, {1, 2}],
        [[0.5, 1.0], [0.5, b"x"]],
        [[0.5, 1.0], [0.5, 1j]],
        {"n": np.int64(3)},
        {(1, 2): 0.5},
        {"a": {Opaque(): 1}},
        circular(),
    ],
)
def test_raises_what_json_dumps_raises(bad):
    with pytest.raises((TypeError, ValueError)) as expected:
        json.dumps(bad, indent=2)
    with pytest.raises(expected.type, match=re.escape(str(expected.value))):
        serialize._json_text(bad)
