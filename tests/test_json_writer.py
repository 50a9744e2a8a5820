"""The artifact writer against the stdlib's indented encoder: equal text, or
the same exception type, for any document."""

import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from beliefproj import cli  # noqa: E402

from test_cli import gen_model, run, solve_policy  # noqa: E402

# characters that a naive test on the encoded text would take for structure
tricky_text = st.text(st.sampled_from(list('",[]{}: \n\\axé☃')), max_size=6)
numbers = st.one_of(st.integers(), st.integers(-2**70, 2**70), st.floats(),
                    st.floats(allow_nan=False, allow_infinity=False, width=32),
                    st.floats().map(np.float64), st.sampled_from([math.nan, math.inf, -math.inf]))
scalars = st.one_of(st.none(), st.booleans(), numbers, tricky_text)
other_keys = st.one_of(st.integers(), st.floats(), st.booleans(), st.none(),
                       st.tuples(st.integers()))
unencodable = st.sampled_from([set(), 1j, np.int64(3)])
leaves = st.one_of(scalars, st.lists(numbers, max_size=5), unencodable)
documents = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(tricky_text, children, max_size=4),
        st.dictionaries(st.one_of(tricky_text, other_keys), children, max_size=3),
        st.lists(st.lists(numbers, min_size=1, max_size=3), max_size=3)),
    max_leaves=12)


def outcome(encode, doc):
    try:
        return encode(doc)
    except (ValueError, TypeError) as e:
        return type(e)


def reference(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(documents)
def test_json_chunks_equal_json_dumps(doc):
    assert outcome(lambda d: "".join(cli._json_chunks(d)), doc) == outcome(reference, doc)


@pytest.mark.parametrize("doc", [
    ([[None]], None), [[]], [{}], [[], 1], [1, []], [1, {}], [1.5, "x"], [True, None, False],
    [0.1, [0.2]], {"a": [1, 2], "b": {"c": []}}, [[1.0, 2.0], [3.0]], [], {}, (), "[1]",
    {"x": 1, 2: 3}, {1.5: 0, "z": [None]}, [math.nan], {"a": [1, math.inf]}, {math.nan: 1},
    {(1,): 2}, [1, set()], [set(), math.nan], [math.nan, set()], [{"b": math.nan, "a": set()}],
    [1, {"b": math.nan, "a": set()}], [1, {"a": 1}], [1, [2]], [1, ["x"]], ["x", "[", "{", 'a"b'],
])
def test_json_chunks_on_mixed_and_failing_documents(doc):
    assert outcome(lambda d: "".join(cli._json_chunks(d)), doc) == outcome(reference, doc)


def test_every_artifact_of_a_pipeline_is_indented_sorted_json(tmp_path):
    model = gen_model(tmp_path, vars=3, seed=4)
    policy = solve_policy(tmp_path, model, horizon=3)
    search = tmp_path / "search.json"
    assert run(["search", policy, "--method", "vs-sum", "--out", search]) == 0
    assert run(["eval", model, policy, search, "--mode", "successive", "--beliefs", 20,
                "--seed", 1, "--out", tmp_path / "report.json"]) == 0
    written = sorted(tmp_path.glob("*.json"))
    assert len(written) == 8
    for path in written:
        text = path.read_text(encoding="utf-8")
        assert text == reference(json.loads(text)) + "\n", path.name


def nested(value, depth):
    """``value`` inside ``depth`` levels of alternating objects and lists."""
    for level in range(depth):
        value = {"k": value} if level % 2 else [value]
    return value


@pytest.mark.parametrize("depth", [0, 1, 2, 5])
@pytest.mark.parametrize("text_slice", [cli.TEXT_SLICE, 3])
def test_json_text_is_written_as_read_with_the_indentation_of_its_depth(depth, text_slice,
                                                                       monkeypatch):
    monkeypatch.setattr(cli, "TEXT_SLICE", text_slice)
    text = '\r\n {"b": [1,\n 2.5e0],\r\n\t"a": {"s": "x\\ny", "t": []}}\n\n'
    written = "".join(cli._json_chunks(nested(cli.JsonText(text), depth)))
    assert text.strip().replace("\n", "\n" + "  " * depth) in written
    assert json.loads(written) == nested(json.loads(text), depth)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(documents, st.integers(0, 4))
def test_json_text_of_a_written_document_writes_as_the_document(doc, depth):
    text = outcome(reference, doc)
    if isinstance(text, str):
        assert ("".join(cli._json_chunks(nested(cli.JsonText(text + "\n"), depth)))
                == reference(nested(doc, depth)))


def test_json_text_after_a_number_in_a_list():
    written = "".join(cli._json_chunks([1.5, cli.JsonText('{"a": [1,\n2]}\n')]))
    assert written == '[\n  1.5,\n  {"a": [1,\n  2]}\n]'
