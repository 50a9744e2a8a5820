"""Malformed documents: whatever one node of a solved policy is replaced by,
`search` and `eval` end with a documented exit code, and so does `eval`
whatever one node of a search result is replaced by. A spoiled packed table
in a model or a policy exits 2 naming the table."""

import base64
import copy
import json
import struct

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from beliefproj.cli import main  # noqa: E402
from beliefproj.solver import stages_from_doc  # noqa: E402

LEAVES = (st.none() | st.booleans() | st.integers(-3, 3) | st.floats()
          | st.text(max_size=3))
JSON_VALUES = st.recursive(
    LEAVES, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=6)


def run(args):
    return main([str(a) for a in args])


def node_paths(node, path=()):
    """Path of every node of a JSON document, the root included."""
    yield path
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from node_paths(child, path + (key,))


def replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """A 2-variable policy solved at horizon 2, its model and a scheme file."""
    d = tmp_path_factory.mktemp("fuzz")
    model, policy, scheme = d / "model.json", d / "policy.json", d / "scheme.json"
    assert run(["gen", "--vars", 2, "--actions", 2, "--obs", 2, "--seed", 3,
                "--out", model]) == 0
    assert run(["solve", model, "--horizon", 2, "--out", policy]) == 0
    scheme.write_text(json.dumps([["x0"], ["x1"]]))
    doc = json.loads(policy.read_text())
    return d, model, scheme, doc, list(node_paths(doc))


@pytest.fixture(scope="module")
def searched(solved):
    """The policy's search results: a global scheme (b-vs) and a per-region
    map (vs-sum), with the paths of all their nodes."""
    d, model, _, _, _ = solved
    docs = []
    for method in ("b-vs", "vs-sum"):
        out = d / f"{method}.json"
        assert run(["search", d / "policy.json", "--method", method, "--out", out]) == 0
        docs.append(json.loads(out.read_text()))
    return d, model, [(k, path) for k, doc in enumerate(docs) for path in node_paths(doc)], docs


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_policy_with_one_node_replaced_exits_documented_code(solved, data):
    d, model, scheme, doc, paths = solved
    path = data.draw(st.sampled_from(paths), label="path")
    bad = d / "bad.json"
    bad.write_text(json.dumps(replaced(doc, path, data.draw(JSON_VALUES, label="value"))))
    assert run(["search", bad, "--method", "b-vs", "--out", d / "s.json"]) in {0, 2, 3, 4}
    assert run(["eval", model, bad, scheme, "--mode", "single", "--beliefs", 20,
                "--seed", 0, "--out", d / "r.json"]) in {0, 2, 3, 4}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_search_result_with_one_node_replaced_exits_documented_code(searched, data):
    d, model, paths, docs = searched
    k, path = data.draw(st.sampled_from(paths), label="path")
    bad = d / "bad_result.json"
    bad.write_text(json.dumps(replaced(docs[k], path, data.draw(JSON_VALUES, label="value"))))
    for mode in ("single", "successive"):
        assert run(["eval", model, d / "policy.json", bad, "--mode", mode, "--beliefs", 20,
                    "--seed", 0, "--out", d / "r.json"]) in {0, 2, 3, 4}


def _with_bytes(table, data):
    return dict(table, f8=base64.b64encode(data).decode("ascii"))


def _nan_entry(table):
    data = bytearray(base64.b64decode(table["f8"]))
    data[8:16] = struct.pack("<d", float("nan"))
    return _with_bytes(table, bytes(data))


# each edit spoils one packed table; "nan" keeps its form and spoils a value
PACKED_EDITS = {
    "bad-base64": lambda t: dict(t, f8="*" + t["f8"][1:]),
    "wrong-length": lambda t: _with_bytes(t, base64.b64decode(t["f8"])[:-8]),
    # the spoiled shapes below keep the product of the true one
    "bool-shape": lambda t: dict(t, shape=[True, *t["shape"]]),
    "negative-shape": lambda t: dict(t, shape=[-1, -t["shape"][0], *t["shape"][1:]]),
    "float-shape": lambda t: dict(t, shape=[float(d) for d in t["shape"]]),
    "extra-key": lambda t: dict(t, dtype="<f8"),
    "non-string-f8": lambda t: dict(t, f8=list(base64.b64decode(t["f8"]))),
    "nan": _nan_entry,
}
# (where a model table sits, what the error calls it, what a NaN error calls it)
MODEL_TABLES = {
    "reward": (("reward",), "model reward", "model reward"),
    "flat": (("transitions", "a0", "flat"), "flat transition for 'a0'",
             "model transition table"),
    "observation": (("observation", "a1"), "observation table for 'a1'",
                    "model observation table"),
}


def _edited(doc, path, edit):
    table = doc
    for key in path:
        table = table[key]
    return replaced(doc, path, edit(table))


@pytest.mark.parametrize("edit", PACKED_EDITS)
@pytest.mark.parametrize("table", MODEL_TABLES)
def test_a_spoiled_packed_model_table_exits_2_naming_it(solved, capsys, table, edit):
    d, model, _, _, _ = solved
    path, what, nan_what = MODEL_TABLES[table]
    bad = d / "bad_model.json"
    bad.write_text(json.dumps(_edited(json.loads(model.read_text()), path,
                                      PACKED_EDITS[edit])))
    capsys.readouterr()
    assert run(["solve", bad, "--horizon", 2, "--out", d / "p.json"]) == 2
    err = capsys.readouterr().err
    message = (f"{nan_what} has non-finite entries" if edit == "nan"
               else f"{what} is not a table of numbers")
    assert err == f"error: {bad}: {message}\n"


def _mixed_forms(doc):
    """Stage 2's first entry gives its values as a list, its second packed."""
    doc = copy.deepcopy(doc)
    entry = doc["stages"][1][0]
    entry["values"] = list(struct.unpack(f"<{entry['values']['shape'][0]}d",
                                         base64.b64decode(entry["values"]["f8"])))
    return doc


@pytest.mark.parametrize("edit", PACKED_EDITS)
def test_a_spoiled_packed_policy_value_table_exits_2_naming_it(solved, capsys, edit):
    d, model, scheme, doc, _ = solved
    bad_doc = _edited(doc, ("stages", 1, 1, "values"), PACKED_EDITS[edit])
    message = ("stage-2 alpha vectors have non-finite values" if edit == "nan"
               else "stage-2 policy entry 1 'values' is not a table of numbers")
    bad = d / "bad_policy.json"
    bad.write_text(json.dumps(bad_doc))
    for command in (["search", bad, "--method", "b-vs", "--out", d / "s.json"],
                    ["eval", model, bad, scheme, "--mode", "single", "--beliefs", 20,
                     "--seed", 0, "--out", d / "r.json"]):
        capsys.readouterr()
        assert run(command) == 2
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"


def test_a_stage_mixing_packed_and_listed_values_reads_as_the_packed_one(solved):
    d, _, _, doc, _ = solved
    mixed_doc = _mixed_forms(doc)
    assert [type(e["values"]) for e in mixed_doc["stages"][1][:2]] == [list, dict]
    for packed_set, mixed_set in zip(stages_from_doc(doc["stages"]),
                                     stages_from_doc(mixed_doc["stages"]), strict=True):
        np.testing.assert_array_equal(mixed_set.matrix, packed_set.matrix)
        np.testing.assert_array_equal(mixed_set.actions, packed_set.actions)
        np.testing.assert_array_equal(mixed_set.strategies, packed_set.strategies)
    mixed = d / "mixed_policy.json"
    mixed.write_text(json.dumps(mixed_doc))
    results = []
    for policy in (d / "policy.json", mixed):
        out = d / f"{policy.stem}_b-vs.json"
        assert run(["search", policy, "--method", "b-vs", "--out", out]) == 0
        results.append(out.read_bytes())
    assert results[0] == results[1]
