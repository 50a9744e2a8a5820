"""Malformed documents: whatever one node of a solved policy is replaced by,
`search` and `eval` end with a documented exit code, and so does `eval`
whatever one node of a search result is replaced by."""

import copy
import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from beliefproj.cli import main  # noqa: E402

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
