import argparse
import hashlib
import json
import signal
import statistics
import time
from types import SimpleNamespace

import numpy as np
import pytest

from beliefproj import cli
from beliefproj.cli import main
from beliefproj.evaluate import EVAL_BLOCK, _block_values
from beliefproj.model import compile_model, model_to_spec, sample_beliefs, table_of_numbers
from beliefproj.search import result_from_doc


def run(args):
    return main([str(a) for a in args])


def gen_model(tmp_path, name="model.json", vars=2, seed=3):
    path = tmp_path / name
    assert run(["gen", "--vars", vars, "--actions", 2, "--obs", 2,
                "--seed", seed, "--out", path]) == 0
    return path


def solve_policy(tmp_path, model, horizon=2, name="policy.json"):
    path = tmp_path / name
    assert run(["solve", model, "--horizon", horizon, "--out", path]) == 0
    return path


def listed(doc):
    """``doc`` with every packed table turned back into nested lists of
    numbers, the form a hand-written document gives."""
    if isinstance(doc, dict):
        if doc.keys() == {"f8", "shape"}:
            return table_of_numbers(doc, "table").tolist()
        return {key: listed(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [listed(value) for value in doc]
    return doc


def test_pipeline_end_to_end(tmp_path, capsys):
    model = gen_model(tmp_path)
    policy = solve_policy(tmp_path, model)
    out = capsys.readouterr().out
    assert "stage 1" in out and "stage 2" in out

    search_out = tmp_path / "search.json"
    assert run(["search", policy, "--method", "b-vs", "--out", search_out]) == 0
    doc = json.loads(search_out.read_text())
    assert doc["method"] == "b-vs"
    assert "scheme" in doc

    report = tmp_path / "report.json"
    assert run(["eval", model, policy, search_out, "--mode", "successive",
                "--beliefs", 40, "--seed", 7, "--out", report]) == 0
    report_doc = json.loads(report.read_text())
    assert report_doc["average_loss"] >= 0.0
    csv_text = (tmp_path / "report.csv").read_text()
    assert csv_text.splitlines()[0] == "method,mode,average_loss,B,E,seconds"
    manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
    counters = {"approx_restarts", "loss_headroom", "loss_stderr", "worst_belief",
                "zero_loss_beliefs"}
    assert set(manifest["counters"]) == counters
    assert manifest["counters"]["approx_restarts"] == 0
    assert not counters & set(report_doc)


@pytest.mark.parametrize("mode", ["single", "successive"])
def test_eval_manifest_carries_the_worst_beliefs_headroom(tmp_path, mode):
    model = gen_model(tmp_path, vars=3, seed=1)
    policy = solve_policy(tmp_path, model, horizon=3)
    result = tmp_path / "search.json"
    assert run(["search", policy, "--method", "vs-sum", "--out", result]) == 0
    report = tmp_path / "report.json"
    # fewer beliefs than EVAL_BLOCK, so the report's losses come from one block
    assert 50 < EVAL_BLOCK
    assert run(["eval", model, policy, result, "--mode", mode, "--beliefs", 50,
                "--seed", 5, "--out", report]) == 0
    counters = json.loads((tmp_path / "report.json.manifest.json").read_text())["counters"]
    doc = json.loads(policy.read_text())
    loaded, stages, _ = cli._policy_from_doc(doc)
    source = result_from_doc(json.loads(result.read_text()), loaded.variables).per_region
    beliefs = sample_beliefs(loaded.n_states, 50, np.random.default_rng(5))
    optimal, achieved, _ = _block_values(loaded, stages, source, beliefs, mode)
    losses = np.maximum(0.0, optimal - achieved)
    report_doc = json.loads(report.read_text())
    bound = report_doc["B"] if mode == "single" else report_doc["E"]
    assert counters["worst_belief"] == int(np.argmax(losses))
    assert counters["loss_headroom"] == bound - losses.max()
    assert counters["loss_headroom"] >= -1e-9
    assert counters["loss_stderr"] == pytest.approx(statistics.stdev(losses) / 50 ** 0.5,
                                                    rel=1e-12)
    assert counters["zero_loss_beliefs"] == sum(loss == 0.0 for loss in losses.tolist())
    assert "loss_stderr" not in report_doc and "zero_loss_beliefs" not in report_doc


def test_eval_of_one_belief_writes_no_standard_error(tmp_path):
    model = gen_model(tmp_path)
    policy = solve_policy(tmp_path, model)
    scheme = tmp_path / "scheme.json"
    scheme.write_text(json.dumps([["x0"], ["x1"]]))
    assert run(["eval", model, policy, scheme, "--mode", "single", "--beliefs", 1,
                "--seed", 0, "--out", tmp_path / "r.json"]) == 0
    counters = json.loads((tmp_path / "r.json.manifest.json").read_text())["counters"]
    assert counters["loss_stderr"] is None
    assert counters["zero_loss_beliefs"] in (0, 1)


def raised_value_policy(tmp_path):
    """The grid's (3,2,2,3) gen seed 1 policy, its model and e-vs search
    result, and a copy of the policy with stage-2 vector 0 raised by 0.5."""
    model = gen_model(tmp_path, vars=3, seed=1)
    policy = solve_policy(tmp_path, model, horizon=3)
    result = tmp_path / "search.json"
    assert run(["search", policy, "--method", "e-vs", "--out", result]) == 0
    doc = listed(json.loads(policy.read_text()))
    entry = doc["stages"][1][0]
    entry["values"] = [v + 0.5 for v in entry["values"]]
    raised = tmp_path / "raised.json"
    raised.write_text(json.dumps(doc))
    return model, raised, result


def test_policy_values_that_are_not_their_plans_values_exit_2(tmp_path, capsys):
    model, raised, result = raised_value_policy(tmp_path)
    capsys.readouterr()
    assert run(["search", raised, "--method", "e-vs", "--out", tmp_path / "s.json"]) == 2
    assert run(["eval", model, raised, result, "--mode", "successive", "--beliefs", 10,
                "--seed", 0, "--out", tmp_path / "r.json"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("stage-2 policy vector 0 is off its plan's value by 0.5") == 2
    assert not (tmp_path / "s.json").exists() and not (tmp_path / "r.json").exists()


def test_gen_is_seed_deterministic(tmp_path):
    a = gen_model(tmp_path, "a.json", seed=11)
    b = gen_model(tmp_path, "b.json", seed=11)
    c = gen_model(tmp_path, "c.json", seed=12)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_generated_model_compiles_and_solves(tmp_path):
    from beliefproj import compile_model
    model_path = gen_model(tmp_path, vars=3, seed=2)
    compile_model(json.loads(model_path.read_text()))
    policy = solve_policy(tmp_path, model_path, horizon=3)
    doc = json.loads(policy.read_text())
    assert doc["horizon"] == 3 and len(doc["stages"]) == 3


def test_pipeline_reruns_byte_identical(tmp_path):
    model = gen_model(tmp_path)
    first, second = {}, {}
    for tag, store in (("one", first), ("two", second)):
        policy = solve_policy(tmp_path, model, name=f"policy_{tag}.json")
        search_out = tmp_path / f"search_{tag}.json"
        run(["search", policy, "--method", "vs-sum", "--out", search_out])
        report = tmp_path / f"report_{tag}.json"
        run(["eval", model, policy, search_out, "--mode", "single",
             "--beliefs", 30, "--seed", 5, "--out", report])
        store["policy"] = policy.read_bytes()
        store["search"] = search_out.read_bytes()
        store["report"] = report.read_bytes()
        store["csv"] = (tmp_path / f"report_{tag}.csv").read_bytes()
    assert first == second


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"variables\": [,]}")
    out = tmp_path / "x.json"
    assert run(["solve", bad, "--horizon", 1, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "bad.json" in err and "line" in err


def test_missing_key_names_the_key(tmp_path, capsys):
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"variables": ["x"], "actions": ["a"]}))
    assert run(["solve", incomplete, "--horizon", 1,
                "--out", tmp_path / "x.json"]) == 2
    assert "observations" in capsys.readouterr().err


def test_unknown_method_rejected_by_parser(tmp_path):
    model = gen_model(tmp_path)
    policy = solve_policy(tmp_path, model)
    with pytest.raises(SystemExit) as exc:
        run(["search", policy, "--method", "b-oracle", "--out", tmp_path / "s.json"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["search", policy, "--method", "e-vs", "--alt-guard", 5,
             "--out", tmp_path / "s.json"])
    assert exc.value.code == 2


def test_eval_rejects_mismatched_model(tmp_path, capsys):
    model2 = gen_model(tmp_path, "m2.json", vars=2, seed=1)
    model3 = gen_model(tmp_path, "m3.json", vars=3, seed=1)
    policy = solve_policy(tmp_path, model2)
    capsys.readouterr()
    assert run(["eval", model3, policy, tmp_path / "missing.json",
                "--mode", "single", "--seed", 0,
                "--out", tmp_path / "r.json"]) == 2
    assert f"{model3} is not the model {policy} was solved for" in capsys.readouterr().err


def _rename_first_action(doc):
    old = doc["actions"][0]
    doc["actions"][0] = "renamed"
    for table in ("transitions", "observation"):
        doc[table]["renamed"] = doc[table].pop(old)
    return doc


@pytest.mark.parametrize("edit", [
    lambda tmp_path, doc: json.loads(gen_model(tmp_path, "m4.json", seed=4).read_text()),
    lambda tmp_path, doc: _rename_first_action(doc),
    # the same model in other bytes: the check is on the file's digest
    lambda tmp_path, doc: doc,
], ids=["other-seed", "action-renamed", "reserialized"])
def test_eval_with_a_model_other_than_the_policys_exits_2(tmp_path, capsys, edit):
    model = gen_model(tmp_path)
    policy = solve_policy(tmp_path, model)
    other = tmp_path / "other.json"
    other.write_text(json.dumps(edit(tmp_path, json.loads(model.read_text()))))
    assert other.read_bytes() != model.read_bytes()
    scheme = tmp_path / "scheme.json"
    scheme.write_text(json.dumps([["x0"], ["x1"]]))
    capsys.readouterr()
    assert run(["eval", other, policy, scheme, "--mode", "single", "--seed", 0,
                "--beliefs", 20, "--out", tmp_path / "r.json"]) == 2
    err = capsys.readouterr().err
    assert f"{other} is not the model {policy} was solved for" in err
    assert not (tmp_path / "r.json").exists()


def test_solve_records_the_digest_of_the_model_files_bytes(tmp_path):
    model = gen_model(tmp_path)
    doc = json.loads(solve_policy(tmp_path, model).read_text())
    assert doc["model_sha256"] == hashlib.sha256(model.read_bytes()).hexdigest()


def test_eval_compiles_only_the_policys_model(tmp_path, monkeypatch):
    model = gen_model(tmp_path)
    policy = solve_policy(tmp_path, model)
    scheme = tmp_path / "scheme.json"
    scheme.write_text(json.dumps([["x0"], ["x1"]]))
    compiled = []

    def spy(doc):
        compiled.append(doc)
        return compile_model(doc)
    monkeypatch.setattr(cli, "compile_model", spy)
    assert run(["eval", model, policy, scheme, "--mode", "single", "--seed", 0,
                "--beliefs", 20, "--out", tmp_path / "r.json"]) == 0
    assert compiled == [json.loads(policy.read_text())["model"]]


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    model = gen_model(tmp_path)
    built = []

    class CountingParser(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)
    monkeypatch.setattr(argparse, "ArgumentParser", CountingParser)
    solve_policy(tmp_path, model)
    assert built == []


def test_eval_accepts_literal_scheme_file(tmp_path):
    model = gen_model(tmp_path, vars=2, seed=9)
    policy = solve_policy(tmp_path, model)
    scheme = tmp_path / "scheme.json"
    scheme.write_text(json.dumps([["x0", "x1"]]))  # identity scheme
    report = tmp_path / "r.json"
    assert run(["eval", model, policy, scheme, "--mode", "successive",
                "--beliefs", 25, "--seed", 4, "--out", report]) == 0
    doc = json.loads(report.read_text())
    assert doc["average_loss"] <= 1e-8
    assert doc["B"] == 0.0
    csv_line = (tmp_path / "r.csv").read_text().splitlines()[1]
    assert csv_line.startswith("scheme,successive,")


def test_guard_error_exits_3(tmp_path):
    model = gen_model(tmp_path, vars=2, seed=6)
    out = tmp_path / "p.json"
    assert run(["solve", model, "--horizon", 4, "--cap", 3, "--out", out]) == 3


def test_oversized_dense_tables_exit_3_before_allocating(tmp_path, capsys):
    # 20 variables pass the variable limit, but one action's transition table
    # alone would hold 4^20 entries (8 TiB)
    spec = {"variables": [f"x{i}" for i in range(20)], "actions": ["a"],
            "observations": ["z"], "transitions": {"a": {"flat": []}},
            "observation": {"a": []}, "reward": [], "discount": 0.9}
    model = tmp_path / "big.json"
    model.write_text(json.dumps(spec))
    assert run(["solve", model, "--horizon", 1, "--out", tmp_path / "p.json"]) == 3
    err = capsys.readouterr().err
    assert "dense tables" in err and "Traceback" not in err


def test_gen_of_oversized_dense_tables_exits_3_before_drawing(tmp_path, monkeypatch, capsys):
    from beliefproj import model
    # 2 variables, 2 actions and 2 observations need 2 * (16 + 8) = 48 entries
    monkeypatch.setattr(model, "MAX_TABLE_ENTRIES", 47)
    out = tmp_path / "m.json"
    assert run(["gen", "--vars", 2, "--actions", 2, "--obs", 2, "--seed", 0,
                "--out", out]) == 3
    err = capsys.readouterr().err
    assert "need 48 entries, above the cap of 47" in err and "Traceback" not in err
    assert not out.exists()


def test_eval_of_too_many_beliefs_exits_3_before_allocating(tmp_path, capsys):
    from beliefproj.evaluate import BELIEF_GUARD
    model = gen_model(tmp_path)
    policy = solve_policy(tmp_path, model)
    scheme = tmp_path / "scheme.json"
    scheme.write_text(json.dumps([["x0"], ["x1"]]))
    report = tmp_path / "r.json"
    args = ["--mode", "single", "--seed", 0, "--out", report]
    assert run(["eval", model, policy, scheme, "--beliefs", 100_000_000_000_000, *args]) == 3
    err = capsys.readouterr().err
    assert f"above the cap of {BELIEF_GUARD}" in err and "Traceback" not in err
    assert not report.exists()
    assert run(["eval", model, policy, scheme, "--beliefs", BELIEF_GUARD + 1, *args]) == 3


def test_eval_deeper_than_the_depth_cap_exits_3_naming_the_cap(tmp_path, capsys):
    from beliefproj.evaluate import DEPTH_GUARD, MODES
    # one observation keeps the branching at 1, so only the depth cap stops
    # a walk that would pass the interpreter's recursion limit
    model = tmp_path / "m.json"
    assert run(["gen", "--vars", 1, "--actions", 1, "--obs", 1, "--seed", 0,
                "--out", model]) == 0
    policy = solve_policy(tmp_path, model, horizon=1500)
    scheme = tmp_path / "scheme.json"
    scheme.write_text(json.dumps([["x0"]]))
    for mode in MODES:
        capsys.readouterr()
        report = tmp_path / f"{mode}.json"
        assert run(["eval", model, policy, scheme, "--mode", mode, "--seed", 0,
                    "--out", report]) == 3
        err = capsys.readouterr().err
        assert f"horizon 1500 exceeds the evaluation depth cap of {DEPTH_GUARD}" in err
        assert "Traceback" not in err and not report.exists()


def test_eval_of_an_incomplete_per_region_map_exits_2_before_drawing(tmp_path, monkeypatch,
                                                                    capsys):
    from beliefproj import evaluate
    model = gen_model(tmp_path)
    policy = solve_policy(tmp_path, model)
    result = tmp_path / "search.json"
    assert run(["search", policy, "--method", "vs-sum", "--out", result]) == 0
    doc = json.loads(result.read_text())
    del doc["per_region"]["1:0"]
    result.write_text(json.dumps(doc))
    draws, sample = [], evaluate.sample_beliefs
    monkeypatch.setattr(evaluate, "sample_beliefs",
                        lambda *args: draws.append(args) or sample(*args))
    for mode in evaluate.MODES:
        capsys.readouterr()
        assert run(["eval", model, policy, result, "--mode", mode, "--beliefs", 1000,
                    "--seed", 0, "--out", tmp_path / f"{mode}.json"]) == 2
        assert ("per-region scheme map has no entry for stage 1, vector 0"
                in capsys.readouterr().err)
    assert draws == []


@pytest.mark.parametrize("method", ["vs-sum", "vs-max"])
def test_estimator_search_with_scope_last_exits_2_before_any_work(tmp_path, monkeypatch, capsys,
                                                                 method):
    from beliefproj import search
    model = gen_model(tmp_path)
    policy = solve_policy(tmp_path, model)
    decoded, scored = [], []
    decode, scores = cli._policy_from_doc, search.incremental_scores
    monkeypatch.setattr(cli, "_policy_from_doc", lambda *a: decoded.append(a) or decode(*a))
    monkeypatch.setattr(search, "incremental_scores", lambda *a: scored.append(a) or scores(*a))
    out = tmp_path / "search.json"
    capsys.readouterr()
    assert run(["search", policy, "--method", method, "--scope", "last", "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"search method '{method}' covers every stage; scope 'last'" in err
    assert decoded == [] and scored == []
    assert not out.exists() and not (tmp_path / "search.json.manifest.json").exists()


def test_per_region_keys_naming_one_region_twice_exit_2(tmp_path, capsys):
    model = gen_model(tmp_path)
    policy = solve_policy(tmp_path, model)
    result = tmp_path / "search.json"
    assert run(["search", policy, "--method", "vs-sum", "--out", result]) == 0
    doc = json.loads(result.read_text())
    doc["per_region"]["01:0"] = [["x0", "x1"]]
    result.write_text(json.dumps(doc))
    report = tmp_path / "report.json"
    capsys.readouterr()
    assert run(["eval", model, policy, result, "--mode", "single", "--seed", 0,
                "--out", report]) == 2
    err = capsys.readouterr().err
    assert "per-region keys '1:0' and '01:0' both name stage 1, vector 0" in err
    assert not report.exists()


def test_cli_defaults_are_the_librarys():
    import inspect
    from beliefproj.evaluate import EvalConfig, random_pomdp
    from beliefproj.search import SearchConfig

    parse = cli.build_parser().parse_args
    gen = parse(["gen", "--vars", "1", "--actions", "1", "--obs", "1", "--seed", "0",
                 "--out", "m.json"])
    params = inspect.signature(random_pomdp).parameters
    assert gen.sparsity == params["sparsity"].default
    assert gen.discount == params["discount"].default
    search = parse(["search", "p.json", "--method", "vs-sum", "--out", "s.json"])
    assert search.scope == SearchConfig("vs-sum").scope
    report = parse(["eval", "m.json", "p.json", "s.json", "--mode", "single", "--seed", "0",
                    "--out", "r.json"])
    assert report.beliefs == EvalConfig().num_beliefs


def test_alternative_set_guard_exits_3(tmp_path, monkeypatch, capsys):
    from beliefproj import bounds
    model = gen_model(tmp_path)
    policy = solve_policy(tmp_path, model)
    scheme = tmp_path / "scheme.json"
    scheme.write_text(json.dumps([["x0"], ["x1"]]))
    monkeypatch.setattr(bounds, "ALT_GUARD", 1)
    assert run(["search", policy, "--method", "e-vs", "--out", tmp_path / "s.json"]) == 3
    assert run(["eval", model, policy, scheme, "--mode", "single", "--beliefs", 5,
                "--seed", 0, "--out", tmp_path / "r.json"]) == 3
    assert capsys.readouterr().err.count("guard error: alternative set") == 2


def test_e_search_guards_a_deep_switching_policy_and_walks_a_deep_trivial_one(tmp_path, capsys):
    """Forty stages whose plans switch need more alternative-set entries than
    the guard allows; 1,500 stages of one plan that never switches need none."""
    deep = solve_policy(tmp_path, gen_model(tmp_path, vars=2, seed=1), horizon=40)
    capsys.readouterr()
    assert run(["search", deep, "--method", "e-vs", "--out", tmp_path / "deep.json"]) == 3
    err = capsys.readouterr().err
    assert "guard error: alternative set" in err and "Traceback" not in err
    model = tmp_path / "m111.json"
    assert run(["gen", "--vars", 1, "--actions", 1, "--obs", 1, "--seed", 0,
                "--out", model]) == 0
    long = solve_policy(tmp_path, model, horizon=1500, name="long.json")
    capsys.readouterr()
    assert run(["search", long, "--method", "e-vs", "--out", tmp_path / "long_s.json"]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_solved_policy_reloads_to_same_values(tmp_path):
    import numpy as np
    from beliefproj import compile_model, random_belief, solve, value_of
    from beliefproj.cli import _decode, _policy_from_doc

    model_path = gen_model(tmp_path, vars=3, seed=21)
    policy_path = solve_policy(tmp_path, model_path, horizon=3)
    model = compile_model(json.loads(model_path.read_text()))
    in_process = solve(model, 3)
    _, reloaded, _ = _decode(policy_path, _policy_from_doc)
    rng = np.random.default_rng(0)
    for _ in range(20):
        b = random_belief(model.n_states, rng)
        assert value_of(b, reloaded[-1]) == value_of(b, in_process[-1])


def test_search_two_variable_policy_all_methods(tmp_path):
    model = gen_model(tmp_path, vars=2, seed=13)
    policy = solve_policy(tmp_path, model)
    docs = {}
    for method in ("b-lp", "b-vs", "e-lp", "e-vs", "vs-sum", "vs-max"):
        out = tmp_path / f"{method}.json"
        assert run(["search", policy, "--method", method, "--out", out]) == 0
        docs[method] = json.loads(out.read_text())
    for method in ("b-lp", "b-vs", "e-lp", "e-vs"):
        assert docs[method]["scheme"] == [["x0", "x1"]]
    for method in ("vs-sum", "vs-max"):
        regions = docs[method]["per_region"]
        # the stage-1 singleton region has estimator zero and stays at the
        # root; every region with gradients takes the one available edge
        assert regions["1:0"] == [["x0"], ["x1"]]
        assert all(regions[k] == [["x0", "x1"]] for k in regions if k != "1:0")
    # the two estimators tie-break identically here
    assert docs["vs-sum"]["per_region"] == docs["vs-max"]["per_region"]


def test_eval_bound_columns_match_in_process_bounds(tmp_path):
    from beliefproj import ProjectionScheme, compile_model
    from beliefproj.bounds import compute_bounds
    from beliefproj.cli import _decode, _policy_from_doc

    model_path = gen_model(tmp_path, vars=2, seed=19)
    policy_path = solve_policy(tmp_path, model_path)
    scheme_path = tmp_path / "scheme.json"
    scheme_path.write_text(json.dumps([["x0"], ["x1"]]))
    report_path = tmp_path / "rep.json"
    assert run(["eval", model_path, policy_path, scheme_path, "--mode", "single",
                "--beliefs", 30, "--seed", 2, "--out", report_path]) == 0
    row = (tmp_path / "rep.csv").read_text().splitlines()[1].split(",")
    model, stages, _ = _decode(policy_path, _policy_from_doc)
    per_stage_B, per_stage_E = compute_bounds(
        model, stages, ProjectionScheme.from_names([["x0"], ["x1"]], model.variables))
    assert float(row[3]) == max(per_stage_B)
    assert float(row[4]) == max(per_stage_E)


def test_witness_lp_failure_exits_4(tmp_path, monkeypatch, capsys):
    from beliefproj import LpResult, solver
    model = gen_model(tmp_path)
    calls = []

    def failing(lp):
        calls.append(lp)
        return LpResult("infeasible")

    monkeypatch.setattr(solver, "solve_lp", failing)
    # at horizon 2 every plan wins at a simplex corner or the centre, so
    # prune solves no witness LP; horizon 3 solves one
    assert run(["solve", model, "--horizon", 3, "--out", tmp_path / "p.json"]) == 4
    assert calls
    assert "witness LP unexpectedly infeasible" in capsys.readouterr().err
    assert not (tmp_path / "p.json").exists()


def test_switch_lp_failure_exits_4(tmp_path, monkeypatch, capsys):
    from beliefproj import LpResult, bounds
    model = gen_model(tmp_path)
    policy = solve_policy(tmp_path, model)
    monkeypatch.setattr(bounds, "solve_lp", lambda lp: LpResult("infeasible"))
    assert run(["search", policy, "--method", "b-lp", "--out", tmp_path / "s.json"]) == 4
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("key,value,message", [
    ("transitions", [], "model 'transitions' must be an object keyed by action name"),
    ("observation", [], "model 'observation' must be an object keyed by action name"),
    ("discount", "x", "model discount 'x' is not a number"),
    ("transitions", {"a0": 3, "a1": 3}, "transitions for 'a0' must be an object, got int"),
    ("transitions", {"a0": {"flat": [["p"] * 4] * 4}},
     "flat transition for 'a0' is not a table of numbers"),
    ("observation", {"a0": [["p", "q"]] * 4},
     "observation table for 'a0' is not a table of numbers"),
    ("reward", ["p"] * 4, "model reward is not a table of numbers"),
    ("variables", 2, "model 'variables' must be a list of names"),
    ("actions", 2, "model 'actions' must be a list of names"),
    ("transitions", {"a0": {"cpts": {"x0": 3, "x1": 3}}}, "cpt for 'x0' must be an object, got int"),
    ("transitions", {"a0": {"cpts": {"x0": {"parents": 1, "rows": [[0.5, 0.5]] * 2},
                                     "x1": {"rows": [[0.5, 0.5]]}}}},
     "cpt parents for 'x0' must be a list of variable names"),
    ("transitions", {"a0": {"cpts": []}},
     "cpts for 'a0' must be an object keyed by variable name, got list"),
    (None, 5, "model document must be an object, got int"),
    ("discount", True, "model discount True is not a number"),
    ("discount", "0.9", "model discount '0.9' is not a number"),
    ("reward", [1.0, "1.5", 2.0, 3.0], "model reward is not a table of numbers"),
    ("reward", [True, False, True, True], "model reward is not a table of numbers"),
    ("reward", [10 ** 400, 1.0, 2.0, 3.0], "model reward is not a table of numbers"),
    ("observation", {"a0": [["0.5", "0.5"]] * 4},
     "observation table for 'a0' is not a table of numbers"),
    ("transitions", {"a0": {"cpts": {"x0": {"rows": [["0.5", "0.5"]]},
                                     "x1": {"rows": [[0.5, 0.5]]}}}},
     "cpt rows for 'x0' is not a table of numbers"),
], ids=["transitions-list", "observation-list", "discount-string", "transition-entry-number",
        "flat-strings", "observation-strings", "reward-strings", "variables-number",
        "actions-number", "cpt-entry-number", "cpt-parents-number", "cpts-list",
        "document-number", "discount-bool", "discount-numeric-string",
        "reward-numeric-string", "reward-bools", "reward-huge-integer",
        "observation-numeric-strings",
        "cpt-numeric-strings"])
def test_malformed_model_exits_2_naming_the_problem(tmp_path, capsys, key, value, message):
    doc = json.loads(gen_model(tmp_path).read_text())
    if key is None:
        doc = value
    else:
        doc[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["solve", bad, "--horizon", 1, "--out", tmp_path / "p.json"]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("scheme,message", [
    ({"method": "vs-sum", "per_region": {"abc": [["x0"], ["x1"]]}},
     "per-region key 'abc' is not 'stage:index'"),
    ([["x0"]], "scheme leaves out variables ['x1']"),
    ({"method": "vs-sum", "per_region": [["x0"], ["x1"]]},
     "search result 'per_region' must be an object keyed by 'stage:index'"),
    ({"method": "vs-sum", "per_region": {"1:0": 5}},
     "scheme 5 is not a list of blocks of variable names"),
    ([[["x0"]], ["x1"]], "scheme [[['x0']], ['x1']] is not a list of blocks of variable names"),
    ({"method": float("nan"), "scheme": [["x0"], ["x1"]]},
     "search result 'method' must be a string, got nan"),
    ({"method": "vs-sum", "scheme": [["x0"], ["x1"]], "per_region": {"1:0": [["x0", "x1"]]}},
     "search result document carries both 'scheme' and 'per_region'"),
], ids=["per-region-key", "partial-scheme", "per-region-list", "per-region-number",
        "nested-names", "method-nan", "scheme-and-per-region"])
def test_malformed_scheme_exits_2_naming_the_problem(tmp_path, capsys, scheme, message):
    model = gen_model(tmp_path)
    policy = solve_policy(tmp_path, model)
    scheme_path = tmp_path / "scheme.json"
    scheme_path.write_text(json.dumps(scheme))
    capsys.readouterr()
    assert run(["eval", model, policy, scheme_path, "--mode", "single", "--seed", 0,
                "--out", tmp_path / "r.json"]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def _deterministic_first_row(table, entry):
    """Row 0 of a probability table becomes [entry, 0, ...]: with ``entry``
    read as 1.0 the row still sums to one."""
    table[0] = [entry] + [0.0] * (len(table[0]) - 1)


@pytest.mark.parametrize("edit,message", [
    (lambda doc: doc["reward"].__setitem__(0, True), "model reward is not a table of numbers"),
    (lambda doc: doc["reward"].__setitem__(0, False), "model reward is not a table of numbers"),
    (lambda doc: _deterministic_first_row(doc["transitions"]["a0"]["flat"], True),
     "flat transition for 'a0' is not a table of numbers"),
    (lambda doc: _deterministic_first_row(doc["observation"]["a1"], True),
     "observation table for 'a1' is not a table of numbers"),
    (lambda doc: doc["transitions"].__setitem__("a0", {"cpts": {
        "x0": {"rows": [[True, 0.0]]}, "x1": {"rows": [[0.5, 0.5]]}}}),
     "cpt rows for 'x0' is not a table of numbers"),
], ids=["reward-true", "reward-false", "flat-true", "observation-true", "cpt-true"])
def test_a_lone_bool_among_model_numbers_exits_2(tmp_path, capsys, edit, message):
    doc = listed(json.loads(gen_model(tmp_path).read_text()))
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["solve", bad, "--horizon", 1, "--out", tmp_path / "p.json"]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("entry", [True, False])
def test_a_lone_bool_among_policy_values_exits_2(tmp_path, capsys, entry):
    model = gen_model(tmp_path)
    doc = listed(json.loads(solve_policy(tmp_path, model).read_text()))
    doc["stages"][1][0]["values"][2] = entry
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["search", bad, "--method", "vs-sum", "--out", tmp_path / "s.json"]) == 2
    err = capsys.readouterr().err
    assert "stage-2 policy entry 0 'values' is not a table of numbers" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("scheme", [
    [["x0", "x0"], ["x1"]],
    {"method": "vs-sum", "per_region": {"1:0": [["x0"], ["x1", "x1"]]}},
], ids=["scheme", "per-region"])
def test_a_scheme_block_naming_a_variable_twice_exits_2(tmp_path, capsys, scheme):
    model = gen_model(tmp_path)
    policy = solve_policy(tmp_path, model)
    scheme_path = tmp_path / "scheme.json"
    scheme_path.write_text(json.dumps(scheme))
    capsys.readouterr()
    assert run(["eval", model, policy, scheme_path, "--mode", "single", "--seed", 0,
                "--out", tmp_path / "r.json"]) == 2
    err = capsys.readouterr().err
    assert "projection scheme block names a variable twice" in err and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("edit,message", [
    (lambda doc: doc.__setitem__("horizon", "x"), "policy horizon 'x' is not an integer"),
    (lambda doc: doc["stages"][0][0].__setitem__("values", ["p"] * 4),
     "stage-1 policy entry 0 'values' is not a table of numbers"),
    (lambda doc: doc.__setitem__("stages", 3), "policy 'stages' must be a list of stages, got int"),
    (lambda doc: doc["stages"].__setitem__(0, 3),
     "stage 1 of the policy must be a list of entries, got int"),
    (lambda doc: doc["stages"][0][0].__setitem__("values", 5),
     "stage-1 policy values must be rows of 4 numbers"),
    (lambda doc: doc["stages"][0][0].__setitem__("values", "5"),
     "stage-1 policy entry 0 'values' is not a table of numbers"),
    (lambda doc: doc["stages"][1][0].__setitem__("values", 5), "(field 'values')"),
    (lambda doc: [e.__setitem__("values", [[v] for v in e["values"]]) for e in doc["stages"][0]],
     "stage-1 policy values must be rows of 4 numbers"),
    (lambda doc: [e.__setitem__("strategy", [0]) for e in doc["stages"][1]],
     "stage-2 policy strategies must be lists of 2 indices"),
    (lambda doc: doc["stages"][1][0].__setitem__("action", 2),
     "stage-2 policy actions must be indices below 2"),
    (lambda doc: doc.__setitem__("model", 5), "model document must be an object, got int"),
    (lambda doc: doc.pop("horizon"), "policy document missing key 'horizon'"),
    (lambda doc: doc.__setitem__("horizon", 3), "policy horizon does not match its stage count"),
    (lambda doc: doc["stages"].__setitem__(1, []), "stage 2 of the policy is empty"),
    (lambda doc: doc.__setitem__("stages", []), "policy document has no stages"),
    (lambda doc: doc["stages"][1][0].__setitem__("strategy", [0, 99]),
     "stage 2 strategy references an invalid stage-1 vector"),
    (lambda doc: doc.__setitem__("horizon", 2.7), "policy horizon 2.7 is not an integer"),
    (lambda doc: doc.__setitem__("horizon", 2.0), "policy horizon 2.0 is not an integer"),
    (lambda doc: doc.__setitem__("horizon", True), "policy horizon True is not an integer"),
    (lambda doc: doc.pop("model_sha256"), "policy document missing key 'model_sha256'"),
    (lambda doc: doc.__setitem__("model_sha256", doc["model_sha256"].upper()),
     "policy 'model_sha256' must be 64 lowercase hex digits"),
    (lambda doc: doc.__setitem__("model_sha256", doc["model_sha256"][:-1]),
     "policy 'model_sha256' must be 64 lowercase hex digits"),
    (lambda doc: doc.__setitem__("model_sha256", 5),
     "policy 'model_sha256' must be 64 lowercase hex digits, got 5"),
    (lambda doc: doc["stages"][1][0].__setitem__("action", "1"),
     "stage-2 policy action entry '1' is not an integer (field 'action')"),
    (lambda doc: doc["stages"][1][0].__setitem__("action", 0.5),
     "stage-2 policy action entry 0.5 is not an integer (field 'action')"),
    (lambda doc: doc["stages"][1][0].__setitem__("action", True),
     "stage-2 policy action entry True is not an integer (field 'action')"),
    (lambda doc: doc["stages"][1][0]["strategy"].__setitem__(0, 0.9),
     "stage-2 policy strategy entry 0.9 is not an integer (field 'strategy')"),
    (lambda doc: doc["stages"][1][0]["values"].__setitem__(0, "1.5"),
     "stage-2 policy entry 0 'values' is not a table of numbers"),
], ids=["horizon-string", "values-strings", "stages-number", "stage-number", "values-number",
        "values-string", "values-ragged", "values-nested", "strategy-short", "action-range",
        "model-number", "missing-key", "horizon-mismatch", "stage-empty", "stages-empty",
        "strategy-range", "horizon-fraction", "horizon-float", "horizon-bool",
        "digest-missing", "digest-upper", "digest-short", "digest-number",
        "action-numeric-string", "action-fraction", "action-bool", "strategy-fraction",
        "values-numeric-string"])
def test_malformed_policy_exits_2_naming_the_problem(tmp_path, capsys, edit, message):
    model = gen_model(tmp_path)
    doc = listed(json.loads(solve_policy(tmp_path, model).read_text()))
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    scheme = tmp_path / "scheme.json"
    scheme.write_text(json.dumps([["x0"], ["x1"]]))
    for command in (["search", bad, "--method", "vs-sum", "--out", tmp_path / "s.json"],
                    ["eval", model, bad, scheme, "--mode", "single", "--seed", 0,
                     "--out", tmp_path / "r.json"]):
        capsys.readouterr()
        assert run(command) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


@pytest.mark.parametrize("table,edit", [
    ("transition table", lambda doc: doc["transitions"]["a0"]["flat"][0].__setitem__(0, "NaN")),
    ("observation table", lambda doc: doc["observation"]["a1"][3].__setitem__(1, "NaN")),
    ("reward", lambda doc: doc["reward"].__setitem__(2, "NaN")),
], ids=["transition", "observation", "reward"])
def test_nan_model_entry_exits_2_naming_the_table(tmp_path, capsys, table, edit):
    doc = listed(json.loads(gen_model(tmp_path).read_text()))
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc).replace('"NaN"', "NaN"))
    capsys.readouterr()
    assert run(["solve", bad, "--horizon", 2, "--out", tmp_path / "p.json"]) == 2
    err = capsys.readouterr().err
    assert f"model {table} has non-finite entries" in err and "Traceback" not in err


def test_rewards_whose_values_overflow_exit_2_naming_the_reward_and_horizon(tmp_path, capsys):
    # three discounted rewards of 1e308 sum past the largest float
    doc = json.loads(gen_model(tmp_path).read_text())
    doc["reward"] = [1e308] * 4
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["solve", bad, "--horizon", 3, "--out", tmp_path / "p.json"]) == 2
    err = capsys.readouterr().err
    assert "model rewards up to 1e+308 overflow the values of a horizon-3 plan" in err
    assert "Traceback" not in err and not (tmp_path / "p.json").exists()


def test_policy_values_beyond_the_reward_bound_exit_2(tmp_path, capsys):
    model = gen_model(tmp_path)
    doc = listed(json.loads(solve_policy(tmp_path, model).read_text()))
    doc["stages"][1][0]["values"][:2] = [1e308, -1e308]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    scheme = tmp_path / "scheme.json"
    scheme.write_text(json.dumps([["x0"], ["x1"]]))
    for command in (["search", bad, "--method", "b-vs", "--out", tmp_path / "s.json"],
                    ["eval", model, bad, scheme, "--mode", "single", "--seed", 0,
                     "--out", tmp_path / "r.json"]):
        capsys.readouterr()
        assert run(command) == 2
        err = capsys.readouterr().err
        assert "stage-2 policy values exceed" in err and "(field 'values')" in err
        assert "Traceback" not in err
    assert not (tmp_path / "s.json").exists() and not (tmp_path / "r.json").exists()


def test_non_finite_result_exits_4_without_writing_it(tmp_path, monkeypatch, capsys):
    from beliefproj import cli
    model = gen_model(tmp_path)
    policy = solve_policy(tmp_path, model)
    scheme = tmp_path / "scheme.json"
    scheme.write_text(json.dumps([["x0"], ["x1"]]))
    original = cli.average_error

    def infinite_loss(*args, **kwargs):
        report = original(*args, **kwargs)
        report.average_loss = float("inf")
        return report
    monkeypatch.setattr(cli, "average_error", infinite_loss)
    capsys.readouterr()
    assert run(["eval", model, policy, scheme, "--mode", "single", "--seed", 0,
                "--beliefs", 20, "--out", tmp_path / "r.json"]) == 4
    assert "non-finite number" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_non_finite_policy_value_exits_4_without_writing_it(tmp_path, monkeypatch, capsys):
    """A policy's values are packed before the writer sees them, so packing
    refuses a non-finite value in the writer's words."""
    model = gen_model(tmp_path)
    real_solve = cli.solve

    def nan_solve(*args, **kwargs):
        stages = real_solve(*args, **kwargs)
        top = stages[-1]
        matrix = top.matrix.copy()
        matrix[0, 1] = np.nan
        # an AlphaSet refuses non-finite values, so the stand-in is not one
        return stages[:-1] + [SimpleNamespace(matrix=matrix, actions=top.actions,
                                              strategies=top.strategies)]
    monkeypatch.setattr(cli, "solve", nan_solve)
    policy = tmp_path / "p.json"
    capsys.readouterr()
    assert run(["solve", model, "--horizon", 2, "--out", policy]) == 4
    err = capsys.readouterr().err
    assert f"numerical failure: {policy}: result holds a non-finite number" in err
    assert "Traceback" not in err and not policy.exists()


@pytest.mark.parametrize("command,flag", [
    (["gen", "--vars", -1, "--actions", 2, "--obs", 2, "--seed", 1], "--vars"),
    (["gen", "--vars", 2, "--actions", -1, "--obs", 2, "--seed", 1], "--actions"),
    (["gen", "--vars", 2, "--actions", 2, "--obs", -3, "--seed", 1], "--obs"),
    (["gen", "--vars", 2, "--actions", 2, "--obs", 2, "--seed", -1], "--seed"),
    (["eval", "{model}", "{policy}", "{scheme}", "--mode", "single", "--seed", -1], "--seed"),
    (["solve", "{model}", "--horizon", 2, "--cap", 0], "--cap"),
    (["solve", "{model}", "--horizon", 2, "--cap", -5], "--cap"),
    (["solve", "{model}", "--horizon", 0], "--horizon"),
    (["eval", "{model}", "{policy}", "{scheme}", "--mode", "single", "--seed", 0,
      "--beliefs", 0], "--beliefs"),
], ids=["gen-vars", "gen-actions", "gen-obs", "gen-seed", "eval-seed", "solve-cap-0",
        "solve-cap-negative", "solve-horizon-0", "eval-beliefs-0"])
def test_negative_count_or_seed_exits_2_naming_the_flag(tmp_path, capsys, command, flag):
    model = gen_model(tmp_path)
    paths = {"model": model, "policy": solve_policy(tmp_path, model),
             "scheme": tmp_path / "scheme.json"}
    paths["scheme"].write_text(json.dumps([["x0"], ["x1"]]))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run([str(a).format(**paths) for a in command] + ["--out", tmp_path / "x.json"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be at least" in err and "Traceback" not in err


def pipeline_commands(tmp_path):
    """One command per subcommand, each missing only its --out."""
    model = gen_model(tmp_path)
    policy = solve_policy(tmp_path, model)
    scheme = tmp_path / "scheme.json"
    scheme.write_text(json.dumps([["x0"], ["x1"]]))
    return {"gen": ["gen", "--vars", 2, "--actions", 2, "--obs", 2, "--seed", 1],
            "solve": ["solve", model, "--horizon", 2],
            "search": ["search", policy, "--method", "b-vs"],
            "eval": ["eval", model, policy, scheme, "--mode", "single", "--beliefs", 5,
                     "--seed", 0]}


@pytest.mark.parametrize("command", ["gen", "solve", "search", "eval"])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_exits_2_naming_the_path(tmp_path, capsys, command, where):
    argv = pipeline_commands(tmp_path)[command]
    out = tmp_path / "absent" / "x.json" if where == "missing-directory" else tmp_path
    capsys.readouterr()
    assert run(argv + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert f"cannot write {out}" in err and "Traceback" not in err


def test_eval_csv_path_that_is_a_directory_exits_2(tmp_path, capsys):
    argv = pipeline_commands(tmp_path)["eval"]
    (tmp_path / "r.csv").mkdir()
    capsys.readouterr()
    assert run(argv + ["--out", tmp_path / "r.json"]) == 2
    err = capsys.readouterr().err
    assert f"cannot write {tmp_path / 'r.csv'}" in err and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


def test_eval_out_that_is_its_csv_path_exits_2_before_any_work(tmp_path, monkeypatch, capsys):
    argv = pipeline_commands(tmp_path)["eval"]
    decoded, decode = [], cli._policy_from_doc
    monkeypatch.setattr(cli, "_policy_from_doc", lambda *a: decoded.append(a) or decode(*a))
    out = tmp_path / "r.csv"
    capsys.readouterr()
    assert run(argv + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert f"--out {out} is also the path of the CSV report" in err and "Traceback" not in err
    assert decoded == []
    assert not out.exists() and not (tmp_path / "r.csv.manifest.json").exists()


def files(directory):
    """Name and bytes of every file in ``directory``."""
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


@pytest.mark.parametrize("command,position,role", [
    ("solve", 1, "model"), ("search", 1, "policy"), ("eval", 1, "model"), ("eval", 2, "policy"),
    ("eval", 3, "scheme")],
    ids=["solve-model", "search-policy", "eval-model", "eval-policy", "eval-scheme"])
@pytest.mark.parametrize("name", ["path", "symlink", "hard-link"])
def test_an_out_naming_an_input_exits_2_leaving_every_file_as_it_was(tmp_path, capsys, command,
                                                                      position, role, name):
    argv = pipeline_commands(tmp_path)[command]
    source = argv[position]
    out = source if name == "path" else tmp_path / "out.json"
    if name == "symlink":
        out.symlink_to(source)
    elif name == "hard-link":
        out.hardlink_to(source)
    before = files(tmp_path)
    capsys.readouterr()
    assert run(argv + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert f"error: --out {out} is also the path of the {role} {source}" in err
    assert "Traceback" not in err
    assert files(tmp_path) == before


@pytest.mark.parametrize("output,name", [("CSV report", "r.csv"),
                                         ("manifest", "r.json.manifest.json")])
def test_an_eval_csv_or_manifest_naming_the_scheme_exits_2(tmp_path, capsys, output, name):
    argv = pipeline_commands(tmp_path)["eval"]
    scheme = tmp_path / name
    argv[3] = argv[3].rename(scheme)
    before = files(tmp_path)
    capsys.readouterr()
    assert run(argv + ["--out", tmp_path / "r.json"]) == 2
    err = capsys.readouterr().err
    assert f"error: {output} {scheme} is also the path of the scheme {scheme}" in err
    assert files(tmp_path) == before


@pytest.mark.parametrize("command,own", [("gen", None), ("solve", "solve"),
                                         ("search", "search"), ("eval", "eval")])
def test_a_manifest_holds_the_command_its_config_outputs_and_seconds(tmp_path, command, own):
    argv = [str(a) for a in pipeline_commands(tmp_path)[command] + ["--out", tmp_path / "x.json"]]
    assert run(argv) == 0
    doc = json.loads((tmp_path / "x.json.manifest.json").read_text())
    assert set(doc) == {"command", "config", "outputs", "seconds"} | (
        {"counters"} if command == "eval" else set())
    assert doc["command"] == command
    config = vars(cli.build_parser().parse_args(argv))
    assert doc["config"] == {key: value for key, value in config.items() if key != "func"}
    assert doc["outputs"] == [str(tmp_path / "x.json")] + (
        [str(tmp_path / "x.csv")] if command == "eval" else [])
    assert set(doc["seconds"]) == {"total"} | ({own} if own else set())
    assert doc["seconds"]["total"] >= doc["seconds"].get(own, 0.0) >= 0.0
    if command == "eval":
        assert set(doc["counters"]) == {"approx_restarts", "loss_headroom", "loss_stderr",
                                        "worst_belief", "zero_loss_beliefs"}


def test_solve_of_a_vast_horizon_reaches_its_guard_at_once(tmp_path, capsys):
    """The reward bound checked before the first stage does not walk the
    horizon, so a backup cap of 1 exits 3 as soon as it is read."""
    model = gen_model(tmp_path)

    def too_slow(signum, frame):
        raise TimeoutError("solve did not reach its guard within 10 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(10)
    try:
        start = time.perf_counter()
        code = run(["solve", model, "--horizon", 10 ** 12, "--cap", 1,
                    "--out", tmp_path / "p.json"])
        elapsed = time.perf_counter() - start
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 3 and elapsed < 1.0
    assert "above the cap of 1" in capsys.readouterr().err
    assert not (tmp_path / "p.json").exists()


@pytest.mark.parametrize("command", ["gen", "solve", "search", "eval"])
def test_a_manifest_that_cannot_be_written_leaves_no_outputs(tmp_path, capsys, command):
    argv = pipeline_commands(tmp_path)[command]
    out = tmp_path / "out" / "x.json"
    out.parent.mkdir()
    manifest = out.parent / "x.json.manifest.json"
    manifest.mkdir()
    capsys.readouterr()
    assert run(argv + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert f"cannot write {manifest}" in err and "Traceback" not in err
    assert sorted(p.name for p in out.parent.iterdir()) == [manifest.name]


@pytest.mark.parametrize("command,position", [
    ("solve", 1), ("search", 1), ("eval", 1), ("eval", 2), ("eval", 3)],
    ids=["solve-model", "search-policy", "eval-model", "eval-policy", "eval-scheme"])
@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_input_exits_2_naming_the_path(tmp_path, capsys, command, position, kind):
    argv = pipeline_commands(tmp_path)[command]
    bad = tmp_path / "bad"
    if kind == "directory":
        bad.mkdir()
        message = f"cannot read {bad}: Is a directory"
    else:
        bad.write_bytes(b'{"variables": ["\xff"]}')
        message = f"{bad}: not UTF-8 text"
    argv[position] = bad
    capsys.readouterr()
    assert run(argv + ["--out", tmp_path / "x.json"]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def _policy_discount_2(doc):
    doc["model"]["discount"] = 2.0


@pytest.mark.parametrize("command,position,edit,message", [
    ("solve", 1, lambda doc: doc.__setitem__("discount", 2.0), "discount 2.0 not in (0, 1]"),
    ("search", 1, _policy_discount_2, "discount 2.0 not in (0, 1]"),
    ("search", 1, lambda doc: doc.pop("horizon"), "policy document missing key 'horizon'"),
    ("eval", 1, lambda doc: doc.__setitem__("discount", 2.0), "discount 2.0 not in (0, 1]"),
    ("eval", 2, _policy_discount_2, "discount 2.0 not in (0, 1]"),
    ("eval", 3, lambda doc: doc.append(["x0"]), "projection scheme blocks overlap"),
], ids=["solve-model", "search-policy-model", "search-policy-key", "eval-model",
        "eval-policy-model", "eval-scheme"])
def test_document_error_names_the_file_once(tmp_path, capsys, command, position, edit, message):
    argv = pipeline_commands(tmp_path)[command]
    doc = json.loads(argv[position].read_text())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv[position] = bad
    capsys.readouterr()
    assert run(argv + ["--out", tmp_path / "x.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: {message}") and err.count(str(bad)) == 1


@pytest.mark.parametrize("role", ["model", "policy", "scheme"])
def test_deeply_nested_json_exits_2_naming_the_file(tmp_path, capsys, role):
    files = {"model": gen_model(tmp_path)}
    files["policy"] = solve_policy(tmp_path, files["model"])
    files["scheme"] = tmp_path / "scheme.json"
    files["scheme"].write_text(json.dumps([["x0"], ["x1"]]))
    # the parser recurses once per level and gives up far above this depth
    files[role] = tmp_path / "nested.json"
    files[role].write_text("[" * 100_000 + "]" * 100_000)
    commands = [["eval", files["model"], files["policy"], files["scheme"], "--mode", "single",
                 "--seed", 0, "--out", tmp_path / "r.json"]]
    if role == "model":
        commands.append(["solve", files["model"], "--horizon", 1, "--out", tmp_path / "p.json"])
    if role == "policy":
        commands.append(["search", files["policy"], "--method", "vs-sum",
                         "--out", tmp_path / "s.json"])
    for command in commands:
        capsys.readouterr()
        assert run(command) == 2
        err = capsys.readouterr().err
        assert f"error: {files[role]}: JSON nested too deeply to read" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_solve_refuses_a_non_json_constant_the_model_does_not_read(tmp_path, capsys, token):
    doc = json.loads(gen_model(tmp_path).read_text())
    doc["notes"] = "TOKEN"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc).replace('"TOKEN"', token))
    policy = tmp_path / "p.json"
    capsys.readouterr()
    assert run(["solve", bad, "--horizon", 2, "--out", policy]) == 2
    err = capsys.readouterr().err
    assert f"{bad}: {token} is not a JSON number" in err and "Traceback" not in err
    assert not policy.exists()


@pytest.mark.parametrize("shape", [(1, 1, 1, 1, 0), (2, 2, 2, 2, 3), (3, 2, 3, 3, 1),
                                   (4, 3, 2, 2, 5)])
def test_policy_of_a_generated_model_has_the_bytes_of_the_re_encoded_model(tmp_path, shape):
    """The policy embeds the model file's text; for a file ``gen`` wrote
    that is exactly the text of the model decoded and written again."""
    n_vars, actions, obs, horizon, seed = shape
    model = tmp_path / "model.json"
    assert run(["gen", "--vars", n_vars, "--actions", actions, "--obs", obs, "--seed", seed,
                "--out", model]) == 0
    policy = solve_policy(tmp_path, model, horizon=horizon)
    doc = json.loads(policy.read_text(encoding="utf-8"))
    doc["model"] = model_to_spec(compile_model(json.loads(model.read_text(encoding="utf-8"))))
    expected = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert policy.read_text(encoding="utf-8") == expected


def test_every_artifact_of_a_pipeline_is_indented_sorted_json(tmp_path):
    model = gen_model(tmp_path, vars=3, seed=4)
    policy = solve_policy(tmp_path, model, horizon=3)
    for method in ("vs-sum", "b-lp"):
        search = tmp_path / f"{method}.json"
        assert run(["search", policy, "--method", method, "--out", search]) == 0
    for mode, search in (("successive", "vs-sum"), ("single", "b-lp")):
        assert run(["eval", model, policy, tmp_path / f"{search}.json", "--mode", mode,
                    "--beliefs", 20, "--seed", 1, "--out", tmp_path / f"{mode}.json"]) == 0
    written = sorted(tmp_path.glob("*.json"))
    assert len(written) == 12
    for path in written:
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path.name


def _cpt_transitions(doc):
    doc["transitions"] = {a: {"cpts": {"x0": {"parents": ["x0"], "rows": [[0.1, 0.9], [0.8, 0.2]]},
                                       "x1": {"rows": [[0.5, 0.5]]}}}
                          for a in doc["actions"]}
    return json.dumps(doc, indent=2)


def _integer_entries(doc):
    doc["reward"] = [1, 0, -2, 3]
    doc["observation"]["a0"] = [[1, 0], [0, 1], [1, 0], [0, 1]]
    return json.dumps(doc, indent=2)


@pytest.mark.parametrize("write", [
    lambda doc: json.dumps(doc, separators=(",", ":")),
    _integer_entries,
    _cpt_transitions,
    lambda doc: json.dumps(dict(doc, notes={"by": "hand", "sizes": [2, 2, 2]}), indent=2),
    lambda doc: "\r\n" + json.dumps(doc, indent=4).replace("\n", "\r\n") + "\r\n",
    # a number that decodes to infinity, which the writer would refuse to encode
    lambda doc: json.dumps(dict(doc, notes="TOKEN"), indent=2).replace('"TOKEN"', "1e400"),
], ids=["compact", "integers", "cpts", "extra-key", "crlf", "overflowing-extra-key"])
def test_policy_embeds_a_hand_written_model_as_read(tmp_path, monkeypatch, write):
    """The policy holds the model file's text spliced in as read: without
    its outer whitespace and with two spaces after each newline, however
    the text is cut into slices."""
    doc = json.loads(gen_model(tmp_path).read_text())
    model = tmp_path / "hand.json"
    model.write_bytes(write(doc).encode("utf-8"))
    policy = solve_policy(tmp_path, model)
    written = policy.read_bytes()
    embedded = model.read_bytes().strip(b" \t\n\r").replace(b"\n", b"\n  ")
    assert b'\n  "model": ' + embedded + b',\n  "model_sha256": ' in written
    assert json.loads(written)["model"] == json.loads(model.read_text())
    monkeypatch.setattr(cli, "TEXT_SLICE", 3)
    assert solve_policy(tmp_path, model, name="sliced.json").read_bytes() == written
    search = tmp_path / "search.json"
    assert run(["search", policy, "--method", "b-vs", "--out", search]) == 0
    assert run(["eval", model, policy, search, "--mode", "successive", "--beliefs", 20,
                "--seed", 1, "--out", tmp_path / "report.json"]) == 0


@pytest.mark.parametrize("extra", [("99:0", "-1:7"), ("-1:7",), ("1:1",), ("3:0",)])
def test_eval_of_a_per_region_map_naming_no_vector_exits_2_before_drawing(tmp_path, monkeypatch,
                                                                          capsys, extra):
    from beliefproj import evaluate
    model = gen_model(tmp_path)
    policy = solve_policy(tmp_path, model)  # stages of 1 and 2 vectors
    result = tmp_path / "search.json"
    assert run(["search", policy, "--method", "vs-sum", "--out", result]) == 0
    doc = json.loads(result.read_text())
    for key in extra:
        doc["per_region"][key] = [["x0"], ["x1"]]
    result.write_text(json.dumps(doc))
    draws, sample = [], evaluate.sample_beliefs
    monkeypatch.setattr(evaluate, "sample_beliefs",
                        lambda *args: draws.append(args) or sample(*args))
    report = tmp_path / "report.json"
    capsys.readouterr()
    assert run(["eval", model, policy, result, "--mode", "single", "--beliefs", 10,
                "--seed", 0, "--out", report]) == 2
    err = capsys.readouterr().err
    assert f"per-region scheme key '{extra[0]}' names no vector of the policy" in err
    assert draws == [] and not report.exists()


def test_eval_refuses_a_non_json_constant_in_a_search_result(tmp_path, capsys):
    model = gen_model(tmp_path)
    policy = solve_policy(tmp_path, model)
    result = tmp_path / "search.json"
    assert run(["search", policy, "--method", "b-vs", "--out", result]) == 0
    doc = json.loads(result.read_text())
    doc["trace"] = "TOKEN"
    result.write_text(json.dumps(doc).replace('"TOKEN"', "NaN"))
    capsys.readouterr()
    assert run(["eval", model, policy, result, "--mode", "single", "--beliefs", 10,
                "--seed", 0, "--out", tmp_path / "report.json"]) == 2
    assert f"{result}: NaN is not a JSON number" in capsys.readouterr().err
