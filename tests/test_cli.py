import json

import pytest

from beliefproj.cli import main


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
    assert manifest["counters"] == {"approx_restarts": 0}
    assert "approx_restarts" not in report_doc


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


def test_eval_rejects_mismatched_model(tmp_path):
    model2 = gen_model(tmp_path, "m2.json", vars=2, seed=1)
    model3 = gen_model(tmp_path, "m3.json", vars=3, seed=1)
    policy = solve_policy(tmp_path, model2)
    assert run(["eval", model3, policy, tmp_path / "missing.json",
                "--mode", "single", "--seed", 0,
                "--out", tmp_path / "r.json"]) == 2


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


def test_solved_policy_reloads_to_same_values(tmp_path):
    import numpy as np
    from beliefproj import compile_model, random_belief, solve, value_of
    from beliefproj.cli import _load_policy

    model_path = gen_model(tmp_path, vars=3, seed=21)
    policy_path = solve_policy(tmp_path, model_path, horizon=3)
    model = compile_model(json.loads(model_path.read_text()))
    in_process = solve(model, 3)
    _, reloaded = _load_policy(policy_path)
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
    from beliefproj.cli import _load_policy

    model_path = gen_model(tmp_path, vars=2, seed=19)
    policy_path = solve_policy(tmp_path, model_path)
    scheme_path = tmp_path / "scheme.json"
    scheme_path.write_text(json.dumps([["x0"], ["x1"]]))
    report_path = tmp_path / "rep.json"
    assert run(["eval", model_path, policy_path, scheme_path, "--mode", "single",
                "--beliefs", 30, "--seed", 2, "--out", report_path]) == 0
    row = (tmp_path / "rep.csv").read_text().splitlines()[1].split(",")
    model, stages = _load_policy(policy_path)
    oracle = compute_bounds(model, stages,
                            ProjectionScheme.from_names([["x0"], ["x1"]],
                                                        model.variables))
    assert float(row[3]) == oracle.max_B
    assert float(row[4]) == oracle.max_E


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
], ids=["transitions-list", "observation-list", "discount-string", "transition-entry-number",
        "flat-strings", "observation-strings", "reward-strings", "variables-number",
        "actions-number", "cpt-entry-number", "cpt-parents-number", "cpts-list",
        "document-number"])
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
], ids=["per-region-key", "partial-scheme", "per-region-list", "per-region-number",
        "nested-names", "method-nan"])
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


@pytest.mark.parametrize("edit,message", [
    (lambda doc: doc.__setitem__("horizon", "x"), "policy horizon 'x' is not an integer"),
    (lambda doc: doc["stages"][0][0].__setitem__("values", ["p"] * 4),
     "malformed stage-1 policy entry: could not convert string to float: 'p'"),
    (lambda doc: doc.__setitem__("stages", 3), "policy 'stages' must be a list of stages, got int"),
    (lambda doc: doc["stages"].__setitem__(0, 3),
     "stage 1 of the policy must be a list of entries, got int"),
    (lambda doc: doc["stages"][0][0].__setitem__("values", 5),
     "stage-1 policy values must be rows of 4 numbers"),
    (lambda doc: doc["stages"][0][0].__setitem__("values", "5"),
     "stage-1 policy values must be rows of 4 numbers"),
    (lambda doc: doc["stages"][1][0].__setitem__("values", 5), "(field 'values')"),
    (lambda doc: [e.__setitem__("values", [[v] for v in e["values"]]) for e in doc["stages"][0]],
     "stage-1 policy values must be rows of 4 numbers"),
    (lambda doc: [e.__setitem__("strategy", [0]) for e in doc["stages"][1]],
     "stage-2 policy strategies must be lists of 2 indices"),
    (lambda doc: doc["stages"][1][0].__setitem__("action", 2),
     "stage-2 policy actions must be indices below 2"),
    (lambda doc: doc.__setitem__("model", 5), "model document must be an object, got int"),
], ids=["horizon-string", "values-strings", "stages-number", "stage-number", "values-number",
        "values-string", "values-ragged", "values-nested", "strategy-short", "action-range",
        "model-number"])
def test_malformed_policy_exits_2_naming_the_problem(tmp_path, capsys, edit, message):
    model = gen_model(tmp_path)
    doc = json.loads(solve_policy(tmp_path, model).read_text())
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
    doc = json.loads(gen_model(tmp_path).read_text())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc).replace('"NaN"', "NaN"))
    capsys.readouterr()
    assert run(["solve", bad, "--horizon", 2, "--out", tmp_path / "p.json"]) == 2
    err = capsys.readouterr().err
    assert f"model {table} has non-finite entries" in err and "Traceback" not in err


def test_policy_values_beyond_the_reward_bound_exit_2(tmp_path, capsys):
    model = gen_model(tmp_path)
    doc = json.loads(solve_policy(tmp_path, model).read_text())
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


@pytest.mark.parametrize("command,flag", [
    (["gen", "--vars", -1, "--actions", 2, "--obs", 2, "--seed", 1], "--vars"),
    (["gen", "--vars", 2, "--actions", -1, "--obs", 2, "--seed", 1], "--actions"),
    (["gen", "--vars", 2, "--actions", 2, "--obs", -3, "--seed", 1], "--obs"),
    (["gen", "--vars", 2, "--actions", 2, "--obs", 2, "--seed", -1], "--seed"),
    (["eval", "{model}", "{policy}", "{scheme}", "--mode", "single", "--seed", -1], "--seed"),
], ids=["gen-vars", "gen-actions", "gen-obs", "gen-seed", "eval-seed"])
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
