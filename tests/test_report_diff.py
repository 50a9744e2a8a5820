import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from beliefproj.cli import main as cli_main

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_diff.py"


@pytest.fixture(scope="module")
def report_diff():
    spec = importlib.util.spec_from_file_location("report_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def old_dir(tmp_path):
    """A directory with a model, a policy, an e-vs search result and two eval
    reports with their manifests and CSVs, as the CLI writes them."""
    d = tmp_path / "old"
    d.mkdir()
    model, policy, scheme = d / "model.json", d / "policy.json", d / "scheme.json"
    scheme.write_text(json.dumps([["x0"], ["x1"]]))
    commands = [["gen", "--vars", "2", "--actions", "2", "--obs", "2", "--seed", "3",
                 "--out", model],
                ["solve", model, "--horizon", "2", "--out", policy],
                ["search", policy, "--method", "e-vs", "--out", d / "search_e-vs.json"]]
    for mode in ("single", "successive"):
        commands.append(["eval", model, policy, scheme, "--mode", mode, "--beliefs", "20",
                         "--seed", "0", "--out", d / f"eval_{mode}.json"])
    for argv in commands:
        assert cli_main([str(a) for a in argv]) == 0
    return d


def edit_report(path: Path, **fields):
    doc = json.loads(path.read_text())
    doc.update(fields)
    path.write_text(json.dumps(doc))
    return doc


def test_equal_reports_give_one_line_and_exit_0(report_diff, old_dir, tmp_path, capsys):
    new = tmp_path / "new"
    shutil.copytree(old_dir, new)
    assert report_diff.main([str(old_dir), str(new)]) == 0
    assert capsys.readouterr().out == ("largest |delta average_loss|: 0.0 over 4 report pairs; "
                                       "largest relative change: 0.0 over 5 document pairs\n")


def test_lists_every_differing_field_and_the_largest_loss_change_last(report_diff, old_dir,
                                                                      tmp_path, capsys):
    new = tmp_path / "new"
    shutil.copytree(old_dir, new)
    single = json.loads((old_dir / "eval_single.json").read_text())
    successive = json.loads((old_dir / "eval_successive.json").read_text())
    edit_report(new / "eval_single.json", average_loss=single["average_loss"] + 1e-3)
    edit_report(new / "eval_successive.json", average_loss=successive["average_loss"] + 1e-2,
                B=successive["B"] + 1.0)
    (new / "eval_extra.json").write_text(json.dumps(single))
    assert report_diff.main([str(old_dir), str(new)]) == 1
    lines = capsys.readouterr().out.splitlines()
    fields = [line.split(":")[0] for line in lines[:-1]]
    assert fields == [f"only in {new}", "eval_single.json average_loss",
                      "eval_successive.json B", "eval_successive.json average_loss"]
    loss, change = lines[-1].split("; ")
    head, tail = loss.split(" over ")
    assert head.startswith("largest |delta average_loss|: ")
    assert float(head.split(": ")[1]) == pytest.approx(1e-2)
    assert tail == "4 report pairs (eval_successive.json)"
    head, tail = change.split(" over ")
    assert head.startswith("largest relative change: ")
    assert float(head.split(": ")[1]) == pytest.approx(1.0 / max(abs(successive["B"]), 1.0))
    assert tail == "5 document pairs (eval_successive.json B)"


def test_pairs_search_results_value_by_value(report_diff, old_dir, tmp_path, capsys):
    """A search result pairs up as a report does; a changed trace bound is
    named by its place in the trace, and its change is relative to the old
    value, or absolute when that is near 0."""
    new = tmp_path / "new"
    shutil.copytree(old_dir, new)
    trace = json.loads((old_dir / "search_e-vs.json").read_text())["trace"]
    last = f"trace[{len(trace) - 1}].bound"

    def set_bounds(old_bound, new_bound):
        for d, bound in ((old_dir, old_bound), (new, new_bound)):
            edit_report(d / "search_e-vs.json", trace=trace[:-1] + [{**trace[-1], "bound": bound}])
        assert report_diff.main([str(old_dir), str(new)]) == 1
        return capsys.readouterr().out.splitlines()

    lines = set_bounds(4.0, 4.0 + 4e-12)
    assert lines[:-1] == [f"search_e-vs.json {last}: 4.0 -> {4.0 + 4e-12!r}"]
    change = lines[-1].split("; largest relative change: ")[1]
    assert float(change.split(" ")[0]) == pytest.approx(1e-12, rel=1e-3)
    assert change.endswith(f" over 5 document pairs (search_e-vs.json {last})")
    lines = set_bounds(3e-15, 0.0)
    assert lines[:-1] == [f"search_e-vs.json {last}: 3e-15 -> 0.0"]
    assert lines[-1].split("; ")[1].startswith("largest relative change: 3e-15 over")


def test_pairs_eval_csvs_by_their_numbers(report_diff, old_dir, tmp_path, capsys):
    """A CSV pairs up by path and its average_loss, B and E cells compare as
    numbers: a CSV that drifts from its unchanged report shows, and counts
    toward both maxima; a cell rewritten in another spelling of the same
    number does not."""
    new = tmp_path / "new"
    shutil.copytree(old_dir, new)
    header, row = (old_dir / "eval_single.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    loss, bound_e = float(cells["average_loss"]), float(cells["E"])
    edited = {**cells, "average_loss": repr(loss + 1e-1), "E": format(bound_e, ".17e")}
    (new / "eval_single.csv").write_text(
        header + "\n" + ",".join(edited[field] for field in header.split(",")) + "\n")
    assert report_diff.main([str(old_dir), str(new)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] == [f"eval_single.csv average_loss: {loss!r} -> {loss + 1e-1!r}"]
    head, change = lines[-1].split("; ")
    assert head.startswith("largest |delta average_loss|: ")
    assert float(head.split(": ")[1].split(" ")[0]) == pytest.approx(1e-1)
    assert head.endswith(" over 4 report pairs (eval_single.csv)")
    assert change.endswith(" over 5 document pairs (eval_single.csv average_loss)")


def test_refuses_a_path_that_is_not_a_directory(report_diff, old_dir, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        report_diff.main([str(old_dir), str(tmp_path / "absent")])
    assert exc.value.code == 2
    assert "is not a directory" in capsys.readouterr().err
