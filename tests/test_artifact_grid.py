import contextlib
import hashlib
import importlib.util
import io
import itertools
from pathlib import Path

import numpy as np
import pytest

from beliefproj import LinearProgram, ProjectionScheme, lattice_root, solve_lp
from beliefproj.solver import AlphaSet

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_grid.py"
COMMITTED = Path(__file__).resolve().parent / "data" / "grid"
LISTINGS = ("artifacts.txt", "lp_digest.txt", "vs_digest.txt")
SHOWN = 5  # differing lines shown per listing


@pytest.fixture(scope="module")
def grid():
    spec = importlib.util.spec_from_file_location("artifact_grid", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def one_instance(grid, tmp_path_factory):
    """(out dir, stdout, stderr) of the cross-check and the grid's first instance."""
    out = tmp_path_factory.mktemp("grid") / "out"
    stdout, stderr = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        patch.setattr(grid, "INSTANCES", grid.INSTANCES[:1])
        assert grid.main(["--out", str(out)]) == 0
    return out, stdout.getvalue(), stderr.getvalue().splitlines()


def test_one_instance_lists_every_artifact_with_its_digest_and_exit(one_instance):
    out, stdout, err = one_instance
    lines = [line.split(" ") for line in stdout.splitlines()]
    # gen, solve, 10 searches and 20 evals; each eval writes a report and a CSV
    assert len(lines) == 1 + 1 + 10 + 20 * 2
    assert err[0] == "32 commands, 52 artifacts, 0 failed"
    # every command succeeds and writes what it lists
    for digest, code, rel in lines:
        assert code == "0", rel
        assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest, rel
    assert len({rel for _, _, rel in lines}) == len(lines)
    # the listing is also written beside the LP and VS listings
    assert (out / "artifacts.txt").read_text() == stdout


def test_one_instance_lists_every_lp_with_its_shape_and_digest(one_instance):
    out, _stdout, err = one_instance
    lines = [line.split(" ") for line in (out / "lp_digest.txt").read_text().splitlines()]
    # b-lp and e-lp each solve the cross-check's 667 switch LPs; the grid's
    # searches list none
    assert sum(site == "bounds" for site, *_ in lines) == 2 * 667
    assert {site for site, *_ in lines} == {"bounds", "solver"}
    for site, status, pivots, rows, cols, sha in lines:
        assert status in ("optimal", "stopped", "infeasible", "unbounded")
        assert int(pivots) >= 0 and int(rows) > 0 and int(cols) > 0
        assert len(sha) == 64 and int(sha, 16) >= 0
    per_site = {site: (sum(s == site for s, *_ in lines),
                       sum(int(p) for s, _, p, *_ in lines if s == site))
                for site in ("bounds", "solver")}
    pivots = sum(p for _, p in per_site.values())
    sites = "; ".join(f"{site} {n} LPs, {p} pivots" for site, (n, p) in per_site.items())
    assert err[1] == f"{len(lines)} LPs, {pivots} pivots ({sites})"


def test_one_instance_lists_every_vs_switch_set_call(one_instance):
    out, _stdout, err = one_instance
    lines = [line.split(" ") for line in (out / "vs_digest.txt").read_text().splitlines()]
    # searches pass a global scheme, evals of the estimator results a per-region map
    assert {source.startswith("per-region:") for _, source, *_ in lines} == {True, False}
    for stage, source, m, positives, sha in lines:
        assert int(stage) >= 1 and 0 <= int(positives) <= int(m) * (int(m) - 1)
        assert len(sha) == 64 and int(sha, 16) >= 0
    positives = sum(int(line[3]) for line in lines)
    assert err[2:] == [f"{len(lines)} VS switch-set calls, {positives} positives"]


def test_a_failed_command_shows_in_its_exit_column_and_the_run_goes_on(grid, tmp_path, capsys,
                                                                       monkeypatch):
    monkeypatch.setattr(grid, "INSTANCES", grid.INSTANCES[:1])
    monkeypatch.setattr(grid, "CROSS_CHECK", (2, 1, 1, 0, 1))
    real_run = grid.run
    monkeypatch.setattr(grid, "run", lambda argv: 2 if argv[0] == "solve" else real_run(argv))
    assert grid.main(["--out", str(tmp_path / "out")]) == 0
    captured = capsys.readouterr()
    rows = [line.split(" ") for line in captured.out.splitlines()]
    assert rows[1] == ["-", "2", "i0_n3a2z2h3s1/policy.json"]
    assert captured.err.startswith("32 commands, ")
    assert (tmp_path / "out" / "lp_digest.txt").is_file()
    assert (tmp_path / "out" / "vs_digest.txt").is_file()


def test_refuses_a_directory_that_is_not_empty(grid, tmp_path, capsys):
    (tmp_path / "stale.json").write_text("{}")
    with pytest.raises(SystemExit) as exc:
        grid.main(["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "is not an empty directory" in capsys.readouterr().err


def test_a_line_hashes_the_value_then_the_final_tableau_and_basis(grid):
    # rows count the program's constraints; the cap on x is not one of them
    lp = LinearProgram(np.array([1.0, 1.0]), [(np.array([1.0, 1.0]), "<=", 5.0)],
                       upper=[2.0, None])
    result = solve_lp(lp)
    tableau, basis = result.tableau
    sha = hashlib.sha256(repr(result.value).encode() + tableau.tobytes()
                         + basis.tobytes()).hexdigest()
    assert grid.lp_line("solver", lp, result) == f"solver optimal {result.pivots} 1 2 {sha}"
    infeasible = LinearProgram(np.array([1.0]), [(np.array([1.0]), "<=", -1.0)])
    empty = hashlib.sha256().hexdigest()
    assert grid.lp_line("bounds", infeasible, solve_lp(infeasible)).endswith(f" 1 1 {empty}")


def test_a_line_names_the_stage_source_and_hashes_the_switch_sets(grid):
    matrix = np.zeros((3, 8))
    aset = AlphaSet(2, matrix, np.zeros(3, dtype=np.intp), np.zeros((3, 1), dtype=np.intp))
    sets = [(1, 2), (0,), ()]
    sha = hashlib.sha256(repr(sets).encode()).hexdigest()
    scheme = ProjectionScheme(((0, 2), (1,)))
    assert grid.vs_line(aset, scheme, sets) == f"2 0-2|1 3 3 {sha}"
    source = {(2, i): lattice_root(3) for i in range(3)}
    regions = hashlib.sha256(b"0|1|2;0|1|2;0|1|2").hexdigest()[:16]
    assert grid.vs_line(aset, source, sets) == f"2 per-region:{regions} 3 3 {sha}"


def first_differences(name: str, committed: list[str], fresh: list[str]) -> list[str]:
    """Up to ``SHOWN`` lines on which two listings differ, by line number."""
    shown = []
    for number, (old, new) in enumerate(itertools.zip_longest(committed, fresh), start=1):
        if old != new and len(shown) < SHOWN:
            shown.append(f"{name} line {number}:\n  committed: {old}\n  this tree: {new}")
    return shown


def test_the_grid_reproduces_the_committed_listings(grid, tmp_path):
    """The fingerprint in tier-1: every artifact, LP and VS line of the grid
    equals the committed listing's. A change that means to alter some
    regenerates the listings with the command in ``tools/artifact_grid.py``."""
    fresh = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert grid.main(["--out", str(fresh)]) == 0
    differences = []
    for name in LISTINGS:
        committed = (COMMITTED / name).read_text().splitlines()
        differences += first_differences(name, committed, (fresh / name).read_text().splitlines())
    environment = (COMMITTED / "environment.txt").read_text()
    if differences and grid.environment() != environment:
        differences.insert(0, f"the listings were made in another environment:\n{environment}"
                              f"this one is:\n{grid.environment()}")
    assert not differences, "\n".join(differences)


def test_a_differing_listing_shows_its_first_differing_lines():
    committed = [f"line {i}" for i in range(10)]
    fresh = committed[:3] + ["changed"] + committed[4:] + ["extra"]
    assert first_differences("lp_digest.txt", committed, fresh) == [
        "lp_digest.txt line 4:\n  committed: line 3\n  this tree: changed",
        "lp_digest.txt line 11:\n  committed: None\n  this tree: extra"]
