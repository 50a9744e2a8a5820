import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from beliefproj import LinearProgram, solve_lp

TOOL = Path(__file__).resolve().parents[1] / "tools" / "lp_digest.py"


@pytest.fixture(scope="module")
def digest():
    spec = importlib.util.spec_from_file_location("lp_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_instance_lists_every_lp_with_its_shape_and_digest(digest, capsys, monkeypatch):
    monkeypatch.setattr(digest, "INSTANCES", digest.INSTANCES[:1])
    assert digest.main([]) == 0
    captured = capsys.readouterr()
    lines = [line.split(" ") for line in captured.out.splitlines()]
    # b-lp and e-lp each solve the cross-check's 667 switch LPs
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
    assert captured.err == f"{len(lines)} LPs, {pivots} pivots ({sites})\n"


def test_a_line_hashes_the_value_then_the_final_tableau_and_basis(digest):
    # rows count the program's constraints; the cap on x is not one of them
    lp = LinearProgram(np.array([1.0, 1.0]), [(np.array([1.0, 1.0]), "<=", 5.0)],
                       upper=[2.0, None])
    result = solve_lp(lp)
    tableau, basis = result.tableau
    sha = hashlib.sha256(repr(result.value).encode() + tableau.tobytes()
                         + basis.tobytes()).hexdigest()
    assert digest.digest_line("solver", lp, result) == f"solver optimal {result.pivots} 1 2 {sha}"
    infeasible = LinearProgram(np.array([1.0]), [(np.array([1.0]), "<=", -1.0)])
    empty = hashlib.sha256().hexdigest()
    assert digest.digest_line("bounds", infeasible, solve_lp(infeasible)).endswith(f" 1 1 {empty}")
