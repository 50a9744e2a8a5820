import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from beliefproj import ProjectionScheme, lattice_root
from beliefproj.solver import AlphaSet

TOOL = Path(__file__).resolve().parents[1] / "tools" / "vs_digest.py"


@pytest.fixture(scope="module")
def digest():
    spec = importlib.util.spec_from_file_location("vs_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_instance_lists_every_vs_switch_set_call(digest, capsys, monkeypatch):
    monkeypatch.setattr(digest, "INSTANCES", digest.INSTANCES[:1])
    assert digest.main([]) == 0
    captured = capsys.readouterr()
    lines = [line.split(" ") for line in captured.out.splitlines()]
    # searches pass a global scheme, evals of the estimator results a per-region map
    assert {source.startswith("per-region:") for _, source, *_ in lines} == {True, False}
    for stage, source, m, positives, sha in lines:
        assert int(stage) >= 1 and 0 <= int(positives) <= int(m) * (int(m) - 1)
        assert len(sha) == 64 and int(sha, 16) >= 0
    positives = sum(int(line[3]) for line in lines)
    assert captured.err == f"{len(lines)} VS switch-set calls, {positives} positives\n"


def test_a_line_names_the_stage_source_and_hashes_the_switch_sets(digest):
    matrix = np.zeros((3, 8))
    aset = AlphaSet(2, matrix, np.zeros(3, dtype=np.intp), np.zeros((3, 1), dtype=np.intp))
    sets = [(1, 2), (0,), ()]
    sha = hashlib.sha256(repr(sets).encode()).hexdigest()
    scheme = ProjectionScheme(((0, 2), (1,)))
    assert digest.digest_line(aset, scheme, sets) == f"2 0-2|1 3 3 {sha}"
    source = {(2, i): lattice_root(3) for i in range(3)}
    regions = hashlib.sha256(b"0|1|2;0|1|2;0|1|2").hexdigest()[:16]
    assert digest.digest_line(aset, source, sets) == f"2 per-region:{regions} 3 3 {sha}"
