import hashlib
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_grid.py"


@pytest.fixture(scope="module")
def grid():
    spec = importlib.util.spec_from_file_location("artifact_grid", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_instance_lists_every_artifact_with_its_digest_and_exit(grid, tmp_path, capsys,
                                                                    monkeypatch):
    monkeypatch.setattr(grid, "INSTANCES", grid.INSTANCES[:1])
    out = tmp_path / "grid"
    assert grid.main(["--out", str(out)]) == 0
    captured = capsys.readouterr()
    lines = [line.split(" ") for line in captured.out.splitlines()]
    # gen, solve, 10 searches and 20 evals; each eval writes a report and a CSV
    assert len(lines) == 1 + 1 + 10 + 20 * 2
    assert captured.err == "32 commands, 52 artifacts, 0 failed\n"
    # every command succeeds and writes what it lists
    for digest, code, rel in lines:
        assert code == "0", rel
        assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest, rel
    assert len({rel for _, _, rel in lines}) == len(lines)


def test_refuses_a_directory_that_is_not_empty(grid, tmp_path, capsys):
    (tmp_path / "stale.json").write_text("{}")
    with pytest.raises(SystemExit) as exc:
        grid.main(["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "is not an empty directory" in capsys.readouterr().err
