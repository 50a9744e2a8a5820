"""Smoke tests for the benchmark harness: ``python3 -m pytest -q perfbench``.

They run tiny workloads in process; the timed runs themselves are made by
``perfbench/run.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import beliefproj.evaluate as evaluate  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from beliefproj.evaluate import random_pomdp  # noqa: E402
from beliefproj.projection import project  # noqa: E402
from beliefproj.search import SearchConfig, run_search  # noqa: E402
from beliefproj.solver import solve  # noqa: E402


def _declared():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]}, doc)


def test_declared_metrics_match_the_harness():
    end_to_end, per_layer, doc = _declared()
    assert end_to_end == dict(harness.END_TO_END)
    assert per_layer == dict(harness.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_rebinds_import_sites_and_restores_them():
    tracer = spans.Tracer()
    with tracer.installed():
        assert evaluate.project is not project
        assert evaluate.project.__wrapped__ is project
    assert evaluate.project is project
    assert set(spans.REQUIRED_SITES) <= tracer.sites


def test_tracer_counts_switch_lps_once_per_switch_test():
    model = random_pomdp(3, 2, 2, np.random.default_rng(0))
    stages = solve(model, 3)
    tracer = spans.Tracer()
    with tracer.installed():
        run_search(model, stages, SearchConfig(method="b-lp"))
    assert tracer.calls["lpcore.switch"] > 0
    assert tracer.calls["lpcore.switch"] == tracer.calls["bounds.lp_switch_test"]
    assert tracer.calls["lpcore.witness"] == 0
    assert tracer.layer_self_seconds("lpcore") == pytest.approx(tracer.seconds["lpcore.switch"])


@pytest.fixture
def tiny_grids(monkeypatch):
    monkeypatch.setattr(workloads, "SOLVE_GRID", (((3, 2, 2, 3), 2),))
    monkeypatch.setattr(workloads, "VS_GRID", (((3, 2, 2, 3), 1),))
    monkeypatch.setattr(workloads, "EVAL_BELIEFS", 5)
    monkeypatch.setattr(workloads, "LARGE_EVAL_BELIEFS", 10)
    monkeypatch.setattr(workloads, "PROBES", ())


@pytest.mark.parametrize("name,trace", [("solve", False), ("solve", True), ("vs-eval", True)])
def test_run_prints_a_result_line(tiny_grids, tmp_path, capsys, name, trace):
    code = harness.run(name, 3, 0.01, trace, tmp_path)
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    end_to_end, per_layer, _ = _declared()
    assert code == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    workload = workloads.build(name, 3)
    assert line["attempted"] == harness.MIN_PASSES * len(workload.ops) + len(workload.setup)
    assert {k: v["unit"] for k, v in line["metrics"].items()} == (per_layer if trace else end_to_end)
    assert not (tmp_path / ".perfbench" / "work").exists() or not any(
        (tmp_path / ".perfbench" / "work").iterdir())


def test_pass_count_is_set_by_seconds_not_by_speed(tiny_grids, monkeypatch, tmp_path, capsys):
    # the tiny passes take milliseconds, far below the nominal pass time
    monkeypatch.setitem(workloads.PASS_SECONDS, "solve", 10.0)
    harness.run("solve", 3, 30.0, False, tmp_path)
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    workload = workloads.build("solve", 3)
    assert line["attempted"] == 3 * len(workload.ops) + len(workload.setup)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "solve",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_failed_set_up_step_counts_as_a_failed_op(tiny_grids, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(workloads, "SOLVE_CAP", 1)  # the set-up solve exits 3
    harness.run("vs-eval", 3, 0.01, False, tmp_path)
    out = capsys.readouterr().out
    line = json.loads(out.strip().splitlines()[-1])
    workload = workloads.build("vs-eval", 3)
    assert line["attempted"] == harness.MIN_PASSES * len(workload.ops) + len(workload.setup)
    # the ops that read the missing policy fail as well
    assert line["failed"] == harness.MIN_PASSES * len(workload.ops) + 1
    assert "set-up step failed: solve n3a2z2h3_0.policy.json exit 3" in out
