import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_quartiles_interpolate_inclusively(pairs):
    assert pairs.quartiles([3.0, 1.0, 2.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert pairs.quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)
    assert pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_pairs_won_counts_strict_wins_in_the_better_direction(pairs):
    parent, change = [1.0, 2.0, 3.0], [0.5, 2.0, 3.5]
    assert pairs.pairs_won(parent, change, "lower") == 1  # the tie counts for neither
    assert pairs.pairs_won(parent, change, "higher") == 1


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_parents_iqr(pairs):
    faster = [p - 0.2 for p in PARENT]
    assert pairs.gain_holds(PARENT, faster, "lower")
    assert not pairs.gain_holds(PARENT, faster, "higher")
    # nine wins of ten still hold; eight do not
    nine = faster[:9] + [PARENT[9] + 0.01]
    assert pairs.gain_holds(PARENT, nine, "lower")
    eight = faster[:8] + [PARENT[8] + 0.01, PARENT[9] + 0.01]
    assert not pairs.gain_holds(PARENT, eight, "lower")
    # every pair won, but by less than the parent's own spread
    q1, _median, q3 = pairs.quartiles(PARENT)
    slightly = [p - (q3 - q1) / 2 for p in PARENT]
    assert pairs.pairs_won(PARENT, slightly, "lower") == 10
    assert not pairs.gain_holds(PARENT, slightly, "lower")


def test_relative_loss_is_the_median_worsening_over_the_parent_median(pairs):
    assert pairs.relative_loss([2.0, 2.0], [2.5, 2.5], "lower") == pytest.approx(0.25)
    assert pairs.relative_loss([2.0, 2.0], [2.5, 2.5], "higher") == pytest.approx(-0.25)


def test_regression_is_worse_past_the_bound_and_unresolved_on_a_wide_parent(pairs):
    # PARENT spreads (q3 - q1) / median = 3.5%, inside a 25% bound
    assert pairs.regression(PARENT, [p * 1.2 for p in PARENT], "lower", 0.25) == "none"
    assert pairs.regression(PARENT, [p * 1.3 for p in PARENT], "lower", 0.25) == "worse"
    assert pairs.regression(PARENT, [p * 0.7 for p in PARENT], "higher", 0.25) == "worse"
    # a parent spreading 40% cannot rule out a 25% loss ...
    wide = [0.6, 0.8, 1.0, 1.2, 1.4]
    assert pairs.regression(wide, [1.1] * 5, "lower", 0.25) == "unresolved"
    assert pairs.regression(wide, list(wide), "lower", 0.25) == "unresolved"
    # ... unless every change run beats every parent run
    assert pairs.regression(wide, [0.5] * 5, "lower", 0.25) == "none"
    assert pairs.regression(wide, [1.5] * 5, "higher", 0.25) == "none"
    # the loss past the bound is worse even on a wide parent
    assert pairs.regression(wide, [1.3] * 5, "lower", 0.25) == "worse"


def test_ratio_interval_takes_the_widest_order_statistics_missing_at_most_a_tenth(pairs):
    ratios = [1.09, 0.91, 1.05, 0.97, 1.01, 0.93, 1.07, 0.99, 1.03, 0.95]
    # n = 10: 2·P(Bin(10, 1/2) <= 1) = 22/1024, while <= 2 would be 112/1024
    lo, hi, coverage = pairs.ratio_interval(ratios)
    assert (lo, hi) == (0.93, 1.07)
    assert coverage == pytest.approx(1 - 22 / 1024)
    # n = 5 is the least with an interval: its extremes, missing 2/32 of the time
    assert pairs.ratio_interval([1.2, 0.8, 1.0, 0.9, 1.1]) == (0.8, 1.2, pytest.approx(0.9375))
    assert pairs.ratio_interval([1.2, 0.8, 1.0, 0.9]) is None
    assert pairs.ratio_interval([]) is None
    # n = 20: 2·P(Bin(20, 1/2) <= 5) is 0.041, <= 6 would be 0.115
    assert pairs.ratio_interval(list(range(20)))[:2] == (5, 14)


def test_problems_name_a_failed_check_failed_ops_and_a_missing_result(pairs):
    assert pairs.problems({"correct": True, "failed": 0, "metrics": {}}) == []
    assert pairs.problems({"correct": False, "failed": 2}) == ["correct: false",
                                                               "2 failed ops"]
    assert pairs.problems(None) == ["no result line"]


def fake_result(pass_s, correct=True, failed=0):
    metrics = {"pass_s": pass_s, "setup_s": 0.1, "peak_rss_mb": 40.0}
    return {"correct": correct, "failed": failed,
            "metrics": {k: {"value": v} for k, v in metrics.items()}}


def test_main_alternates_the_first_side_and_reports_every_metric(pairs, capsys):
    calls = []

    def run(checkout, workload, seed, seconds):
        calls.append(checkout.name)
        return fake_result(1.0 if checkout.name == "parent" else 0.5)

    argv = ["parent", "change", "--workload", "vs-eval", "--seed", "3", "--pairs", "3"]
    assert pairs.main(argv, run=run) == 0
    assert calls == ["parent", "change", "change", "parent", "parent", "change"]
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "pair 1 parent: pass_s=1 setup_s=0.1 peak_rss_mb=40"
    summary = {line.split(" ")[0]: line for line in out[6:]}
    assert set(summary) == {"pass_s", "setup_s", "peak_rss_mb"}
    assert "change won 3/3 pairs" in summary["pass_s"]
    assert summary["pass_s"].endswith("ratio 0.5, no interval; gain holds; regression: none")
    assert "change won 0/3 pairs" in summary["setup_s"]
    assert summary["setup_s"].endswith("gain does not hold; regression: none")


@pytest.mark.parametrize("bad", [fake_result(0.5, correct=False), fake_result(0.5, failed=1),
                                 None])
def test_main_exits_1_on_a_run_that_cannot_be_compared(pairs, capsys, bad):
    def run(checkout, workload, seed, seconds):
        return bad if checkout.name == "change" else fake_result(1.0)

    argv = ["parent", "change", "--workload", "solve", "--seed", "1", "--pairs", "10"]
    assert pairs.main(argv, run=run) == 1
    assert capsys.readouterr().err.startswith("pair 1 change: ")
