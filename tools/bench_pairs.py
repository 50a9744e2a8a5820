"""Compare two checkouts on one benchmark workload, in alternating pairs.

    python tools/bench_pairs.py PARENT CHANGE --workload W --seed S --pairs N

Each pair runs ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, each with its own ``perfbench/`` and
``src/``; T is ``run_seconds`` of ``BENCHMARK.json`` next to this script.
The parent runs first in pairs 1, 3, 5, ... and the change in pairs 2, 4,
... One line per run gives the pair, the side and its end-to-end metrics.

Then, for each end-to-end metric that ``BENCHMARK.json`` declares, one line
gives each side's median and quartiles (q1, q3), the pairs the change won
(ties count for neither side), the change of the median against the
metric's bound, the median of the per-pair ratios (change over parent) with
a distribution-free interval of at least 90% from their order statistics
(none below five pairs), whether a gain may be claimed (the change must win
at least nine tenths of the pairs, and its median must be better than the
parent's by more than the distance between the parent's quartiles), and the
no-regression verdict: ``worse`` when the median loses more than the bound,
``unresolved`` when the parent's own spread, (q3 - q1) / median, is wider
than the bound and not every change run beats every parent run, ``none``
otherwise.

Exits 1 as soon as a run reports ``correct: false``, a failed op or no
result, naming the run; a comparison that rests on such a run shows
nothing.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GAIN_SHARE = 0.9  # share of the pairs the change must win to claim a gain
RATIO_MISS = 0.10  # largest chance that the ratio interval misses the median ratio


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) of ``values``, quartiles interpolated inclusively."""
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def improvement(parent: float, change: float, better: str) -> float:
    """How much better ``change`` reads than ``parent``: positive when better."""
    return parent - change if better == "lower" else change - parent


def pairs_won(parent, change, better: str) -> int:
    """Pairs whose change run reads strictly better than its parent run."""
    return sum(improvement(p, c, better) > 0 for p, c in zip(parent, change))


def gain_holds(parent, change, better: str) -> bool:
    """The change wins at least nine tenths of the pairs, and its median is
    better than the parent's by more than the parent's interquartile range."""
    q1, parent_median, q3 = quartiles(parent)
    wins = pairs_won(parent, change, better)
    gap = improvement(parent_median, quartiles(change)[1], better)
    return wins >= GAIN_SHARE * len(parent) and gap > q3 - q1


def relative_loss(parent, change, better: str) -> float:
    """How much worse the change's median reads than the parent's, as a
    share of the parent's median; negative when it reads better."""
    parent_median = quartiles(parent)[1]
    return -improvement(parent_median, quartiles(change)[1], better) / parent_median


def regression(parent, change, better: str, bound: float) -> str:
    """Whether the change reads worse than the parent: "worse" when its
    median loses more than ``bound``; "unresolved" when the parent's runs
    spread wider than ``bound`` ((q3 - q1) / median), unless every change
    run beats every parent run; "none" otherwise."""
    if relative_loss(parent, change, better) > bound:
        return "worse"
    q1, median, q3 = quartiles(parent)
    if (q3 - q1) / median > bound and not all(improvement(p, c, better) > 0
                                              for p in parent for c in change):
        return "unresolved"
    return "none"


def ratio_interval(ratios) -> tuple[float, float, float] | None:
    """(lo, hi, coverage) of the order-statistic interval [r(k), r(n+1-k)]
    of ``ratios`` for the largest k whose chance of missing their median,
    2·P(Bin(n, 1/2) <= k-1), is at most ``RATIO_MISS``; None when even
    [r(1), r(n)] misses more often."""
    ratios, n = sorted(ratios), len(ratios)

    def miss(k):
        return 2 * sum(math.comb(n, i) for i in range(k)) / 2 ** n

    k = max((k for k in range(1, n // 2 + 1) if miss(k) <= RATIO_MISS), default=0)
    return (ratios[k - 1], ratios[n - k], 1 - miss(k)) if k else None


def problems(result: dict | None) -> list[str]:
    """Why a run cannot be compared: no result, a failed check, failed ops."""
    if result is None:
        return ["no result line"]
    found = []
    if result.get("correct") is not True:
        found.append("correct: false")
    if result.get("failed", 0):
        found.append(f"{result['failed']} failed ops")
    return found


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The result line of one untraced benchmark run in ``checkout``."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def summary_line(name: str, unit: str, better: str, bound: float, parent, change) -> str:
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    verdict = "holds" if gain_holds(parent, change, better) else "does not hold"
    ratios = [c / p for p, c in zip(parent, change)]
    interval = ratio_interval(ratios)
    spread = (f"{interval[2]:.1%} interval [{interval[0]:.4g}, {interval[1]:.4g}]"
              if interval else "no interval")
    return (f"{name} ({unit}, {better} is better): parent {pm:.4g} [{p1:.4g}, {p3:.4g}], "
            f"change {cm:.4g} [{c1:.4g}, {c3:.4g}]; change won "
            f"{pairs_won(parent, change, better)}/{len(parent)} pairs; median "
            f"{relative_loss(parent, change, better):+.1%} worse (bound {bound:.0%}); "
            f"ratio {statistics.median(ratios):.4g}, {spread}; gain {verdict}; "
            f"regression: {regression(parent, change, better, bound)}")


def main(argv=None, run=run_once) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = benchmark["end_to_end"]
    values = {side: {m["name"]: [] for m in metrics} for side in ("parent", "change")}
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            result = run(getattr(args, side), args.workload, args.seed,
                         benchmark["run_seconds"])
            found = problems(result)
            if found:
                print(f"pair {pair} {side}: {', '.join(found)}", file=sys.stderr)
                return 1
            readings = {m["name"]: result["metrics"][m["name"]]["value"] for m in metrics}
            for name, value in readings.items():
                values[side][name].append(value)
            print(f"pair {pair} {side}: "
                  + " ".join(f"{name}={value:.4g}" for name, value in readings.items()),
                  flush=True)
    for m in metrics:
        print(summary_line(m["name"], m["unit"], m["better"], m["bound"],
                           values["parent"][m["name"]], values["change"][m["name"]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
