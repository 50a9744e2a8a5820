"""List a digest of every linear program a fixed set of runs solves.

    python tools/lp_digest.py

The runs are the b-lp and e-lp searches of the (6, 2, 2) cross-check
(``random_pomdp(6, 2, 2, rng 1000)`` solved to horizon 3, its own witness LPs
included), then the ``gen`` and ``solve`` commands of the seven instances of
``tools/artifact_grid.py``, run in this process on the ``src`` tree next to
this script.

Standard output gets one ``site status pivots rows cols sha256`` line per
program that ``bounds`` or ``solver`` hands to ``solve_lp``, in solve order:
the module that solved it, the result's status and pivot count, the
program's constraints and columns, and a SHA-256 over the result's value
(``repr``), final tableau and basis (of nothing when it has none). x is
read off the tableau and basis, so it adds nothing. Two checkouts solve
these programs the same, pivot for pivot and bit for bit, exactly when their
listings are equal, so comparing them is one ``diff``. A summary line goes
to standard error: the LPs and pivots of the whole listing, then of each
site in name order, as in
``7 LPs, 20 pivots (bounds 4 LPs, 12 pivots; solver 3 LPs, 8 pivots)``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import sys
import tempfile
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

from artifact_grid import INSTANCES, instance_commands, run  # noqa: E402

import numpy as np  # noqa: E402

from beliefproj import bounds, solver  # noqa: E402
from beliefproj.evaluate import random_pomdp  # noqa: E402
from beliefproj.lpcore import solve_lp  # noqa: E402
from beliefproj.search import SearchConfig, run_search  # noqa: E402

CROSS_CHECK = (6, 2, 2, 1000, 3)  # (variables, actions, observations, rng seed, horizon)


def digest_line(site: str, lp, result) -> str:
    digest = hashlib.sha256()
    if result.tableau is not None:
        digest.update(repr(result.value).encode())
        for array in result.tableau:
            digest.update(array.tobytes())
    return (f"{site} {result.status} {result.pivots} {len(lp.constraints)} "
            f"{lp.objective.shape[0]} {digest.hexdigest()}")


@contextlib.contextmanager
def listed(lines: list[str]):
    """Append one digest line to ``lines`` per solve of ``bounds`` and ``solver``."""
    def recording(site):
        def solve(lp):
            result = solve_lp(lp)
            lines.append(digest_line(site, lp, result))
            return result
        return solve
    with mock.patch.object(bounds, "solve_lp", recording("bounds")), \
            mock.patch.object(solver, "solve_lp", recording("solver")):
        yield


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.parse_args(argv)
    lines: list[str] = []
    with listed(lines), tempfile.TemporaryDirectory() as tmp:
        n, actions, obs, seed, horizon = CROSS_CHECK
        model = random_pomdp(n, actions, obs, np.random.default_rng(seed))
        stages = solver.solve(model, horizon)
        for method in ("b-lp", "e-lp"):
            run_search(model, stages, SearchConfig(method=method))
        for index, instance in enumerate(INSTANCES):
            # the first two commands are the instance's gen and solve
            for command, _paths in itertools.islice(instance_commands(index, instance,
                                                                      Path(tmp)), 2):
                if run(command) != 0:
                    sys.exit(f"{command[0]} of instance {index} failed")
    print("\n".join(lines))
    print(summary(lines), file=sys.stderr)
    return 0


def summary(lines: list[str]) -> str:
    """The LP and pivot counts of a listing, in all and per site."""
    totals: dict[str, list[int]] = {}
    for line in lines:
        site, _status, pivots, *_ = line.split(" ")
        counts = totals.setdefault(site, [0, 0])
        counts[0] += 1
        counts[1] += int(pivots)
    sites = "; ".join(f"{site} {lps} LPs, {pivots} pivots"
                      for site, (lps, pivots) in sorted(totals.items()))
    pivots = sum(pivots for _lps, pivots in totals.values())
    return f"{len(lines)} LPs, {pivots} pivots ({sites})"


if __name__ == "__main__":
    sys.exit(main())
