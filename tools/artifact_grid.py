"""Fingerprint a checkout: run the seven-instance gen -> solve -> search ->
eval artifact grid and list every artifact, LP and VS decision it makes.

    python tools/artifact_grid.py --out DIR

The run first makes the b-lp and e-lp searches of the (6, 2, 2) cross-check:
``random_pomdp(6, 2, 2, rng 1000)`` solved to horizon 3. Then it runs the
grid. Each instance is generated, solved, searched with the four bound
methods under scopes ``all`` and ``last`` and the two estimator methods,
which cover every stage, under ``all``, and every search result is evaluated
in ``single`` and ``successive`` mode at 300 beliefs: 32 commands per
instance. Everything runs in this process, on the ``src`` tree next to this
script; the commands run through ``beliefproj.cli.main`` and write into a
fresh directory ``DIR``. A command that fails shows in the exit column of
its artifacts; the run goes on.

Three listings, each in call order:

- ``DIR/artifacts.txt``, also printed to standard output as the run goes:
  one ``sha256 exit path`` line per artifact, in command order: the digest
  (``-`` when the command wrote nothing), the exit code of the command that
  writes it, and its path under ``DIR``. Manifests are left out, since they
  hold wall-clock times.
- ``DIR/lp_digest.txt``: one ``site status pivots rows cols sha256`` line per
  program that ``bounds`` or ``solver`` hands to ``solve_lp`` in the
  cross-check (its own witness LPs included) and in each instance's ``gen``
  and ``solve``: the module that solved it, the result's status and pivot
  count, the program's constraints and columns, and a SHA-256 over the
  result's value (``repr``), final tableau and basis (of nothing when it has
  none). x is read off the tableau and basis, so it adds nothing.
- ``DIR/vs_digest.txt``: one ``stage scheme m positives sha256`` line per
  call of ``bounds.stage_switch_sets`` with the VS test in the grid commands
  (searches call it through ``search``, ``eval`` through
  ``compute_bounds``): the stage set's stage, its scheme source, its vector
  count, the number of pairs (i, j) with j in vector i's switch set, and a
  SHA-256 over the ``repr`` of the switch sets. A global scheme is written
  as its blocks, variables joined by ``-`` and blocks by ``|`` (``0-1|2``);
  a per-region source as ``per-region:`` and the first 16 hex digits of a
  SHA-256 over the schemes of the stage's vectors in index order.

Two checkouts write the same artifacts with the same exit codes, solve the
same programs pivot for pivot and bit for bit, and make the same VS
decisions exactly when their listings are equal, so comparing them is three
``diff``s. Three summary lines go to standard error: the counts of commands,
artifacts and commands that exited non-zero; the LPs and pivots of the LP
listing, then of each site in name order, as in ``7 LPs, 20 pivots (bounds
4 LPs, 12 pivots; solver 3 LPs, 8 pivots)``; the VS calls and positives.

Beside the listings the run writes ``DIR/environment.txt``: the Python,
numpy and BLAS build that made them (see :func:`environment`).
``tests/test_artifact_grid.py`` compares a fresh run against the copy
committed in ``tests/data/grid``, which these commands regenerate:

    D="$(mktemp -d)/grid"
    python tools/artifact_grid.py --out "$D"
    cp "$D"/{artifacts,lp_digest,vs_digest,environment}.txt tests/data/grid/
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import platform
import sys
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from beliefproj import bounds, cli, search, solver  # noqa: E402
from beliefproj.evaluate import random_pomdp  # noqa: E402
from beliefproj.lpcore import solve_lp  # noqa: E402
from beliefproj.projection import ProjectionScheme  # noqa: E402
from beliefproj.search import ALL_METHODS, BOUND_METHODS, SearchConfig, run_search  # noqa: E402

CROSS_CHECK = (6, 2, 2, 1000, 3)  # (variables, actions, observations, rng seed, horizon)
# (variables, actions, observations, horizon, gen seed)
INSTANCES = ((3, 2, 2, 3, 1), (6, 2, 2, 3, 2), (4, 2, 2, 3, 3), (2, 2, 3, 4, 4),
             (5, 2, 2, 2, 5), (3, 3, 2, 3, 6), (4, 2, 2, 3, 7))
SCOPES = ("all", "last")
MODES = ("single", "successive")
BELIEFS = 300
EVAL_SEED = 0
LISTED_LP_COMMANDS = ("gen", "solve")  # grid commands whose LPs are listed


def instance_commands(index: int, instance, out: Path):
    """(argv, artifact paths) of every command of one instance, in order."""
    n, actions, obs, horizon, seed = instance
    d = out / f"i{index}_n{n}a{actions}z{obs}h{horizon}s{seed}"
    d.mkdir()
    model, policy = d / "model.json", d / "policy.json"
    yield (["gen", "--vars", str(n), "--actions", str(actions), "--obs", str(obs),
            "--seed", str(seed), "--out", str(model)], [model])
    yield ["solve", str(model), "--horizon", str(horizon), "--out", str(policy)], [policy]
    results = []
    for method in ALL_METHODS:
        for scope in SCOPES if method in BOUND_METHODS else ("all",):
            result = d / f"search_{method}_{scope}.json"
            results.append(result)
            yield (["search", str(policy), "--method", method, "--scope", scope,
                    "--out", str(result)], [result])
    for result in results:
        for mode in MODES:
            report = d / f"eval_{result.stem[len('search_'):]}_{mode}.json"
            yield (["eval", str(model), str(policy), str(result), "--mode", mode,
                    "--beliefs", str(BELIEFS), "--seed", str(EVAL_SEED),
                    "--out", str(report)], [report, report.with_suffix(".csv")])


def run(argv: list[str]) -> int:
    """Exit code of one CLI command, its own output swallowed."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


def lp_line(site: str, lp, result) -> str:
    digest = hashlib.sha256()
    if result.tableau is not None:
        digest.update(repr(result.value).encode())
        for array in result.tableau:
            digest.update(array.tobytes())
    return (f"{site} {result.status} {result.pivots} {len(lp.constraints)} "
            f"{lp.objective.shape[0]} {digest.hexdigest()}")


def scheme_text(scheme: ProjectionScheme) -> str:
    return "|".join("-".join(map(str, block)) for block in scheme.blocks)


def vs_line(aset, scheme_source, switch_sets) -> str:
    if isinstance(scheme_source, ProjectionScheme):
        source = scheme_text(scheme_source)
    else:
        schemes = ";".join(scheme_text(bounds.scheme_of(scheme_source, aset.stage, i))
                           for i in range(len(aset)))
        source = "per-region:" + hashlib.sha256(schemes.encode()).hexdigest()[:16]
    positives = sum(map(len, switch_sets))
    sha = hashlib.sha256(repr(switch_sets).encode()).hexdigest()
    return f"{aset.stage} {source} {len(aset)} {positives} {sha}"


@contextlib.contextmanager
def listed(lps: list[str], vs: list[str]):
    """Append one line to ``lps`` per solve of ``bounds`` and ``solver``, and
    one to ``vs`` per VS call of ``stage_switch_sets`` by ``bounds`` or
    ``search``."""
    def solving(site):
        def solve(lp):
            result = solve_lp(lp)
            lps.append(lp_line(site, lp, result))
            return result
        return solve

    original = bounds.stage_switch_sets

    def switch_sets(aset, scheme_source, method="LP", **kwargs):
        sets = original(aset, scheme_source, method, **kwargs)
        if method == "VS":
            vs.append(vs_line(aset, scheme_source, sets))
        return sets

    with mock.patch.object(bounds, "solve_lp", solving("bounds")), \
            mock.patch.object(solver, "solve_lp", solving("solver")), \
            mock.patch.object(bounds, "stage_switch_sets", switch_sets), \
            mock.patch.object(search, "stage_switch_sets", switch_sets):
        yield


def lp_summary(lines: list[str]) -> str:
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


def vs_summary(lines: list[str]) -> str:
    positives = sum(int(line.split(" ")[3]) for line in lines)
    return f"{len(lines)} VS switch-set calls, {positives} positives"


def environment() -> str:
    """The interpreter, numpy and BLAS build that a listing depends on, one
    ``name value`` line each."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return (f"python {platform.python_version()} {platform.machine()}\n"
            f"numpy {np.__version__}\n"
            f"blas {blas['name']} {blas['version']}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="a directory that is empty or absent")
    args = parser.parse_args(argv)
    out = Path(args.out)
    if out.exists() and (not out.is_dir() or any(out.iterdir())):
        parser.error(f"{out} is not an empty directory")
    out.mkdir(parents=True, exist_ok=True)
    lps: list[str] = []
    vs: list[str] = []
    rows: list[str] = []
    commands = artifacts = failed = 0
    with listed(lps, vs):
        n, actions, obs, seed, horizon = CROSS_CHECK
        model = random_pomdp(n, actions, obs, np.random.default_rng(seed))
        stages = solver.solve(model, horizon)
        for method in ("b-lp", "e-lp"):
            run_search(model, stages, SearchConfig(method=method))
        for index, instance in enumerate(INSTANCES):
            for command, paths in instance_commands(index, instance, out):
                listed_lps = len(lps)
                code = run(command)
                if command[0] not in LISTED_LP_COMMANDS:
                    del lps[listed_lps:]
                commands += 1
                failed += code != 0
                for path in paths:
                    if path.is_file():
                        digest = hashlib.sha256(path.read_bytes()).hexdigest()
                        artifacts += 1
                    else:
                        digest = "-"
                    rows.append(f"{digest} {code} {path.relative_to(out).as_posix()}")
                    print(rows[-1], flush=True)
    for name, lines in (("artifacts.txt", rows), ("lp_digest.txt", lps), ("vs_digest.txt", vs)):
        (out / name).write_text("".join(f"{line}\n" for line in lines))
    (out / "environment.txt").write_text(environment())
    print(f"{commands} commands, {artifacts} artifacts, {failed} failed", file=sys.stderr)
    print(lp_summary(lps), file=sys.stderr)
    print(vs_summary(vs), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
