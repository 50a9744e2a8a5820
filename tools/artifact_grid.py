"""Run the seven-instance gen -> solve -> search -> eval artifact grid.

    python tools/artifact_grid.py --out DIR

Each instance is generated, solved, searched with the four bound methods
under scopes ``all`` and ``last`` and the two estimator methods, which cover
every stage, under ``all``, and every search result is evaluated in
``single`` and ``successive`` mode at 300 beliefs: 32 commands per instance.
The commands run in this process through ``beliefproj.cli.main`` on the
``src`` tree next to this script, and write into a fresh directory ``DIR``.

Standard output gets one ``sha256 exit path`` line per artifact, in command
order: the digest (``-`` when the command wrote nothing), the exit code of
the command that writes it, and its path under ``DIR``. Manifests are left
out, since they hold wall-clock times. Two checkouts write byte-identical
artifacts with the same exit codes exactly when their outputs are equal, so
comparing them is one ``diff``. A summary line with the counts of commands,
artifacts and commands that exited non-zero goes to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from beliefproj import cli  # noqa: E402
from beliefproj.search import ALL_METHODS, BOUND_METHODS  # noqa: E402

# (variables, actions, observations, horizon, gen seed)
INSTANCES = ((3, 2, 2, 3, 1), (6, 2, 2, 3, 2), (4, 2, 2, 3, 3), (2, 2, 3, 4, 4),
             (5, 2, 2, 2, 5), (3, 3, 2, 3, 6), (4, 2, 2, 3, 7))
SCOPES = ("all", "last")
MODES = ("single", "successive")
BELIEFS = 300
EVAL_SEED = 0


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="a directory that is empty or absent")
    args = parser.parse_args(argv)
    out = Path(args.out)
    if out.exists() and (not out.is_dir() or any(out.iterdir())):
        parser.error(f"{out} is not an empty directory")
    out.mkdir(parents=True, exist_ok=True)
    commands = artifacts = failed = 0
    for index, instance in enumerate(INSTANCES):
        for command, paths in instance_commands(index, instance, out):
            code = run(command)
            commands += 1
            failed += code != 0
            for path in paths:
                if path.is_file():
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    artifacts += 1
                else:
                    digest = "-"
                print(f"{digest} {code} {path.relative_to(out).as_posix()}", flush=True)
    print(f"{commands} commands, {artifacts} artifacts, {failed} failed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
