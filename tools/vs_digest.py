"""List a digest of every VS switch-set decision the artifact grid makes.

    python tools/vs_digest.py

The runs are the commands of the seven instances of
``tools/artifact_grid.py`` (gen, solve, every search and every eval), run in
this process on the ``src`` tree next to this script, into a temporary
directory.

Standard output gets one ``stage scheme m positives sha256`` line per call
of ``bounds.stage_switch_sets`` with the VS test, in call order: the stage
set's stage, its scheme source, its vector count, the number of pairs
(i, j) with j in vector i's switch set, and a SHA-256 over the ``repr`` of
the switch sets. A global scheme is written as its blocks, variables joined
by ``-`` and blocks by ``|`` (``0-1|2``); a per-region source as
``per-region:`` and the first 16 hex digits of a SHA-256 over the schemes of
the stage's vectors in index order. Searches call it through ``search``,
``eval`` through ``compute_bounds``. Two checkouts make the same VS
decisions on the grid exactly when their listings are equal, so comparing
them is one ``diff``. A summary line with the counts of calls and positives
goes to standard error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import sys
import tempfile
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

from artifact_grid import INSTANCES, instance_commands, run  # noqa: E402

from beliefproj import bounds, search  # noqa: E402
from beliefproj.projection import ProjectionScheme  # noqa: E402


def scheme_text(scheme: ProjectionScheme) -> str:
    return "|".join("-".join(map(str, block)) for block in scheme.blocks)


def source_text(aset, scheme_source) -> str:
    if isinstance(scheme_source, ProjectionScheme):
        return scheme_text(scheme_source)
    schemes = ";".join(scheme_text(bounds.scheme_of(scheme_source, aset.stage, i))
                       for i in range(len(aset)))
    return "per-region:" + hashlib.sha256(schemes.encode()).hexdigest()[:16]


def digest_line(aset, scheme_source, switch_sets) -> str:
    positives = sum(map(len, switch_sets))
    sha = hashlib.sha256(repr(switch_sets).encode()).hexdigest()
    return f"{aset.stage} {source_text(aset, scheme_source)} {len(aset)} {positives} {sha}"


@contextlib.contextmanager
def listed(lines: list[str]):
    """Append one digest line to ``lines`` per VS call of ``stage_switch_sets``
    made by ``bounds`` or ``search``."""
    original = bounds.stage_switch_sets

    def recording(aset, scheme_source, method="LP", **kwargs):
        switch_sets = original(aset, scheme_source, method, **kwargs)
        if method == "VS":
            lines.append(digest_line(aset, scheme_source, switch_sets))
        return switch_sets

    with mock.patch.object(bounds, "stage_switch_sets", recording), \
            mock.patch.object(search, "stage_switch_sets", recording):
        yield


def summary(lines: list[str]) -> str:
    positives = sum(int(line.split(" ")[3]) for line in lines)
    return f"{len(lines)} VS switch-set calls, {positives} positives"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.parse_args(argv)
    lines: list[str] = []
    with listed(lines), tempfile.TemporaryDirectory() as tmp:
        for index, instance in enumerate(INSTANCES):
            for command, _paths in instance_commands(index, instance, Path(tmp)):
                if run(command) != 0:
                    sys.exit(f"{command[0]} of instance {index} failed")
    print("\n".join(lines))
    print(summary(lines), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
