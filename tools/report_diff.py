"""Compare the eval reports of two artifact directories, field by field.

    python tools/report_diff.py OLD_DIR NEW_DIR

An eval report is a ``*.json`` file under a directory whose document is an
object with an ``average_loss`` field; reports are paired by their path
under the two directories. For each pair, every top-level field whose value
differs gets one ``path field: old -> new`` line, and a report found under
only one directory gets an ``only in DIR: path`` line. The last line gives
the largest |Δ average_loss| over all pairs and the report it comes from, so
a change that moves only rounding shows as that one line. Exits 0 when every
report pairs up with equal fields, 1 otherwise, as ``diff`` does.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def eval_reports(root: Path) -> dict[str, dict]:
    """Each eval report under ``root``, by its POSIX path under ``root``."""
    reports = {}
    for path in sorted(root.rglob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        if isinstance(doc, dict) and "average_loss" in doc:
            reports[path.relative_to(root).as_posix()] = doc
    return reports


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    for root in (args.old, args.new):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    old, new = eval_reports(args.old), eval_reports(args.new)
    differs = False
    largest, where = 0.0, None
    for rel in sorted(old.keys() | new.keys()):
        if rel not in new or rel not in old:
            print(f"only in {args.old if rel in old else args.new}: {rel}")
            differs = True
            continue
        a, b = old[rel], new[rel]
        for field in sorted(a.keys() | b.keys()):
            if a.get(field) != b.get(field):
                print(f"{rel} {field}: {a.get(field)!r} -> {b.get(field)!r}")
                differs = True
        delta = abs(b["average_loss"] - a["average_loss"])
        if delta > largest:
            largest, where = delta, rel
    print(f"largest |delta average_loss|: {largest!r} over {len(old.keys() & new.keys())} "
          f"report pairs" + (f" ({where})" if where else ""))
    return int(differs)


if __name__ == "__main__":
    sys.exit(main())
