"""Compare the eval reports and search results of two artifact directories.

    python tools/report_diff.py OLD_DIR NEW_DIR

An eval report is a ``*.json`` file under a directory whose document is an
object with an ``average_loss`` field, and a search result one with a
``trace`` field; an eval CSV is a ``*.csv`` file whose first row under its
header has ``average_loss``, ``B`` and ``E`` cells, which are read as
numbers. Documents and CSVs are paired by their path under the two
directories. For each pair, every value that differs gets one
``path field: old -> new`` line, where ``field`` names the value inside
nested lists and objects (``trace[2].bound``), and a file found under only
one directory gets an ``only in DIR: path`` line. The last line gives the
largest |Δ average_loss| over all report and CSV pairs and the file it comes
from, then the largest relative change of any differing number and where it
is, relative to max(|old|, 1) so that a change near 0 reads as an absolute
one; a change that moves only rounding shows as that one line. Exits 0 when
every file pairs up with equal values, 1 otherwise, as ``diff`` does.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path


CSV_FIELDS = ("average_loss", "B", "E")


def documents(root: Path) -> dict[str, dict]:
    """Each eval report, search result and eval CSV under ``root``, by its
    POSIX path under ``root``; a CSV as its ``CSV_FIELDS`` cells, as numbers."""
    docs = {}
    for path in sorted(root.rglob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        if isinstance(doc, dict) and ("average_loss" in doc or "trace" in doc):
            docs[path.relative_to(root).as_posix()] = doc
    for path in sorted(root.rglob("*.csv")):
        with path.open(newline="", encoding="utf-8") as fh:
            row = next(csv.DictReader(fh), None)
        if row is not None and all(row.get(field) for field in CSV_FIELDS):
            docs[path.relative_to(root).as_posix()] = {
                field: float(row[field]) for field in CSV_FIELDS}
    return docs


def leaves(value, name: str) -> dict[str, object]:
    """Every value inside nested lists and objects, by its field name."""
    if isinstance(value, dict):
        return {k: v for key in value for k, v in leaves(value[key], f"{name}.{key}").items()}
    if isinstance(value, list):
        return {k: v for i, item in enumerate(value)
                for k, v in leaves(item, f"{name}[{i}]").items()}
    return {name: value}


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    for root in (args.old, args.new):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    old, new = documents(args.old), documents(args.new)
    differs = False
    largest, where = 0.0, None
    largest_rel, where_rel = 0.0, None
    reports = 0
    for rel in sorted(old.keys() | new.keys()):
        if rel not in new or rel not in old:
            print(f"only in {args.old if rel in old else args.new}: {rel}")
            differs = True
            continue
        a, b = old[rel], new[rel]
        for field in sorted(a.keys() | b.keys()):
            a_leaves = leaves(a[field], field) if field in a else {}
            b_leaves = leaves(b[field], field) if field in b else {}
            for name in a_leaves | b_leaves:
                x, y = a_leaves.get(name), b_leaves.get(name)
                if x == y:
                    continue
                print(f"{rel} {name}: {x!r} -> {y!r}")
                differs = True
                if is_number(x) and is_number(y):
                    change = abs(y - x) / max(abs(x), 1.0)
                    if change > largest_rel:
                        largest_rel, where_rel = change, f"{rel} {name}"
        if "average_loss" in a and "average_loss" in b:
            reports += 1
            delta = abs(b["average_loss"] - a["average_loss"])
            if delta > largest:
                largest, where = delta, rel
    print(f"largest |delta average_loss|: {largest!r} over {reports} report pairs"
          + (f" ({where})" if where else "")
          + f"; largest relative change: {largest_rel!r} over "
          + f"{len(old.keys() & new.keys())} document pairs"
          + (f" ({where_rel})" if where_rel else ""))
    return int(differs)


if __name__ == "__main__":
    sys.exit(main())
