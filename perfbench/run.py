"""Benchmark of the beliefproj pipeline: gen -> solve -> search -> eval.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {solve,lp-search,vs-eval} --seed N \
        --seconds S --trace {0,1}

Prints every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``) by name and unit, then one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``. Full details, artifact digests
included, go to ``.perfbench/results/``. Exits 1 when a correctness check
fails and 2 when the checkout has no ``src/beliefproj`` to benchmark.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# every array here is at most 64 x 129: BLAS threads only add contention on
# a two-core machine. Pinned before numpy is imported.
THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = THREADS

from workloads import WORKLOADS  # noqa: E402  (imports neither numpy nor beliefproj)

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "beliefproj"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: {PACKAGE.relative_to(ROOT)} not found; run from a beliefproj checkout",
              file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PACKAGE.parent))
    import beliefproj
    if Path(beliefproj.__file__).resolve().parent != PACKAGE:
        print(f"error: imported beliefproj from {beliefproj.__file__}, not the checkout",
              file=sys.stderr)
        return 2
    import harness
    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)


if __name__ == "__main__":
    sys.exit(main())
