"""Workloads: the set-up steps and the op list of one pass.

Every set-up step and every op is one in-process call of
``beliefproj.cli.main``. Model files come from ``gen`` with seeds derived from
the workload seed; an instance is never filtered, re-seeded or dropped. Paths
in an argv are templates: ``{setup}`` is the set-up directory (models and
policies) and ``{out}`` the directory of the current pass.

Shapes are (variables, actions, observations, horizon). The phase-1 simplex
defect (a false exit 4) shows on every shape that solves witness LPs, at a
rate that grows with the LP count of a solve. The timed op lists keep to
shapes where it showed on at most one solve in 8,000 gen seeds;
two instances that exit 4 run as known-defect probes instead (``PROBES``).
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("solve", "lp-search", "vs-eval")

SOLVE_CAP = 20_000  # a runaway backup exits 3 at once instead of stalling the run

# solve: both hot paths of prune, and the CLI's JSON cost on a wide model
SOLVE_GRID = (
    ((2, 2, 6, 3), 40),  # 128-vector backups: the O(m^2) pointwise-dominance loop
    ((6, 2, 2, 3), 60),  # witness LPs with 65 columns; large model and policy documents
)

# lp-search: at horizon 2 every instance makes the same number of switch LPs
# (69 per search at (6,3,2,2), 129 columns, mostly equality rows), so the pass
# time moves with the simplex, not with the seed. At horizon 3 the pivot
# count per search varies threefold between seeds.
LP_GRID = (((6, 3, 2, 2), 16),)
LP_METHODS = ("b-lp", "e-lp")

# vs-eval: no LP at all; projection, VS tests, alternative sets, expectimax
VS_GRID = (((6, 2, 2, 3), 3), ((5, 2, 2, 3), 3))
VS_METHODS = ("vs-sum", "vs-max", "b-vs", "e-vs")
EVAL_MODES = ("single", "successive")
EVAL_BELIEFS = 300
LARGE_EVAL_BELIEFS = 5_000  # the 5,000-belief successive eval at (6,2,2,3)

# Known exit-4 instances of the phase-1 simplex defect; run once per traced
# solve run, outside the timed region, so that a fix shows as a changed exit.
PROBES = (((4, 2, 2, 5), 1000), ((4, 3, 2, 4), 1005))


# Seconds of one untraced pass of each workload on the 2-core x86_64 machine
# the benchmark was defined on. A run makes --seconds / PASS_SECONDS passes, so
# every run of a seed attempts the same ops; a faster program ends sooner.
PASS_SECONDS = {"solve": 4.5, "lp-search": 9.0, "vs-eval": 11.5}


@dataclass(frozen=True)
class Op:
    kind: str  # "solve" | "search" | "eval"
    label: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]  # artifact names relative to the pass directory
    beliefs: int = 0

    def resolve(self, setup_dir, out_dir) -> list[str]:
        return [a.format(setup=setup_dir, out=out_dir) for a in self.argv]


@dataclass(frozen=True)
class Workload:
    setup: tuple[tuple[str, ...], ...]  # gen / solve argv templates
    setup_outputs: tuple[str, ...]
    ops: tuple[Op, ...]


def instance_seed(seed: int, shape_index: int, k: int) -> int:
    """gen seed of instance k of a grid shape, distinct for k < 1000."""
    return seed * 100_000 + shape_index * 1_000 + k


def _gen(shape, gen_seed: int, model: str) -> tuple[str, ...]:
    n, a, z, _ = shape
    return ("gen", "--vars", str(n), "--actions", str(a), "--obs", str(z),
            "--seed", str(gen_seed), "--out", "{setup}/" + model)


def _instances(grid, seed: int):
    for s_idx, (shape, count) in enumerate(grid):
        n, a, z, h = shape
        for k in range(count):
            yield shape, f"n{n}a{a}z{z}h{h}_{k}", instance_seed(seed, s_idx, k)


def _solve_workload(seed: int) -> Workload:
    setup, setup_outputs, ops = [], [], []
    for shape, label, gen_seed in _instances(SOLVE_GRID, seed):
        setup.append(_gen(shape, gen_seed, f"{label}.model.json"))
        setup_outputs.append(f"{label}.model.json")
        ops.append(Op("solve", label,
                      ("solve", "{setup}/" + f"{label}.model.json", "--horizon", str(shape[3]),
                       "--cap", str(SOLVE_CAP), "--out", "{out}/" + f"{label}.policy.json"),
                      (f"{label}.policy.json",)))
    return Workload(tuple(setup), tuple(setup_outputs), tuple(ops))


def _solved_instances(grid, seed: int, setup: list, setup_outputs: list):
    for shape, label, gen_seed in _instances(grid, seed):
        model, policy = f"{label}.model.json", f"{label}.policy.json"
        setup.append(_gen(shape, gen_seed, model))
        setup.append(("solve", "{setup}/" + model, "--horizon", str(shape[3]),
                      "--cap", str(SOLVE_CAP), "--out", "{setup}/" + policy))
        setup_outputs += [model, policy]
        yield label, gen_seed, "{setup}/" + model, "{setup}/" + policy


def _search(label: str, method: str, policy: str) -> Op:
    result = f"{label}.{method}.json"
    return Op("search", f"{label}.{method}",
              ("search", policy, "--method", method, "--out", "{out}/" + result), (result,))


def _eval(label: str, model: str, policy: str, result: str, mode: str,
          beliefs: int, eval_seed: int) -> Op:
    stem = f"{label}.{mode}{beliefs}"
    return Op("eval", stem,
              ("eval", model, policy, "{out}/" + result, "--mode", mode,
               "--beliefs", str(beliefs), "--seed", str(eval_seed), "--out", "{out}/" + stem + ".json"),
              (stem + ".json", stem + ".csv"), beliefs)


def _lp_search_workload(seed: int) -> Workload:
    setup, setup_outputs, ops = [], [], []
    instances = _solved_instances(LP_GRID, seed, setup, setup_outputs)
    for k, (label, _, _, policy) in enumerate(instances):
        # one method per instance: every op then adds an independent instance
        ops.append(_search(label, LP_METHODS[k % len(LP_METHODS)], policy))
    return Workload(tuple(setup), tuple(setup_outputs), tuple(ops))


def _vs_eval_workload(seed: int) -> Workload:
    setup, setup_outputs, ops = [], [], []
    first = None
    for label, gen_seed, model, policy in _solved_instances(VS_GRID, seed, setup, setup_outputs):
        for method in VS_METHODS:
            ops.append(_search(label, method, policy))
        # every method's result is evaluated, duplicates included, so the
        # op count of a pass does not depend on which results coincide
        for method in VS_METHODS:
            for mode in EVAL_MODES:
                ops.append(_eval(f"{label}.{method}", model, policy, f"{label}.{method}.json",
                                 mode, EVAL_BELIEFS, gen_seed))
        if first is None:
            first = (label, gen_seed, model, policy)
    label, gen_seed, model, policy = first
    ops.append(_eval(f"{label}.vs-sum", model, policy, f"{label}.vs-sum.json",
                     "successive", LARGE_EVAL_BELIEFS, gen_seed))
    return Workload(tuple(setup), tuple(setup_outputs), tuple(ops))


def build(name: str, seed: int) -> Workload:
    if name == "solve":
        return _solve_workload(seed)
    if name == "lp-search":
        return _lp_search_workload(seed)
    if name == "vs-eval":
        return _vs_eval_workload(seed)
    raise ValueError(f"unknown workload {name!r}")


def probe_ops() -> tuple[tuple[tuple[str, ...], Op], ...]:
    """(gen argv, solve op) per known-defect probe."""
    out = []
    for shape, gen_seed in PROBES:
        n, a, z, h = shape
        label = f"probe_n{n}a{a}z{z}h{h}_s{gen_seed}"
        out.append((_gen(shape, gen_seed, f"{label}.model.json"),
                    Op("solve", label,
                       ("solve", "{setup}/" + f"{label}.model.json", "--horizon", str(h),
                        "--cap", str(SOLVE_CAP), "--out", "{out}/" + f"{label}.policy.json"),
                       (f"{label}.policy.json",))))
    return tuple(out)
