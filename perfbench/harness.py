"""Set-up, the timed pass loop, checks, metrics and the result line.

One closed-loop client in one process on one thread: each op is one
in-process call of ``beliefproj.cli.main`` and the next op starts when it
returns. A run sets up, then makes a fixed number of passes over the
workload's op list: ``--seconds`` over the workload's nominal pass time (at
least two passes, so artifact digests can be compared). The count does not
depend on how fast the machine is that day, so every run of a seed attempts
the same ops. The set-up is repeated between passes, ``SETUP_REPEATS`` times
in all. With ``--trace 1`` passes alternate untraced and traced, so the
tracing overhead is measured in the same run. ``pass_s`` and ``setup_s``
both add up their steps, each at its median over the repeats.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import workloads
from spans import LAYERS, REQUIRED_SITES, Tracer

from beliefproj import cli
from beliefproj.evaluate import random_pomdp
from beliefproj.search import ALL_METHODS, SearchConfig, run_search
from beliefproj.solver import solve

SETUP_REPEATS = 5
MIN_PASSES = 2
RUNAWAY_FACTOR = 3  # stop early once passes take this many times --seconds
P90_MIN_SAMPLES = 100  # p90 is printed only with at least ten samples beyond it

END_TO_END = (
    ("pass_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# spans reported as <span>.calls and <span>.s
SPANS = (
    "model.compile_model", "model.belief_update", "model.value_of",
    "model.observation_probabilities",
    "solver.solve", "solver.backup", "solver.prune",
    "lpcore.witness", "lpcore.switch",
    "projection.project", "projection.build_basis", "projection.residual_sq_length",
    "projection.constraint_family", "projection.walsh_vector", "projection.indicator_vector",
    "projection.lattice_children",
    "bounds.lp_switch_test", "bounds.vs_switch_test", "bounds.alt_sets", "bounds.compute_bounds",
    "bounds.stage_switch_sets", "bounds.bound_from_switch_sets", "bounds.bound_E_from_alts",
    "search.run_search",
    "evaluate.average_error", "evaluate.achieved_value",
)
COUNTS = (
    "solver.backup.vectors", "solver.prune.vectors_in", "solver.prune.vectors_kept",
    "lpcore.witness.rows", "lpcore.witness.cols", "lpcore.witness.empty",
    "lpcore.switch.rows", "lpcore.switch.cols", "lpcore.numerical_errors",
    "bounds.lp_switch_test.positive", "bounds.vs_switch_test.positive", "bounds.alt_sets.members",
    "search.descent_steps", "evaluate.approx_restarts",
)
PER_LAYER = (
    (("cli.ops", "count"), ("cli.self_s", "s"), ("cli.artifact_bytes", "bytes"),
     ("cli.exit2", "count"), ("cli.exit3", "count"), ("cli.exit4", "count"))
    + tuple((f"{layer}.self_s", "s") for layer in LAYERS[1:])
    + tuple(m for span in SPANS for m in ((f"{span}.calls", "count"), (f"{span}.s", "s")))
    + tuple((name, "count") for name in COUNTS)
    + (("solver.prune.self_s", "s"), ("solver.prune.keep_ratio", "ratio"),
       ("search.nodes_scored", "count"))
    + tuple((f"search.{m}.s", "s") for m in ALL_METHODS)
    + (("trace.untraced_pass_s", "s"), ("trace.traced_pass_s", "s"),
       ("trace.overhead_ratio", "ratio"), ("probe.exit4", "count"))
)

# layers a workload must not reach; a call there means the op list or the
# wrappers are wrong
BYPASSED = {
    "solve": ("projection", "bounds", "search", "evaluate"),
    "lp-search": ("solver", "evaluate"),
    "vs-eval": ("solver", "lpcore"),
}
CROSSCHECK = ((6, 2, 2, 3), 1000, {"b-lp": 667, "e-lp": 667})  # switch LPs per search


@dataclass
class OpRecord:
    kind: str
    label: str
    exit: int
    seconds: float
    beliefs: int = 0
    message: str = ""


@dataclass
class PassResult:
    traced: bool
    seconds: float
    ops: list[OpRecord]
    cpu_seconds: float = 0.0
    artifact_bytes: int = 0
    tracer: Tracer | None = None


def call_cli(argv: list[str], tracer: Tracer | None = None) -> tuple[int, float, str]:
    """Run one CLI command in process; returns (exit code, seconds, last output line)."""
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        if tracer is not None:
            tracer.enter("cli.op")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an uncaught error is exit 1, as from the shell
            code = 1
            print(f"{type(exc).__name__}: {exc}")
        finally:
            if tracer is not None:
                tracer.exit()
    seconds = time.perf_counter() - start
    lines = sink.getvalue().strip().splitlines()
    return code, seconds, lines[-1] if lines else ""


def run_pass(workload, setup_dir: Path, out_dir: Path, tracer: Tracer | None) -> PassResult:
    out_dir.mkdir(parents=True)
    records = []
    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        start, cpu_start = time.perf_counter(), time.process_time()
        for op in workload.ops:
            code, seconds, message = call_cli(op.resolve(setup_dir, out_dir), tracer)
            records.append(OpRecord(op.kind, op.label, code, seconds, op.beliefs,
                                    message if code else ""))
        elapsed = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
    return PassResult(tracer is not None, elapsed, records, cpu_seconds=cpu, tracer=tracer)


def sum_of_medians(repeats: list[list[float]]) -> float:
    """Seconds of one repeat of a step list, taking each step at its median
    over the repeats, so a burst of machine noise that hits one repeat does
    not move the figure."""
    return sum(statistics.median(step) for step in zip(*repeats))


def typical_pass(passes: list[PassResult]) -> float:
    return sum_of_medians([[r.seconds for r in p.ops] for p in passes])


def layer_values(result: PassResult) -> dict:
    t = result.tracer
    v = {"cli.ops": len(result.ops), "cli.self_s": t.self_seconds["cli.op"],
         "cli.artifact_bytes": result.artifact_bytes}
    for code in (2, 3, 4):
        v[f"cli.exit{code}"] = sum(r.exit == code for r in result.ops)
    for layer in LAYERS[1:]:
        v[f"{layer}.self_s"] = t.layer_self_seconds(layer)
    for span in SPANS:
        v[f"{span}.calls"] = t.calls[span]
        v[f"{span}.s"] = t.seconds[span]
    for name in COUNTS:
        v[name] = t.counts[name]
    vin = t.counts["solver.prune.vectors_in"]
    v["solver.prune.self_s"] = t.self_seconds["solver.prune"]
    v["solver.prune.keep_ratio"] = t.counts["solver.prune.vectors_kept"] / vin if vin else 0.0
    v["search.nodes_scored"] = t.calls["search.node"]
    for method in ALL_METHODS:
        v[f"search.{method}.s"] = t.seconds[f"search.{method}"]
    return v


def percentile_lines(passes: list[PassResult]) -> list[str]:
    lines = []
    for kind in ("solve", "search", "eval"):
        lat = [r.seconds for p in passes for r in p.ops if r.kind == kind and r.exit == 0]
        if not lat:
            continue
        line = f"{kind}_s.p50 {statistics.median(lat):.6g} s (n={len(lat)})"
        if len(lat) >= P90_MIN_SAMPLES:
            line += f"; {kind}_s.p90 {statistics.quantiles(lat, n=10)[-1]:.6g} s"
        else:
            line += f"; {kind}_s.p90 not reported (n < {P90_MIN_SAMPLES})"
        lines.append(line)
    return lines


def crosscheck_switch_lps() -> list[str]:
    """b-lp and e-lp on random_pomdp(6,2,2, rng 1000) at H=3 make 667 switch LPs each."""
    (n, a, z, h), gen_seed, expected = CROSSCHECK
    model = random_pomdp(n, a, z, np.random.default_rng(gen_seed))
    stages = solve(model, h)
    failures = []
    for method, count in expected.items():
        tracer = Tracer()
        with tracer.installed():
            run_search(model, stages, SearchConfig(method=method))
        if tracer.calls["lpcore.switch"] != count:
            failures.append(f"crosscheck: {method} made {tracer.calls['lpcore.switch']} "
                            f"switch LPs, expected {count}")
    return failures


def run_probes(work: Path) -> list[dict]:
    probe_dir = work / "probes"
    probe_dir.mkdir()
    out = []
    for gen_argv, op in workloads.probe_ops():
        call_cli([a.format(setup=probe_dir) for a in gen_argv])
        code, seconds, message = call_cli(op.resolve(probe_dir, probe_dir))
        out.append({"label": op.label, "exit": code, "seconds": seconds, "message": message})
    return out


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OMP_NUM_THREADS"),
        "machine": platform.machine(),
    }


def set_up(workload, setup_dir: Path):
    """Run the set-up steps once; returns (seconds per step, exit codes, digests)."""
    setup_dir.mkdir()
    steps = [call_cli([a.format(setup=setup_dir) for a in step]) for step in workload.setup]
    return ([seconds for _, seconds, _ in steps], [code for code, _, _ in steps],
            checks.digests(setup_dir, workload.setup_outputs))


def pass_count(name: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / workloads.PASS_SECONDS[name]))


def measure(workload, name: str, work: Path, seconds: float, trace: bool, seed: int,
            failures: list[str]):
    """Set up, then run ``pass_count`` passes; a program so slow that the
    passes take ``RUNAWAY_FACTOR`` times ``seconds`` stops early, so the run
    still ends in time. The first pass's artifacts are checked and every
    later pass must match them. The set-up is repeated between passes, so
    ``setup_s`` samples the whole run rather than one moment of it; every
    repeat must write the same files."""
    setup_dir = work / "setup"
    setup_seconds, setup_exits, setup_digest = set_up(workload, setup_dir)
    setup_times = [setup_seconds]  # per repeat, seconds per step
    artifacts = [artifact for op in workload.ops for artifact in op.outputs]
    passes: list[PassResult] = []
    reference = None
    while True:
        index = len(passes)
        out_dir = work / f"pass{index}"
        result = run_pass(workload, setup_dir, out_dir,
                          Tracer() if trace and index % 2 == 1 else None)
        digest = checks.digests(out_dir, artifacts)
        result.artifact_bytes = sum((out_dir / a).stat().st_size for a in digest)
        if reference is None:
            reference = digest
            completed = [op for op, r in zip(workload.ops, result.ops) if r.exit == 0]
            failures += checks.eval_within_bounds(
                out_dir, [op.outputs[0] for op in completed if op.kind == "eval"])
            failures += checks.policies_match_oracle(
                out_dir, [op.outputs[0] for op in completed if op.kind == "solve"], seed)
        else:
            failures += checks.compare_digests(reference, digest, f"pass {index}")
        shutil.rmtree(out_dir)
        passes.append(result)
        spent = sum(p.seconds for p in passes)
        done = len(passes) >= MIN_PASSES and (
            len(passes) >= pass_count(name, seconds) or spent > RUNAWAY_FACTOR * seconds)
        remaining = SETUP_REPEATS - len(setup_times)
        for _ in range(remaining if done else min(1, remaining)):
            repeat_dir = work / f"setup{len(setup_times)}"
            repeat_seconds, _, digest = set_up(workload, repeat_dir)
            failures += checks.compare_digests(setup_digest, digest, f"set-up {len(setup_times)}")
            shutil.rmtree(repeat_dir)
            setup_times.append(repeat_seconds)
        if done:
            return passes, reference, setup_times, setup_digest, setup_exits


def per_layer(name: str, passes: list[PassResult], pass_s: float, work: Path,
              failures: list[str]) -> tuple[dict, list[dict]]:
    """Per-layer metrics of the traced passes, plus the trace checks and probes."""
    traced = [p for p in passes if p.traced]
    values = [layer_values(p) for p in traced]
    metrics = dict(values[0])
    for key, unit in PER_LAYER:
        if unit == "s" and key in metrics:
            metrics[key] = statistics.fmean(v[key] for v in values)
        elif any(v.get(key) != metrics.get(key) for v in values[1:]):
            failures.append(f"trace: {key} differs between traced passes")
    traced_pass_s = typical_pass(traced)
    metrics.update({"trace.untraced_pass_s": pass_s, "trace.traced_pass_s": traced_pass_s,
                    "trace.overhead_ratio": traced_pass_s / pass_s})
    tracer = traced[0].tracer
    failures += [f"trace: {m}.{f} was not rebound"
                 for m, f in sorted(set(REQUIRED_SITES) - tracer.sites)]
    for layer in BYPASSED[name]:
        if tracer.layer_calls(layer):
            failures.append(f"trace: bypassed layer {layer} made "
                            f"{tracer.layer_calls(layer)} calls")
    if name == "lp-search":
        failures += crosscheck_switch_lps()
    probes = run_probes(work) if name == "solve" else []
    metrics["probe.exit4"] = sum(p["exit"] == 4 for p in probes)
    return metrics, probes


def run(name: str, seed: int, seconds: float, trace: bool, root: Path) -> int:
    work = root / ".perfbench" / "work" / f"{name}-{seed}-{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.build(name, seed)
    failures: list[str] = []
    passes, artifact_digest, setup_times, setup_digest, setup_exits = measure(
        workload, name, work, seconds, trace, seed, failures)
    # a failed set-up step counts as a failed op under its own exit code; the
    # ops that read its missing output then fail too, with exit 2
    setup_failed = [f"{step[0]} {Path(step[-1]).name} exit {code}"
                    for step, code in zip(workload.setup, setup_exits) if code]

    untraced = [p for p in passes if not p.traced]
    eval_ops = [r for p in untraced for r in p.ops if r.kind == "eval" and r.exit == 0]
    e2e = {
        "pass_s": typical_pass(untraced),
        "setup_s": sum_of_medians(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    beliefs = sum(r.beliefs for r in eval_ops)
    beliefs_per_s = beliefs / sum(r.seconds for r in eval_ops) if eval_ops else None
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(),
        "passes": [{"traced": p.traced, "seconds": p.seconds, "cpu_seconds": p.cpu_seconds,
                    "op_seconds": [r.seconds for r in p.ops]} for p in passes],
        "setup_seconds": [sum(t) for t in setup_times], "setup_exits": setup_exits,
        "ops": [{"kind": r.kind, "label": r.label, "exit": r.exit, "seconds": r.seconds,
                 "message": r.message} for r in passes[0].ops],
        "end_to_end": e2e, "beliefs_per_s": beliefs_per_s,
        "setup_digests": setup_digest, "artifact_digests": artifact_digest,
    }
    metrics, units = e2e, dict(END_TO_END)
    if trace:
        metrics, details["probes"] = per_layer(name, passes, e2e["pass_s"], work, failures)
        units = dict(PER_LAYER)
        details["per_layer"] = metrics
    shutil.rmtree(work, ignore_errors=True)

    all_ops = [r for p in passes for r in p.ops]
    attempted = len(all_ops) + len(setup_exits)
    failed = sum(r.exit != 0 for r in all_ops) + len(setup_failed)
    details.update({"attempted": attempted, "failed": failed, "check_failures": failures})
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    result_path = results / f"{name}-seed{seed}-trace{int(trace)}.json"
    result_path.write_text(json.dumps(details, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print(f"workload {name}, seed {seed}: {len(passes)} passes "
          f"({sum(p.traced for p in passes)} traced), {attempted} ops with the "
          f"{len(setup_exits)} set-up steps, {failed} failed "
          f"(failed_frac {failed / attempted:.6g})")
    for label in setup_failed:
        print(f"set-up step failed: {label}")
    for r in passes[0].ops:
        if r.exit:
            print(f"op failed: {r.label} exit {r.exit}: {r.message}")
    print(f"pass_s {e2e['pass_s']:.6g} s ({len(workload.ops)} ops at their median "
          f"over {len(untraced)} untraced passes)")
    print(f"setup_s {e2e['setup_s']:.6g} s ({len(setup_exits)} set-up steps at their "
          f"median over {len(setup_times)} set-ups)")
    print(f"peak_rss_mb {e2e['peak_rss_mb']:.6g} MB")
    for line in percentile_lines(untraced):
        print(line)
    if beliefs_per_s is not None:
        print(f"beliefs_per_s {beliefs_per_s:.6g} 1/s ({beliefs} beliefs over {len(eval_ops)} evals)")
    for message in failures:
        print(f"check failed: {message}")
    print(f"details: {result_path.relative_to(root)}")
    line = {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()}}
    print(json.dumps(line))
    return 0 if not failures else 1
