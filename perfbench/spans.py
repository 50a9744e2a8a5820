"""Per-layer spans and counters for a traced benchmark pass.

The program is not instrumented: a :class:`Tracer` wraps the public functions
of each ``beliefproj`` layer module by rebinding module attributes, and
removes the wrappers again when the traced pass ends. A name brought in with
``from .x import f`` is a separate attribute of the importing module, so every
module that holds the function object is rebound, not only the defining one.

Each wrapped call is a span. Spans nest on a stack; a span's self time is its
duration minus the durations of the spans it directly encloses, and a layer's
self time is the sum of the self times of its spans. Spans are aggregated per
name as they close (calls, seconds, self seconds), never stored one by one.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

from beliefproj.errors import NumericalError, ZeroProbabilityObservation
from beliefproj.solver import DOMINANCE_TOL

LAYERS = ("cli", "model", "solver", "lpcore", "projection", "bounds", "search", "evaluate")

# ``from .x import f`` sites the per-layer numbers depend on; install() must
# rebind every one of them or the layer under-reports.
REQUIRED_SITES = (
    ("solver", "solve_lp"), ("bounds", "solve_lp"),
    ("evaluate", "project"), ("evaluate", "belief_update"),
    ("bounds", "residual_sq_length"), ("search", "residual_sq_length"),
    ("bounds", "alt_sets"), ("search", "alt_sets"),
    ("evaluate", "observation_probabilities"), ("bounds", "indicator_vector"),
    ("search", "walsh_vector"), ("search", "lattice_children"),
    ("search", "stage_switch_sets"), ("search", "bound_from_switch_sets"),
    ("search", "bound_E_from_alts"),
)


class Tracer:
    """Span stack plus per-name aggregates for one traced pass."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [name, start, seconds of direct children]
        self._rebound: list[tuple[object, str, object]] = []
        self.sites: set[tuple[str, str]] = set()  # (module, attribute) ever rebound

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> float:
        name, start, children = self._stack.pop()
        duration = time.perf_counter() - start
        self.calls[name] += 1
        self.seconds[name] += duration
        self.self_seconds[name] += duration - children
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def layer_self_seconds(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_seconds.items() if k.startswith(prefix))

    def layer_calls(self, layer: str) -> int:
        prefix = layer + "."
        return sum(v for k, v in self.calls.items() if k.startswith(prefix))

    @contextmanager
    def installed(self):
        """Rebind every target for the duration of the block."""
        self._install()
        try:
            yield self
        finally:
            for module, attr, original in reversed(self._rebound):
                setattr(module, attr, original)
            self._rebound.clear()

    def _install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "beliefproj" or name.startswith("beliefproj."))]
        for target in TARGETS:
            original = getattr(sys.modules["beliefproj." + target.module], target.function)
            for module in modules:
                site = module.__name__.rpartition(".")[2]
                span = target.span_at(site)
                if span is None:
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        wrapper = _wrap(self, original, span, target.on_result,
                                        target.on_error.get(site))
                        setattr(module, attr, wrapper)
                        self._rebound.append((module, attr, original))
                        self.sites.add((site, attr))


def _wrap(tracer: Tracer, fn, span: str, on_result, on_error):
    def traced(*args, **kwargs):
        tracer.enter(span)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            tracer.exit()
            if on_error is not None:
                on_error(tracer, exc)
            raise
        duration = tracer.exit()
        if on_result is not None:
            on_result(tracer, span, args, kwargs, result, duration)
        return result

    traced.__name__ = getattr(fn, "__name__", "traced")
    traced.__wrapped__ = fn
    return traced


@dataclass(frozen=True)
class Target:
    """One function to wrap: where it is defined and the span it records.

    ``sites`` maps an importing module to its own span name; when it is set,
    only those modules are rebound (solve_lp is a witness LP when prune calls
    it and a switch LP when the switch test does).
    """

    module: str
    function: str
    span: str | None = None
    sites: dict | None = None
    on_result: Callable | None = None
    on_error: dict = field(default_factory=dict)  # site -> hook

    def span_at(self, site: str) -> str | None:
        if self.sites is not None:
            return self.sites.get(site)
        return self.span


def _count(key: str, amount) -> Callable:
    def hook(tracer, span, args, kwargs, result, duration):
        tracer.counts[key] += amount(args, kwargs, result)
    return hook


def _lp_shape(tracer, span, args, kwargs, result, duration):
    lp = args[0]
    tracer.counts[span + ".rows"] += len(lp.constraints) + sum(u is not None for u in lp.upper)
    tracer.counts[span + ".cols"] += lp.objective.shape[0]
    if span == "lpcore.witness":
        # mirrors solver._witness: no witness unless optimal with a positive margin
        if result.status != "optimal" or result.value is None or result.value <= DOMINANCE_TOL:
            tracer.counts["lpcore.witness.empty"] += 1


def _numerical_error(tracer, exc):
    if isinstance(exc, NumericalError):
        tracer.counts["lpcore.numerical_errors"] += 1


def _approx_restart(tracer, exc):
    # evaluate._achieved catches this on the approximate track and restarts
    # from the exact posterior; a raise on the exact track fails the op instead
    if isinstance(exc, ZeroProbabilityObservation):
        tracer.counts["evaluate.approx_restarts"] += 1


def _prune_sizes(tracer, span, args, kwargs, result, duration):
    tracer.counts["solver.prune.vectors_in"] += len(args[0])
    tracer.counts["solver.prune.vectors_kept"] += len(result)


def _search_result(tracer, span, args, kwargs, result, duration):
    config = args[2] if len(args) > 2 else kwargs["config"]
    tracer.seconds[f"search.{config.method}"] += duration
    trace = result.trace
    steps = sum(len(t) for t in trace.values()) if isinstance(trace, dict) else len(trace)
    tracer.counts["search.descent_steps"] += steps


def _positive(args, kwargs, result) -> int:
    return int(result.switches)


# Every public function that one layer calls in another on a workload's path
# is wrapped, so its time is charged to the layer that defines it. Public
# functions left unwrapped, and where their time goes:
# - model.predicted_belief is only called by model's own belief_update and
#   observation_probabilities, so its time is model's already;
# - the document converters model_to_spec, stages_to_doc, stages_from_doc and
#   result_from_doc, called by the CLI to write and read files, count as
#   cli.self_s (the CLI's JSON cost);
# - helpers called a few times per op (num_states, mask_of, lattice_root,
#   scheme_lookup, scheme_source_doc, ...) stay in their caller's layer;
# - project_batch and the oracle switch tests are on no workload's path.
TARGETS = (
    Target("model", "compile_model", "model.compile_model"),
    Target("model", "belief_update", "model.belief_update",
           on_error={"evaluate": _approx_restart}),
    Target("model", "value_of", "model.value_of"),
    Target("model", "observation_probabilities", "model.observation_probabilities"),
    Target("solver", "solve", "solver.solve"),
    Target("solver", "backup", "solver.backup",
           on_result=_count("solver.backup.vectors", lambda a, k, r: len(r))),
    Target("solver", "prune", "solver.prune", on_result=_prune_sizes),
    Target("lpcore", "solve_lp", sites={"solver": "lpcore.witness", "bounds": "lpcore.switch"},
           on_result=_lp_shape,
           on_error={"solver": _numerical_error, "bounds": _numerical_error}),
    Target("projection", "project", "projection.project"),
    Target("projection", "build_basis", "projection.build_basis"),
    Target("projection", "residual_sq_length", "projection.residual_sq_length"),
    Target("projection", "constraint_family", "projection.constraint_family"),
    Target("projection", "walsh_vector", "projection.walsh_vector"),
    Target("projection", "indicator_vector", "projection.indicator_vector"),
    Target("projection", "lattice_children", "projection.lattice_children"),
    Target("bounds", "lp_switch_test", "bounds.lp_switch_test",
           on_result=_count("bounds.lp_switch_test.positive", _positive)),
    Target("bounds", "vs_switch_test", "bounds.vs_switch_test",
           on_result=_count("bounds.vs_switch_test.positive", _positive)),
    Target("bounds", "alt_sets", "bounds.alt_sets",
           on_result=_count("bounds.alt_sets.members",
                            lambda a, k, r: sum(len(m) for stage in r for m in stage))),
    Target("bounds", "compute_bounds", "bounds.compute_bounds"),
    Target("bounds", "stage_switch_sets", "bounds.stage_switch_sets"),
    Target("bounds", "bound_from_switch_sets", "bounds.bound_from_switch_sets"),
    Target("bounds", "bound_E_from_alts", "bounds.bound_E_from_alts"),
    Target("search", "run_search", "search.run_search", on_result=_search_result),
    # a lattice node's objective: the full bound for b-*/e-*, one child's
    # incremental residual update for vs-*
    Target("search", "_scoped_bound", "search.node"),
    Target("search", "incremental_scores", "search.node"),
    Target("evaluate", "average_error", "evaluate.average_error"),
    Target("evaluate", "achieved_value", "evaluate.achieved_value"),
)
