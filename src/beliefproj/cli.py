"""Command-line front end: gen -> solve -> search -> eval pipelines.

Every artifact file is byte-reproducible given the same inputs, flags, and
seeds; wall-clock timings go to stdout and to the ``<out>.manifest.json``
run log, never into artifacts. Every JSON artifact and manifest goes through
one writer, ``_write_json``, whose bytes are those of ``json.dump(doc, fh,
indent=2, sort_keys=True)`` plus a newline; it hands each list of numbers to
the C encoder in one call. Exit codes: 0 ok, 2 input error, 3 guard or
resource error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from .errors import (GuardError, InputError, NumericalError,
                     ZeroProbabilityObservation)
from .evaluate import EvalConfig, average_error, random_pomdp
from .model import compile_model, model_to_spec
from .projection import ProjectionScheme
from .search import ALL_METHODS, SearchConfig, result_from_doc, run_search
from .solver import solve, stages_from_doc, stages_to_doc

VALUE_SLACK = 1e-9  # relative rounding allowance on the largest value a policy may hold


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not UTF-8 text (byte {e.start}: {e.reason})") from None
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None


def _open_output(path: str, newline: str | None = None):
    try:
        return open(path, "w", encoding="utf-8", newline=newline)
    except OSError as e:
        raise InputError(f"cannot write {path}: {e.strerror}") from None


INDENT = "  "


def _json_chunks(doc):
    """The text of ``json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)``
    in pieces, raising what it raises.

    Dicts and lists are walked the way the stdlib's indented encoder walks
    them, in Python. A list of scalars instead goes to the C encoder in one
    call, with the item separator of its depth, and is wrapped in brackets.
    Only a container that is not empty encodes differently there, and its
    text holds a brace or a bracket, so a list whose text holds neither past
    its opening bracket qualifies. One list's text is held at a time.
    """
    encoders = []

    def encoder(depth):
        while len(encoders) <= depth:
            encoders.append(json.JSONEncoder(
                sort_keys=True, allow_nan=False,
                separators=(",\n" + INDENT * len(encoders), ": ")).encode)
        return encoders[depth]

    def walk(o, depth):
        inner = "\n" + INDENT * (depth + 1)
        if isinstance(o, dict):
            if not o:
                yield "{}"
                return
            encode, sep = encoder(0), "{" + inner
            for key, value in sorted(o.items()):
                if not isinstance(key, str):
                    if key is not None and not isinstance(key, (int, float)):
                        raise TypeError("keys must be str, int, float, bool or None, "
                                        f"not {key.__class__.__name__}")
                    key = encode(key)
                yield sep + encode(key) + ": "
                sep = "," + inner
                yield from walk(value, depth + 1)
            yield "\n" + INDENT * depth + "}"
        elif isinstance(o, (list, tuple)):
            if not o:
                yield "[]"
                return
            # a list that starts with a container would mostly fail the test
            if not isinstance(o[0], (list, tuple, dict)):
                text = encoder(depth + 1)(o)
                if "{" not in text and text.find("[", 1) < 0:
                    yield "[" + inner + text[1:-1] + "\n" + INDENT * depth + "]"
                    return
            sep = "[" + inner
            for value in o:
                yield sep
                sep = "," + inner
                yield from walk(value, depth + 1)
            yield "\n" + INDENT * depth + "]"
        else:
            yield encoder(0)(o)

    return walk(doc, 0)


def _write_json(path: str, doc) -> None:
    fh = _open_output(path)
    try:
        with fh:
            fh.writelines(_json_chunks(doc))
            fh.write("\n")
    except ValueError:
        # NaN and the infinities have no JSON form; drop the partial file
        Path(path).unlink(missing_ok=True)
        raise NumericalError(f"{path}: result holds a non-finite number") from None


def _write_manifest(command: str, args: argparse.Namespace, out_path: str,
                    outputs: list[str], seconds: dict, counters: dict | None = None) -> None:
    config = {k: v for k, v in vars(args).items() if k != "func"}
    doc = {
        "command": command,
        "inputs": {k: v for k, v in config.items()
                   if k in ("model", "policy", "scheme") and v is not None},
        "seed": config.get("seed"),
        "config": config,
        "outputs": outputs,
        "seconds": seconds,
    }
    if counters is not None:
        doc["counters"] = counters
    _write_json(str(out_path) + ".manifest.json", doc)


def _load_policy(path: str):
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise InputError(f"{path}: policy document must be an object, got {type(doc).__name__}")
    for key in ("model", "horizon", "stages"):
        if key not in doc:
            raise InputError(f"policy document missing key {key!r}")
    try:
        horizon = int(doc["horizon"])
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"policy horizon {doc['horizon']!r} is not an integer") from None
    model = compile_model(doc["model"])
    stages = stages_from_doc(doc["stages"])
    if len(stages) != horizon:
        raise InputError("policy horizon does not match its stage count")
    for aset in stages:
        k, m = aset.stage, len(aset)
        if aset.matrix.shape != (m, model.n_states):
            raise InputError(f"stage-{k} policy values must be rows of {model.n_states} numbers")
        if aset.strategies.shape != (m, model.n_observations):
            raise InputError(f"stage-{k} policy strategies must be lists of "
                             f"{model.n_observations} indices")
        actions = aset.actions
        if actions.shape != (m,) or np.any((actions < 0) | (actions >= model.n_actions)):
            raise InputError(f"stage-{k} policy actions must be indices below {model.n_actions}")
        # a k-step plan collects k rewards, discounted by gamma^t at step t
        limit = float(np.abs(model.reward).max()) * sum(model.discount ** t for t in range(k))
        if np.abs(aset.matrix).max() > limit * (1.0 + VALUE_SLACK):
            raise InputError(f"stage-{k} policy values exceed {limit:.6g}, the largest sum of "
                             f"{k} discounted rewards of the model (field 'values')")
    return model, stages


def cmd_gen(args) -> int:
    started = time.perf_counter()
    rng = np.random.default_rng(args.seed)
    model = random_pomdp(args.vars, args.actions, args.obs, rng,
                         sparsity=args.sparsity, discount=args.discount)
    _write_json(args.out, model_to_spec(model))
    print(f"wrote {args.out}: {args.vars} variables ({model.n_states} states), "
          f"{args.actions} actions, {args.obs} observations")
    _write_manifest("gen", args, args.out, [args.out],
                    {"total": time.perf_counter() - started})
    return 0


def cmd_solve(args) -> int:
    started = time.perf_counter()
    spec = _read_json(args.model)
    model = compile_model(spec)
    solve_start = time.perf_counter()
    stages = solve(model, args.horizon, cap=args.cap)
    solve_seconds = time.perf_counter() - solve_start
    doc = {"model": model_to_spec(model), "horizon": args.horizon,
           "stages": stages_to_doc(stages)}
    _write_json(args.out, doc)
    sizes = [len(s) for s in stages]
    for k, size in enumerate(sizes, start=1):
        print(f"stage {k}: {size} vector{'s' if size != 1 else ''}")
    print(f"max {max(sizes)}, average {sum(sizes) / len(sizes):.1f}; "
          f"solved in {solve_seconds:.3f}s")
    _write_manifest("solve", args, args.out, [args.out],
                    {"solve": solve_seconds, "total": time.perf_counter() - started})
    return 0


def cmd_search(args) -> int:
    started = time.perf_counter()
    model, stages = _load_policy(args.policy)
    config = SearchConfig(method=args.method, scope=args.scope)
    result = run_search(model, stages, config)
    _write_json(args.out, result.to_doc(model.variables))
    if result.scheme is not None:
        print(f"{args.method}: scheme {result.scheme.to_names(model.variables)}")
    else:
        print(f"{args.method}: {len(result.per_region)} per-region schemes")
    print(f"search took {result.elapsed_seconds:.3f}s")
    _write_manifest("search", args, args.out, [args.out],
                    {"search": result.elapsed_seconds,
                     "total": time.perf_counter() - started})
    return 0


def _load_scheme_source(path: str, model):
    doc = _read_json(path)
    if isinstance(doc, list):
        return ProjectionScheme.from_names(doc, model.variables), "scheme"
    if isinstance(doc, dict):
        result = result_from_doc(doc, model.variables)
        source = result.scheme if result.scheme is not None else result.per_region
        return source, result.method
    raise InputError(f"{path}: expected a scheme array or a search-result object")


def cmd_eval(args) -> int:
    started = time.perf_counter()
    model = compile_model(_read_json(args.model))
    policy_model, stages = _load_policy(args.policy)
    if policy_model.n_states != model.n_states:
        raise InputError(
            f"model has {model.n_states} states but the policy was solved for "
            f"{policy_model.n_states}")
    if (policy_model.actions != model.actions
            or policy_model.observations != model.observations):
        raise InputError("model and policy disagree on actions or observations")
    source, method = _load_scheme_source(args.scheme, model)
    cfg = EvalConfig(num_beliefs=args.beliefs, seed=args.seed, mode=args.mode)
    report = average_error(model, stages, source, cfg, method=method)
    _write_json(args.out, report.to_doc())
    csv_path = str(Path(args.out).with_suffix(".csv"))
    with _open_output(csv_path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "mode", "average_loss", "B", "E", "seconds"])
        # wall clock is environment noise; it lives in the manifest so that
        # rerunning a pipeline reproduces artifacts byte for byte
        writer.writerow([report.method, report.mode, repr(report.average_loss),
                         repr(report.bound_B), repr(report.bound_E), ""])
    print(f"{report.method} {report.mode}: average loss {report.average_loss:.6g} "
          f"(B={report.bound_B:.6g}, E={report.bound_E:.6g}) in {report.seconds:.3f}s")
    _write_manifest("eval", args, args.out, [args.out, csv_path],
                    {"eval": report.seconds, "total": time.perf_counter() - started},
                    counters={"approx_restarts": report.approx_restarts})
    return 0


def _int_from(low: int):
    """argparse type: an integer of at least ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beliefproj",
        description="Value-directed belief projection analysis for POMDPs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random model file")
    p.add_argument("--vars", type=_int_from(1), required=True)
    p.add_argument("--actions", type=_int_from(1), required=True)
    p.add_argument("--obs", type=_int_from(1), required=True)
    p.add_argument("--seed", type=_int_from(0), required=True)
    p.add_argument("--sparsity", type=float, default=0.0)
    p.add_argument("--discount", type=float, default=0.95)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="solve a model into stage alpha-vector sets")
    p.add_argument("model")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--cap", type=int, default=1_000_000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("search", help="search the projection lattice")
    p.add_argument("policy")
    p.add_argument("--method", choices=ALL_METHODS, required=True)
    p.add_argument("--scope", choices=["last", "all"], default="all")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("eval", help="evaluate average decision loss of a scheme")
    p.add_argument("model")
    p.add_argument("policy")
    p.add_argument("scheme", help="scheme JSON or search-result JSON")
    p.add_argument("--mode", choices=["single", "successive"], required=True)
    p.add_argument("--beliefs", type=int, default=5000)
    p.add_argument("--seed", type=_int_from(0), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ZeroProbabilityObservation) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except GuardError as e:
        print(f"guard error: {e}", file=sys.stderr)
        return 3
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
