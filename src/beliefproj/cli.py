"""Command-line front end: gen -> solve -> search -> eval pipelines.

Every artifact file is byte-reproducible given the same inputs, flags, and
seeds; wall-clock timings go to stdout and to the ``<out>.manifest.json`` run
log that ``main`` alone writes, never into artifacts. An output that names an
input or another output, by its path or through a link, exits 2 before any
work. Every JSON artifact and manifest goes through one writer,
``_write_json``, whose bytes are those of ``json.dumps(doc, indent=2,
sort_keys=True)`` plus a newline. The float tables of models and policies reach
it packed as base64 strings (``model.packed``). A non-finite number exits 4 and
leaves no file, whether the encoder or the packing refuses it; a command that
cannot write its manifest or CSV removes the outputs it wrote. The one value
the writer does not encode is a policy's ``model``: ``solve`` splices in the
model file's text as read, re-indented, so a policy's ``model`` is the very
document its ``model_sha256`` digests, and a model that ``gen`` wrote keeps the
bytes ``model_to_spec`` would give it. Exit codes: 0 ok, 2 input error, 3 guard
or resource error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import inspect
import json
import os
import re
import sys
import time
from pathlib import Path

import numpy as np

from .errors import (GuardError, InputError, NumericalError,
                     ZeroProbabilityObservation)
from .evaluate import MODES, EvalConfig, average_error, random_pomdp
from .model import compile_model, model_to_spec
from .search import ALL_METHODS, SCOPES, SearchConfig, result_from_doc, run_search
from .solver import (BACKUP_CAP, plan_vector, solve, stages_from_doc, stages_to_doc,
                     zero_stage)

VALUE_SLACK = 1e-9  # relative rounding allowance on the largest value a policy may hold
SHA256_HEX = re.compile("[0-9a-f]{64}")


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror}") from None


def _utf8(path: str, data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not UTF-8 text (byte {e.start}: {e.reason})") from None


def _decode(path: str, decode, text: str | None = None):
    """``decode`` of the JSON document at ``path``, whose text is ``text``
    when it was read already; an InputError it raises is raised again with
    ``path`` in front.

    Python's parser also reads ``NaN``, ``Infinity`` and ``-Infinity``,
    which are not JSON. A document holding one is refused, but only once
    ``decode`` has accepted it, so a message about the value it spoils comes
    first.
    """
    if text is None:
        text = _utf8(path, _read_bytes(path))
    constants = []

    def constant(name):
        constants.append(name)
        return float(name)

    try:
        doc = json.loads(text, parse_constant=constant)
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply to read") from None
    try:
        value = decode(doc)
    except InputError as e:
        raise InputError(f"{path}: {e}") from None
    if constants:
        raise InputError(f"{path}: {constants[0]} is not a JSON number")
    return value


def _open_output(path: str, newline: str | None = None):
    try:
        return open(path, "w", encoding="utf-8", newline=newline)
    except OSError as e:
        raise InputError(f"cannot write {path}: {e.strerror}") from None


JSON_SPACE = " \t\n\r"  # the whitespace a JSON text may hold between tokens
TEXT_SLICE = 1 << 16  # characters of an embedded model text re-indented at a time


def _write_json(path: str, doc, model_text: str | None = None) -> None:
    """Write ``json.dumps(doc, indent=2, sort_keys=True)`` and a newline to
    ``path``. With ``model_text``, the policy ``doc``'s top-level ``"model":
    null`` gets that text instead, without its outer whitespace and with two
    spaces after each newline; a JSON string holds no raw newline, so that
    only re-indents it. The document is encoded to the encoder's chunks,
    never joined, and the text is re-indented in slices, so neither a large
    document nor a large model is copied whole. A non-finite number exits 4
    before the file is opened."""
    try:
        chunks = list(json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False)
                      .iterencode(doc))
    except ValueError:  # NaN and the infinities have no JSON form
        raise _non_finite(path) from None
    with _open_output(path) as fh:
        if model_text is not None:
            at = chunks.index("null", chunks.index('"model"'))
            fh.writelines(chunks[:at])
            del chunks[:at + 1]
            start, end = 0, len(model_text)
            while start < end and model_text[start] in JSON_SPACE:
                start += 1
            while end > start and model_text[end - 1] in JSON_SPACE:
                end -= 1
            for lo in range(start, end, TEXT_SLICE):
                fh.write(model_text[lo:min(lo + TEXT_SLICE, end)].replace("\n", "\n  "))
        fh.writelines(chunks)
        fh.write("\n")


def _non_finite(path: str) -> NumericalError:
    return NumericalError(f"{path}: result holds a non-finite number")


@contextlib.contextmanager
def _removed_on_failure(outputs: list[str]):
    """Remove ``outputs``, the files a command has written, if the block
    raises, so a command that fails leaves none of them behind."""
    try:
        yield
    except BaseException:
        for path in outputs:
            Path(path).unlink(missing_ok=True)
        raise


def _policy_from_doc(doc):
    """(model, stages, model_sha256) of a policy document."""
    if not isinstance(doc, dict):
        raise InputError(f"policy document must be an object, got {type(doc).__name__}")
    for key in ("model", "model_sha256", "horizon", "stages"):
        if key not in doc:
            raise InputError(f"policy document missing key {key!r}")
    digest = doc["model_sha256"]
    if not isinstance(digest, str) or not SHA256_HEX.fullmatch(digest):
        raise InputError(f"policy 'model_sha256' must be 64 lowercase hex digits, got {digest!r}")
    horizon = doc["horizon"]
    if isinstance(horizon, bool) or not isinstance(horizon, int):
        raise InputError(f"policy horizon {horizon!r} is not an integer")
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
        limit = model.value_limit(k)
        if np.abs(aset.matrix).max() > limit * (1.0 + VALUE_SLACK):
            raise InputError(f"stage-{k} policy values exceed {limit:.6g}, the largest sum of "
                             f"{k} discounted rewards of the model (field 'values')")
    # the bounds take a vector's values to be its plan's, so they are checked
    prev = zero_stage(model).matrix
    for aset in stages:
        k, tolerance = aset.stage, VALUE_SLACK * model.value_limit(aset.stage)
        for i, (values, action, strategy) in enumerate(zip(aset.matrix, aset.actions,
                                                           aset.strategies)):
            error = np.abs(values - plan_vector(model, action, prev[strategy])).max()
            if error > tolerance:
                raise InputError(f"stage-{k} policy vector {i} is off its plan's value by "
                                 f"{error:.6g}, above {tolerance:.6g} (field 'values')")
        prev = aset.matrix
    return model, stages, digest


def cmd_gen(args) -> dict:
    rng = np.random.default_rng(args.seed)
    model = random_pomdp(args.vars, args.actions, args.obs, rng,
                         sparsity=args.sparsity, discount=args.discount)
    _write_json(args.out, model_to_spec(model))
    print(f"wrote {args.out}: {args.vars} variables ({model.n_states} states), "
          f"{args.actions} actions, {args.obs} observations")
    return {"seconds": {}}


def cmd_solve(args) -> dict:
    data = _read_bytes(args.model)
    digest = hashlib.sha256(data).hexdigest()
    text = _utf8(args.model, data)
    del data  # the text is the one copy of the file kept through the solve
    model = _decode(args.model, compile_model, text)
    solve_start = time.perf_counter()
    stages = solve(model, args.horizon, cap=args.cap)
    solve_seconds = time.perf_counter() - solve_start
    try:
        stages_doc = stages_to_doc(stages)
    except ValueError:  # packing refuses what the writer would
        raise _non_finite(args.out) from None
    # the model as read, so the policy's model is the document digested
    doc = {"model": None, "model_sha256": digest, "horizon": args.horizon,
           "stages": stages_doc}
    _write_json(args.out, doc, model_text=text)
    sizes = [len(s) for s in stages]
    for k, size in enumerate(sizes, start=1):
        print(f"stage {k}: {size} vector{'s' if size != 1 else ''}")
    print(f"max {max(sizes)}, average {sum(sizes) / len(sizes):.1f}; "
          f"solved in {solve_seconds:.3f}s")
    return {"seconds": {"solve": solve_seconds}}


def cmd_search(args) -> dict:
    config = SearchConfig(method=args.method, scope=args.scope)
    model, stages, _ = _decode(args.policy, _policy_from_doc)
    result = run_search(model, stages, config)
    _write_json(args.out, result.to_doc(model.variables))
    if result.scheme is not None:
        print(f"{args.method}: scheme {result.scheme.to_names(model.variables)}")
    else:
        print(f"{args.method}: {len(result.per_region)} per-region schemes")
    print(f"search took {result.elapsed_seconds:.3f}s")
    return {"seconds": {"search": result.elapsed_seconds}}


def cmd_eval(args) -> dict:
    model, stages, digest = _decode(args.policy, _policy_from_doc)
    # the loss is measured against the values solved for the policy's own
    # model, so the model file must be the very bytes it was solved from
    data = _read_bytes(args.model)
    if hashlib.sha256(data).hexdigest() != digest:
        # a file that does not decode says so before it is called the wrong model
        _decode(args.model, compile_model, _utf8(args.model, data))
        raise InputError(f"{args.model} is not the model {args.policy} was solved for")
    result = _decode(args.scheme, lambda doc: result_from_doc(doc, model.variables))
    source = result.scheme if result.scheme is not None else result.per_region
    cfg = EvalConfig(num_beliefs=args.beliefs, seed=args.seed, mode=args.mode)
    report = average_error(model, stages, source, cfg, method=result.method)
    _write_json(args.out, report.to_doc())
    csv_path = _outputs(args)["CSV report"]
    with _removed_on_failure([args.out]):
        fh = _open_output(csv_path, newline="")
    with fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "mode", "average_loss", "B", "E", "seconds"])
        # wall clock is environment noise; it lives in the manifest so that
        # rerunning a pipeline reproduces artifacts byte for byte
        writer.writerow([report.method, report.mode, repr(report.average_loss),
                         repr(report.bound_B), repr(report.bound_E), ""])
    # the bound on every belief's loss in this mode: B for one projection,
    # E for a projection after every update
    bound = report.bound_B if report.mode == "single" else report.bound_E
    print(f"{report.method} {report.mode}: average loss {report.average_loss:.6g} "
          f"(B={report.bound_B:.6g}, E={report.bound_E:.6g}) in {report.seconds:.3f}s")
    return {"seconds": {"eval": report.seconds},
            "counters": {"approx_restarts": report.approx_restarts,
                         "loss_headroom": bound - report.worst_loss,
                         "loss_stderr": report.loss_stderr,
                         "worst_belief": report.worst_belief,
                         "zero_loss_beliefs": report.zero_loss_beliefs}}


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="beliefproj",
        description="Value-directed belief projection analysis for POMDPs")
    sub = parser.add_subparsers(dest="command", required=True)
    gen_defaults = inspect.signature(random_pomdp).parameters

    p = sub.add_parser("gen", help="generate a random model file")
    p.add_argument("--vars", type=_int_from(1), required=True)
    p.add_argument("--actions", type=_int_from(1), required=True)
    p.add_argument("--obs", type=_int_from(1), required=True)
    p.add_argument("--seed", type=_int_from(0), required=True)
    p.add_argument("--sparsity", type=float, default=gen_defaults["sparsity"].default)
    p.add_argument("--discount", type=float, default=gen_defaults["discount"].default)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="solve a model into stage alpha-vector sets")
    p.add_argument("model")
    p.add_argument("--horizon", type=_int_from(1), required=True)
    p.add_argument("--cap", type=_int_from(1), default=BACKUP_CAP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("search", help="search the projection lattice")
    p.add_argument("policy")
    p.add_argument("--method", choices=ALL_METHODS, required=True)
    p.add_argument("--scope", choices=SCOPES, default=SearchConfig.scope)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("eval", help="evaluate average decision loss of a scheme")
    p.add_argument("model")
    p.add_argument("policy")
    p.add_argument("scheme", help="scheme JSON or search-result JSON")
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--beliefs", type=_int_from(1), default=EvalConfig.num_beliefs)
    p.add_argument("--seed", type=_int_from(0), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)
    return parser


def _outputs(args) -> dict:
    """The files the command of ``args`` writes, by role; the manifest last."""
    report = ({"CSV report": str(Path(args.out).with_suffix(".csv"))}
              if args.command == "eval" else {})
    return {"--out": args.out, **report, "manifest": args.out + ".manifest.json"}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    writes = _outputs(args)
    # a missing input is left to its reader, which says there is no such file
    named = [*writes.items(), *((r, p) for r, p in vars(args).items()
                               if r in ("model", "policy", "scheme") and os.path.exists(p))]
    try:
        for i, (role, path) in enumerate(writes.items()):
            for other_role, other in named[i + 1:]:
                try:  # a hard link or a symlink to a file is that file
                    same = os.path.samefile(path, other)
                except OSError:  # an output not written yet is named by its path alone
                    same = os.path.abspath(path) == os.path.abspath(other)
                if same:
                    raise InputError(f"{role} {path} is also the path of the {other_role} {other}")
        started = time.perf_counter()
        doc = {"command": args.command,
               "config": {k: v for k, v in vars(args).items() if k != "func"},
               "outputs": list(writes.values())[:-1], **args.func(args)}
        doc["seconds"]["total"] = time.perf_counter() - started
        with _removed_on_failure(doc["outputs"]):
            _write_json(writes["manifest"], doc)
        return 0
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
