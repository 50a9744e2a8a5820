"""Correctness checks on the artifacts of a pass, run outside the timed region.

Each check returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from beliefproj.evaluate import random_belief
from beliefproj.model import compile_model, value_of
from beliefproj.solver import brute_force_value, stages_from_doc

BOUND_SLACK = 1e-6
ORACLE_TOL = 1e-9
ORACLE_BELIEFS = 2


def digests(directory: Path, names) -> dict[str, str]:
    """sha256 of every artifact that exists, by artifact name."""
    out = {}
    for name in names:
        path = directory / name
        if path.is_file():
            out[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def compare_digests(reference: dict, digest: dict, where: str) -> list[str]:
    failures = []
    for name in sorted(set(reference) | set(digest)):
        if reference.get(name) != digest.get(name):
            failures.append(f"{where}: {name} differs from the first pass")
    return failures


def eval_within_bounds(directory: Path, reports) -> list[str]:
    """Each eval report's average loss is at most B (single) or E (successive)."""
    failures = []
    for name in reports:
        doc = json.loads((directory / name).read_text(encoding="utf-8"))
        bound = doc["B"] if doc["mode"] == "single" else doc["E"]
        if bound is None or not doc["average_loss"] <= bound + BOUND_SLACK:
            failures.append(f"{name}: {doc['mode']} loss {doc['average_loss']!r} "
                            f"above its bound {bound!r}")
    return failures


def policies_match_oracle(directory: Path, policies, seed: int) -> list[str]:
    """Each solved policy's value equals brute-force expectimax at sampled beliefs."""
    failures = []
    rng = np.random.default_rng(seed)
    for name in policies:
        doc = json.loads((directory / name).read_text(encoding="utf-8"))
        model = compile_model(doc["model"])
        stages = stages_from_doc(doc["stages"])
        for _ in range(ORACLE_BELIEFS):
            b = random_belief(model.n_states, rng)
            solved, _ = value_of(b, stages[-1])
            exact = brute_force_value(model, b, len(stages))
            if abs(solved - exact) > ORACLE_TOL:
                failures.append(f"{name}: value {solved!r} != expectimax {exact!r}")
    return failures
