import copy
from unittest import mock

import numpy as np
import pytest

from beliefproj import LinearProgram, Pomdp, random_pomdp, solve_lp


def random_partition(n, rng):
    """Random projection-scheme blocks over n variables (any block sizes)."""
    order = list(rng.permutation(n))
    blocks = []
    while order:
        size = int(rng.integers(1, len(order) + 1))
        blocks.append(tuple(order[:size]))
        order = order[size:]
    return tuple(blocks)


def captured_lp(module, run) -> LinearProgram:
    """The first program ``run()`` hands to ``module.solve_lp``."""
    seen = []

    def capture(lp):
        seen.append(lp)
        return solve_lp(lp)
    with mock.patch.object(module, "solve_lp", capture):
        run()
    return seen[0]


def solve_to_optimum(lp):
    """Solve ``lp`` without its stop threshold, from the same start: a
    shallow copy keeps a warm start, which ``dataclasses.replace`` drops."""
    full = copy.copy(lp)
    full.stop_above = None
    return solve_lp(full)


def two_state_model(discount=0.9):
    """1-variable chain with informative observations, handy for hand checks."""
    transition = np.array([[[0.8, 0.2], [0.1, 0.9]]])
    observation = np.array([[[0.7, 0.3], [0.2, 0.8]]])
    reward = np.array([0.0, 1.0])
    return Pomdp(("x",), ("a",), ("quiet", "noisy"), transition, observation,
                 reward, discount)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_model():
    return random_pomdp(2, 2, 2, np.random.default_rng(5), discount=0.9)
