"""Reproducers of the reward-scale defects of ROADMAP item 2.

Dominance and switching do not change when every reward is multiplied by
the same positive factor, but the tolerances of the witness LPs, the switch
LPs and the simplex are absolute. Each test states the scale-free answer and
is a strict xfail, so the fix of item 2 has to turn each one into a pass.
The one exception is the ``large`` solve, which passes only because prune
keeps the plans that win at simplex corners without a witness LP, and so no
longer reaches the LP that fails; the pairwise witness test pins that LP.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from beliefproj import NumericalError, lattice_root, random_pomdp, solve
from beliefproj.bounds import stage_switch_sets
from beliefproj.solver import _witness, backup, undominated, zero_stage

ITEM_2 = "ROADMAP item 2: absolute LP tolerances make the answer depend on the reward scale"


def scaled(model, factor):
    return dataclasses.replace(model, reward=model.reward * factor)


@pytest.mark.parametrize("factor", [
    pytest.param(1e9, id="large"),
    # prune keeps 1, 2 and 2 plans where the unscaled model keeps 1, 2 and 4
    pytest.param(1e-9, marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                                                reason=ITEM_2), id="small"),
])
def test_scaled_rewards_keep_the_plans(factor):
    # the model of gen --vars 2 --actions 2 --obs 2 --seed 3
    model = random_pomdp(2, 2, 2, np.random.default_rng(3))
    want = solve(model, 3)
    got = solve(scaled(model, factor), 3)
    assert [len(s) for s in got] == [len(s) for s in want]
    for g, w in zip(got, want):
        assert np.array_equal(g.actions, w.actions)
        assert np.array_equal(g.strategies, w.strategies)


def witness_every_pair(model) -> int:
    """Solves the witness LP of every ordered pair of undominated backup
    vectors of each stage of a horizon-3 solve; returns how many."""
    count, prev = 0, zero_stage(model)
    for aset in solve(model, 3):
        rows = backup(model, prev).matrix
        rows = rows[undominated(rows)]
        for i, j in itertools.permutations(range(len(rows)), 2):
            _witness(rows[i], [rows[j]])
            count += 1
        prev = aset
    return count


# the model of gen --vars 2 --actions 2 --obs 2 --seed 3
def test_pairwise_witness_lps_solve_unscaled():
    assert witness_every_pair(random_pomdp(2, 2, 2, np.random.default_rng(3))) == 22


@pytest.mark.xfail(strict=True, raises=NumericalError, reason=ITEM_2)
def test_pairwise_witness_lps_solve_on_large_rewards():
    """With the rewards times 1e9, 14 of the 22 LPs report "unexpectedly
    unbounded"."""
    model = random_pomdp(2, 2, 2, np.random.default_rng(3))
    assert witness_every_pair(scaled(model, 1e9)) == 22


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_2)
@pytest.mark.parametrize("seed", [7, 8, 9])
def test_lp_and_vs_switch_sets_agree_on_scaled_rewards(seed):
    """On pruned stage sets no difference of two vectors is one-signed, so
    the LP test fires exactly when the VS test does; with the rewards times
    2^-30 (exact in binary) the LP sets come out empty where VS finds 2, 4
    and 4 pairs at seeds 7, 8 and 9."""
    model = scaled(random_pomdp(3, 2, 2, np.random.default_rng(seed), discount=0.9), 2.0 ** -30)
    root = lattice_root(3)
    for aset in solve(model, 3):
        assert stage_switch_sets(aset, root, "LP") == stage_switch_sets(aset, root, "VS")
