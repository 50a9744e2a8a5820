"""Property test: the floors of ``bounds.alt_sets`` against the minima of
the enumerating reference, over random models, plans and scheme sources."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from beliefproj import ProjectionScheme, random_pomdp  # noqa: E402
from beliefproj.bounds import alt_sets, bound_E_from_alts, stage_switch_sets  # noqa: E402
from beliefproj.solver import backup, zero_stage  # noqa: E402

from conftest import random_partition  # noqa: E402
from test_bounds import assert_floors_are_minima, product_alt_sets  # noqa: E402

MEMBER_BUDGET = 2_000  # unreduced members the reference may enumerate per example


def random_plans(model, horizon, rng):
    """Stage sets of 1 to 4 plans each, drawn from the full backup of the
    stage below, so every value vector is its plan's backed-up value."""
    prev, stages = zero_stage(model), []
    for _ in range(horizon):
        full = backup(model, prev)
        size = min(len(full), int(rng.integers(1, 5)))
        prev = full.take(np.sort(rng.choice(len(full), size=size, replace=False)))
        stages.append(prev)
    return stages


def random_scheme(n, rng):
    """The all-singletons scheme, under which most pairs switch, half the
    time; otherwise a random partition."""
    blocks = random_partition(n, rng) if rng.integers(2) else tuple((i,) for i in range(n))
    return ProjectionScheme(blocks)


def unreduced_members(stages, switch_sets_per_stage):
    """Members the reference would enumerate if it never dropped one."""
    counts, total = [], 0
    for aset, switch_sets in zip(stages, switch_sets_per_stage):
        counts.append([sum(math.prod(counts[-1][c] for c in aset.strategies[r]) if counts else 1
                           for r in (i, *switch_sets[i]))
                       for i in range(len(aset))])
        total += sum(counts[-1])
    return total


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 4), actions=st.integers(1, 3), obs=st.integers(1, 3),
       horizon=st.integers(1, 4), per_region=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_floors_are_the_minima_of_the_enumerated_members(n, actions, obs, horizon, per_region,
                                                         seed):
    rng = np.random.default_rng(seed)
    model = random_pomdp(n, actions, obs, rng)
    stages = random_plans(model, horizon, rng)
    if per_region:
        source = {(aset.stage, i): random_scheme(n, rng)
                  for aset in stages for i in range(len(aset))}
    else:
        source = random_scheme(n, rng)
    sw = [stage_switch_sets(aset, source, "VS") for aset in stages]
    assume(unreduced_members(stages, sw) <= MEMBER_BUDGET)
    got = alt_sets(model, stages, sw)
    assert_floors_are_minima(got, product_alt_sets(model, stages, sw))
    if not any(any(stage_sw) for stage_sw in sw):
        assert [bound_E_from_alts(aset, floors) for aset, floors in zip(stages, got)] == \
            [0.0] * horizon
    one_block = [stage_switch_sets(aset, ProjectionScheme.full(n), "VS") for aset in stages]
    assert not any(any(stage_sw) for stage_sw in one_block)
    assert [bound_E_from_alts(aset, floors)
            for aset, floors in zip(stages, alt_sets(model, stages, one_block))] == [0.0] * horizon
