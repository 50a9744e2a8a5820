"""Property test: every initial belief's decision loss is within the bound
of its mode, B for one projection and E for a projection after every
update, over random models and scheme sources."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from beliefproj import (GuardError, ProjectionScheme, SearchConfig, lattice_root,  # noqa: E402
                        random_pomdp, run_search, solve)
from beliefproj.bounds import compute_bounds  # noqa: E402
from beliefproj.evaluate import _block_values  # noqa: E402
from beliefproj.model import sample_beliefs  # noqa: E402

from conftest import random_partition  # noqa: E402

BACKUP_BUDGET = 200  # vectors a stage's backup may enumerate per example
BELIEFS = 64
SLACK = 1e-9


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 4), actions=st.integers(1, 3), obs=st.integers(1, 3),
       horizon=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_every_beliefs_loss_is_within_the_bound_of_its_mode(n, actions, obs, horizon, seed):
    rng = np.random.default_rng(seed)
    model = random_pomdp(n, actions, obs, rng)
    try:
        stages = solve(model, horizon, cap=BACKUP_BUDGET)
    except GuardError:
        stages = None
    assume(stages is not None)
    sources = {"root": lattice_root(n),
               "partition": ProjectionScheme(random_partition(n, rng)),
               "vs-sum": run_search(model, stages, SearchConfig(method="vs-sum")).per_region}
    beliefs = sample_beliefs(model.n_states, BELIEFS, rng)
    for name, source in sources.items():
        per_stage_B, per_stage_E = compute_bounds(model, stages, source)
        for mode, bound in (("single", max(per_stage_B)), ("successive", max(per_stage_E))):
            optimal, achieved, _ = _block_values(model, stages, source, beliefs, mode)
            worst = float(np.max(optimal - achieved))
            assert worst <= bound + SLACK, (name, mode, worst, bound)
