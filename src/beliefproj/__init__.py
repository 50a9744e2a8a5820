"""Value-directed belief projection analysis for finite-horizon POMDPs."""

from .errors import (GuardError, InputError, NumericalError,
                     ZeroProbabilityObservation)
from .model import (Pomdp, belief_update, compile_model, model_to_spec,
                    observation_probabilities, predicted_belief, value_of)
from .projection import (ConstraintFamily, ProjectionScheme, WalshBasis,
                         build_basis, constraint_family, displacement,
                         lattice_children, lattice_root, marginal_true, project,
                         project_batch, residual_sq_length, walsh_vector)
from .lpcore import LinearProgram, LpResult, solve_lp
from .solver import AlphaSet, backup, brute_force_value, prune, solve, zero_stage
from .bounds import (BoundsReport, SwitchDecision, alt_sets, bound_E_from_alts,
                     compute_bounds, lp_switch_test, oracle_switch_test,
                     vs_switch_test)
from .search import (SearchConfig, SearchResult, estimator_max, estimator_sum,
                     greedy_bound_search, incremental_scores, run_search,
                     vs_search)
from .evaluate import (EvalConfig, EvalReport, achieved_value, average_error,
                       random_belief, random_pomdp)

__version__ = "0.1.0"
