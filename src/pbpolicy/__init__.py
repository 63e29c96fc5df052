"""Budget-constrained treatment policy estimation via exponentially weighted
linear threshold rules, with tempering SMC samplers, population oracles, and
finite-sample certificate calculators."""

# assigned before the submodule imports because harness reads it back for
# its study manifests
__version__ = "0.1.0"

from pbpolicy.data import IPWScores, ipw_transform, poly_feature_map
from pbpolicy.gibbs import IsotropicNormalPrior, grid_posterior, solve_u_hat
from pbpolicy.bounds import BoundInputs, bound_report
from pbpolicy.smc import (MH_STEPS_PER_STAGE, AdaptiveLadder, SMCConfig,
                          run_smc)
from pbpolicy.rules import (
    GibbsRule,
    MajorityVoteRule,
    mv_decide,
    treat_probability,
)
from pbpolicy.dgp import DGPSpec, generate
from pbpolicy.oracle import gain_cost, oracle_report, solve_eta_B
