"""Budget-constrained treatment policy estimation via exponentially weighted
linear threshold rules, with tempering SMC samplers, population oracles, and
finite-sample certificate calculators."""

# assigned before the submodule imports because harness reads it back for
# its study manifests
__version__ = "0.1.0"

from pbpolicy.data import (
    Sample,
    IPWScores,
    FeatureMap,
    PolyFeatureMap,
    IdentityFeatureMap,
    ipw_transform,
    poly_feature_map,
    load_sample_csv,
)
from pbpolicy.gibbs import (
    IsotropicNormalPrior,
    InfeasibleBudgetError,
    grid_posterior,
    grid_cost_evaluator,
    tilted_weights,
    solve_u_hat,
    grid_kl,
)
from pbpolicy.bounds import (
    BoundInputs,
    BoundReport,
    small_kl,
    small_kl_inverse,
    pinsker_gap,
    bound_report,
)
from pbpolicy.smc import (
    TemperatureLadder,
    WeightedParticles,
    SMCConfig,
    build_default_ladder,
    run_smc,
)
from pbpolicy.rules import (
    GibbsRule,
    MajorityVoteRule,
    BatchCandidates,
    BatchPlan,
    treat_probability,
    mv_decide,
    sample_assignments,
    rule_empirical_cost,
    rule_empirical_welfare,
    batch_assign,
)
from pbpolicy.dgp import (
    DGPSpec,
    SimulatedPopulation,
    generate,
    true_gain_cost,
)
from pbpolicy.oracle import (
    OptimalRule,
    budget_curve_beta,
    solve_eta_B,
    oracle_decisions,
    oracle_report,
    regret_under_budget,
    mv_loss_L_B,
)
from pbpolicy.persist import save
from pbpolicy.harness import (
    GridSpec,
    CostCurve,
    StudyConfig,
    StudyReport,
    run_study,
)
