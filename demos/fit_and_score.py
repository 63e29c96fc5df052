"""End-to-end fit on a simulated sample, scored against the known truth.

Draws a training sample from the first built-in environment, fits the
exponentially weighted rule family at a fixed (lambda, u), then evaluates
the stochastic rule and its majority vote on a large test population where
the true conditional effects are available.  Finishes by solving the
optimal rule at the same realized budget, so the welfare gap to the
attainable frontier is visible.

Run:  python3 demos/fit_and_score.py
"""

from pbpolicy import (
    MH_STEPS_PER_STAGE,
    AdaptiveLadder,
    DGPSpec,
    GibbsRule,
    IsotropicNormalPrior,
    MajorityVoteRule,
    SMCConfig,
    gain_cost,
    generate,
    ipw_transform,
    mv_decide,
    oracle_report,
    poly_feature_map,
    run_smc,
    solve_eta_B,
    treat_probability,
)

LAM = 32.0
U = 0.6
N_TRAIN = 500
N_TEST = 20_000
PARTICLES = 600


def main():
    training = generate(DGPSpec("DGP1", seed=11, n=N_TRAIN)).sample
    scores = ipw_transform(training)
    fmap = poly_feature_map(2, training.x.shape[1]).fit_normalization(training.x)
    prior = IsotropicNormalPrior(q=fmap.dimension, sigma=1.0)
    config = SMCConfig(n_particles=PARTICLES, seed=3,
                       mh_steps_per_stage=MH_STEPS_PER_STAGE)
    stages = []
    harvested = run_smc(scores, fmap.transform(training.x), prior,
                        AdaptiveLadder(U, [LAM]), config, trace=stages)
    cloud = harvested[max(harvested)]
    print(f"fitted: n={N_TRAIN}, lambda={LAM}, u={U}, "
          f"{PARTICLES} particles, {len(stages)} tempering stages")
    gibbs = GibbsRule(cloud, fmap)
    vote = MajorityVoteRule(cloud, fmap)

    test = generate(DGPSpec("DGP1", seed=999, n=N_TEST))
    dy, dc = test.cate, test.expected_cost
    prob = treat_probability(gibbs, test.x)
    gain_sa, cost_sa = gain_cost(prob, dy, dc)
    vote_dec = mv_decide(vote, test.x).astype(float)
    gain_mv, cost_mv = gain_cost(vote_dec, dy, dc)
    print(f"stochastic rule : true gain {gain_sa:.4f} at true cost {cost_sa:.4f}")
    print(f"majority vote   : true gain {gain_mv:.4f} at true cost {cost_mv:.4f}")

    best = solve_eta_B(cost_sa, dy, dc)
    report = oracle_report(best, dy, dc)
    print(f"optimal rule at the same budget: gain {report['gain_of_optimal']:.4f} "
          f"(eta = {report['eta_B']:.4f})")
    print(f"welfare regret of the stochastic rule: "
          f"{report['gain_of_optimal'] - gain_sa:.4f}")


if __name__ == "__main__":
    main()
