"""Acceptance gate: thirteen numbered end-to-end checks.

The first ten run in minutes and exercise sampler fidelity, the
optimization identities behind the budget machinery, certificate coverage,
resampling guarantees, and byte-level determinism.  The last three compare
full studies on both simulated designs against the published benchmark
gains at reduced scale (n=1000, 1000 particles, 20 replications).  Those
studies take a while, so test_c11 through test_c13 read the artifacts under
results/studies/ when a matching set exists (scripts/run_acceptance_studies.py
precomputes them) and recompute them otherwise.  A set built by other
numerics than the current code's, as results/studies/fingerprint.json tells,
fails the three checks instead of passing them unreproduced.

One summary line per criterion is printed at the end of the pytest run; see
conftest.py.
"""

import functools
import importlib.util
import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pbpolicy.bounds import (
    BoundInputs,
    pinsker_gap,
    small_kl,
    small_kl_inverse,
    thm41a_slack,
)
from pbpolicy.data import IPWScores, ipw_transform, poly_feature_map
from pbpolicy.dgp import DGPSpec, generate
from pbpolicy.gibbs import (
    IsotropicNormalPrior,
    grid_kl,
    grid_posterior,
    solve_u_hat,
    welfare_cost_matrix,
)
from pbpolicy.harness import StudyConfig, run_study
from pbpolicy.oracle import (
    budget_curve_beta,
    mv_loss_L_B,
    oracle_decisions,
    regret_under_budget,
    solve_eta_B,
)
from pbpolicy.rules import GibbsRule, MajorityVoteRule, mv_decide, treat_probability
from pbpolicy.smc import (
    AdaptiveLadder,
    SMCConfig,
    build_default_ladder,
    resample_systematic,
    run_smc,
)
from pbpolicy import cli

from gridprior import GridMixturePrior, IdentityMap, random_grid_problem

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results" / "studies"


def _load_studies_script():
    path = ROOT / "scripts" / "run_acceptance_studies.py"
    spec = importlib.util.spec_from_file_location("run_acceptance_studies",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


STUDIES_SCRIPT = _load_studies_script()


# ---------------------------------------------------------------------------
# randomized grid problems shared by criteria 1 through 4


class GridProblem:
    """One finite-grid instance with its scores and a margin-safe probe set."""

    def __init__(self, rng, n_units, grid_size, q, lam, u):
        while True:
            grid, masses, dy, dc, feats = random_grid_problem(
                rng, n_units=n_units, grid_size=grid_size, q=q)
            _, k = welfare_cost_matrix(grid, IPWScores(dy, dc), feats)
            if np.ptp(k) > 0.05:
                break
        self.grid = grid
        self.masses = masses
        self.features = feats
        self.scores = IPWScores(dy, dc)
        self.lam = lam
        self.u = u
        # probe points kept clear of every candidate hyperplane so that the
        # sampler's sub-micro jitter around the grid cannot flip a vote
        probes = []
        while len(probes) < 10:
            x = rng.normal(size=q)
            if np.min(np.abs(grid @ x)) >= 1e-3 * np.linalg.norm(x):
                probes.append(x)
        self.probe = np.array(probes)


@pytest.fixture(scope="module")
def grid_problems():
    rng = np.random.default_rng(20260819)
    lams = [2.0, 4.0, 8.0]
    problems = []
    for i in range(25):
        problems.append(GridProblem(
            rng,
            n_units=int(rng.integers(12, 101)),
            grid_size=int(rng.integers(4, 51)),
            q=int(rng.integers(2, 5)),
            lam=lams[i % 3],
            u=0.0 if i % 5 == 0 else float(rng.uniform(0.0, 1.2)),
        ))
    return problems


def _assert_clouds_match_grid_posteriors(grid_problems, cloud_of):
    """cloud_of(prob, prior, config) is the sampler's cloud at (prob.lam,
    prob.u); its cost and treat probabilities must match the exact grid
    posterior's within 3 / sqrt(N)."""
    n_particles = 4000
    tol = 3.0 / math.sqrt(n_particles)
    started = time.monotonic()
    for i, prob in enumerate(grid_problems):
        prior = GridMixturePrior(prob.grid, prob.masses)
        cloud = cloud_of(prob, prior, SMCConfig(
            n_particles=n_particles, seed=1000 + i, normalized=False))
        exact = grid_posterior(prob.grid, prob.masses, prob.lam, prob.u,
                               prob.scores, prob.features, normalized=False)

        _, k_grid = welfare_cost_matrix(prob.grid, prob.scores, prob.features)
        _, k_smc = welfare_cost_matrix(cloud.thetas, prob.scores, prob.features)
        assert abs(cloud.weights @ k_smc - exact @ k_grid) < tol

        rule = GibbsRule(cloud, IdentityMap())
        got = treat_probability(rule, prob.probe)
        want = ((prob.probe @ prob.grid.T) > 0.0) @ exact
        assert np.max(np.abs(got - want)) < tol
    assert time.monotonic() - started < 120.0


def test_c01_smc_matches_exact_grid_posteriors(grid_problems):
    def cloud_of(prob, prior, config):
        ladder = build_default_ladder(prob.u, prob.lam)
        return run_smc(prob.scores, prob.features, prior, ladder,
                       config)[ladder.T]

    _assert_clouds_match_grid_posteriors(grid_problems, cloud_of)


def test_c01_adaptive_ladder_matches_exact_grid_posteriors(grid_problems):
    # criterion 1 for the schedule the study runs: adaptive stages with the
    # study's five Metropolis sweeps each, harvested at the one rung
    def cloud_of(prob, prior, config):
        (cloud,) = run_smc(
            prob.scores, prob.features, prior,
            AdaptiveLadder(prob.u, [prob.lam]),
            replace(config, mh_steps_per_stage=5)).values()
        assert (cloud.lam, cloud.u) == (prob.lam, prob.u)
        return cloud

    _assert_clouds_match_grid_posteriors(grid_problems, cloud_of)


def test_c02_posterior_cost_curve_strictly_decreasing(grid_problems):
    u_grid = np.linspace(0.0, 4.0, 9)
    for prob in grid_problems:
        _, k = welfare_cost_matrix(prob.grid, prob.scores, prob.features)
        vals = np.array([grid_posterior(prob.grid, prob.masses, prob.lam, u,
                                        prob.scores, prob.features,
                                        normalized=False) @ k
                         for u in u_grid])
        assert np.all(np.diff(vals) < 1e-12)
        assert vals[-1] < vals[0]


def test_c03_budget_inversion_complementary_slackness(grid_problems):
    for i, prob in enumerate(grid_problems):
        _, k = welfare_cost_matrix(prob.grid, prob.scores, prob.features)

        def evaluator(lam, u):
            return float(grid_posterior(prob.grid, prob.masses, lam, u,
                                        prob.scores, prob.features,
                                        normalized=False) @ k)

        lam0 = evaluator(prob.lam, 0.0)
        deep = evaluator(prob.lam, 6.0)
        if i % 2 == 0 or lam0 - deep < 1e-9:
            budget = lam0 + 0.25
            u_hat = solve_u_hat(budget, prob.lam, evaluator, tolerance=1e-8)
            assert u_hat == 0.0
            assert lam0 <= budget
        else:
            budget = 0.3 * lam0 + 0.7 * deep
            u_hat = solve_u_hat(budget, prob.lam, evaluator, tolerance=1e-8)
            assert u_hat > 0.0
            assert abs(evaluator(prob.lam, u_hat) - budget) <= 1e-8


def test_c04_gibbs_beats_random_feasible_distributions():
    rng = np.random.default_rng(40)
    lam = 8.0
    for trial in range(5):
        prob = GridProblem(rng,
                           n_units=int(rng.integers(12, 61)),
                           grid_size=int(rng.integers(6, 21)),
                           q=int(rng.integers(2, 4)),
                           lam=lam,
                           u=0.0 if trial % 2 == 0 else 0.3)
        m = prob.grid.shape[0]
        post = grid_posterior(prob.grid, prob.masses, lam, prob.u,
                              prob.scores, prob.features, normalized=False)
        w, k = welfare_cost_matrix(prob.grid, prob.scores, prob.features)
        budget = float(post @ k)

        draws = rng.dirichlet(np.ones(m), size=10_000)
        costs = draws @ k
        jmin = int(np.argmin(k))
        # pull infeasible draws toward the cheapest vertex until they meet
        # the budget; the mix stays a probability vector
        t = np.ones(draws.shape[0])
        over = costs > budget
        t[over] = (budget - k[jmin]) / (costs[over] - k[jmin])
        mixed = t[:, None] * draws
        mixed[:, jmin] += 1.0 - t
        assert np.all(mixed @ k <= budget + 1e-12)

        regret = np.max(w) - w
        with np.errstate(divide="ignore", invalid="ignore"):
            kl_rows = np.where(mixed > 0.0,
                               mixed * np.log(mixed / prob.masses[None, :]),
                               0.0).sum(axis=1)
        obj_rand = mixed @ regret + kl_rows / lam
        obj_post = float(post @ regret) + grid_kl(post, prob.masses) / lam
        assert np.min(obj_rand - obj_post) >= -1e-10


# ---------------------------------------------------------------------------
# oracle side: budget curve and solved rules on continuous ground truths


def _random_truth(seed):
    rng = np.random.default_rng(seed)
    a0 = float(rng.uniform(-0.5, 1.0))
    a = rng.uniform(-1.0, 1.0, size=3)
    b0 = float(rng.uniform(-0.3, 0.8))
    b = rng.uniform(-1.0, 1.0, size=3)
    x = rng.uniform(-1.0, 1.0, size=(10_000, 3))
    return a0 + x @ a, b0 + x @ b


def test_c05_budget_curve_monotone_and_budget_exhausted():
    solved = 0
    for trial in range(10):
        dy, dc = _random_truth(6000 + trial)
        with np.errstate(divide="ignore"):
            ratios = np.where(dc != 0.0, dy / dc, np.nan)
        positive = ratios[np.isfinite(ratios) & (ratios > 0.0)]
        probes = np.concatenate([
            [0.0],
            np.quantile(positive, np.linspace(0.05, 0.95, 13)),
            [float(positive.max()) * 1.1],
        ])
        betas = [budget_curve_beta(float(b), dy, dc) for b in np.sort(probes)]
        assert np.all(np.diff(betas) <= 1e-12)

        floor = float(np.sum(dc[dc < 0.0])) / dc.shape[0]
        beta0 = betas[0]
        assert beta0 > floor + 1e-9
        for frac in (0.35, 0.75):
            budget = floor + frac * (beta0 - floor)
            rule = solve_eta_B(budget, dy, dc)
            realized = float(np.mean(dc * oracle_decisions(rule, dy, dc)))
            assert abs(realized - budget) <= 1e-6
            solved += 1
    assert solved == 20


def test_c06_majority_vote_loss_within_twice_stochastic_regret():
    evaluation = generate(DGPSpec("DGP1", 999, 10_000))
    eval_x = evaluation.x
    dy, dc = evaluation.cate, evaluation.expected_cost
    u_values = np.linspace(0.2, 1.4, 10)
    for k, u in enumerate(u_values):
        training = generate(DGPSpec("DGP1", 100 + k, 400)).sample
        fmap = poly_feature_map(2, 3).fit_normalization(training.x)
        scores = ipw_transform(training)
        prior = IsotropicNormalPrior(q=len(fmap.exponents), sigma=1.0)
        ladder = build_default_ladder(float(u), 32.0)
        cloud = run_smc(scores, fmap.transform(training.x), prior, ladder,
                        SMCConfig(n_particles=500, seed=7700 + k))[ladder.T]
        gibbs = GibbsRule(cloud, fmap)
        mv = MajorityVoteRule(cloud, fmap)

        prob = treat_probability(gibbs, eval_x)
        budget = float(np.mean(dc * prob))
        assert budget > 1e-8
        optimal = solve_eta_B(budget, dy, dc)
        star = oracle_decisions(optimal, dy, dc)
        mv_dec = mv_decide(mv, eval_x).astype(float)

        loss_terms = (dy - optimal.eta * dc) * (star - mv_dec)
        regret_terms = dy * (star - prob)
        # the per-unit arrays must agree with the published functionals
        assert abs(np.mean(loss_terms) - mv_loss_L_B(mv_dec, optimal, dy, dc)) < 1e-12
        assert abs(np.mean(regret_terms) - regret_under_budget(prob, optimal, dy, dc)) < 1e-12

        gap = loss_terms - 2.0 * regret_terms
        se = float(np.std(gap, ddof=1)) / math.sqrt(eval_x.shape[0])
        assert float(np.mean(gap)) <= 3.0 * se


# ---------------------------------------------------------------------------
# certificate coverage


def test_c07_certificate_coverage_rate():
    started = time.monotonic()
    rng = np.random.default_rng(71)
    n, reps, eps, lam = 200, 200, 0.1, 20.0
    support = rng.normal(size=(12, 2))
    px = rng.dirichlet(np.full(12, 3.0))
    y1 = rng.uniform(-0.95, 0.95, size=12)
    y0 = rng.uniform(-0.95, 0.95, size=12)
    thetas = rng.normal(size=(15, 2))
    masses = np.full(15, 1.0 / 15.0)

    dec_support = (support @ thetas.T > 0.0).astype(float)
    w_true = ((y1 - y0) * px) @ dec_support

    inputs = BoundInputs(n=n, kappa=0.5, m_y=2.0, m_c=2.0, lam=lam,
                         u=0.0, epsilon=eps)
    violations = 0
    for _ in range(reps):
        idx = rng.choice(12, size=n, p=px)
        d = rng.integers(0, 2, size=n)
        y = np.where(d == 1, y1[idx], y0[idx])
        delta = 2.0 * y * (2.0 * d - 1.0)
        scores = IPWScores(delta, np.zeros(n))
        feats = support[idx]
        post = grid_posterior(thetas, masses, lam, 0.0, scores, feats,
                              normalized=False)
        w_emp, _ = welfare_cost_matrix(thetas, scores, feats)
        gap = float(post @ w_emp) - float(post @ w_true)
        slack = thm41a_slack(inputs, grid_kl(post, masses))
        if gap > slack:
            violations += 1
    rate = violations / reps
    assert rate <= eps + 2.0 * math.sqrt(eps * (1.0 - eps) / reps)
    assert time.monotonic() - started < 600.0


# ---------------------------------------------------------------------------
# resampling and the Bernoulli kl helpers


def test_c08_systematic_resampling_counts_and_unbiasedness():
    rng = np.random.default_rng(88)
    alphas = (0.1, 1.0, 5.0)
    for trial in range(1000):
        size = int(rng.integers(5, 301))
        weights = rng.dirichlet(np.full(size, alphas[trial % 3]))
        counts = np.bincount(resample_systematic(weights, rng), minlength=size)
        target = size * weights
        assert np.all((counts == np.floor(target)) | (counts == np.ceil(target)))

    size, draws = 8, 10_000
    weights = rng.dirichlet(np.full(size, 5.0))
    counts = np.empty((draws, size))
    for i in range(draws):
        counts[i] = np.bincount(resample_systematic(weights, rng),
                                minlength=size)
    se = counts.std(axis=0, ddof=1) / math.sqrt(draws)
    deviation = np.abs(counts.mean(axis=0) - size * weights)
    assert np.all(deviation <= 3.0 * se + 1e-12)


def test_c09_bernoulli_kl_identities_and_inversion():
    grid = np.linspace(0.005, 0.995, 100)
    for a in grid:
        assert small_kl(float(a), float(a)) == 0.0
    gaps = np.array([[pinsker_gap(float(a), float(b)) for b in grid] for a in grid])
    assert np.all(gaps >= 0.0)

    for a in np.linspace(0.01, 0.97, 25):
        cap = small_kl(float(a), 1.0 - 1e-6)
        for c in np.linspace(1e-6, 0.9 * cap, 15):
            b = small_kl_inverse(float(a), float(c))
            assert abs(small_kl(float(a), b) - c) <= 1e-9


# ---------------------------------------------------------------------------
# determinism of the study pipeline


def test_c10_study_runs_byte_identical(tmp_path):
    def run(out):
        rc = cli.main([*STUDIES_SCRIPT.TINY_STUDY_ARGS, "--out", str(out)])
        assert rc == 0

    run(tmp_path / "a")
    run(tmp_path / "b")
    names = sorted(p.name for p in (tmp_path / "a").glob("cost_curves_*.csv"))
    assert len(names) == 6
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


# ---------------------------------------------------------------------------
# benchmark reproduction at reduced scale


@functools.lru_cache(maxsize=None)
def _current_fingerprint():
    return STUDIES_SCRIPT.numerics_fingerprint()


def _study_cache_valid(folder, dgp_id):
    """True when folder holds this study built by the current numerics,
    False when it holds no such study; fails when it holds one built by
    other numerics, rather than reuse it."""
    config = folder / "study_config.json"
    if not config.exists():
        return False
    doc = json.loads(config.read_text())
    if not (doc.get("dgp", {}).get("id") == dgp_id
            and doc.get("dgp", {}).get("seed") == 0
            and doc.get("dgp", {}).get("n") == 1000
            and doc.get("replications") == 20
            and doc.get("particles") == 1000
            and doc.get("n_test") == 10_000
            and doc.get("n_bins") == 20):
        return False
    if STUDIES_SCRIPT.recorded_fingerprint() != _current_fingerprint():
        pytest.fail(f"{folder} does not match the current numerics "
                    "(results/studies/fingerprint.json differs); rebuild it "
                    "with python3 scripts/run_acceptance_studies.py")
    return True


def _load_study(folder):
    curves = {}
    for path in folder.glob("cost_curves_*.csv"):
        method = path.stem[len("cost_curves_"):]
        rows = [line.split(",") for line in
                path.read_text().strip().splitlines()[1:]]
        data = np.array([[float(v) for v in row[:3]] for row in rows])
        curves[method] = {"costs": data[:, 0], "gains": data[:, 1],
                          "se": data[:, 2]}
    reach = {m: [] for m in ("pb_sa", "pb_mv", "pb_batch")}
    start = {m: [] for m in ("pb_sa", "pb_mv", "pb_batch")}
    for path in folder.glob("replication_*.json"):
        doc = json.loads(path.read_text())
        for method in reach:
            costs = doc["curves"][method]["costs"]
            reach[method].append(max(costs))
            start[method].append(min(costs))
    # a query budget is covered by a method when every replication curve
    # spans it without endpoint clamping
    return {
        "curves": curves,
        "covered_lo": {m: max(v) for m, v in start.items()},
        "covered_hi": {m: min(v) for m, v in reach.items()},
    }


@pytest.fixture(scope="module")
def benchmark_studies():
    out, rebuilt = {}, False
    for name, dgp_id in (("dgp1", "DGP1"), ("dgp2", "DGP2")):
        folder = RESULTS / name
        if not _study_cache_valid(folder, dgp_id):
            run_study(DGPSpec(dgp_id, 0, 1000), 20,
                      config=StudyConfig(particles=1000, out_dir=str(folder)))
            rebuilt = True
        out[name] = _load_study(folder)
    if rebuilt:
        # every study on disk is now either fresh or checked against it
        STUDIES_SCRIPT.write_fingerprint(_current_fingerprint())
    return out


def _gain_at(study, method, budget):
    curve = study["curves"][method]
    return float(np.interp(budget, curve["costs"], curve["gains"]))


def test_c11_dgp1_batch_gains_at_published_costs(benchmark_studies):
    study = benchmark_studies["dgp1"]
    assert abs(_gain_at(study, "pb_batch", 0.25) - 0.47) <= 0.04
    assert abs(_gain_at(study, "pb_batch", 0.75) - 1.01) <= 0.04
    # The ratio-ranked oracle is deterministic on the fixed test population,
    # so it is held to the same reference gains as the batch curve (with a
    # tighter band) rather than to the batch mean itself, which carries its
    # own sampling noise at 20 replications.  Ranking by true scores makes
    # the oracle a slightly generous upper reference for those levels.
    assert abs(_gain_at(study, "oracle_ratio", 0.25) - 0.47) <= 0.03
    assert abs(_gain_at(study, "oracle_ratio", 0.75) - 1.01) <= 0.03


def test_c12_dgp2_gains_at_half_budget(benchmark_studies):
    study = benchmark_studies["dgp2"]
    assert abs(_gain_at(study, "pb_batch", 0.5) - 0.63) <= 0.04
    assert abs(_gain_at(study, "pb_mv", 0.5) - 0.61) <= 0.04
    assert abs(_gain_at(study, "pb_sa", 0.5) - 0.60) <= 0.04
    assert abs(_gain_at(study, "random", 0.5) - 0.50) <= 0.02


def test_c13_method_ordering_and_random_line(benchmark_studies):
    for name in ("dgp1", "dgp2"):
        study = benchmark_studies[name]
        query = study["curves"]["pb_sa"]["costs"]
        for method in ("pb_mv", "pb_batch", "random"):
            assert np.array_equal(study["curves"][method]["costs"], query)
        lo = max(study["covered_lo"][m] for m in ("pb_sa", "pb_mv"))
        hi = min(study["covered_hi"][m] for m in ("pb_sa", "pb_mv", "pb_batch"))
        covered = query[(query >= lo) & (query <= hi)]
        assert covered.size >= 10

        batch = np.interp(covered, query, study["curves"]["pb_batch"]["gains"])
        mv = np.interp(covered, query, study["curves"]["pb_mv"]["gains"])
        sa = np.interp(covered, query, study["curves"]["pb_sa"]["gains"])
        rand = np.interp(covered, query, study["curves"]["random"]["gains"])
        # Batch and majority vote track each other within a 0.02 band.  Below
        # the first batch evaluation bin the rendered batch curve is a linear
        # chord over a steep concave stretch, so an exact ordering there would
        # compare rendering resolution rather than methods; everywhere at or
        # above that bin the strict ordering holds on the committed runs.
        assert np.all(batch >= mv - 0.02)
        assert np.all(mv >= sa - 0.02)
        interior = covered > 0.0
        assert np.all(batch[interior] > rand[interior])
        assert np.all(mv[interior] > rand[interior])
        assert np.all(sa[interior] > rand[interior])
