"""Tests for the temperature ladder, resampling, Metropolis moves, and the
full tempering run against exact finite-grid posteriors."""

import numpy as np
import pytest

from gridprior import GridMixturePrior, random_grid_problem
from reference_smc import reference_run_adaptive, reference_run_smc
from pbpolicy.data import (IPWScores, WeightedParticles, ipw_transform,
                           poly_feature_map)
from pbpolicy.dgp import DGPSpec, generate
from pbpolicy.gibbs import (
    IsotropicNormalPrior,
    grid_posterior,
    welfare_cost_matrix,
)
from pbpolicy.smc import (
    MH_STEPS_PER_STAGE,
    AdaptiveLadder,
    SMCConfig,
    TemperatureLadder,
    build_default_ladder,
    ess,
    mh_move,
    resample_systematic,
    run_smc,
    temper,
)
from pbpolicy.harness import GridSpec, subseed
from pbpolicy.smc import (CESS_FRACTION, LAMBDA_CAP, TAU_ESS, _cess_fraction,
                          _cov, _StageStreams)


def test_default_ladder_shapes():
    full = build_default_ladder(4.0, 1024.0)
    assert full.T == 800
    assert full.steps[0] == (0.0, 0.0)
    assert full.steps[-1] == (1024.0, 4.0)
    assert full.rungs == (1024.0,)
    short = build_default_ladder(0.0, 4.0)
    assert short.T == 200
    assert len(short.steps) == 201
    assert all(u == 0.0 for _, u in short.steps)
    assert short.steps[-1] == (4.0, 0.0)
    mid = build_default_ladder(1.0, 32.0)
    assert mid.T == 320
    assert mid.steps[-1] == (32.0, 1.0)


def test_default_ladder_knot_values():
    full = build_default_ladder(4.0, 1024.0)
    lam = dict(enumerate(l for l, _ in full.steps))
    assert lam[100] == pytest.approx(2.0)
    assert lam[200] == pytest.approx(4.0)
    assert lam[209] == pytest.approx(6.1)
    assert lam[320] == pytest.approx(32.0)
    assert lam[470] == pytest.approx(256.0)
    assert lam[800] == pytest.approx(1024.0)
    # u ramps over the first 200 steps then freezes
    us = [u for _, u in full.steps]
    assert us[50] == pytest.approx(1.0)
    assert us[200] == pytest.approx(4.0)
    assert us[500] == pytest.approx(4.0)
    # lambda strictly increases the whole way
    lams = [l for l, _ in full.steps]
    assert all(b > a for a, b in zip(lams, lams[1:]))


def test_ladder_validation():
    with pytest.raises(ValueError):
        build_default_ladder(-1.0, 4.0)
    with pytest.raises(ValueError):
        build_default_ladder(0.0, 0.0)
    with pytest.raises(ValueError):
        build_default_ladder(0.0, 2000.0)
    with pytest.raises(ValueError, match="u_final must be non-negative"):
        build_default_ladder(float("nan"), 4.0)
    with pytest.raises(ValueError, match="rung 5 is not a step"):
        TemperatureLadder(1.0, (5.0, 32.0))
    # rungs on steps are harvested where they fall: 4 at step 200, 32 at 320
    ladder = TemperatureLadder(1, [32, 4.0, 32.0])
    assert ladder.rungs == (4.0, 32.0) and ladder.u_final == 1.0
    assert ladder.steps == build_default_ladder(1.0, 32.0).steps


@pytest.mark.parametrize("kind", [TemperatureLadder, AdaptiveLadder])
@pytest.mark.parametrize("u_final,rungs,message", [
    (float("nan"), (4.0,), "u_final must be non-negative"),
    (float("inf"), (4.0,), "u_final must be non-negative"),
    (-1.0, (4.0,), "u_final must be non-negative"),
    (1.0, (), "ladder has no rungs"),
    (1.0, (0.0,), "rungs must lie in"),
    (1.0, (-4.0, 4.0), "rungs must lie in"),
    (1.0, (2048.0,), "rungs must lie in"),
    (1.0, (4.0, 2048.0), "rungs must lie in"),
    (1.0, (float("nan"),), "rungs must lie in"),
])
def test_both_ladders_share_one_validation(kind, u_final, rungs, message):
    with pytest.raises(ValueError, match=message):
        kind(u_final, rungs)


@pytest.mark.parametrize("lambda_final", sorted(
    {4.0, 32.0, 256.0, 1024.0, 1e-3, 1e-13, LAMBDA_CAP,
     *GridSpec().lambda_grid.tolist()}))
def test_fixed_ladder_reaches_its_last_rung_only_at_its_last_step(
        lambda_final):
    # the invariant that lets run_smc harvest on "lambda is a rung": lambda
    # strictly increases and equals the last rung only at the last step
    lams = [lam for lam, _ in build_default_ladder(1.0, lambda_final).steps]
    assert all(b > a for a, b in zip(lams, lams[1:]))
    assert [t for t, lam in enumerate(lams) if lam == lambda_final] == \
        [len(lams) - 1]


def test_fixed_ladder_harvests_its_rungs_at_their_steps():
    ladder = TemperatureLadder(1.6, (3.0, 256.0))
    assert [t for t, (lam, _) in enumerate(ladder.steps)
            if lam in ladder.rungs] == [150, 470]


def test_ladder_truncation_is_prefix():
    # a default ladder built to a lower lambda is the longer one cut at the
    # step that reaches it
    assert build_default_ladder(1.0, 4.0).steps == \
        build_default_ladder(1.0, 32.0).steps[:201]
    assert build_default_ladder(2.0, 32.0).steps == \
        build_default_ladder(2.0, 1024.0).steps[:321]


def test_ess_values():
    assert ess(np.full(10, 0.1)) == pytest.approx(10.0)
    assert ess(np.array([0.5, 0.5, 0.0, 0.0])) == pytest.approx(2.0)
    assert ess(np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        ess(np.array([0.5, 0.2]))


def test_ess_rejects_nan_weights():
    with pytest.raises(ValueError, match="normalized"):
        ess(np.array([np.nan, np.nan]))


def particles_with_weights(weights, rng=None):
    weights = np.asarray(weights, dtype=float)
    n = weights.shape[0]
    rng = rng or np.random.default_rng(0)
    return WeightedParticles(thetas=rng.normal(size=(n, 2)), weights=weights,
                             step_index=0, lam=0.0, u=0.0, seed=0)


def test_resample_point_mass():
    p = particles_with_weights([1.0, 0.0, 0.0, 0.0])
    idx = resample_systematic(p.weights, np.random.default_rng(3))
    for row in p.thetas[idx]:
        np.testing.assert_array_equal(row, p.thetas[0])
    assert idx.shape == (4,)


def test_resample_uniform_keeps_everyone():
    p = particles_with_weights(np.full(6, 1 / 6))
    for seed in range(5):
        idx = resample_systematic(p.weights, np.random.default_rng(seed))
        # each particle appears exactly once, in order
        np.testing.assert_array_equal(p.thetas[idx], p.thetas)


def _count_oracle(weights, u0):
    # literal walk of the cumulative weights, one stratified point per slot
    n = len(weights)
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    counts = np.zeros(n, dtype=int)
    i = 0
    for j in range(n):
        point = u0 + j / n
        while not point < cum[i]:
            i += 1
        counts[i] += 1
    return counts


def test_resample_counts_match_literal_walk():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        w = rng.dirichlet(np.ones(n) * rng.uniform(0.3, 3.0))
        p = particles_with_weights(w, rng=np.random.default_rng(1))
        seed = int(rng.integers(1 << 31))
        idx = resample_systematic(p.weights, np.random.default_rng(seed))
        u0 = np.random.default_rng(seed).uniform(0, 1 / n)
        want = _count_oracle(w, u0)
        got = np.zeros(n, dtype=int)
        for row in p.thetas[idx]:
            matches = np.where((p.thetas == row).all(axis=1))[0]
            got[matches[0]] += 1
        np.testing.assert_array_equal(got, want)
        # count bounds
        assert np.all(got >= np.floor(n * w)) and np.all(got <= np.ceil(n * w))


def test_resample_unbiasedness_quick():
    w = np.array([0.05, 0.3, 0.15, 0.5])
    p = particles_with_weights(w)
    g = np.array([1.0, -2.0, 0.5, 3.0])
    draws = 2000
    total = np.zeros(4)
    rng = np.random.default_rng(5)
    for _ in range(draws):
        drawn = resample_systematic(p.weights, rng)
        for row in p.thetas[drawn]:
            idx = np.where((p.thetas == row).all(axis=1))[0][0]
            total[idx] += 1
    freq = total / (draws * 4)
    se = np.sqrt(w * (1 - w) / (draws * 4))
    assert np.all(np.abs(freq - w) < 3 * se + 1e-3)
    assert abs(freq @ g - w @ g) < 0.05


def test_weighted_particles_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="sum to 1"):
        WeightedParticles(rng.normal(size=(3, 2)), np.array([0.5, 0.2, 0.2]),
                          0, 0.0, 0.0, 0)
    with pytest.raises(ValueError, match="at least 2"):
        WeightedParticles(rng.normal(size=(1, 2)), np.array([1.0]), 0, 0.0, 0.0, 0)
    with pytest.raises(ValueError, match="non-negative"):
        WeightedParticles(rng.normal(size=(2, 2)), np.array([1.5, -0.5]),
                          0, 0.0, 0.0, 0)


def _mh_sweep(thetas, target, root, rng):
    # mh_move with the target log density as the only cached state
    evaluate = lambda th: (target(th),)
    log_ratio = lambda new, old: new[0] - old[0]
    moved, _, accept = mh_move(thetas, evaluate(thetas), evaluate, log_ratio,
                               root, rng)
    return moved, float(accept.mean())


def test_mh_zero_covariance_accepts_everything():
    p = particles_with_weights(np.full(5, 0.2))
    target = lambda th: -0.5 * (th**2).sum(axis=1)
    out, rate = _mh_sweep(p.thetas, target, np.zeros((2, 2)),
                          np.random.default_rng(1))
    assert rate == 1.0
    np.testing.assert_array_equal(out, p.thetas)
    with pytest.raises(ValueError, match="finite"):
        _mh_sweep(p.thetas, target, np.full((2, 2), np.nan),
                  np.random.default_rng(1))


def test_mh_invariance_gaussian_target():
    # start far away, run repeated sweeps toward N(0, 0.25 I), check moments
    rng = np.random.default_rng(11)
    n, q, s = 500, 2, 0.5
    p = WeightedParticles(rng.normal(loc=4.0, size=(n, q)), np.full(n, 1 / n),
                          0, 0.0, 0.0, 0)
    target = lambda th: -0.5 * (th**2).sum(axis=1) / s**2
    dens_before = target(p.thetas).mean()
    thetas = p.thetas
    rates = []
    for _ in range(300):
        thetas, rate = _mh_sweep(thetas, target,
                                 np.linalg.cholesky(0.6 * s**2 * np.eye(q)), rng)
        rates.append(rate)
    assert target(thetas).mean() > dens_before  # drifted toward the mode
    se_mean = s / np.sqrt(n)
    assert np.all(np.abs(thetas.mean(axis=0)) < 3.5 * se_mean)
    assert abs(thetas.std() - s) < 3.5 * s / np.sqrt(2 * n * q)
    assert 0.05 < np.mean(rates) < 0.95


def scores_of(dy, dc):
    dy = np.asarray(dy, dtype=float)
    return IPWScores(dy, np.asarray(dc, dtype=float))


def test_run_smc_deterministic_and_prefix_property():
    rng = np.random.default_rng(2)
    grid, masses, dy, dc, feats = random_grid_problem(rng, n_units=20,
                                                      grid_size=5, q=2)
    prior = GridMixturePrior(grid, masses)
    s = scores_of(dy, dc)
    full = TemperatureLadder(1.0, (4.0, 32.0))
    cfg = SMCConfig(n_particles=200, seed=31, normalized=False)
    out1 = run_smc(s, feats, prior, full, cfg)
    out2 = run_smc(s, feats, prior, full, cfg)
    np.testing.assert_array_equal(out1[320].thetas, out2[320].thetas)
    np.testing.assert_array_equal(out1[320].weights, out2[320].weights)
    # the ladder built to lambda = 4, full's first 201 steps, ends on the
    # step-200 harvest bit for bit
    cut = build_default_ladder(1.0, 4.0)
    assert cut.steps == full.steps[:201] and cut.rungs == (4.0,)
    out3 = run_smc(s, feats, prior, cut, cfg)
    assert set(out3) == {200}
    np.testing.assert_array_equal(out3[200].thetas, out1[200].thetas)
    np.testing.assert_array_equal(out3[200].weights, out1[200].weights)
    # different seed, different trajectory
    out4 = run_smc(s, feats, prior, cut, SMCConfig(n_particles=200, seed=32,
                                                   normalized=False))
    assert not np.array_equal(out4[200].thetas, out1[200].thetas)


def test_run_smc_matches_grid_posterior():
    rng = np.random.default_rng(7)
    grid, masses, dy, dc, feats = random_grid_problem(rng, n_units=30,
                                                      grid_size=8, q=2)
    prior = GridMixturePrior(grid, masses)
    s = scores_of(dy, dc)
    lam_final, u_final = 4.0, 0.8
    ladder = build_default_ladder(u_final, lam_final)
    cfg = SMCConfig(n_particles=2000, seed=3, normalized=False)
    out = run_smc(s, feats, prior, ladder, cfg)
    cloud = out[ladder.T]

    exact = grid_posterior(grid, masses, lam_final, u_final, s, feats,
                           normalized=False)
    _, k_grid = welfare_cost_matrix(grid, s, feats)
    want_cost = exact @ k_grid
    _, k_smc = welfare_cost_matrix(cloud.thetas, s, feats)
    got_cost = cloud.weights @ k_smc
    tol = 3 / np.sqrt(cfg.n_particles)
    assert abs(got_cost - want_cost) < tol * max(1.0, np.abs(k_grid).max())

    # treat probabilities at a few held-out points
    probe = rng.normal(size=(6, 2))
    dec_grid = (probe @ grid.T > 0).astype(float)
    dec_smc = (probe @ cloud.thetas.T > 0).astype(float)
    for j in range(6):
        want = exact @ dec_grid[j]
        got = cloud.weights @ dec_smc[j]
        assert abs(got - want) < tol


def test_run_smc_weight_normalization_along_ladder():
    rng = np.random.default_rng(4)
    grid, masses, dy, dc, feats = random_grid_problem(rng, n_units=15,
                                                      grid_size=4, q=2)
    prior = GridMixturePrior(grid, masses)
    s = scores_of(dy, dc)
    ladder = TemperatureLadder(0.5, [0.5 * k for k in range(1, 9)])
    out = run_smc(s, feats, prior, ladder, SMCConfig(n_particles=100, seed=1,
                                                     normalized=False))
    assert set(out) == set(range(25, 201, 25))
    for cloud in out.values():
        assert abs(cloud.weights.sum() - 1.0) < 1e-10
        assert cloud.lam == pytest.approx(ladder.steps[cloud.step_index][0])


def test_run_smc_trace_records_stages_without_perturbing_the_run():
    rng = np.random.default_rng(6)
    grid, masses, dy, dc, feats = random_grid_problem(rng, n_units=20,
                                                      grid_size=5, q=2)
    prior = GridMixturePrior(grid, masses)
    s = scores_of(dy, dc)
    ladder = build_default_ladder(0.7, 32.0)
    cfg = SMCConfig(n_particles=80, seed=14, normalized=False)
    plain = run_smc(s, feats, prior, ladder, cfg)
    trace = []
    traced = run_smc(s, feats, prior, ladder, cfg, trace=trace)
    np.testing.assert_array_equal(traced[ladder.T].thetas,
                                  plain[ladder.T].thetas)
    np.testing.assert_array_equal(traced[ladder.T].weights,
                                  plain[ladder.T].weights)
    assert len(trace) == ladder.T
    assert [rec["step"] for rec in trace] == list(range(1, ladder.T + 1))
    for rec in trace:
        assert 1.0 <= rec["ess"] <= 80.0
        assert 0.0 <= rec["acceptance"] <= 1.0
        assert isinstance(rec["resampled"], bool)
    assert trace[-1]["lam"] == 32.0
    assert trace[-1]["u"] == 0.7
    # the trigger rule is an exact restatement of the sampler's
    assert all(rec["resampled"] == (rec["ess"] < TAU_ESS * 80)
               for rec in trace)


def test_run_smc_normalized_variant_requires_mean_score():
    prior = IsotropicNormalPrior(q=1, sigma=1.0)
    s = IPWScores(np.array([1.0, -1.0]), np.zeros(2))
    ladder = build_default_ladder(0.0, 4.0)
    with pytest.raises(ValueError, match="mean welfare score"):
        run_smc(s, np.ones((2, 1)), prior, ladder, SMCConfig(n_particles=10))


def test_smc_config_validation():
    with pytest.raises(ValueError):
        SMCConfig(n_particles=1)
    with pytest.raises(ValueError):
        SMCConfig(mh_steps_per_stage=0)
    with pytest.raises(ValueError):
        SMCConfig(seed=-1)
    with pytest.raises(ValueError, match="below 2"):
        SMCConfig(seed=2**64)
    SMCConfig(seed=2**64 - 1)


def test_cov_matches_numpy_cov_bit_for_bit():
    rng = np.random.default_rng(23)
    shapes = [(2, 1), (2, 3), (5, 1), (500, 6), (1000, 10), (37, 4)]
    for n, q in shapes:
        for scale in (1e-6, 1.0, 1e3):
            x = rng.normal(scale=scale, size=(n, q)) + rng.normal(size=q)
            want = np.atleast_2d(np.cov(x, rowvar=False, ddof=1))
            got = _cov(x)
            assert got.shape == (q, q)
            assert got.tobytes() == want.tobytes()
    # a cloud with repeated rows, as after resampling
    x = rng.normal(size=(40, 3))[rng.integers(0, 40, size=200)]
    assert _cov(x).tobytes() == np.cov(x, rowvar=False, ddof=1).tobytes()


@pytest.mark.parametrize("seed", [0, 2**40 + 3, subseed(5, "probe", 2)])
def test_stage_streams_draw_what_a_fresh_philox_draws(seed):
    streams = _StageStreams(seed)
    # stages out of order and repeated: every reset restarts the stream
    for step in (0, 1, 7, 1, 800, 0):
        got = streams.at(step)
        want = np.random.Generator(np.random.Philox(
            key=np.array([seed, step], dtype=np.uint64)))
        assert got.uniform(0.0, 0.002) == want.uniform(0.0, 0.002)
        np.testing.assert_array_equal(got.standard_normal(size=(33, 5)),
                                      want.standard_normal(size=(33, 5)))
        np.testing.assert_array_equal(got.uniform(size=33),
                                      want.uniform(size=33))
        np.testing.assert_array_equal(got.normal(size=(4, 3)),
                                      want.normal(size=(4, 3)))


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_stage_streams_reject_a_seed_outside_64_bits(seed):
    with pytest.raises(ValueError, match=f"below 2\\^64, got {seed}"):
        _StageStreams(seed)


def test_stage_streams_keep_seeds_above_2_63_apart():
    # both seeds round to the same float64, so a list key would give them
    # the same first key word and hence the same stream at every stage
    a, b = _StageStreams(2**63 + 1), _StageStreams(2**63 + 2)
    for step in (0, 1, 800):
        assert not np.array_equal(a.at(step).uniform(size=8),
                                  b.at(step).uniform(size=8))


@pytest.mark.parametrize("normalized,mh_steps", [(True, 1), (False, 2)])
def test_run_smc_matches_frozen_reference_loop(normalized, mh_steps):
    training = generate(DGPSpec("DGP1", 5, 200)).sample
    fmap = poly_feature_map(2, training.x.shape[1]).fit_normalization(
        training.x)
    scores = ipw_transform(training)
    feats = fmap.transform(training.x)
    prior = IsotropicNormalPrior(q=len(fmap.exponents), sigma=1.0)
    ladder = TemperatureLadder(1.6, (3.0, 256.0))
    seed = subseed(5, "probe", 2)
    assert seed >= 2**63
    cfg = SMCConfig(n_particles=200, seed=seed, normalized=normalized,
                    mh_steps_per_stage=mh_steps)
    trace = []
    got = run_smc(scores, feats, prior, ladder, cfg, trace=trace)
    want, want_trace = reference_run_smc(scores, feats, prior, ladder, cfg)
    assert sum(rec["resampled"] for rec in trace) >= 3
    assert trace == want_trace
    assert set(got) == set(want) == {150, 470}
    for step, (thetas, weights) in want.items():
        assert np.array_equal(got[step].thetas, thetas)
        assert np.array_equal(got[step].weights, weights)


def test_grid_mixture_log_density_matches_its_reference_bit_for_bit():
    rng = np.random.default_rng(88)
    for trial in range(200):
        m, q = int(rng.integers(1, 51)), int(rng.integers(1, 6))
        sigma = (1e-6, 1e-2, 1.0, 10.0)[trial % 4]
        prior = GridMixturePrior(rng.normal(size=(m, q)),
                                 rng.dirichlet(np.ones(m)), sigma=sigma)
        n = int(rng.integers(1, 400))
        thetas = (prior.sample(n, rng)
                  + rng.normal(size=(n, q)) * 10.0 ** rng.integers(-8, 1))
        if trial % 7 == 0:  # exact centers, and ties between components
            thetas[: n // 2] = prior.grid[rng.integers(0, m, n // 2)]
            prior.grid[-1] = prior.grid[0]
        got = prior.log_density(thetas)
        assert got.tobytes() == prior.log_density_reference(thetas).tobytes()


# ---------------------------------------------------------------------------
# the adaptive ladder


def _dgp_problem(n=200, seed=5):
    training = generate(DGPSpec("DGP1", seed, n)).sample
    fmap = poly_feature_map(2, training.x.shape[1]).fit_normalization(
        training.x)
    prior = IsotropicNormalPrior(q=len(fmap.exponents), sigma=1.0)
    return ipw_transform(training), fmap.transform(training.x), prior


def test_adaptive_ladder_validation():
    ladder = AdaptiveLadder(1, [32, 4.0, 32.0])
    assert ladder.rungs == (4.0, 32.0)
    assert ladder.u_final == 1.0
    assert ladder.u_at(2.0) == 0.5 and ladder.u_at(32.0) == 1.0
    # a first rung below 4 ends the u ramp there
    assert AdaptiveLadder(1.0, [2.0, 8.0]).u_at(2.0) == 1.0


def test_adaptive_step_bisects_to_the_cess_target_or_takes_the_rung():
    rng = np.random.default_rng(3)
    n = 300
    w, k = rng.normal(size=n), rng.uniform(size=n)
    log_psi = np.log(rng.dirichlet(np.full(n, 5.0)))
    ladder = AdaptiveLadder(1.0, [4.0, 32.0])
    lam, u = ladder._next(1, 0.0, 0.0, log_psi, w, k)
    assert 0.0 < lam < 4.0 and u == lam / 4.0
    frac = _cess_fraction(log_psi, lam * (w - u * k))
    assert CESS_FRACTION <= frac < CESS_FRACTION + 1e-4
    # increments that barely move the weights go straight to the rung
    assert ladder._next(1, 0.0, 0.0, log_psi, 1e-6 * w, k * 0.0) == (4.0, 1.0)
    assert ladder._next(2, 4.0, 1.0, log_psi, 1e-6 * w, k * 0.0) == (32.0, 1.0)


def test_adaptive_run_hits_every_rung_in_few_stages():
    scores, feats, prior = _dgp_problem()
    ladder = AdaptiveLadder(1.6, [4.0, 32.0, 256.0])
    cfg = SMCConfig(n_particles=200, seed=3, mh_steps_per_stage=5)
    trace = []
    out = run_smc(scores, feats, prior, ladder, cfg, trace=trace)
    assert [c.lam for c in out.values()] == [4.0, 32.0, 256.0]
    assert all(c.u == 1.6 for c in out.values())
    assert [rec["step"] for rec in trace] == list(range(1, len(trace) + 1))
    assert sorted(out) == [rec["step"] for rec in trace
                           if rec["lam"] in ladder.rungs]
    assert trace[-1]["lam"] == 256.0
    lams = [0.0] + [rec["lam"] for rec in trace]
    assert all(b > a for a, b in zip(lams, lams[1:]))
    # far fewer stages than the fixed ladder's 470 to the same rung
    assert len(trace) < 100
    for cloud in out.values():
        assert abs(cloud.weights.sum() - 1.0) < 1e-10


@pytest.mark.parametrize("normalized,mh_steps", [(True, 5), (False, 1)])
def test_adaptive_run_matches_frozen_reference_loop(normalized, mh_steps):
    scores, feats, prior = _dgp_problem()
    ladder = AdaptiveLadder(1.6, [4.0, 32.0, 256.0])
    seed = subseed(5, "probe", 2)
    assert seed >= 2**63
    cfg = SMCConfig(n_particles=200, seed=seed, normalized=normalized,
                    mh_steps_per_stage=mh_steps)
    trace = []
    got = run_smc(scores, feats, prior, ladder, cfg, trace=trace)
    want, want_trace = reference_run_adaptive(scores, feats, prior, ladder,
                                              cfg)
    assert sum(rec["resampled"] for rec in trace) >= 3
    assert trace == want_trace
    assert list(got) == list(want)
    assert [got[step].lam for step in got] == [4.0, 32.0, 256.0]
    for step, (thetas, weights) in want.items():
        assert np.array_equal(got[step].thetas, thetas)
        assert np.array_equal(got[step].weights, weights)


def test_adaptive_run_is_deterministic_and_rung_prefix_reproduces():
    scores, feats, prior = _dgp_problem()
    cfg = SMCConfig(n_particles=150, seed=2**63 + 7, mh_steps_per_stage=3)
    full = run_smc(scores, feats, prior, AdaptiveLadder(0.8, [4.0, 32.0, 256.0]),
                   cfg)
    again = run_smc(scores, feats, prior,
                    AdaptiveLadder(0.8, [4.0, 32.0, 256.0]), cfg)
    cut = run_smc(scores, feats, prior, AdaptiveLadder(0.8, [4.0, 32.0]), cfg)
    assert list(again) == list(full)
    for step in full:
        assert np.array_equal(again[step].thetas, full[step].thetas)
        assert np.array_equal(again[step].weights, full[step].weights)
    assert list(cut) == list(full)[:2]
    for step in cut:
        assert np.array_equal(cut[step].thetas, full[step].thetas)
        assert np.array_equal(cut[step].weights, full[step].weights)


def test_temper_is_the_adaptive_run_keyed_by_rung():
    # temper is one run_smc on the adaptive ladder at MH_STEPS_PER_STAGE
    # sweeps, bit for bit, with its clouds keyed by lambda
    scores, feats, prior = _dgp_problem(n=80, seed=6)
    rungs = [4.0, 32.0, 256.0]
    assert MH_STEPS_PER_STAGE == 5
    last = {}
    for normalized in (True, False):
        trace, want_trace = [], []
        got = temper(scores, feats, prior, 0.7, rungs, 40, 5, normalized,
                     trace=trace)
        want = run_smc(scores, feats, prior, AdaptiveLadder(0.7, rungs),
                       SMCConfig(n_particles=40, seed=5, normalized=normalized,
                                 mh_steps_per_stage=MH_STEPS_PER_STAGE),
                       trace=want_trace)
        assert list(got) == rungs
        for (lam, cloud), ref in zip(got.items(), want.values()):
            assert (cloud.lam, cloud.u) == (lam, 0.7)
            assert cloud.step_index == ref.step_index
            assert np.array_equal(cloud.thetas, ref.thetas)
            assert np.array_equal(cloud.weights, ref.weights)
        # the trace gets one record per stage, as run_smc's does
        assert trace == want_trace
        assert [rec["step"] for rec in trace] == list(range(1, max(want) + 1))
        last[normalized] = got[256.0].thetas
    # normalized=False reaches the config: the raw criterion moves the run
    assert not np.array_equal(last[True], last[False])
    untraced = temper(scores, feats, prior, 0.7, rungs, 40, 5)
    assert np.array_equal(untraced[256.0].thetas, last[True])


def test_adaptive_run_raises_when_lambda_cannot_advance():
    rng = np.random.default_rng(1)
    feats = rng.normal(size=(40, 2))
    # welfare scores so large that any step past 2^-20 of the way to the
    # first rung leaves one particle with all the weight
    s = scores_of(rng.normal(scale=1e15, size=40), np.zeros(40))
    with pytest.raises(RuntimeError, match=r"stalled at step 1 \(lambda=0, u=0\)"):
        run_smc(s, feats, IsotropicNormalPrior(q=2, sigma=1.0),
                AdaptiveLadder(0.0, [4.0]),
                SMCConfig(n_particles=50, seed=0, normalized=False))


@pytest.mark.parametrize("bad_cov, message", [
    (lambda q: np.full((q, q), np.nan), "not finite"),
    (lambda q: -np.eye(q), "not positive definite"),
])
@pytest.mark.parametrize("adaptive", [False, True])
def test_bad_proposal_covariance_fails_naming_the_stage(monkeypatch, bad_cov,
                                                        message, adaptive):
    # the covariance is factored once per stage, and a failure there is a
    # run failure (RuntimeError) that names the stage, lambda and u
    import pbpolicy.smc as smc_mod

    rng = np.random.default_rng(4)
    feats = rng.normal(size=(30, 2))
    s = scores_of(rng.normal(size=30) + 1.0, rng.uniform(size=30))
    monkeypatch.setattr(smc_mod, "_cov", lambda thetas: bad_cov(2))
    ladder = (AdaptiveLadder(0.5, [4.0]) if adaptive
              else build_default_ladder(0.5, 4.0))
    with pytest.raises(RuntimeError,
                       match=rf"{message} at step 1 \(lambda=[0-9.e+-]+, "
                             rf"u=[0-9.e+-]+\)"):
        run_smc(s, feats, IsotropicNormalPrior(q=2, sigma=1.0), ladder,
                SMCConfig(n_particles=20, seed=0))


def test_adaptive_posterior_means_agree_with_the_fixed_ladder_across_seeds():
    # rung posterior means of welfare and cost over 10 seeds: the adaptive
    # ladder's agree with the fixed ladder's within 3 pooled standard errors
    scores, feats, prior = _dgp_problem()
    rungs = (4.0, 32.0, 256.0, 1024.0)
    seeds = range(10)

    def means(cloud):
        w, k = welfare_cost_matrix(cloud.thetas, scores, feats)
        return cloud.weights @ w, cloud.weights @ k

    for u in (0.0, 1.0, 2.0):
        fixed = TemperatureLadder(u, rungs)
        got = {"fixed": [], "adaptive": []}
        for seed in seeds:
            out = run_smc(scores, feats, prior, fixed,
                          SMCConfig(n_particles=200, seed=seed))
            got["fixed"].append([means(out[t]) for t in (200, 320, 470, 800)])
            out = run_smc(scores, feats, prior, AdaptiveLadder(u, rungs),
                          SMCConfig(n_particles=200, seed=seed,
                                    mh_steps_per_stage=5))
            got["adaptive"].append([means(c) for c in out.values()])
        fixed_m, adaptive_m = (np.array(got[k]) for k in ("fixed", "adaptive"))
        se = np.sqrt((fixed_m.var(axis=0, ddof=1)
                      + adaptive_m.var(axis=0, ddof=1)) / len(seeds))
        gap = np.abs(fixed_m.mean(axis=0) - adaptive_m.mean(axis=0))
        assert np.all(gap <= 3.0 * se), (u, gap / se)
