"""Tests for exponential weighting on finite grids and the budget map."""

import math

import numpy as np
import pytest

from pbpolicy.data import IPWScores
from pbpolicy.gibbs import (
    GibbsParams,
    InfeasibleBudgetError,
    IsotropicNormalPrior,
    empirical_budget_curve,
    grid_cost_evaluator,
    grid_kl,
    grid_posterior,
    solve_u_hat,
    tilted_cost_evaluator,
    tilted_weights,
    welfare_cost_matrix,
)
from pbpolicy.gibbs import _blocks, _logsumexp


def scores_of(dy, dc):
    dy = np.asarray(dy, dtype=float)
    return IPWScores(dy, np.asarray(dc, dtype=float), float(dy.mean()))


def test_log_score_hand_values():
    # one unit with feature 1: theta=1 treats it (W_n = dy, K_n = dc) and
    # theta=-1 does not (W_n = K_n = 0, so its log score is 0 whatever the
    # parameters); under a uniform prior the log-weight gap of the two-rule
    # posterior is therefore theta=1's log score -lambda (u K_n - W_n)
    feats = np.array([[1.0]])
    grid = np.array([[1.0], [-1.0]])
    for dy, dc, lam, u, want in ((1.0, 0.0, 1.0, 0.0, 1.0),
                                 (1.0, 2.0, 2.0, 0.5, 0.0),
                                 (1.0, 2.0, 2.0, 1.0, -2.0)):
        post = grid_posterior(grid, [0.5, 0.5],
                              GibbsParams(lam, u, normalized=False),
                              scores_of([dy], [dc]), feats)
        assert post.log_weights[0] - post.log_weights[1] == \
            pytest.approx(want)


def test_two_point_softmax():
    feats = np.array([[1.0]])
    s = scores_of([1.0], [0.0])
    grid = np.array([[1.0], [-1.0]])  # W_n = (1, 0)
    post = grid_posterior(grid, [0.5, 0.5], GibbsParams(1.0, 0.0, normalized=False),
                          s, feats)
    np.testing.assert_allclose(
        post.probs, [0.7310585786300049, 0.2689414213699951], rtol=1e-14)
    assert abs(post.probs.sum() - 1.0) < 1e-12


def test_equal_scores_recover_prior():
    feats = np.array([[1.0]])
    s = scores_of([0.0], [0.0])
    grid = np.array([[1.0], [-1.0], [2.0]])
    pm = [0.2, 0.5, 0.3]
    post = grid_posterior(grid, pm, GibbsParams(37.0, 1.3, normalized=False), s, feats)
    np.testing.assert_allclose(post.probs, pm, rtol=1e-14)


def test_large_u_concentrates_on_cheapest_rule():
    # three rules with costs 0, 1, 2 and equal welfare
    feats = np.eye(3)
    s = scores_of([0.0, 0.0, 0.0], [3.0, 3.0, 6.0])
    grid = np.array([
        [-1.0, -1.0, -1.0],   # treats nobody: K = 0
        [1.0, -1.0, -1.0],    # treats unit 1: K = 1
        [1.0, 1.0, -1.0],     # treats units 1, 2: K = 2
    ])
    post = grid_posterior(grid, np.full(3, 1 / 3),
                          GibbsParams(1.0, 1e3, normalized=False), s, feats)
    assert post.probs[0] > 1 - 1e-12
    w, k = welfare_cost_matrix(grid, s, feats)
    np.testing.assert_allclose(k, [0.0, 1.0, 2.0])
    np.testing.assert_allclose(w, 0.0)


def logistic_problem():
    # two rules, W_n = (0, 0), K_n = (0, 1): posterior cost is 1/(1+e^{lam u})
    feats = np.array([[1.0]])
    s = scores_of([0.0], [1.0])
    grid = np.array([[-1.0], [1.0]])
    return grid_cost_evaluator(grid, [0.5, 0.5], s, feats, normalized=False)


def test_budget_curve_logistic_values():
    ev = logistic_problem()
    curve = empirical_budget_curve([0.0, 0.5, 1.0, 2.0], 1.0, ev)
    want = [0.5, 0.3775406687981454, 0.2689414213699951, 0.11920292202211755]
    for (u, val), w in zip(curve, want):
        assert val == pytest.approx(w, rel=1e-14)


def test_budget_curve_rejects_unsorted_grid():
    ev = logistic_problem()
    with pytest.raises(ValueError, match="ascending"):
        empirical_budget_curve([0.5, 0.2], 1.0, ev)


def test_u_hat_logistic_root():
    ev = logistic_problem()
    u_hat = solve_u_hat(0.25, 1.0, ev, tolerance=1e-13)
    assert u_hat == pytest.approx(1.0986122886681098, abs=1e-9)
    # slack budget: unpenalized cost 0.5 <= 0.6
    assert solve_u_hat(0.6, 1.0, ev) == 0.0


def test_u_hat_infeasible_budget():
    ev = logistic_problem()
    with pytest.raises(InfeasibleBudgetError):
        solve_u_hat(-0.5, 1.0, ev)  # below the min cost on the grid


def test_u_hat_stops_once_a_jump_collapses_the_bracket():
    # the cost jumps from 0.6 to 0.4 across the budget 0.5 at u = 1.1, so no
    # penalty meets any tolerance: bisection must stop when it cannot split
    calls = []

    def step(lam, u):
        calls.append(u)
        return 0.6 if u < 1.1 else 0.4

    with pytest.raises(RuntimeError, match=r"bracket \[1\.0999") as caught:
        solve_u_hat(0.5, 1.0, step, tolerance=1e-3)
    assert "0.6" in str(caught.value) and "0.4" in str(caught.value)
    assert len(calls) <= 60
    assert len(set(calls)) == len(calls)


def test_tilted_weights_at_the_harvest_penalty_are_the_harvest():
    rng = np.random.default_rng(5)
    w = rng.dirichlet(np.ones(30))
    k = rng.normal(size=30)
    s = scores_of(rng.normal(size=8) + 1.0, rng.normal(size=8))
    for normalized in (True, False):
        got = tilted_weights(w, k, 4.0, 0.7, 0.7, s, normalized)
        assert got.tobytes() == w.tobytes()
        assert got is not w


def test_tilted_cost_curve_strictly_decreasing_on_random_clouds():
    rng = np.random.default_rng(31)
    for trial in range(20):
        n = int(rng.integers(2, 400))
        w = rng.dirichlet(np.ones(n) * rng.uniform(0.1, 5.0))
        k = rng.uniform(size=n)
        s = scores_of(rng.normal(size=20) + 1.0, rng.normal(size=20))
        u_from = float(rng.uniform(0.0, 3.0))
        curve = tilted_cost_evaluator(w, k, 8.0, u_from, s, normalized=False)
        vals = np.array([curve(8.0, u) for u in np.linspace(0.0, 3.0, 25)])
        assert np.all(np.diff(vals) < 0.0)
        # bounded by the extreme members it reweights
        assert vals.max() <= k.max() and vals.min() >= k.min()


def test_tilted_cost_evaluator_answers_only_at_its_lambda():
    s = scores_of([1.0, 2.0], [0.5, 0.5])
    curve = tilted_cost_evaluator([0.5, 0.5], [0.1, 0.2], 4.0, 0.0, s)
    with pytest.raises(ValueError, match="lambda=4"):
        curve(8.0, 1.0)


@pytest.mark.parametrize("normalized", [False, True])
def test_tilting_the_exact_posterior_matches_the_grid_curve(normalized):
    rng = np.random.default_rng(47)
    for _ in range(10):
        n, m, q = 40, 15, 3
        s = scores_of(rng.normal(size=n) + 1.0, rng.normal(size=n) + 0.5)
        feats = rng.normal(size=(n, q))
        grid = rng.normal(size=(m, q))
        pm = rng.dirichlet(np.ones(m))
        lam, u_from = 4.0, float(rng.uniform(0.0, 2.0))
        post = grid_posterior(grid, pm, GibbsParams(lam, u_from, normalized),
                              s, feats)
        _, k = welfare_cost_matrix(grid, s, feats)
        exact = grid_cost_evaluator(grid, pm, s, feats, normalized=normalized)
        tilted = tilted_cost_evaluator(post.probs, k, lam, u_from, s,
                                       normalized=normalized)
        for u in (0.0, 0.5 * u_from, u_from, u_from + 0.3, 3.0, 7.5):
            assert abs(tilted(lam, u) - exact(lam, u)) <= 1e-12
            want = grid_posterior(grid, pm, GibbsParams(lam, u, normalized),
                                  s, feats).probs
            got = tilted_weights(post.probs, k, lam, u_from, u, s, normalized)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-15)


def test_budget_curve_strictly_decreasing_on_random_grids():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n, m, q = 40, 12, 3
        s = scores_of(rng.normal(size=n), rng.normal(size=n) + 0.5)
        feats = rng.normal(size=(n, q))
        grid = rng.normal(size=(m, q))
        pm = rng.dirichlet(np.ones(m))
        ev = grid_cost_evaluator(grid, pm, s, feats, normalized=False)
        us = np.linspace(0.0, 4.0, 9)
        vals = [ev(2.0, u) for u in us]
        _, k = welfare_cost_matrix(grid, s, feats)
        if np.ptp(k) < 1e-12:
            continue  # degenerate cost, curve is flat
        for a, b in zip(vals, vals[1:]):
            assert a - b > 1e-12


def test_normalized_variant_matches_rescaled_raw():
    rng = np.random.default_rng(5)
    n, m, q = 30, 8, 3
    dy = rng.normal(size=n) + 1.0
    s = scores_of(dy, rng.normal(size=n))
    assert s.mean_delta_y != 0
    feats = rng.normal(size=(n, q))
    grid = rng.normal(size=(m, q))
    pm = rng.dirichlet(np.ones(m))
    lam, u = 3.0, 0.7
    post_norm = grid_posterior(grid, pm, GibbsParams(lam, u, normalized=True),
                               s, feats)
    post_raw = grid_posterior(grid, pm,
                              GibbsParams(lam / s.mean_delta_y, u, normalized=False),
                              s, feats)
    np.testing.assert_allclose(post_norm.probs, post_raw.probs, rtol=1e-12)


def test_normalized_variant_requires_nonzero_mean_score():
    s = IPWScores(np.array([1.0, -1.0]), np.array([0.0, 0.0]), 0.0)
    feats = np.array([[1.0], [1.0]])
    with pytest.raises(ValueError, match="mean welfare score"):
        grid_posterior(np.array([[1.0], [-1.0]]), [0.5, 0.5],
                       GibbsParams(1.0, 0.0, normalized=True), s, feats)


def test_minimizer_property_small_grid():
    # the posterior minimizes E_rho[R_n] + KL(rho, prior)/lam among
    # distributions whose expected cost does not exceed its own
    rng = np.random.default_rng(41)
    n, m, q = 25, 6, 2
    s = scores_of(rng.normal(size=n), rng.normal(size=n))
    feats = rng.normal(size=(n, q))
    grid = rng.normal(size=(m, q))
    pm = rng.dirichlet(np.ones(m))
    lam, u = 4.0, 0.8
    post = grid_posterior(grid, pm, GibbsParams(lam, u, normalized=False), s, feats)
    w, k = welfare_cost_matrix(grid, s, feats)
    budget = post.expectation(k)
    best = -post.expectation(w) + grid_kl(post.probs, pm) / lam
    for _ in range(200):
        rho = rng.dirichlet(np.ones(m))
        if rho @ k > budget + 1e-12:
            continue
        other = -(rho @ w) + grid_kl(rho, pm) / lam
        assert other >= best - 1e-10


def test_params_validation():
    with pytest.raises(ValueError):
        GibbsParams(0.0, 0.0)
    with pytest.raises(ValueError):
        GibbsParams(1.0, -0.1)
    GibbsParams(1.0, 0.0)


def test_prior_mass_validation():
    feats = np.array([[1.0]])
    s = scores_of([1.0], [0.0])
    grid = np.array([[1.0], [-1.0]])
    with pytest.raises(ValueError, match="positive"):
        grid_posterior(grid, [1.0, 0.0], GibbsParams(1.0, 0.0), s, feats)
    with pytest.raises(ValueError, match="sum to 1"):
        grid_posterior(grid, [0.9, 0.3], GibbsParams(1.0, 0.0), s, feats)
    with pytest.raises(ValueError, match="aligned"):
        grid_posterior(grid, [1.0], GibbsParams(1.0, 0.0), s, feats)


def test_isotropic_prior():
    prior = IsotropicNormalPrior(q=3, sigma=2.0)
    rng = np.random.default_rng(0)
    draws = prior.sample(5000, rng)
    assert draws.shape == (5000, 3)
    assert abs(draws.std() - 2.0) < 0.05
    theta = np.array([[1.0, -1.0, 0.5]])
    want = (-1.5 * math.log(2 * math.pi * 4.0) - (1 + 1 + 0.25) / 8.0)
    assert prior.log_density(theta)[0] == pytest.approx(want)
    with pytest.raises(ValueError):
        IsotropicNormalPrior(q=0, sigma=1.0)
    with pytest.raises(ValueError):
        IsotropicNormalPrior(q=2, sigma=0.0)


def test_grid_kl_basics():
    p = np.array([0.5, 0.5, 0.0])
    q = np.array([0.25, 0.25, 0.5])
    assert grid_kl(p, p) == pytest.approx(0.0)
    assert grid_kl(p, q) == pytest.approx(math.log(2.0))


def test_logsumexp_matches_scipy_bit_for_bit():
    from scipy.special import logsumexp as scipy_logsumexp

    rng = np.random.default_rng(17)
    cases = [np.array([-np.inf, -np.inf]), np.array([-np.inf]),
             np.array([3.0, 3.0, 3.0]), np.array([-np.inf, 2.0, 2.0]),
             np.array([np.inf, 1.0]), np.array([np.nan, 1.0])]
    for _ in range(4000):
        n = int(rng.integers(1, 1200))
        a = rng.normal(loc=rng.normal(scale=100.0),
                       scale=10.0 ** rng.uniform(-3, 4), size=n)
        kind = int(rng.integers(4))
        if kind == 1:  # ties at the maximum
            a[rng.integers(0, n, size=int(rng.integers(1, n + 1)))] = a.max()
        elif kind == 2:  # vanished entries
            a[rng.random(n) < rng.uniform()] = -np.inf
        elif kind == 3:  # both
            a[rng.random(n) < 0.5] = -np.inf
            a[rng.integers(0, n, size=3)] = 7.5
        cases.append(a)
    for a in cases:
        got, want = _logsumexp(a), scipy_logsumexp(a)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), a
    # run_smc raises on vanished weights because this is not finite
    assert _logsumexp(np.full(5, -np.inf)) == -np.inf


def _block_width(size_of_other):
    # particles per block of the kernel for this many units
    return _blocks(2**20, size_of_other)[0].stop


@pytest.mark.parametrize("n", [1, 7, 250, 1000])
def test_blocked_kernel_equals_the_one_shot_product(n):
    rng = np.random.default_rng(n)
    b = _block_width(n)
    assert b % 8 == 0
    for m in (1, b - 1, b, b + 1, 3 * b + 5):
        q = int(rng.integers(1, 11))
        feats = rng.normal(size=(n, q))
        thetas = rng.normal(size=(m, q))
        thetas[::5] = 0.0  # margins of exactly zero do not treat
        s = scores_of(rng.normal(size=n), rng.normal(size=n))
        dec = (feats @ thetas.T > 0.0).astype(float)
        w, k = welfare_cost_matrix(thetas, s, feats)
        assert w.tobytes() == ((s.delta_y @ dec) / n).tobytes()
        assert k.tobytes() == ((s.delta_c @ dec) / n).tobytes()


def test_blocks_cover_the_range_in_aligned_steps():
    for size, other in ((0, 10), (5, 10), (1000, 1000), (1003, 1000),
                        (1009, 1000), (10**6, 3)):
        blocks = _blocks(size, other)
        assert [i for b in blocks for i in range(b.start, b.stop)] \
            == list(range(size))
        assert all(b.start % 8 == 0 for b in blocks)
        assert all((b.stop - b.start) % 8 == 0 for b in blocks[:-1])
        if len(blocks) > 1:
            assert blocks[-1].stop - blocks[-1].start >= 8
