"""Tests for exponential weighting on finite grids and the budget map."""

import math
import os
import select
import signal
import sys
import threading

import numpy as np
import pytest

from pbpolicy import gibbs
from pbpolicy.data import IPWScores, WeightedParticles
from pbpolicy.gibbs import (
    InfeasibleBudgetError,
    IsotropicNormalPrior,
    grid_kl,
    grid_posterior,
    solve_u_hat,
    tilted_weights,
    welfare_cost_matrix,
)
from pbpolicy.gibbs import _block_decisions, _blocks, _logsumexp
from pbpolicy.rules import _weighted_votes


def scores_of(dy, dc):
    dy = np.asarray(dy, dtype=float)
    return IPWScores(dy, np.asarray(dc, dtype=float))


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
        probs = grid_posterior(grid, [0.5, 0.5], lam, u,
                               scores_of([dy], [dc]), feats, normalized=False)
        assert math.log(probs[0]) - math.log(probs[1]) == pytest.approx(want)


def test_two_point_softmax():
    feats = np.array([[1.0]])
    s = scores_of([1.0], [0.0])
    grid = np.array([[1.0], [-1.0]])  # W_n = (1, 0)
    probs = grid_posterior(grid, [0.5, 0.5], 1.0, 0.0, s, feats,
                           normalized=False)
    np.testing.assert_allclose(
        probs, [0.7310585786300049, 0.2689414213699951], rtol=1e-14)
    assert abs(probs.sum() - 1.0) < 1e-12


def test_equal_scores_recover_prior():
    feats = np.array([[1.0]])
    s = scores_of([0.0], [0.0])
    grid = np.array([[1.0], [-1.0], [2.0]])
    pm = [0.2, 0.5, 0.3]
    probs = grid_posterior(grid, pm, 37.0, 1.3, s, feats, normalized=False)
    np.testing.assert_allclose(probs, pm, rtol=1e-14)


def test_large_u_concentrates_on_cheapest_rule():
    # three rules with costs 0, 1, 2 and equal welfare
    feats = np.eye(3)
    s = scores_of([0.0, 0.0, 0.0], [3.0, 3.0, 6.0])
    grid = np.array([
        [-1.0, -1.0, -1.0],   # treats nobody: K = 0
        [1.0, -1.0, -1.0],    # treats unit 1: K = 1
        [1.0, 1.0, -1.0],     # treats units 1, 2: K = 2
    ])
    probs = grid_posterior(grid, np.full(3, 1 / 3), 1.0, 1e3, s, feats,
                           normalized=False)
    assert probs[0] > 1 - 1e-12
    w, k = welfare_cost_matrix(grid, s, feats)
    np.testing.assert_allclose(k, [0.0, 1.0, 2.0])
    np.testing.assert_allclose(w, 0.0)


def logistic_problem():
    # two rules, W_n = (0, 0), K_n = (0, 1): posterior cost is 1/(1+e^{lam u})
    feats = np.array([[1.0]])
    s = scores_of([0.0], [1.0])
    grid = np.array([[-1.0], [1.0]])
    _, k = welfare_cost_matrix(grid, s, feats)
    return lambda lam, u: float(grid_posterior(
        grid, [0.5, 0.5], lam, u, s, feats, normalized=False) @ k)


def test_budget_curve_logistic_values():
    ev = logistic_problem()
    want = [0.5, 0.3775406687981454, 0.2689414213699951, 0.11920292202211755]
    for u, w in zip([0.0, 0.5, 1.0, 2.0], want):
        assert ev(1.0, u) == pytest.approx(w, rel=1e-14)


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


@pytest.mark.parametrize("budget", [math.nan, math.inf, -math.inf])
def test_u_hat_rejects_a_budget_that_is_not_finite(budget):
    calls = []

    def ev(lam, u):
        calls.append(u)
        return 1.0 / (1.0 + u)

    with pytest.raises(ValueError, match=f"budget must be a finite number, "
                                         f"got {budget!r}"):
        solve_u_hat(budget, 1.0, ev)
    assert calls == []


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
        vals = np.array([tilted_weights(w, k, 8.0, u_from, u, s,
                                        normalized=False) @ k
                         for u in np.linspace(0.0, 3.0, 25)])
        assert np.all(np.diff(vals) < 0.0)
        # bounded by the extreme members it reweights
        assert vals.max() <= k.max() and vals.min() >= k.min()


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
        probs = grid_posterior(grid, pm, lam, u_from, s, feats, normalized)
        _, k = welfare_cost_matrix(grid, s, feats)
        for u in (0.0, 0.5 * u_from, u_from, u_from + 0.3, 3.0, 7.5):
            got = tilted_weights(probs, k, lam, u_from, u, s, normalized)
            want = grid_posterior(grid, pm, lam, u, s, feats, normalized)
            assert abs(got @ k - want @ k) <= 1e-12
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-15)


def test_budget_curve_strictly_decreasing_on_random_grids():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n, m, q = 40, 12, 3
        s = scores_of(rng.normal(size=n), rng.normal(size=n) + 0.5)
        feats = rng.normal(size=(n, q))
        grid = rng.normal(size=(m, q))
        pm = rng.dirichlet(np.ones(m))
        _, k = welfare_cost_matrix(grid, s, feats)
        us = np.linspace(0.0, 4.0, 9)
        vals = [grid_posterior(grid, pm, 2.0, u, s, feats,
                               normalized=False) @ k for u in us]
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
    probs_norm = grid_posterior(grid, pm, lam, u, s, feats, normalized=True)
    probs_raw = grid_posterior(grid, pm, lam / s.mean_delta_y, u, s, feats,
                               normalized=False)
    np.testing.assert_allclose(probs_norm, probs_raw, rtol=1e-12)


def test_normalized_variant_requires_nonzero_mean_score():
    s = IPWScores(np.array([1.0, -1.0]), np.array([0.0, 0.0]))
    feats = np.array([[1.0], [1.0]])
    with pytest.raises(ValueError, match="mean welfare score"):
        grid_posterior(np.array([[1.0], [-1.0]]), [0.5, 0.5], 1.0, 0.0, s,
                       feats, normalized=True)


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
    probs = grid_posterior(grid, pm, lam, u, s, feats, normalized=False)
    w, k = welfare_cost_matrix(grid, s, feats)
    budget = probs @ k
    best = -(probs @ w) + grid_kl(probs, pm) / lam
    for _ in range(200):
        rho = rng.dirichlet(np.ones(m))
        if rho @ k > budget + 1e-12:
            continue
        other = -(rho @ w) + grid_kl(rho, pm) / lam
        assert other >= best - 1e-10


def test_params_validation():
    feats = np.array([[1.0]])
    s = scores_of([1.0], [1.0])
    grid = np.array([[1.0], [-1.0]])
    for normalized in (True, False):
        for lam in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="lam must be positive"):
                grid_posterior(grid, [0.5, 0.5], lam, 0.0, s, feats, normalized)
            # at u == u_from too, where the weights come back unchanged
            for u in (0.5, 0.0):
                with pytest.raises(ValueError, match="lam must be positive"):
                    tilted_weights([0.5, 0.5], [1.0, 0.0], lam, 0.0, u, s,
                                   normalized)
        with pytest.raises(ValueError, match="u must be non-negative"):
            grid_posterior(grid, [0.5, 0.5], 1.0, -0.1, s, feats, normalized)
        assert grid_posterior(grid, [0.5, 0.5], 1.0, 0.0, s, feats,
                              normalized).shape == (2,)


def test_misaligned_scores_and_features_are_rejected():
    s = scores_of([1.0, 2.0, 3.0], [0.5, 0.5, 0.5])
    with pytest.raises(ValueError, match="scores and features have "
                                         "mismatched lengths"):
        welfare_cost_matrix(np.ones((4, 2)), s, np.ones((2, 2)))


@pytest.mark.parametrize("grid", [[], np.empty((0, 1))])
def test_empty_grid_is_named(grid):
    s = scores_of([1.0], [1.0])
    with pytest.raises(ValueError, match="grid is empty"):
        grid_posterior(grid, [], 1.0, 0.0, s, np.array([[1.0]]))


def test_prior_mass_validation():
    feats = np.array([[1.0]])
    s = scores_of([1.0], [0.0])
    grid = np.array([[1.0], [-1.0]])
    with pytest.raises(ValueError, match="positive"):
        grid_posterior(grid, [1.0, 0.0], 1.0, 0.0, s, feats)
    with pytest.raises(ValueError, match="sum to 1"):
        grid_posterior(grid, [0.9, 0.3], 1.0, 0.0, s, feats)
    with pytest.raises(ValueError, match="aligned"):
        grid_posterior(grid, [1.0], 1.0, 0.0, s, feats)


def test_nan_penalty_and_prior_masses_are_rejected():
    feats = np.array([[1.0]])
    s = scores_of([1.0], [0.0])
    grid = np.array([[1.0], [-1.0]])
    with pytest.raises(ValueError, match="u must be non-negative"):
        grid_posterior(grid, [0.5, 0.5], 1.0, np.nan, s, feats)
    with pytest.raises(ValueError, match="positive"):
        grid_posterior(grid, [np.nan, 0.5], 1.0, 0.0, s, feats)


@pytest.mark.parametrize("bad", [math.nan, -3.0, -1e-300, math.inf])
def test_a_negative_or_non_finite_penalty_is_rejected(bad):
    s = scores_of([1.0, 2.0], [1.0, 0.0])
    for normalized in (True, False):
        with pytest.raises(ValueError,
                           match=f"^u must be non-negative, got {bad}$"):
            grid_posterior(np.array([[1.0], [-1.0]]), [0.5, 0.5], 1.0, bad,
                           s, np.array([[1.0], [1.0]]), normalized)
        with pytest.raises(ValueError,
                           match=f"^u must be non-negative, got {bad}$"):
            tilted_weights([0.5, 0.5], [1.0, 0.0], 1.0, 0.0, bad, s,
                           normalized)
        with pytest.raises(ValueError,
                           match=f"^u_from must be non-negative, got {bad}$"):
            tilted_weights([0.5, 0.5], [1.0, 0.0], 1.0, bad, 0.5, s,
                           normalized)
        # u == u_from returns the weights unchanged, but not for a bad value
        with pytest.raises(ValueError, match="must be non-negative"):
            tilted_weights([0.5, 0.5], [1.0, 0.0], 1.0, bad, bad, s,
                           normalized)


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


@pytest.mark.parametrize("n", [4003, 20003])
@pytest.mark.parametrize("m", [250, 1000])
def test_blocked_votes_equal_a_one_shot_product_big_enough_to_thread(n, m):
    # OpenBLAS would split a one-shot product this big across threads, and
    # at a row count that is not a multiple of 4 its sums would then differ
    # from the blocks'; importing gibbs keeps it on one thread
    rng = np.random.default_rng(n + m)
    feats = rng.normal(size=(n, 6))
    thetas = rng.normal(size=(m, 6))
    weights = rng.dirichlet(np.ones(m))
    got = _block_decisions(thetas, feats, True, (weights,))[0]
    want = (feats @ thetas.T > 0.0).astype(float) @ weights
    assert got.tobytes() == want.tobytes()


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


# ---------------------------------------------------------------------------
# the kernel's blocks on two threads

TWO_CPUS = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2 if hasattr(os, "sched_getaffinity")
    else (os.cpu_count() or 1) < 2,
    reason="the kernel's helper thread runs only where two CPUs are allowed")

# units x particles: one block of rules but two of units, both kinds of
# many blocks with a remainder, a matrix too narrow to split, and one
# block just above and just below 2^16 entries and the entries at which it
# is cut in two
_SPLIT_UNITS = gibbs._SPLIT_ELEMENTS // 256
KERNEL_SHAPES = [(250, 500), (1000, 250), (1003, 1000), (1009, 7),
                 (20003, 1000), (257, 256), (255, 256),
                 (_SPLIT_UNITS + 1, 256), (_SPLIT_UNITS - 1, 256)]


def _kernel_bytes(n, m):
    rng = np.random.default_rng(n * 7 + m)
    feats = rng.normal(size=(n, 6))
    thetas = rng.normal(size=(m, 6))
    thetas[::9] = 0.0  # margins of exactly zero do not treat
    s = scores_of(rng.normal(size=n), rng.normal(size=n))
    cloud = WeightedParticles(thetas, rng.dirichlet(np.ones(m)), 0, 1.0,
                              0.0, 0)
    w, k = welfare_cost_matrix(thetas, s, feats)
    return w.tobytes() + k.tobytes(), _weighted_votes(feats, cloud).tobytes()


def _one_thread_bytes(monkeypatch, shapes):
    """_kernel_bytes of each shape with the kernel on the caller's thread;
    the helper state is restored afterwards."""
    with monkeypatch.context() as one:
        one.setattr(gibbs, "_helper", False)
        return [_kernel_bytes(n, m) for n, m in shapes]


@pytest.mark.parametrize("n, m", KERNEL_SHAPES)
def test_two_kernel_threads_give_the_bytes_of_one(monkeypatch, n, m):
    assert _kernel_bytes(n, m) == _one_thread_bytes(monkeypatch, [(n, m)])[0]


def _walk_threads(monkeypatch, n, m, by_units, fail=None, ran=None):
    """{(start, stop): thread ident} of the blocks of one kernel walk over
    an (n, m) matrix, read off each block's decision product (numpy.matmul,
    which gibbs calls by attribute) into ran; the block fail raises."""
    rng = np.random.default_rng(5)
    thetas, feats = rng.normal(size=(m, 3)), rng.normal(size=(n, 3))
    whole = feats if by_units else thetas
    matmul, ran = np.matmul, {} if ran is None else ran

    def probe(a, b, **kwargs):
        part = a if by_units else b.T
        start = (part.ctypes.data - whole.ctypes.data) // whole.strides[0]
        block = (start, start + part.shape[0])
        ran[block] = threading.get_ident()
        if block == fail:
            raise ArithmeticError("the helper's block failed")
        return matmul(a, b, **kwargs)

    with monkeypatch.context() as patched:
        patched.setattr(np, "matmul", probe)
        _block_decisions(thetas, feats, by_units, (np.ones(m if by_units
                                                           else n),))
    return ran


@TWO_CPUS
def test_the_helper_walks_the_second_half_of_the_blocks(monkeypatch):
    for by_units in (True, False):
        ran = _walk_threads(monkeypatch, 1003, 1000, by_units)
        blocks = sorted(ran)
        assert blocks == [(b.start, b.stop) for b in _blocks(
            1003 if by_units else 1000, 1000 if by_units else 1003)]
        cut = (len(blocks) + 1) // 2
        assert {ran[b] for b in blocks[:cut]} == {threading.get_ident()}
        assert threading.get_ident() not in {ran[b] for b in blocks[cut:]}
    # one block is cut into two 8-aligned halves from _SPLIT_ELEMENTS on
    for by_units in (True, False):
        above = sorted(_walk_threads(monkeypatch, _SPLIT_UNITS + 1, 256,
                                     by_units))
        size = _SPLIT_UNITS + 1 if by_units else 256
        half = size // 16 * 8
        assert above == [(0, half), (half, size)]
        assert len(_walk_threads(monkeypatch, _SPLIT_UNITS - 1, 256,
                                 by_units)) == 1


def test_one_kernel_thread_walks_every_block_itself(monkeypatch):
    monkeypatch.setattr(gibbs, "_helper", False)
    ran = _walk_threads(monkeypatch, 1003, 1000, True)
    assert len(ran) > 1
    assert set(ran.values()) == {threading.get_ident()}
    assert len(_walk_threads(monkeypatch, _SPLIT_UNITS + 1, 256, True)) == 1


@TWO_CPUS
def test_an_exception_in_the_helpers_half_reaches_the_caller(monkeypatch):
    last = _blocks(1003, 1000)[-1]
    ran = {}
    with pytest.raises(ArithmeticError, match="helper's block failed"):
        _walk_threads(monkeypatch, 1003, 1000, True,
                      fail=(last.start, last.stop), ran=ran)
    assert ran[(last.start, last.stop)] != threading.get_ident()
    # the helper survives, and the next call is whole
    rng = np.random.default_rng(8)
    feats, thetas = rng.normal(size=(1003, 4)), rng.normal(size=(1000, 4))
    s = scores_of(rng.normal(size=1003), rng.normal(size=1003))
    dec = (feats @ thetas.T > 0.0).astype(float)
    w, _ = welfare_cost_matrix(thetas, s, feats)
    assert w.tobytes() == ((s.delta_y @ dec) / 1003).tobytes()


def test_callers_on_many_threads_share_the_helper(monkeypatch):
    # more calling threads than cores hand their halves to the one helper at
    # once; each call must still get its own bytes
    shapes = [(1003, 1000), (250, 500), (20003, 100), (1000, 250)]
    want = _one_thread_bytes(monkeypatch, shapes)
    wrong = []

    def call(i):
        for _ in range(10):
            if _kernel_bytes(*shapes[i]) != want[i]:
                wrong.append(shapes[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=call, args=(i,))
                   for i in range(len(shapes))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


@TWO_CPUS
def test_a_helper_that_cannot_start_leaves_the_kernel_on_one_thread(
        monkeypatch):
    want = _one_thread_bytes(monkeypatch, [(1003, 1000), (250, 500)])
    attempts = []

    def refuse(thread):
        attempts.append(thread.name)
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(gibbs, "_helper", None)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert [_kernel_bytes(1003, 1000), _kernel_bytes(250, 500)] == want
    assert attempts == ["pbpolicy-kernel"]
    assert gibbs._helper is False


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_computes_the_same_bytes():
    # the parent's helper is running when it forks; the child must start
    # its own rather than wait on a thread that was not copied
    want = _kernel_bytes(1003, 1000)
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child
        try:
            os.close(read_end)
            with os.fdopen(write_end, "wb") as out:
                out.write(b"".join(_kernel_bytes(1003, 1000)))
        finally:
            os._exit(0)
    os.close(write_end)
    got = b""
    with os.fdopen(read_end, "rb") as child:
        while True:
            if not select.select([child], [], [], 60)[0]:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's kernel hung")
            chunk = os.read(child.fileno(), 1 << 16)
            if not chunk:
                break
            got += chunk
    assert os.waitpid(pid, 0)[1] == 0
    assert got == b"".join(want)
