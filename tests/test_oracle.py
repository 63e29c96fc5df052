"""Tests for the known-truth optimal policy solver and its functionals."""

import numpy as np
import pytest
from scipy.optimize import linprog

from pbpolicy.dgp import DGPSpec, generate
from pbpolicy.oracle import (
    OptimalRule,
    budget_curve_beta,
    gain_cost,
    mv_loss_L_B,
    oracle_decisions,
    oracle_report,
    regret_under_budget,
    solve_eta_B,
)


def unit_effects(dy_by_unit, dc_by_unit):
    """Ground truth of a population as its per-unit (dy, dc) vectors."""
    return (np.asarray(dy_by_unit, dtype=float),
            np.asarray(dc_by_unit, dtype=float))


TWO_TYPE = unit_effects([2.0, 1.0], [1.0, 1.0])

# A: dy=-1, dc=-2 (ratio 0.5); C: dy=4, dc=1 (ratio 4)
MIXED = unit_effects([-1.0, 4.0], [-2.0, 1.0])


def random_truth(rng, m=400):
    """Effects linear in m uniform covariates, as (dy, dc) vectors."""
    w_y, w_c = rng.normal(size=3), rng.normal(size=3)
    b_y, b_c = rng.normal(), rng.normal()
    x = rng.uniform(-1.0, 1.0, size=(m, 3))
    return x @ w_y + b_y, x @ w_c + b_c


def test_two_type_budget_curve():
    assert budget_curve_beta(0.0, *TWO_TYPE) == 1.0
    assert budget_curve_beta(1.0, *TWO_TYPE) == 0.5
    assert budget_curve_beta(1.5, *TWO_TYPE) == 0.5
    assert budget_curve_beta(3.0, *TWO_TYPE) == 0.0


def test_budget_curve_vanishes_for_huge_threshold():
    dy, dc = unit_effects([5.0, -1.0], [2.0, 3.0])
    assert budget_curve_beta(1e12, dy, dc) == 0.0


def test_two_type_optimal_rule():
    rule = solve_eta_B(0.5, *TWO_TYPE)
    assert rule.eta == 1.0
    assert rule.a1 == 0.0 and rule.a2 == 0.0
    np.testing.assert_array_equal(
        oracle_decisions(rule, *TWO_TYPE), [1.0, 0.0])
    report = oracle_report(rule, *TWO_TYPE)
    assert report["B"] == 0.5
    assert report["eta_B"] == 1.0
    assert report["gain_of_optimal"] == 1.0
    assert report["cost_of_optimal"] == 0.5


def test_two_type_regret_and_loss():
    rule = solve_eta_B(0.5, *TWO_TYPE)
    never = np.zeros(2)
    always = np.ones(2)
    star = oracle_decisions(rule, *TWO_TYPE)
    assert regret_under_budget(never, rule, *TWO_TYPE) == 1.0
    assert regret_under_budget(always, rule, *TWO_TYPE) == -0.5
    assert regret_under_budget(star, rule, *TWO_TYPE) == 0.0
    assert mv_loss_L_B(always, rule, *TWO_TYPE) == 0.0
    assert mv_loss_L_B(star, rule, *TWO_TYPE) == 0.0


def test_slack_budget_gives_unconstrained_rule():
    rule = solve_eta_B(1.0, *TWO_TYPE)
    assert rule.eta == 0.0 and rule.a1 == 0.0 and rule.a2 == 0.0
    np.testing.assert_array_equal(
        oracle_decisions(rule, *TWO_TYPE), [1.0, 1.0])
    report = oracle_report(rule, *TWO_TYPE)
    assert report["cost_of_optimal"] == 1.0
    assert report["gain_of_optimal"] == 1.5


def test_infeasible_budget_raises():
    with pytest.raises(ValueError, match="minimum achievable"):
        solve_eta_B(-1.0, *MIXED)
    with pytest.raises(ValueError, match="minimum achievable"):
        solve_eta_B(-1.5, *MIXED)


def test_mixed_population_fills_budget_with_positive_cost_ties():
    rule = solve_eta_B(-0.75, *MIXED)
    assert rule.eta == 4.0
    assert rule.a1 == pytest.approx(0.5, abs=1e-15)
    assert rule.a2 == 0.0
    report = oracle_report(rule, *MIXED)
    assert report["cost_of_optimal"] == pytest.approx(-0.75, abs=1e-12)
    assert report["gain_of_optimal"] == pytest.approx(0.5, abs=1e-12)


def test_mixed_population_fills_budget_with_negative_cost_ties():
    rule = solve_eta_B(-0.2, *MIXED)
    assert rule.eta == 0.5
    assert rule.a1 == 0.0
    assert rule.a2 == pytest.approx(0.7, abs=1e-12)
    report = oracle_report(rule, *MIXED)
    assert report["cost_of_optimal"] == pytest.approx(-0.2, abs=1e-12)
    assert report["gain_of_optimal"] == pytest.approx(1.65, abs=1e-12)


def test_budget_curve_monotone_on_random_populations():
    rng = np.random.default_rng(51)
    for _ in range(10):
        dy, dc = random_truth(rng)
        ratios = np.sort(dy[dc != 0] / dc[dc != 0])
        probes = np.unique(np.concatenate([
            [0.0], ratios[ratios > 0], ratios[ratios > 0] * 1.0000001, [1e6]]))
        values = [budget_curve_beta(b, dy, dc) for b in probes]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-12


def test_budget_exhausted_exactly_on_random_populations():
    rng = np.random.default_rng(52)
    for _ in range(10):
        dy, dc = random_truth(rng)
        floor = np.sum(dc[dc < 0]) / len(dc)
        top = budget_curve_beta(0.0, dy, dc)
        for t in (0.1, 0.5, 0.9):
            budget = floor + t * (top - floor)
            rule = solve_eta_B(budget, dy, dc)
            dec = oracle_decisions(rule, dy, dc)
            assert np.all((dec >= 0) & (dec <= 1))
            realized = np.mean(dc * dec)
            assert realized == pytest.approx(budget, abs=1e-9)


def test_loss_nonnegative_for_arbitrary_rules():
    rng = np.random.default_rng(53)
    for _ in range(5):
        dy, dc = random_truth(rng)
        floor = np.sum(dc[dc < 0]) / len(dc)
        budget = floor + 0.4 * (budget_curve_beta(0.0, dy, dc) - floor)
        rule = solve_eta_B(budget, dy, dc)
        for _ in range(20):
            f = rng.uniform(0.0, 1.0, size=dy.shape[0])
            assert mv_loss_L_B(f, rule, dy, dc) >= -1e-10


def test_loss_regret_gap_is_eta_times_budget_slack():
    rng = np.random.default_rng(54)
    dy, dc = random_truth(rng)
    floor = np.sum(dc[dc < 0]) / len(dc)
    budget = floor + 0.4 * (budget_curve_beta(0.0, dy, dc) - floor)
    rule = solve_eta_B(budget, dy, dc)
    for _ in range(10):
        f = rng.uniform(0.0, 1.0, size=dy.shape[0])
        gap = mv_loss_L_B(f, rule, dy, dc) - regret_under_budget(f, rule, dy, dc)
        slack = np.mean(dc * f) - budget
        assert gap == pytest.approx(rule.eta * slack, abs=1e-12)


def test_loss_equals_regret_when_unconstrained():
    rng = np.random.default_rng(55)
    dy, dc = random_truth(rng)
    rule = solve_eta_B(1e9, dy, dc)
    assert rule.eta == 0.0
    f = rng.uniform(0.0, 1.0, size=dy.shape[0])
    assert mv_loss_L_B(f, rule, dy, dc) == regret_under_budget(f, rule, dy, dc)


def assert_lp_optimal(budget, dy, dc):
    """The solved rule reaches the LP optimum of max mean(dy·f) subject to
    mean(dc·f) <= budget and f in [0, 1]^m, and spends within the budget."""
    m = dy.shape[0]
    lp = linprog(-dy / m, A_ub=[dc / m], b_ub=[budget], bounds=(0.0, 1.0),
                 method="highs")
    assert lp.status == 0
    gain, cost = gain_cost(
        oracle_decisions(solve_eta_B(budget, dy, dc), dy, dc), dy, dc)
    assert gain == pytest.approx(-lp.fun, abs=1e-9)
    assert cost <= budget + 1e-12


def test_solved_rule_is_the_linear_programs_optimum():
    # one float above the floor, where the search once failed to bracket a
    # feasible budget
    rng = np.random.default_rng(45)
    dy = rng.normal(size=20)
    dc = rng.normal(size=20)
    assert_lp_optimal(np.nextafter(np.sum(dc[dc < 0]) / 20, np.inf), dy, dc)
    rng = np.random.default_rng(57)
    for i in range(60):
        m = int(rng.integers(5, 61))
        if i % 2:  # tie-heavy integer effects
            dy, dc = rng.integers(-2, 3, size=(2, m)).astype(float)
        else:
            dy, dc = rng.normal(size=m), rng.normal(size=m)
        floor = np.sum(dc[dc < 0]) / m
        top = budget_curve_beta(0.0, dy, dc)
        for budget in (np.nextafter(floor, np.inf),
                       floor + 0.3 * (top - floor),
                       floor + 0.8 * (top - floor)):
            if budget > floor:  # top == floor leaves only the first
                assert_lp_optimal(budget, dy, dc)


def test_decisions_match_strict_indicator_off_ties():
    rng = np.random.default_rng(56)
    dy, dc = random_truth(rng)
    floor = np.sum(dc[dc < 0]) / len(dc)
    budget = floor + 0.3 * (budget_curve_beta(0.0, dy, dc) - floor)
    rule = solve_eta_B(budget, dy, dc)
    margin = dy - rule.eta * dc
    off_tie = np.abs(margin) > 1e-9
    dec = oracle_decisions(rule, dy, dc)
    np.testing.assert_array_equal(dec[off_tie], (margin > 0)[off_tie])


def test_input_validation():
    with pytest.raises(ValueError, match="finite"):
        budget_curve_beta(np.inf, *TWO_TYPE)
    with pytest.raises(ValueError, match="non-empty"):
        budget_curve_beta(0.0, np.empty(0), np.empty(0))
    with pytest.raises(ValueError, match="finite"):
        budget_curve_beta(0.0, np.full(2, np.nan), np.ones(2))
    with pytest.raises(ValueError, match="one value per unit"):
        budget_curve_beta(0.0, np.ones(3), np.ones(2))
    with pytest.raises(ValueError, match="eta must"):
        OptimalRule(budget=0.5, eta=-1.0)
    with pytest.raises(ValueError, match="a1 must"):
        OptimalRule(budget=0.5, eta=1.0, a1=1.5)
    rule = solve_eta_B(0.5, *TWO_TYPE)
    with pytest.raises(ValueError, match="lie in"):
        regret_under_budget(np.full(2, 1.2), rule, *TWO_TYPE)
    with pytest.raises(ValueError, match="aligned"):
        mv_loss_L_B(np.ones(3), rule, *TWO_TYPE)


def test_gain_cost():
    pop = generate(DGPSpec("DGP1", 5, 500))
    dy, dc = pop.cate, pop.expected_cost
    gain0, cost0 = gain_cost(np.zeros(pop.n), dy, dc)
    assert gain0 == 0.0 and cost0 == 0.0
    gain1, cost1 = gain_cost(np.ones(pop.n), dy, dc)
    assert gain1 == pytest.approx(pop.cate.mean())
    assert cost1 == pytest.approx(pop.expected_cost.mean())
    # probabilistic rule scales by linearity
    gain_p, cost_p = gain_cost(np.full(pop.n, 0.3), dy, dc)
    assert gain_p == pytest.approx(0.3 * gain1)
    assert cost_p == pytest.approx(0.3 * cost1)
    with pytest.raises(ValueError, match="aligned"):
        gain_cost(np.ones(3), dy, dc)
    with pytest.raises(ValueError, match="lie in"):
        gain_cost(np.full(pop.n, 1.5), dy, dc)


def test_nan_decisions_fail_the_range_check():
    rule = solve_eta_B(0.5, *TWO_TYPE)
    nan_rule = [np.nan, 1.0]
    with pytest.raises(ValueError, match="lie in"):
        gain_cost(nan_rule, [1.0, 2.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="lie in"):
        regret_under_budget(nan_rule, rule, *TWO_TYPE)
    with pytest.raises(ValueError, match="lie in"):
        mv_loss_L_B(nan_rule, rule, *TWO_TYPE)
