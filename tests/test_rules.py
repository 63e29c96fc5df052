"""Tests for stochastic, majority vote, and batch assignment rules."""

import numpy as np
import pytest

from pbpolicy.data import IPWScores, WeightedParticles, poly_feature_map
from pbpolicy.gibbs import welfare_cost_matrix
from pbpolicy.rules import (
    BatchCandidates,
    BatchPlan,
    GibbsRule,
    MajorityVoteRule,
    batch_assign,
    mv_decide,
    rule_empirical_cost,
    rule_empirical_welfare,
    sample_assignments,
    treat_probability,
)
from pbpolicy.gibbs import _blocks
from pbpolicy.rules import _weighted_votes


def cloud(thetas, weights):
    return WeightedParticles(thetas=np.asarray(thetas, dtype=float),
                             weights=np.asarray(weights, dtype=float),
                             step_index=0, lam=1.0, u=0.0, seed=0)


def linear_rule(thetas, weights, d_x=1, kind=GibbsRule):
    # feature map [1, x...]: theta[0] is an intercept vote
    return kind(particles=cloud(thetas, weights),
                feature_map=poly_feature_map(1, d_x))


def one_unit(value):
    return np.array([[value]])


def assert_one_value(got, want):
    # one value per row of x, even for a single unit
    assert isinstance(got, np.ndarray) and got.shape == (1,)
    np.testing.assert_allclose(got, [want])


def test_treat_probability_examples():
    # always-treat theta (1, 0) vs never-treat (-1, 0) under features [1, x]
    rule = linear_rule([[1.0, 0.0], [-1.0, 0.0]], [0.6, 0.4])
    assert_one_value(treat_probability(rule, one_unit(2.5)), 0.6)
    unanimous = linear_rule([[1.0, 0.0], [1.0, 0.0]], [0.5, 0.5])
    assert_one_value(treat_probability(unanimous, one_unit(-3.0)), 1.0)
    # effective point mass gives a 0/1 probability
    point = linear_rule([[0.0, 1.0], [0.0, 1.0]], [0.5, 0.5])
    assert_one_value(treat_probability(point, one_unit(2.0)), 1.0)
    assert_one_value(treat_probability(point, one_unit(-2.0)), 0.0)
    # a 1-D x is one unit
    assert_one_value(treat_probability(rule, np.array([2.5])), 0.6)
    got = treat_probability(rule, np.array([[0.0], [1.0]]))
    np.testing.assert_allclose(got, [0.6, 0.6])


def test_mv_decide_threshold_is_strict():
    share_06 = linear_rule([[1.0, 0.0], [-1.0, 0.0]], [0.6, 0.4],
                           kind=MajorityVoteRule)
    assert_one_value(mv_decide(share_06, one_unit(0.0)), 1)
    share_05 = linear_rule([[1.0, 0.0], [-1.0, 0.0]], [0.5, 0.5],
                           kind=MajorityVoteRule)
    assert_one_value(mv_decide(share_05, one_unit(0.0)), 0)
    share_049 = linear_rule([[1.0, 0.0], [-1.0, 0.0]], [0.49, 0.51],
                            kind=MajorityVoteRule)
    assert_one_value(mv_decide(share_049, one_unit(0.0)), 0)
    assert_one_value(mv_decide(share_06, np.array([0.0])), 1)
    got = mv_decide(share_06, np.array([[0.0], [5.0]]))
    np.testing.assert_array_equal(got, [1, 1])


def test_sample_assignments_reproducible():
    rule = linear_rule([[1.0, 0.0], [-1.0, 0.0]], [0.7, 0.3])
    x = np.zeros((500, 1))
    a = sample_assignments(rule, x, np.random.default_rng(8))
    b = sample_assignments(rule, x, np.random.default_rng(8))
    np.testing.assert_array_equal(a, b)
    assert abs(a.mean() - 0.7) < 3 * np.sqrt(0.21 / 500)


def test_rule_cost_hand_value_and_linearity():
    # two particles, weights (0.5, 0.5), K_n = (0, 2)
    scores = IPWScores(np.array([1.0, 1.0]), np.array([2.0, 2.0]))
    feats = np.array([[1.0, 0.5], [1.0, -0.5]])
    thetas = np.array([[-1.0, 0.0],   # treats nobody: K = 0
                       [1.0, 0.0]])   # treats both: K = 2
    rule = GibbsRule(particles=cloud(thetas, [0.5, 0.5]),
                     feature_map=poly_feature_map(1, 1))
    assert rule_empirical_cost(rule, scores, feats) == pytest.approx(1.0)

    rng = np.random.default_rng(6)
    n, m, q = 50, 20, 3
    scores = IPWScores(rng.normal(size=n), rng.normal(size=n))
    feats = rng.normal(size=(n, q))
    thetas = rng.normal(size=(m, q))
    w = rng.dirichlet(np.ones(m))
    rule = GibbsRule(particles=cloud(thetas, w),
                     feature_map=poly_feature_map(1, q - 1))
    w_mat, k_mat = welfare_cost_matrix(thetas, scores, feats)
    assert rule_empirical_cost(rule, scores, feats) == pytest.approx(
        float(w @ k_mat), abs=1e-10)
    assert rule_empirical_welfare(rule, scores, feats) == pytest.approx(
        float(w @ w_mat), abs=1e-10)
    for of_rule in (rule_empirical_cost, rule_empirical_welfare):
        with pytest.raises(ValueError, match="scores and features have "
                                             "mismatched lengths"):
            of_rule(rule, scores, feats[:10])


def test_empirical_cost_and_welfare_over_many_unit_blocks():
    # 40,000 units against 20 particles span several row blocks of votes
    rng = np.random.default_rng(8)
    n, m, q = 40_000, 20, 3
    assert len(_blocks(n, m)) > 1
    scores = IPWScores(rng.normal(size=n), rng.normal(size=n))
    feats = rng.normal(size=(n, q))
    thetas = rng.normal(size=(m, q))
    w = rng.dirichlet(np.ones(m))
    rule = GibbsRule(particles=cloud(thetas, w),
                     feature_map=poly_feature_map(1, q - 1))
    w_mat, k_mat = welfare_cost_matrix(thetas, scores, feats)
    assert rule_empirical_cost(rule, scores, feats) == pytest.approx(
        float(w @ k_mat), abs=1e-10)
    assert rule_empirical_welfare(rule, scores, feats) == pytest.approx(
        float(w @ w_mat), abs=1e-10)


class FixedScoreRule(MajorityVoteRule):
    """Test double: vote shares specified directly per candidate row."""

    def __init__(self, table):
        self.table = {tuple(k): v for k, v in table}

    def lookup(self, x):
        return np.array([self.table[tuple(row)] for row in np.atleast_2d(x)])


def fixed_rule(xs, scores):
    rule = FixedScoreRule(list(zip(xs, scores)))
    return rule


def patched_shares(monkeypatch):
    import pbpolicy.rules as mod

    real = mod.treat_probability

    def stub(rule, x):
        if isinstance(rule, FixedScoreRule):
            return rule.lookup(x)
        return real(rule, x)

    monkeypatch.setattr(mod, "treat_probability", stub)


def test_batch_single_bin_top_scores(monkeypatch):
    patched_shares(monkeypatch)
    xs = np.arange(4.0)[:, None]
    cand = BatchCandidates(x=xs, unit_costs=np.ones(4))
    rule = fixed_rule(xs, [0.9, 0.2, 0.7, 0.4])
    plan = batch_assign(cand, {0.0: (rule, 1.0)}, budget=2.0, n_bins=1)
    np.testing.assert_array_equal(plan.treated_by_bin[-1],
                                  [True, False, True, False])
    assert plan.realized_cost_by_bin == (2.0,)
    assert plan.assignment_log == ((0, 0), (0, 2))


def test_batch_tie_breaks_by_index(monkeypatch):
    patched_shares(monkeypatch)
    xs = np.arange(3.0)[:, None]
    cand = BatchCandidates(x=xs, unit_costs=np.ones(3))
    rule = fixed_rule(xs, [0.5, 0.5, 0.5])
    plan = batch_assign(cand, {0.0: (rule, 1.0)}, budget=1.0, n_bins=1)
    np.testing.assert_array_equal(plan.treated_by_bin[-1], [True, False, False])


def test_batch_bin_walk_and_rule_selection(monkeypatch):
    patched_shares(monkeypatch)
    xs = np.arange(6.0)[:, None]
    cand = BatchCandidates(x=xs, unit_costs=np.full(6, 0.5))
    low = fixed_rule(xs, [0.9, 0.8, 0.1, 0.1, 0.1, 0.1])
    high = fixed_rule(xs, [0.1, 0.1, 0.9, 0.8, 0.7, 0.6])
    rules = {0.5: (low, 1.0), 2.0: (high, 3.0)}
    plan = batch_assign(cand, rules, budget=3.0, n_bins=2)
    # first bin edge 1.5 is nearer the low-u estimated cost, second edge 3.0
    # nearer the high-u one
    assert plan.selected_u == (0.5, 2.0)
    # low rule treats 0,1 then a filler from its flat tail (index 2 by tie
    # order); high rule tops up from its own ranking
    assert plan.treated_by_bin[0].sum() == 3
    assert plan.treated_by_bin[-1].sum() == 6
    assert plan.realized_cost_by_bin == (1.5, 3.0)
    # previously treated stay treated
    assert np.all(plan.treated_by_bin[-1][plan.treated_by_bin[0]])


def test_batch_monotone_in_budget(monkeypatch):
    patched_shares(monkeypatch)
    rng = np.random.default_rng(12)
    xs = np.arange(30.0)[:, None]
    costs = rng.uniform(0.2, 1.0, size=30)
    scores = rng.uniform(size=30)
    cand = BatchCandidates(x=xs, unit_costs=costs)
    rule = fixed_rule(xs, scores)
    prev = np.zeros(30, dtype=bool)
    for budget in [1.0, 2.0, 4.0, 8.0]:
        plan = batch_assign(cand, {0.0: (rule, budget)}, budget=budget, n_bins=4)
        assert np.all(plan.treated_by_bin[-1][prev])  # nested treated sets
        prev = plan.treated_by_bin[-1]
        for edge, cost in zip(plan.bin_edges, plan.realized_cost_by_bin):
            assert cost <= edge + 1e-9


def test_batch_validation(monkeypatch):
    patched_shares(monkeypatch)
    xs = np.zeros((2, 1))
    cand = BatchCandidates(x=xs, unit_costs=np.ones(2))
    rule = fixed_rule([[0.0], [0.0]], [0.5])  # table keyed by row value
    with pytest.raises(ValueError, match="no vote rules"):
        batch_assign(cand, {}, budget=1.0, n_bins=2)
    with pytest.raises(ValueError, match="budget"):
        batch_assign(cand, {0.0: (rule, 1.0)}, budget=0.0, n_bins=2)
    with pytest.raises(ValueError, match="n_bins"):
        batch_assign(cand, {0.0: (rule, 1.0)}, budget=1.0, n_bins=0)
    with pytest.raises(ValueError, match="aligned"):
        BatchCandidates(x=xs, unit_costs=np.ones(3))
    with pytest.raises(ValueError, match="non-negative"):
        BatchCandidates(x=xs, unit_costs=np.array([0.5, -0.1]))


def test_batch_plan_invariant():
    with pytest.raises(ValueError, match="exceeds"):
        BatchPlan(bin_edges=np.array([1.0]), selected_u=(0.0,),
                  treated_by_bin=(np.array([True]),),
                  realized_cost_by_bin=(1.5,), assignment_log=())


def test_nan_fails_the_batch_range_checks():
    xs = np.zeros((2, 1))
    with pytest.raises(ValueError, match="non-negative"):
        BatchCandidates(x=xs, unit_costs=np.array([0.5, np.nan]))
    with pytest.raises(ValueError, match="budget must be positive"):
        batch_assign(BatchCandidates(x=xs, unit_costs=np.ones(2)),
                     {0.0: (None, 1.0)}, budget=np.nan, n_bins=2)
    with pytest.raises(ValueError, match="exceeds"):
        BatchPlan(bin_edges=np.array([np.nan]), selected_u=(0.0,),
                  treated_by_bin=(np.array([True]),),
                  realized_cost_by_bin=(1.5,), assignment_log=())


def test_weighted_votes_match_the_boolean_matrix_bit_for_bit():
    rng = np.random.default_rng(61)
    for _ in range(30):
        n, m, q = (int(rng.integers(1, 700)), int(rng.integers(2, 400)),
                   int(rng.integers(1, 12)))
        feats = rng.normal(size=(n, q))
        thetas = rng.normal(size=(m, q))
        thetas[: m // 4] = 0.0  # margins of exactly zero do not treat
        particles = cloud(thetas, rng.dirichlet(np.ones(m)))
        want = (feats @ thetas.T > 0.0) @ particles.weights
        got = _weighted_votes(feats, particles)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("m", [2, 7, 250, 1000])
def test_blocked_votes_equal_the_one_shot_product(m):
    rng = np.random.default_rng(m)
    b = _blocks(2**20, m)[0].stop  # units per block for m particles
    assert b % 8 == 0
    for n in (1, b - 1, b, b + 1, 3 * b + 5):
        q = int(rng.integers(1, 11))
        feats = rng.normal(size=(n, q))
        thetas = rng.normal(size=(m, q))
        for weights in (np.full(m, 1.0 / m), rng.dirichlet(np.ones(m))):
            particles = cloud(thetas, weights)
            want = (feats @ thetas.T > 0.0).astype(float) @ weights
            assert _weighted_votes(feats, particles).tobytes() == want.tobytes()


def test_vote_shares_memory_stays_bounded():
    import tracemalloc

    rng = np.random.default_rng(3)
    n, m = 20_000, 1_000
    feats = rng.normal(size=(n, 10))
    particles = cloud(rng.normal(size=(m, 10)), np.full(m, 1.0 / m))
    tracemalloc.start()
    try:
        shares = _weighted_votes(feats, particles)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert shares.shape == (n,)
    # the full decision matrix would take 8 * n * m = 160 MB
    assert peak < 16 * 2**20


def _walk_the_ledger(candidates, shares_by_u, est_costs, budget, n_bins):
    """batch_assign's unit-by-unit ledger walk, re-sorting for every bin."""
    edges = np.linspace(0.0, budget, n_bins + 1)[1:]
    us = sorted(shares_by_u)
    est = np.array([est_costs[u] for u in us])
    treated = np.zeros(candidates.n, dtype=bool)
    cum_cost = 0.0
    selected, masks, realized, log = [], [], [], []
    for b, edge in enumerate(edges):
        pick = us[int(np.argmin(np.abs(est - edge)))]
        selected.append(pick)
        order = np.lexsort((np.arange(candidates.n), -shares_by_u[pick]))
        for idx in order:
            if treated[idx]:
                continue
            nxt = cum_cost + candidates.unit_costs[idx]
            if nxt > edge + 1e-12:
                break
            treated[idx] = True
            cum_cost = nxt
            log.append((b, int(idx)))
        masks.append(treated.copy())
        realized.append(cum_cost)
    return tuple(selected), tuple(masks), tuple(realized), tuple(log)


def _assert_plan_is_the_walk(candidates, shares_by_u, est_costs, budget,
                             n_bins):
    rules = {u: (None, est_costs[u]) for u in shares_by_u}
    plan = batch_assign(candidates, rules, budget=budget, n_bins=n_bins,
                        shares=shares_by_u)
    selected, masks, realized, log = _walk_the_ledger(
        candidates, shares_by_u, est_costs, budget, n_bins)
    assert plan.selected_u == selected
    assert plan.assignment_log == log
    for got, want in zip(plan.treated_by_bin, masks, strict=True):
        np.testing.assert_array_equal(got, want)
    # the same values and element types: a bin before any treatment keeps
    # the Python float 0.0, every later one holds an np.float64
    assert [type(c) for c in plan.realized_cost_by_bin] \
        == [type(c) for c in realized]
    assert repr(plan.realized_cost_by_bin) == repr(realized)
    return plan


def test_batch_assign_equals_the_unit_by_unit_walk():
    rng = np.random.default_rng(21)
    for trial in range(40):
        n = int(rng.integers(1, 300))
        costs = rng.uniform(0.0, 1.0, size=n) / n
        costs[rng.uniform(size=n) < 0.2] = 0.0  # zero-cost units
        # shares on a coarse grid, so that many tie
        shares = {u: rng.integers(0, 5, size=n) / 4.0
                  for u in rng.choice([0.0, 0.5, 1.0, 2.0],
                                      size=int(rng.integers(1, 5)),
                                      replace=False)}
        est = {u: float(rng.uniform(0.0, costs.sum() + 0.1)) for u in shares}
        budget = float(rng.uniform(0.01, costs.sum() + 0.05))
        _assert_plan_is_the_walk(BatchCandidates(np.zeros((n, 1)), costs),
                                 shares, est, budget,
                                 int(rng.integers(1, 12)))


def test_batch_assign_edge_cases_equal_the_walk():
    xs = np.zeros((3, 1))
    # a cost exactly at edge + 1e-12 is treated, one ulp above it is not
    edge = 0.3
    at = 0.0 + (edge + 1e-12)
    plan = _assert_plan_is_the_walk(
        BatchCandidates(xs, [at, 0.0, 0.0]), {0.0: np.array([0.9, 0.5, 0.1])},
        {0.0: edge}, edge, 1)
    assert plan.assignment_log == ((0, 0), (0, 1), (0, 2))
    above = np.nextafter(at, np.inf)
    plan = _assert_plan_is_the_walk(
        BatchCandidates(xs, [above, 0.0, 0.0]), {0.0: np.array([0.9, 0.5, 0.1])},
        {0.0: edge}, edge, 1)
    assert plan.assignment_log == ()
    assert plan.realized_cost_by_bin == (0.0,)
    # the first bin treats nobody, the second treats the front-runner
    plan = _assert_plan_is_the_walk(
        BatchCandidates(xs, [0.6, 0.5, 0.1]), {0.0: np.array([0.9, 0.5, 0.1])},
        {0.0: 1.0}, 1.0, 2)
    assert plan.assignment_log == ((1, 0),)
    assert type(plan.realized_cost_by_bin[0]) is float
    assert type(plan.realized_cost_by_bin[1]) is np.float64
