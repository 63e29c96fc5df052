"""Tests for the study pipeline: grids, curves, baselines, CV, smoke run."""

import json
from dataclasses import replace

import numpy as np
import pytest

import pbpolicy.harness as harness
from pbpolicy.dgp import DGPSpec, generate
from pbpolicy.harness import (
    CostCurve,
    GridSpec,
    StudyConfig,
    build_cost_curve,
    default_lambda_grid,
    oracle_cate_baseline,
    oracle_ratio_baseline,
    random_line_slope,
    run_study,
    subseed,
)

CV_LAMBDAS = [4.0, 6.1, 7.966666666666667, 11.933333333333334, 15.9,
              24.066666666666666, 32.0, 48.42666666666666, 63.36,
              96.21333333333334, 127.57333333333334, 191.78666666666666,
              256.0, 384.0, 512.0, 768.0, 1024.0]


def toy_population(cate, ecost):
    pop = generate(DGPSpec("DGP1", 0, len(cate)))
    return replace(pop, cate=np.asarray(cate, dtype=float),
                   expected_cost=np.asarray(ecost, dtype=float))


def test_default_grids():
    grids = GridSpec()
    assert grids.u_grid[0] == 0.0
    assert grids.u_grid[1] == 0.2
    assert grids.u_grid[-1] == 4.0
    assert len(grids.u_grid) == 41
    np.testing.assert_allclose(default_lambda_grid(), CV_LAMBDAS, rtol=1e-15)


def test_grid_validation():
    with pytest.raises(ValueError, match="empty"):
        GridSpec(u_grid=[])
    with pytest.raises(ValueError, match="strictly increasing"):
        GridSpec(u_grid=[0.0, 1.0, 1.0])
    GridSpec(lambda_grid=[1024.0])
    for bad in ([-1.0, 0.0], [0.0, float("inf")], [float("nan")]):
        with pytest.raises(ValueError, match="finite and non-negative"):
            GridSpec(u_grid=bad)
    for bad in ([2048.0], [0.0, 4.0], [-4.0], [4.0, float("nan")]):
        with pytest.raises(ValueError, match=r"lie in \(0, 1024\]"):
            GridSpec(lambda_grid=bad)


def test_cost_curve_interpolation_and_clamping():
    curve = build_cost_curve([(0.0, 0.0), (1.0, 1.0)], "toy")
    assert curve.gain_at(0.5) == 0.5
    assert curve.gain_at(2.0) == 1.0  # clamped
    assert curve.gain_at(-1.0) == 0.0
    np.testing.assert_array_equal(curve.covers([-1.0, 0.5, 2.0]),
                                  [False, True, False])


def test_cost_curve_deduplicates_by_best_gain():
    curve = build_cost_curve([(1.0, 0.4), (0.0, 0.0), (1.0, 0.6)])
    np.testing.assert_array_equal(curve.costs, [0.0, 1.0])
    np.testing.assert_array_equal(curve.gains, [0.0, 0.6])


def test_cost_curve_needs_two_distinct_costs():
    with pytest.raises(ValueError, match="2 points"):
        build_cost_curve([(0.0, 0.0)])
    with pytest.raises(ValueError, match="distinct"):
        build_cost_curve([(1.0, 0.4), (1.0, 0.6)])


def test_greedy_baselines_toy_cases():
    pop = toy_population([2.0, 1.0], [1.0, 1.0])
    assert oracle_cate_baseline(pop, 0.0) == (0.0, 0.0)
    assert oracle_cate_baseline(pop, 1.0) == (2.0, 1.0)  # unit 1 only
    assert oracle_cate_baseline(pop, 2.0) == (3.0, 2.0)
    with pytest.raises(ValueError, match="non-negative"):
        oracle_cate_baseline(pop, -0.5)


def test_greedy_baselines_skip_nonpositive_scores():
    pop = toy_population([2.0, -1.0, 1.0], [1.0, 1.0, 1.0])
    # slack budget still leaves the harmful unit untreated
    assert oracle_cate_baseline(pop, 100.0) == (3.0, 2.0)
    assert oracle_ratio_baseline(pop, 100.0) == (3.0, 2.0)


def _greedy_loop(score, population, budget):
    # the unit-by-unit walk the vectorized baseline replaced
    order = np.lexsort((np.arange(population.n), -score))
    cost = gain = 0.0
    for i in order:
        if score[i] <= 0.0:
            break
        step = population.expected_cost[i]
        if cost + step > budget + 1e-9:
            break
        cost += step
        gain += population.cate[i]
    return gain, cost


def test_greedy_baseline_matches_the_unit_by_unit_walk():
    rng = np.random.default_rng(12)
    for trial in range(40):
        n = int(rng.integers(1, 60))
        # scores with ties, zeros and negatives; costs on a coarse grid so
        # that running totals land exactly on the budgets tried below
        score = rng.choice([-1.0, 0.0, 0.5, 1.0, 2.0], size=n)
        pop = toy_population(rng.normal(size=n),
                             rng.choice([0.0, 0.25, 0.5, 1.0, -0.25], size=n))
        totals = np.cumsum(pop.expected_cost[
            np.lexsort((np.arange(n), -score))])
        budgets = np.concatenate([[0.0, 1e-9, 0.25 + 1e-9, 100.0],
                                  totals[totals >= 0],
                                  totals[totals >= 0] - 5e-10,
                                  totals[totals >= 1e-8] - 2e-9,
                                  rng.uniform(0.0, 5.0, size=5)])
        gains, costs = harness._greedy_baseline(score, pop, budgets)
        for b, g, c in zip(budgets, gains, costs):
            assert (g, c) == _greedy_loop(score, pop, float(b))
            assert harness._greedy_baseline(score, pop, float(b)) == (g, c)


def test_ratio_and_cate_rankings_differ():
    # unit 0 has the bigger effect, unit 1 the better effect per unit cost
    pop = toy_population([2.0, 1.0], [4.0, 1.0])
    assert oracle_cate_baseline(pop, 4.0) == (2.0, 4.0)
    assert oracle_ratio_baseline(pop, 4.0) == (1.0, 1.0)


def test_zero_cost_positive_gain_units_rank_first():
    pop = toy_population([0.5, 3.0], [0.0, 1.0])
    gain, cost = oracle_ratio_baseline(pop, 1.0)
    assert (gain, cost) == (3.5, 1.0)


def test_random_line_slope_is_mean_ratio():
    pop = toy_population([1.0, 3.0], [2.0, 2.0])
    assert random_line_slope(pop) == 1.0


def test_subseed_is_stable_and_path_sensitive():
    assert subseed(7, "rep", 0) == subseed(7, "rep", 0)
    assert subseed(7, "rep", 0) != subseed(7, "rep", 1)
    assert subseed(7, "rep", 0) != subseed(7, "test")


def test_fold_indices_partition():
    halves = harness._fold_indices(11, 2, seed=3)
    joined = np.sort(np.concatenate(halves))
    np.testing.assert_array_equal(joined, np.arange(11))
    assert abs(len(halves[0]) - len(halves[1])) <= 1
    perm = np.random.default_rng(3).permutation(11)
    np.testing.assert_array_equal(np.concatenate(halves), perm)
    with pytest.raises(ValueError, match="fewer units"):
        harness._fold_indices(1, 2, seed=0)


def test_cross_validation_selection_logic(monkeypatch):
    sample = generate(DGPSpec("DGP1", 5, 40)).sample

    def fake_objectives(u, grid, training, particles, seed):
        return {"lambda": np.array([4.0, 32.0]),
                "gibbs": np.array([1.0, 2.0]), "mv": np.array([1.0, 1.0])}

    monkeypatch.setattr(harness, "_holdout_objectives", fake_objectives)
    # the stochastic rule takes the better rung; the majority vote's exact
    # tie resolves to the smaller one
    assert harness._select_lambdas(0.5, [4.0, 32.0], sample, 40, 0) == \
        (32.0, 4.0)


def test_cross_validation_input_errors():
    sample = generate(DGPSpec("DGP1", 5, 40)).sample
    with pytest.raises(ValueError, match="empty"):
        harness._select_lambdas(0.5, [], sample, 40, 0)


def test_cross_validation_single_candidate_round_trips():
    sample = generate(DGPSpec("DGP1", 6, 60)).sample
    assert harness._select_lambdas(0.2, [4.0], sample, 40, 9) == (4.0, 4.0)
    # an off-ladder candidate comes back as the rung it snapped to, which is
    # the value the study records
    rung = float(harness._LADDER_LAMBDAS[harness._nearest_rung(5.0)])
    assert rung != 5.0
    assert harness._select_lambdas(0.2, [5.0], sample, 40, 9) == (rung, rung)


def test_cross_validation_is_deterministic():
    sample = generate(DGPSpec("DGP1", 8, 60)).sample
    picks = {harness._select_lambdas(0.4, [4.0, 32.0], sample, 40, 11)
             for _ in range(2)}
    assert len(picks) == 1


def test_tempered_clouds_run_the_adaptive_ladder_through_harness_run_smc(
        monkeypatch):
    sample = generate(DGPSpec("DGP1", 6, 80)).sample
    calls, real_run_smc = [], harness.run_smc

    def spy(*args, **kwargs):
        calls.append(args)
        return real_run_smc(*args, **kwargs)

    monkeypatch.setattr(harness, "run_smc", spy)
    rungs = harness._rungs([4.0, 32.0, 256.0])
    clouds = harness._tempered_clouds(0.7, rungs, harness._prepare(sample),
                                      40, 5)
    (ladder, config), = [(a[3], a[4]) for a in calls]
    assert isinstance(ladder, harness.AdaptiveLadder)
    assert ladder.rungs == tuple(harness._LADDER_LAMBDAS[rungs])
    assert config.mh_steps_per_stage == harness.MH_STEPS_PER_STAGE == 5
    assert list(clouds) == rungs
    for step, cloud in clouds.items():
        assert (cloud.lam, cloud.u) == (harness._LADDER_LAMBDAS[step], 0.7)


SMOKE_GRIDS = GridSpec(u_grid=[0.0, 0.6, 1.2], lambda_grid=[4.0, 32.0])
SMOKE_CONFIG = dict(particles=40, n_test=300, n_bins=4)


def test_run_study_smoke_writes_all_artifacts(tmp_path):
    report = run_study(DGPSpec("DGP1", 13, 80), replications=1,
                       grids=SMOKE_GRIDS,
                       config=StudyConfig(out_dir=str(tmp_path),
                                          **SMOKE_CONFIG))
    assert report.n_reps == 1
    methods = ("pb_sa", "pb_mv", "pb_batch", "oracle_ratio", "oracle_cate",
               "random")
    for method in methods:
        assert method in report.curves
        csv = tmp_path / f"cost_curves_{method}.csv"
        lines = csv.read_text().splitlines()
        assert lines[0] == "cost,gain_mean,gain_se,n_reps"
        assert len(lines) == len(report.query_budgets) + 1
    rep_doc = json.loads((tmp_path / "replication_0.json").read_text())
    assert len(rep_doc["selections"]) == len(SMOKE_GRIDS.u_grid)
    assert set(rep_doc["curves"]) == {"pb_sa", "pb_mv", "pb_batch"}
    config_doc = json.loads((tmp_path / "study_config.json").read_text())
    assert config_doc["dgp"] == {"id": "DGP1", "seed": 13, "n": 80}
    assert "oracle-score" in config_doc["notes"]
    for sel in rep_doc["selections"]:
        assert sel["lambda_sa"] in (4.0, 32.0)
        assert sel["lambda_mv"] in (4.0, 32.0)


def test_run_study_is_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        report = run_study(DGPSpec("DGP2", 21, 60), replications=2,
                           grids=SMOKE_GRIDS,
                           config=StudyConfig(out_dir=str(out),
                                              **SMOKE_CONFIG))
    for name in ("cost_curves_pb_sa.csv", "cost_curves_pb_batch.csv",
                 "replication_1.json", "study_config.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    # each reported pb_* curve is the vertical mean of the replications'
    # curves at the query budgets
    query = report.query_budgets
    for method in ("pb_sa", "pb_mv", "pb_batch"):
        reps = [r.curves[method].gain_at(query) for r in report.replications]
        np.testing.assert_array_equal(report.curves[method].costs, query)
        np.testing.assert_array_equal(report.curves[method].gains,
                                      np.mean(reps, axis=0))


def test_run_study_validation():
    with pytest.raises(ValueError, match="replication"):
        run_study(DGPSpec("DGP1", 1, 50), replications=0)
    with pytest.raises(ValueError, match="workers"):
        StudyConfig(workers=0)
    # negative budgets are legal: a rule may save cost
    StudyConfig(query_budgets=[-0.5, 0.0, 0.5])
    for bad, msg in (([0.5], "at least 2"),
                     ([0.5, 0.2], "strictly increasing"),
                     ([0.0, 0.5, 0.5], "strictly increasing"),
                     ([0.0, float("inf")], "finite"),
                     ([0.0, float("nan")], "finite")):
        with pytest.raises(ValueError, match=msg):
            StudyConfig(query_budgets=bad)
