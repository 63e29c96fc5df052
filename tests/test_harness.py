"""Tests for the study pipeline: grids, curves, baselines, CV, smoke run."""

import json
import multiprocessing
import os
import signal
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

import pbpolicy.gibbs as gibbs
import pbpolicy.harness as harness
from pbpolicy.data import IPWScores
from pbpolicy.dgp import DGPSpec, generate
from pbpolicy.smc import LAMBDA_CAP, build_default_ladder
from pbpolicy.harness import (
    CostCurve,
    GridSpec,
    StudyConfig,
    build_cost_curve,
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
    assert GridSpec().lambda_grid.tolist() == CV_LAMBDAS


def test_default_lambda_grid_is_the_fixed_ladder_nearest_a_doubling_grid():
    # how the literals were made: the step of the fixed ladder to 1024
    # nearest each target
    ladder = np.array([lam for lam, _ in
                       build_default_ladder(0.0, LAMBDA_CAP).steps])
    targets = (4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0, 96.0, 128.0,
               192.0, 256.0, 384.0, 512.0, 768.0, 1024.0)
    steps = sorted({int(np.argmin(np.abs(ladder - t))) for t in targets})
    assert GridSpec().lambda_grid.tobytes() == ladder[steps].tobytes()


def test_grid_validation():
    with pytest.raises(ValueError, match="empty"):
        GridSpec(u_grid=[])
    with pytest.raises(ValueError, match="strictly increasing"):
        GridSpec(u_grid=[0.0, 1.0, 1.0])
    GridSpec(lambda_grid=[1024.0])
    for bad in ([-1.0, 0.0], [0.0, float("inf")], [float("nan")]):
        with pytest.raises(ValueError, match="finite and non-negative"):
            GridSpec(u_grid=bad)
    # a one-penalty grid gives no cost curve; the value checks come first
    with pytest.raises(ValueError, match="u_grid needs at least 2 values"):
        GridSpec(u_grid=[0.5])
    for bad in ([2048.0], [0.0, 4.0], [-4.0], [4.0, float("nan")]):
        with pytest.raises(ValueError, match=r"lie in \(0, 1024\]"):
            GridSpec(lambda_grid=bad)


def test_cost_curve_interpolation_and_clamping():
    curve = build_cost_curve([(0.0, 0.0), (1.0, 1.0)])
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
    with pytest.raises(ValueError, match="distinct"):
        build_cost_curve([(0.0, 0.0)])
    with pytest.raises(ValueError, match="distinct"):
        build_cost_curve([(1.0, 0.4), (1.0, 0.6)])


def test_greedy_baselines_toy_cases():
    pop = toy_population([2.0, 1.0], [1.0, 1.0])
    gains, costs = oracle_cate_baseline(pop, [0.0, 1.0, 2.0])
    assert gains.tolist() == [0.0, 2.0, 3.0]  # unit 1 only at budget 1
    assert costs.tolist() == [0.0, 1.0, 2.0]
    with pytest.raises(ValueError, match="non-negative"):
        oracle_cate_baseline(pop, [1.0, -0.5])


def test_greedy_baselines_skip_nonpositive_scores():
    pop = toy_population([2.0, -1.0, 1.0], [1.0, 1.0, 1.0])
    # slack budget still leaves the harmful unit untreated
    for baseline in (oracle_cate_baseline, oracle_ratio_baseline):
        gains, costs = baseline(pop, [100.0])
        assert (gains.tolist(), costs.tolist()) == ([3.0], [2.0])


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
        if np.any(budgets < 0):
            # a zero running total less 5e-10 is a negative budget
            with pytest.raises(ValueError, match="non-negative"):
                harness._greedy_baseline(score, pop, budgets)
            budgets = budgets[budgets >= 0]
        gains, costs = harness._greedy_baseline(score, pop, budgets)
        for b, g, c in zip(budgets, gains, costs):
            assert (g, c) == _greedy_loop(score, pop, float(b))


def test_ratio_and_cate_rankings_differ():
    # unit 0 has the bigger effect, unit 1 the better effect per unit cost
    pop = toy_population([2.0, 1.0], [4.0, 1.0])
    gains, costs = oracle_cate_baseline(pop, [4.0])
    assert (gains.tolist(), costs.tolist()) == ([2.0], [4.0])
    gains, costs = oracle_ratio_baseline(pop, [4.0])
    assert (gains.tolist(), costs.tolist()) == ([1.0], [1.0])


def test_zero_cost_positive_gain_units_rank_first():
    pop = toy_population([0.5, 3.0], [0.0, 1.0])
    gains, costs = oracle_ratio_baseline(pop, [1.0])
    assert (gains.tolist(), costs.tolist()) == ([3.5], [1.0])


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
    with pytest.raises(ValueError, match="no rungs"):
        harness._select_lambdas(0.5, [], sample, 40, 0)


def test_cross_validation_single_candidate_round_trips():
    sample = generate(DGPSpec("DGP1", 6, 60)).sample
    assert harness._select_lambdas(0.2, [4.0], sample, 40, 9) == (4.0, 4.0)
    # a candidate off the fixed ladder is tempered to exactly, and its own
    # value is what the study records
    assert 5.0 not in GridSpec().lambda_grid
    assert harness._select_lambdas(0.2, [5.0], sample, 40, 9) == (5.0, 5.0)


def test_cross_validation_is_deterministic():
    sample = generate(DGPSpec("DGP1", 8, 60)).sample
    picks = {harness._select_lambdas(0.4, [4.0, 32.0], sample, 40, 11)
             for _ in range(2)}
    assert len(picks) == 1


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


def _failing_replication_1(dgp, wait_for=None):
    """A generate whose draw of replication 1's training sample raises,
    after wait_for (a file) exists when one is named."""

    def draw(spec):
        if spec.seed != subseed(dgp.seed, "rep", 1):
            return generate(spec)
        deadline = time.monotonic() + 120.0
        while wait_for is not None and not os.path.exists(wait_for) \
                and time.monotonic() < deadline:
            time.sleep(0.05)
        raise RuntimeError("replication 1 failed")

    return draw


@pytest.mark.parametrize("workers", [1, 2])
def test_each_replication_is_written_as_it_returns(tmp_path, monkeypatch,
                                                   workers):
    if workers > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("the failing replication is patched in by forking")
    dgp = DGPSpec("DGP1", 17, 60)
    full, broken = tmp_path / "full", tmp_path / "broken"
    run_study(dgp, replications=2, grids=SMOKE_GRIDS,
              config=StudyConfig(out_dir=str(full), **SMOKE_CONFIG))
    # with two workers, replication 1 raises only once replication 0's
    # file is on disk, which is before the study has finished
    wait_for = broken / "replication_0.json" if workers > 1 else None
    monkeypatch.setattr(harness, "generate",
                        _failing_replication_1(dgp, wait_for))
    with pytest.raises(RuntimeError, match="replication 1 failed"):
        run_study(dgp, replications=2, grids=SMOKE_GRIDS,
                  config=StudyConfig(out_dir=str(broken), workers=workers,
                                     **SMOKE_CONFIG))
    assert sorted(os.listdir(broken)) == ["replication_0.json"]
    assert (broken / "replication_0.json").read_bytes() == \
        (full / "replication_0.json").read_bytes()


def test_a_study_on_two_workers_writes_the_files_of_one_worker(tmp_path):
    outs = {}
    for workers in (1, 2):
        outs[workers] = tmp_path / f"w{workers}"
        run_study(DGPSpec("DGP1", 23, 60), replications=2, grids=SMOKE_GRIDS,
                  config=StudyConfig(out_dir=str(outs[workers]),
                                     workers=workers, particles=30,
                                     n_test=100, n_bins=3))
    names = sorted(os.listdir(outs[1]))
    assert sorted(os.listdir(outs[2])) == names
    for name in names:
        one, two = (outs[w] / name for w in (1, 2))
        if name == "study_config.json":
            # the manifest records the worker count, and nothing else differs
            one, two = (json.loads(p.read_text()) for p in (one, two))
            assert (one.pop("workers"), two.pop("workers")) == (1, 2)
            assert one == two
        else:
            assert one.read_bytes() == two.read_bytes(), name


def test_a_one_worker_study_writes_the_files_of_one_thread(tmp_path,
                                                         monkeypatch):
    # the penalties of three-penalty replications run on the study's own
    # thread and its pool thread, which switch often here, and are
    # assembled in grid order
    grids = GridSpec(u_grid=[0.0, 0.6, 1.2], lambda_grid=[4.0, 32.0])
    outs = {}
    interval = sys.getswitchinterval()
    for name, two_cpus in (("threads", True), ("one_thread", False)):
        outs[name] = tmp_path / name
        with monkeypatch.context() as cpus:
            # on one CPU the first kernel call sets _helper to False
            cpus.setattr(gibbs, "_helper", gibbs._helper)
            cpus.setattr(gibbs, "_two_cpus", lambda: two_cpus)
            sys.setswitchinterval(1e-5)
            try:
                run_study(DGPSpec("DGP1", 29, 60), replications=2,
                          grids=grids,
                          config=StudyConfig(out_dir=str(outs[name]),
                                             particles=30, n_test=100,
                                             n_bins=3))
            finally:
                sys.setswitchinterval(interval)
    names = sorted(os.listdir(outs["threads"]))
    assert sorted(os.listdir(outs["one_thread"])) == names
    for name in names:
        assert (outs["threads"] / name).read_bytes() \
            == (outs["one_thread"] / name).read_bytes(), name


TWO_CPUS = pytest.mark.skipif(not gibbs._two_cpus(),
                              reason="a one-worker study shares its "
                                     "penalties only where two CPUs are "
                                     "allowed")


@TWO_CPUS
def test_a_one_worker_study_never_hands_a_kernel_call_to_the_helper(
        monkeypatch):
    handed = []
    submit = gibbs._Helper.submit

    def counted(helper, task):
        handed.append(threading.current_thread().name)
        return submit(helper, task)

    monkeypatch.setattr(gibbs._Helper, "submit", counted)
    # fold fits of 200 units x 420 particles: one block of the kernel, which
    # the helper would take half of on any other thread
    n, particles = 400, 420
    assert n // 2 * particles >= gibbs._SPLIT_ELEMENTS
    run_study(DGPSpec("DGP1", 5, n), replications=1,
              grids=GridSpec(u_grid=[0.0, 1.0], lambda_grid=[4.0, 8.0]),
              config=StudyConfig(particles=particles, n_test=200, n_bins=2))
    assert handed == []
    # the same shape on this thread does go to the helper
    rng = np.random.default_rng(2)
    gibbs.welfare_cost_matrix(
        rng.normal(size=(particles, 6)),
        IPWScores(rng.normal(size=n // 2), rng.normal(size=n // 2)),
        rng.normal(size=(n // 2, 6)))
    assert handed == [threading.current_thread().name]


def _pool_threads() -> set:
    return {t for t in threading.enumerate()
            if t.name.startswith("ThreadPoolExecutor")}


@TWO_CPUS
@pytest.mark.parametrize("failure", ["error", "interrupt"])
def test_a_failed_penalty_stops_a_one_worker_study(monkeypatch, failure):
    # penalty 0 raises, or interrupts the study's own thread as Ctrl-C
    # does; every other penalty sleeps and then raises an error of its own
    started = []

    def select(u, *args):
        started.append(float(u))
        if u == 0.0:
            if failure == "error":
                raise ArithmeticError("penalty 0 failed")
            # once both threads run a penalty, where a Ctrl-C during a
            # study finds them
            time.sleep(0.1)
            signal.pthread_kill(threading.main_thread().ident,
                                signal.SIGINT)
        time.sleep(0.3)
        raise LookupError("a later penalty failed")

    def study():
        run_study(DGPSpec("DGP1", 3, 60), replications=2,
                  grids=GridSpec(u_grid=np.linspace(0.0, 1.4, 8),
                                 lambda_grid=[4.0]),
                  config=StudyConfig(particles=20, n_test=50, n_bins=2))

    monkeypatch.setattr(harness, "_select_lambdas", select)
    handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    before = _pool_threads()
    try:
        with pytest.raises(ArithmeticError if failure == "error"
                           else KeyboardInterrupt) as raised:
            study()
    finally:
        signal.signal(signal.SIGINT, handler)
    # besides penalty 0, at most the other thread's penalty ran; the other
    # six were never taken
    assert 0.0 in started and len(started) <= 2
    assert _pool_threads() <= before
    if failure == "error":
        # the error of one thread
        started.clear()
        monkeypatch.setattr(gibbs, "_helper", gibbs._helper)
        monkeypatch.setattr(gibbs, "_two_cpus", lambda: False)
        with pytest.raises(ArithmeticError) as alone:
            study()
        assert started == [0.0]
        assert str(alone.value) == str(raised.value)


def _kernel_helper_of_a_worker(*job):
    # stands in for _run_replication: one kernel call of many blocks, then
    # whether the kernel hands blocks off on the worker's thread, the
    # worker's helper (None: never started) and its live threads
    rng = np.random.default_rng(len(job))
    gibbs.welfare_cost_matrix(
        rng.normal(size=(1000, 4)),
        IPWScores(rng.normal(size=1000), rng.normal(size=1000)),
        rng.normal(size=(1000, 4)))
    return gibbs._kernel_helper(), gibbs._helper, threading.active_count()


def test_a_study_pool_worker_runs_the_kernel_on_one_thread(monkeypatch):
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the stand-in replication is patched in by forking")
    monkeypatch.setattr(harness, "_run_replication",
                        _kernel_helper_of_a_worker)
    assert list(harness._replications([(0,), (1,)], 2)) \
        == [(False, None, 1), (False, None, 1)]


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
