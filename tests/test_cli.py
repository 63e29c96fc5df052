"""End-to-end checks of the command line interface.

Most tests call main() in process and assert on exit codes, files, and
stream output; one goes through the installed console script to check the
packaging wiring.
"""

import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from itertools import takewhile

import numpy as np
import pytest

from pbpolicy import cli, smc
from pbpolicy.data import (CSV_BLOCK_ROWS, WeightedParticles, _fmt,
                           ipw_transform, load_rule, load_sample_csv,
                           poly_feature_map, save_rule)
from pbpolicy.dgp import DGPSpec, generate
from pbpolicy.gibbs import IsotropicNormalPrior, welfare_cost_matrix
from pbpolicy.rules import (GibbsRule, MajorityVoteRule, mv_decide,
                            sample_assignments, treat_probability)
from pbpolicy.smc import (MH_STEPS_PER_STAGE, AdaptiveLadder, SMCConfig,
                          TemperatureLadder, _StageStreams,
                          build_default_ladder, run_smc)


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def sample_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    rc = cli.main(["simulate", "--dgp", "dgp1", "--n", "50",
                   "--seed", "3", "--out", str(out)])
    assert rc == 0
    return out / "sample.csv"


@pytest.fixture(scope="module")
def fitted(tmp_path_factory, sample_csv):
    out = tmp_path_factory.mktemp("fit")
    rc = cli.main(["fit", str(sample_csv), "--out", str(out),
                   "--lambda", "4", "--u", "0",
                   "--particles", "40", "--seed", "7"])
    assert rc == 0
    return out


# ---------------------------------------------------------------------------
# simulate

def test_simulate_stdout_row_count(capsys):
    assert run_cli("simulate", "--dgp", "dgp1", "--n", 10, "--seed", 1) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "y,c,d,x1,x2,x3,e"
    assert len(lines) == 11
    first = lines[1].split(",")
    assert len(first) == 7
    float(first[0])
    assert first[2] in ("0", "1")
    assert float(first[6]) == 0.5


def test_simulate_writes_the_same_csv_to_stdout_and_to_a_file(tmp_path,
                                                             capsys):
    argv = ("simulate", "--dgp", "dgp2", "--n", 12, "--seed", 4)
    assert run_cli(*argv) == 0
    printed = capsys.readouterr().out
    assert run_cli(*argv, "--out", tmp_path) == 0
    assert (tmp_path / "sample.csv").read_text() == printed


@pytest.mark.parametrize("design", ["dgp1", "dgp2"])
@pytest.mark.parametrize("seed", [3, 2**63 + 7])
def test_simulate_csv_reads_back_as_the_generated_sample(tmp_path, design,
                                                        seed):
    # one row past two blocks, so the rows cross both block edges
    n = 2 * CSV_BLOCK_ROWS + 1
    assert run_cli("simulate", "--dgp", design, "--n", n, "--seed", seed,
                   "--out", tmp_path) == 0
    got = load_sample_csv(tmp_path / "sample.csv")
    want = generate(DGPSpec(design.upper(), seed, n)).sample
    for column in ("y", "c", "d", "x", "e"):
        assert np.array_equal(getattr(got, column), getattr(want, column))
    assert got.kappa == 0.49


def test_simulate_file_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("simulate", "--dgp", "dgp2", "--n", 8, "--seed", 5,
                   "--out", a) == 0
    assert run_cli("simulate", "--dgp", "dgp2", "--n", 8, "--seed", 5,
                   "--out", b) == 0
    assert (a / "sample.csv").read_bytes() == (b / "sample.csv").read_bytes()
    assert (a / "run_config.json").exists()
    assert run_cli("simulate", "--dgp", "dgp2", "--n", 8, "--seed", 6,
                   "--out", a) == 0
    assert (a / "sample.csv").read_bytes() != (b / "sample.csv").read_bytes()


def test_study_threads_default_to_one_worker(monkeypatch):
    # study_config.json records the worker count, so a default that followed
    # the host's cores would make the study's bytes depend on the host
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    assert cli.build_parser().parse_args(["study"]).threads == 1


def test_study_reps_default_to_twenty():
    # the paper's own studies run 100; pass --reps 100 for those
    assert cli.build_parser().parse_args(["study"]).reps == 20


@pytest.mark.parametrize("argv", [
    ["simulate", "--dgp", "dgp1", "--n", 3, "--seed", -1],
    ["oracle", "--dgp", "dgp1", "--budget", 0.5, "--n", 50,
     "--seed", 2**64],
])
def test_design_commands_reject_a_seed_outside_64_bits(capsys, argv):
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"error: --seed: seed must be a non-negative integer below "
            f"2^64, got {argv[-1]}") in captured.err


def test_study_takes_any_integer_master_seed(tmp_path):
    # a study keys its streams by hashes of the master seed, never by the
    # seed itself
    out = tmp_path / "study"
    assert run_cli("study", "--dgp", "dgp1", "--reps", 1, "--n", 40,
                   "--particles", 20, "--n-test", 60, "--bins", 2,
                   "--seed", -1, "--u-grid", "0,0.8", "--lambda-grid", "4",
                   "--out", out) == 0
    assert json.loads((out / "study_config.json").read_text())["dgp"][
        "seed"] == -1


def test_simulate_rejects_unknown_design(capsys):
    assert run_cli("simulate", "--dgp", "dgp9", "--n", 5) == 1
    assert "dgp9" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fit

def test_fit_outputs(fitted):
    doc = json.loads((fitted / "rule.json").read_text())
    assert doc["kind"] == "fitted_rule"
    weights = np.array(doc["payload"]["particles"]["weights"])
    assert weights.shape == (40,)
    assert weights.sum() == pytest.approx(1.0, abs=1e-9)
    fm = doc["payload"]["feature_map"]
    assert fm["degree"] == 2 and fm["d_x"] == 3
    assert len(fm["means"]) == 10

    diag = json.loads((fitted / "diagnostics.json").read_text())
    assert diag["lam"] == 4.0
    assert diag["u"] == 0.0
    assert diag["u_solved"] is False
    assert np.isfinite(diag["estimated_cost"])
    stages = diag["stages"]
    lams = [s["lam"] for s in stages]
    assert all(a < b for a, b in zip(lams, lams[1:]))
    assert all(0.0 <= s["acceptance"] <= 1.0 for s in stages)
    assert all(1.0 <= s["ess"] <= 40.0 for s in stages)
    assert lams[-1] == 4.0

    echoed = json.loads((fitted / "run_config.json").read_text())
    assert echoed["command"] == "fit"
    assert echoed["lam"] == 4.0
    assert echoed["particles"] == 40


def test_fit_same_seed_is_byte_identical(tmp_path, sample_csv):
    dirs = [tmp_path / "r1", tmp_path / "r2"]
    for d in dirs:
        assert run_cli("fit", sample_csv, "--out", d, "--lambda", "4",
                       "--u", "0.5", "--particles", 30, "--seed", 11) == 0
    assert ((dirs[0] / "rule.json").read_bytes()
            == (dirs[1] / "rule.json").read_bytes())


def test_fit_loose_budget_reports_zero_penalty(tmp_path, sample_csv):
    out = tmp_path / "loose"
    assert run_cli("fit", sample_csv, "--out", out, "--lambda", "4",
                   "--budget", "1000", "--particles", 30, "--seed", 2) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["u"] == 0.0
    assert diag["u_solved"] is True
    assert diag["budget"] == 1000.0


def test_fit_infeasible_budget(tmp_path, sample_csv, capsys):
    out = tmp_path / "never"
    rc = run_cli("fit", sample_csv, "--out", out, "--lambda", "4",
                 "--budget", "-1000", "--particles", 16, "--seed", 2)
    assert rc == 1
    assert "budget" in capsys.readouterr().err


@pytest.fixture(scope="module")
def budget_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("budget_sim")
    assert cli.main(["simulate", "--dgp", "dgp1", "--n", "300",
                     "--seed", "8", "--out", str(out)]) == 0
    return out / "sample.csv"


@pytest.mark.parametrize("seed,budget", [(0, 0.3), (1, 0.45), (2, 0.6),
                                         (3, 0.45)])
def test_fit_budget_meets_its_tolerance(tmp_path, budget_csv, seed, budget):
    tol = 1e-3
    out = tmp_path / "solved"
    assert run_cli("fit", budget_csv, "--out", out, "--lambda", "8",
                   "--budget", budget, "--budget-tol", tol,
                   "--particles", 100, "--seed", seed) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["u"] > 0.0 and diag["u_solved"] is True
    assert abs(diag["estimated_cost"] - budget) <= tol
    assert diag["budget_gap"] == pytest.approx(
        abs(diag["estimated_cost"] - budget) / tol)
    assert 1 <= diag["smc_runs"] <= 6
    assert 50.0 <= diag["tilted_ess"] <= 100.0
    assert diag["pilot_u"] >= 0.0
    # the rule is the last pilot's cloud, reweighted to the solved penalty
    particles = json.loads((out / "rule.json").read_text())[
        "payload"]["particles"]
    assert particles["u"] == diag["u"]
    assert len(diag["stages"]) == build_default_ladder(diag["u"], 8.0).T


@pytest.fixture(scope="module")
def negative_mean_csv(tmp_path_factory):
    """simulate --dgp dgp1 --n 500 --seed 3, with y lowered by 2.3 on the
    treated units: its mean welfare score is -0.695."""
    out = tmp_path_factory.mktemp("negative_mean")
    assert cli.main(["simulate", "--dgp", "dgp1", "--n", "500",
                     "--seed", "3", "--out", str(out)]) == 0
    path = out / "sample.csv"
    header, *rows = path.read_text().splitlines()
    lowered = []
    for row in rows:
        y, rest = row.split(",", 1)
        treated = rest.split(",")[1] == "1"
        lowered.append(f"{float(y) - 2.3 if treated else float(y)!r},{rest}")
    path.write_text("\n".join([header, *lowered]) + "\n")
    scores = ipw_transform(load_sample_csv(path, kappa=0.25))
    assert round(scores.mean_delta_y, 3) == -0.695
    return path


# treating nobody has welfare 0, and treating everyone the mean welfare
# score; the fit may fall short of the better of the two by this much
WELFARE_FLOOR_MARGIN = 0.05


def test_fit_on_a_negative_mean_keeps_the_criterions_sign(tmp_path,
                                                          negative_mean_csv):
    # dividing lambda by the negative mean itself would favour rules of low
    # welfare and high cost: such a fit found welfare -0.731 at cost 1.323
    out = tmp_path / "fit"
    assert run_cli("fit", negative_mean_csv, "--out", out, "--lambda", "32",
                   "--u", "0", "--particles", 500, "--seed", 0) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    floor = max(0.0, -0.695)
    assert diag["estimated_welfare"] >= floor - WELFARE_FLOOR_MARGIN


def test_fit_budget_on_a_negative_mean_meets_its_tolerance(tmp_path,
                                                           negative_mean_csv):
    # with the sign turned, the tilted cost rose with u and the search
    # doubled u until the weights broke
    out = tmp_path / "fit"
    assert run_cli("fit", negative_mean_csv, "--out", out, "--lambda", "32",
                   "--budget", 0.3, "--particles", 500, "--seed", 0) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["u_solved"] is True and diag["budget_gap"] <= 1.0


def _fixed_ladder_fit(csv, u, lam, particles, seed):
    """The fixed-ladder cloud at (lam, u) that a confirming run of fit
    --budget makes with these flags, with its feature map, scores and
    features."""
    sample = load_sample_csv(csv, kappa=0.25)
    fmap = poly_feature_map(2, sample.x.shape[1]).fit_normalization(sample.x)
    scores, feats = ipw_transform(sample), fmap.transform(sample.x)
    ladder = build_default_ladder(u, lam)
    cloud = run_smc(scores, feats,
                    IsotropicNormalPrior(q=fmap.dimension, sigma=1.0),
                    ladder, SMCConfig(n_particles=particles, seed=seed))
    return cloud[ladder.T], fmap, scores, feats


def test_fit_slack_budget_is_the_unpenalized_fit(tmp_path, budget_csv):
    args = ["--lambda", "8", "--particles", 40, "--seed", 5]
    assert run_cli("fit", budget_csv, "--out", tmp_path / "slack",
                   "--budget", "50", *args) == 0
    cloud, fmap, _, _ = _fixed_ladder_fit(budget_csv, 0.0, 8.0, 40, 5)
    save_rule(cloud, fmap, True, tmp_path / "fixed.json")
    assert ((tmp_path / "fixed.json").read_bytes()
            == (tmp_path / "slack" / "rule.json").read_bytes())
    diag = json.loads((tmp_path / "slack" / "diagnostics.json").read_text())
    # one locating run on the adaptive ladder, one confirming run on the
    # fixed one
    assert diag["smc_runs"] == 2 and diag["budget_gap"] == 0.0
    assert run_cli("fit", budget_csv, "--out", tmp_path / "u0",
                   "--u", "0", *args) == 0
    plain = json.loads((tmp_path / "u0" / "diagnostics.json").read_text())
    assert not {"budget_gap", "smc_runs", "pilot_u", "tilted_ess"} & set(plain)


def _thetas(out):
    particles = json.loads((out / "rule.json").read_text())[
        "payload"]["particles"]
    return np.array(particles["thetas"]).tobytes()


def test_fit_budget_rule_is_the_fixed_ladder_fit_at_its_pilot(tmp_path,
                                                             budget_csv):
    assert run_cli("fit", budget_csv, "--out", tmp_path / "b",
                   "--budget", "0.45", "--lambda", "8", "--particles", 100,
                   "--seed", 1) == 0
    diag = json.loads((tmp_path / "b" / "diagnostics.json").read_text())
    cloud, _, _, _ = _fixed_ladder_fit(budget_csv, diag["pilot_u"], 8.0,
                                       100, 1)
    assert _thetas(tmp_path / "b") == cloud.thetas.tobytes()
    assert len(diag["stages"]) == build_default_ladder(diag["u"], 8.0).T


def _spy_on_run_smc(monkeypatch, record):
    """Call record(ladder, config) before every SMC run of the CLI: the
    fixed ladder's runs go through cli.run_smc and temper's through
    smc.run_smc, so both names get the same spy."""
    real = smc.run_smc

    def spy(scores, feats, prior, ladder, config, trace=None):
        record(ladder, config)
        return real(scores, feats, prior, ladder, config, trace=trace)

    monkeypatch.setattr(cli, "run_smc", spy)
    monkeypatch.setattr(smc, "run_smc", spy)


def test_fit_budget_locates_adaptively_and_confirms_on_the_fixed_ladder(
        monkeypatch, tmp_path, budget_csv):
    ladders = []
    _spy_on_run_smc(monkeypatch, lambda ladder, config: ladders.append(
        (type(ladder), config.mh_steps_per_stage)))
    out = tmp_path / "b"
    assert run_cli("fit", budget_csv, "--out", out, "--lambda", "8",
                   "--budget", "0.45", "--particles", 100, "--seed", 1) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert len(ladders) == diag["smc_runs"]
    assert ladders[0] == (AdaptiveLadder, MH_STEPS_PER_STAGE)
    assert ladders[-1] == (TemperatureLadder, 1)
    kinds = [kind for kind, _ in ladders]
    located = kinds.count(AdaptiveLadder)
    assert kinds[located:] == [TemperatureLadder] * (len(kinds) - located)


def test_fit_u_runs_once_on_the_adaptive_ladder(monkeypatch, tmp_path,
                                                budget_csv):
    runs = []
    _spy_on_run_smc(monkeypatch, lambda ladder, config: runs.append(
        (type(ladder), ladder.u_final, ladder.rungs,
         config.mh_steps_per_stage)))
    out = tmp_path / "u"
    assert run_cli("fit", budget_csv, "--out", out, "--lambda", "8",
                   "--u", "0.6", "--particles", 100, "--seed", 1) == 0
    assert runs == [(AdaptiveLadder, 0.6, (8.0,), MH_STEPS_PER_STAGE)]
    particles = json.loads((out / "rule.json").read_text())[
        "payload"]["particles"]
    assert (particles["lam"], particles["u"]) == (8.0, 0.6)


def test_fit_u_agrees_with_the_fixed_ladder(tmp_path, budget_csv):
    # posterior means of W and K over eight seeds on each ladder agree
    # within 4 combined standard errors
    adaptive, fixed = [], []
    for seed in range(8):
        out = tmp_path / str(seed)
        assert run_cli("fit", budget_csv, "--out", out, "--lambda", "8",
                       "--u", "0.6", "--particles", 200, "--seed", seed) == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        adaptive.append((diag["estimated_welfare"], diag["estimated_cost"]))
        cloud, _, scores, feats = _fixed_ladder_fit(budget_csv, 0.6, 8.0,
                                                    200, seed)
        w, k = welfare_cost_matrix(cloud.thetas, scores, feats)
        fixed.append((cloud.weights @ w, cloud.weights @ k))
    adaptive, fixed = np.array(adaptive), np.array(fixed)
    gap = np.abs(adaptive.mean(axis=0) - fixed.mean(axis=0))
    se = np.hypot(adaptive.std(axis=0, ddof=1), fixed.std(axis=0, ddof=1))
    assert np.all(gap <= 4.0 * se / np.sqrt(8))


@pytest.fixture(scope="module")
def n1000_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("n1000_sim")
    assert cli.main(["simulate", "--dgp", "dgp1", "--n", "1000",
                     "--seed", "11", "--out", str(out)]) == 0
    return out / "sample.csv"


def test_fit_budget_whose_pilots_do_not_settle_confirms_after_the_cap(
        tmp_path, n1000_csv):
    # sixteen particles at lambda 32: the adaptive pilots' tilts keep
    # missing, and without the cap they ran out of SMC runs
    out = tmp_path / "b"
    assert run_cli("fit", n1000_csv, "--out", out, "--lambda", "32",
                   "--budget", "0.2", "--particles", 16, "--seed", 1) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["smc_runs"] > cli._LOCATE_RUNS
    assert diag["budget_gap"] <= 1.0


def test_fit_budget_cap_hand_over_resets_the_bracket(monkeypatch, tmp_path,
                                                     n1000_csv):
    # the case above: its adaptive pilots leave a bracket that excludes the
    # u_hat of the first fixed-ladder run, which the next one must still use
    runs, solved = [], []
    solve_u_hat = cli.solve_u_hat

    def solve_spy(*args, **kwargs):
        solved.append(None)  # stays None when the solve raises
        solved[-1] = solve_u_hat(*args, **kwargs)
        return solved[-1]

    _spy_on_run_smc(monkeypatch, lambda ladder, config: runs.append(ladder))
    monkeypatch.setattr(cli, "solve_u_hat", solve_spy)
    assert run_cli("fit", n1000_csv, "--out", tmp_path / "b", "--lambda", "32",
                   "--budget", "0.2", "--particles", 16, "--seed", 1) == 0
    assert len(solved) == len(runs)
    fixed = [i for i, ladder in enumerate(runs)
             if isinstance(ladder, TemperatureLadder)]
    assert len(fixed) >= 2
    first, second = fixed[:2]
    assert solved[first] is not None
    assert runs[second].steps[-1][1] == solved[first]


def test_fit_budget_ends_on_a_narrow_confirming_bracket(monkeypatch,
                                                        tmp_path, n1000_csv,
                                                        capsys):
    # twelve particles at lambda 16: the confirming runs' tilts keep
    # missing, and the bisection went on to the 50-run cap over a bracket
    # 1e-12 wide
    runs = []
    _spy_on_run_smc(monkeypatch, lambda ladder, config: runs.append(ladder))
    out = tmp_path / "b"
    assert run_cli("fit", n1000_csv, "--out", out, "--lambda", "16",
                   "--budget", "0.3", "--particles", 12, "--seed", 4) == 2
    assert len(runs) <= 25
    err = capsys.readouterr().err
    assert f"after {len(runs)} SMC runs" in err
    assert "the confirming runs bracket the penalty in [" in err
    assert not (out / "rule.json").exists()


def test_fit_budget_run_cap_bounds_every_run(monkeypatch, tmp_path,
                                             budget_csv, capsys):
    # a slack budget settles on the first, locating run; the confirming run
    # it hands over to would be the second
    monkeypatch.setattr(cli, "_MAX_SMC_RUNS", 1)
    assert run_cli("fit", budget_csv, "--out", tmp_path / "b",
                   "--lambda", "8", "--budget", "50", "--particles", 40,
                   "--seed", 5) == 2
    assert "did not settle after 1 SMC runs" in capsys.readouterr().err


def test_fit_budget_miss_exits_with_runtime_code(monkeypatch, tmp_path,
                                                 budget_csv, capsys):
    monkeypatch.setattr(cli, "rule_empirical_cost", lambda *args: 0.5)
    out = tmp_path / "miss"
    rc = run_cli("fit", budget_csv, "--out", out, "--lambda", "8",
                 "--budget", "0.45", "--particles", 40, "--seed", 1)
    assert rc == 2
    assert "budget_gap = 50" in capsys.readouterr().err
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["budget_gap"] == pytest.approx(50.0)


def test_fit_rejects_nonpositive_budget_tolerance(tmp_path, sample_csv,
                                                  capsys):
    assert run_cli("fit", sample_csv, "--out", tmp_path / "tol",
                   "--lambda", "4", "--budget", "0.5",
                   "--budget-tol", "0") == 1
    assert "--budget-tol" in capsys.readouterr().err


def test_fit_flag_validation(tmp_path, sample_csv, capsys):
    out = tmp_path / "bad"
    assert run_cli("fit", sample_csv, "--out", out, "--u", "0") == 1
    assert "--lambda" in capsys.readouterr().err
    assert run_cli("fit", sample_csv, "--out", out, "--lambda", "4") == 1
    assert "exactly one" in capsys.readouterr().err
    assert run_cli("fit", sample_csv, "--out", out, "--lambda", "4",
                   "--u", "0", "--budget", "1") == 1
    capsys.readouterr()


_FIT_ARGS = ("--lambda", 4, "--u", 0, "--particles", 20)
_DESIGN_ARGS = {
    "study": ("--dgp", "dgp1", "--reps", 1, "--n", 50, "--particles", 30,
              "--n-test", 120, "--bins", 3, "--u-grid", "0,0.8",
              "--lambda-grid", "4"),
    "simulate": ("--dgp", "dgp1", "--n", 5),
    "oracle": ("--dgp", "dgp1", "--budget", 0.5, "--n", 50),
    "bounds": ("--n", 20000, "--kappa", 0.25, "--my", 2, "--mc", 2,
               "--lambda", 16, "--u", 0.5, "--eps", 0.05),
}


@pytest.mark.parametrize("command, flag, value, message", [
    ("fit", "--lambda", 0, "--lambda must lie in (0, 1024]"),
    ("fit", "--lambda", 2000, "--lambda must lie in (0, 1024]"),
    ("fit", "--particles", 1, "--particles: n_particles must be >= 2"),
    ("fit", "--degree", 0, "--degree: degree must be >= 1"),
    ("fit", "--sigma", -1, "--sigma: sigma must be positive"),
    ("fit", "--seed", -1, "--seed: seed must be a non-negative integer"),
    ("fit", "--u", -1, "--u must be non-negative"),
    ("study", "--particles", 1, "--particles: particles must be >= 2"),
    ("study", "--bins", 0, "--bins: n_bins must be >= 1"),
    ("study", "--n-test", 0, "--n-test: n_test must be >= 1"),
    ("study", "--reps", 0, "--reps must be >= 1"),
    ("study", "--threads", 0, "--threads: workers must be >= 1"),
    ("study", "--u-grid", 0.5, "--u-grid: u_grid needs at least 2 values"),
    ("simulate", "--n", 0, "--n: n must be >= 1"),
    ("simulate", "--seed", -1, "--seed: seed must be a non-negative integer"),
    ("oracle", "--n", 0, "--n: n must be >= 1"),
    ("oracle", "--budget", -1, "--budget: budget -1.0 is at or below"),
    ("bounds", "--grid-size", 0,
     "--grid-size: grid_cardinality must be a positive integer"),
    ("bounds", "--eps", 0, "--eps: epsilon must lie in (0, 1]"),
    ("bounds", "--uhat", -1, "--uhat: u_hat must be non-negative"),
    ("bounds", "--kappa", 0.7, "--kappa: kappa must lie in (0, 1/2]"),
    # a message that does not begin with a field names no flag
    ("bounds", "--dkl", -1, "KL divergence must be non-negative"),
])
def test_bad_settings_write_nothing_and_name_the_flag(tmp_path, sample_csv,
                                                      capsys, command, flag,
                                                      value, message):
    out = tmp_path / "o"
    argv = ((command, sample_csv, *_FIT_ARGS) if command == "fit"
            else (command, *_DESIGN_ARGS[command]))
    assert run_cli(*argv, flag, value, "--out", out) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_fit_and_study_reject_a_sample_too_small_to_normalize(tmp_path,
                                                              sample_csv,
                                                              capsys):
    one_row = tmp_path / "one.csv"
    one_row.write_text("".join(sample_csv.read_text().splitlines(True)[:2]))
    assert run_cli("fit", one_row, "--out", tmp_path / "o", "--lambda", "4",
                   "--u", "0") == 1
    assert f"{one_row}: need at least 2 rows to normalize" in \
        capsys.readouterr().err
    assert not (tmp_path / "o" / "rule.json").exists()
    # a 3-unit study would normalize one cross-validation fold on one unit
    assert run_cli("study", "--dgp", "dgp1", "--n", 3, "--reps", 1,
                   "--out", tmp_path / "s") == 1
    assert "--n must be at least 4" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("argv", [
    ["--budget", "nan"],
    ["--budget", "inf"],
    ["--u", "nan"],
    ["--u", "0.5", "--my", "nan"],
])
def test_float_flags_reject_non_finite_values(tmp_path, sample_csv, capsys,
                                              argv):
    flag, value = argv[-2:]
    with pytest.raises(SystemExit) as caught:
        run_cli("fit", sample_csv, "--lambda", "4", *argv,
                "--out", tmp_path / "o")
    assert caught.value.code == 1
    assert f"argument {flag}: {value!r} is not a finite number" in \
        capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_file_float_strings_must_be_finite(tmp_path, sample_csv,
                                                  capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"budget": "nan"}))
    with pytest.raises(SystemExit) as caught:
        run_cli("fit", sample_csv, "--lambda", "4", "--config", cfg,
                "--out", tmp_path / "o")
    assert caught.value.code == 1
    assert "argument --budget: 'nan' is not a finite number" in \
        capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_fit_rejects_bad_schema(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("y,c,x1\n1.0,0.5,0.2\n")
    assert run_cli("fit", bad, "--out", tmp_path / "o", "--lambda", "4",
                   "--u", "0") == 1
    assert "missing column" in capsys.readouterr().err


def test_fit_missing_file(tmp_path, capsys):
    rc = run_cli("fit", tmp_path / "nope.csv", "--out", tmp_path / "o",
                 "--lambda", "4", "--u", "0")
    assert rc == 1
    capsys.readouterr()


def test_fit_config_file_with_flag_override(tmp_path, sample_csv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lam": 4.0, "u": 0.0, "particles": 50,
                               "seed": 4}))
    out = tmp_path / "out"
    assert run_cli("fit", sample_csv, "--config", cfg, "--out", out,
                   "--particles", 30) == 0
    echoed = json.loads((out / "run_config.json").read_text())
    assert echoed["lam"] == 4.0
    assert echoed["particles"] == 30
    assert echoed["seed"] == 4


def test_config_file_rejects_unknown_keys(tmp_path, sample_csv, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lam": 4.0, "u": 0.0, "bogus": 1}))
    assert run_cli("fit", sample_csv, "--config", cfg,
                   "--out", tmp_path / "o") == 1
    assert "bogus" in capsys.readouterr().err
    # positional inputs come from the command line: a config file may only
    # repeat them
    cfg.write_text(json.dumps({"lam": 4.0, "u": 0.0, "data": "x.csv"}))
    assert run_cli("fit", sample_csv, "--config", cfg,
                   "--out", tmp_path / "o") == 1
    assert (f"{cfg}: config key 'data' is 'x.csv', but the command line "
            f"gives '{sample_csv}'") in capsys.readouterr().err
    # so may the command: another command's echo is refused
    cfg.write_text(json.dumps({"command": "study", "out": "s", "dgp": "dgp1",
                               "reps": 2}))
    assert run_cli("simulate", "--config", cfg) == 1
    assert (f"{cfg}: config key 'command' is 'study', but the command line "
            f"gives 'simulate'") in capsys.readouterr().err


def test_run_config_replays_its_run(tmp_path, sample_csv, fitted):
    # each command's echo, passed back with the same inputs, writes every
    # file again byte for byte, run_config.json included
    runs = [
        ("simulate", "--dgp", "dgp2", "--n", 20, "--seed", 2**63 + 7),
        ("fit", sample_csv, "--lambda", 4, "--u", 0.5, "--particles", 30),
        ("score", fitted / "rule.json", sample_csv, "--mode", "sample",
         "--seed", 5),
        ("oracle", "--dgp", "dgp1", "--budget", 0.6, "--n", 500),
        ("bounds", "--n", 1000, "--kappa", 0.25, "--my", 2, "--mc", 2,
         "--lambda", 8, "--u", 0.5, "--eps", 0.05, "--q", 3, "--nu", 0.1),
        ("study", "--dgp", "dgp1", "--reps", 1, "--n", 40, "--particles", 20,
         "--n-test", 60, "--bins", 2, "--u-grid", "0,0.8",
         "--lambda-grid", "4"),
    ]
    for command, *args in runs:
        out = tmp_path / command
        assert run_cli(command, *args, "--out", out) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert "run_config.json" in first
        inputs = takewhile(lambda a: not str(a).startswith("--"), args)
        assert run_cli(command, *inputs, "--config",
                       out / "run_config.json") == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == first, \
            command


@pytest.mark.parametrize("text, message", [
    ("{", "is not valid JSON"),
    ("[1, 2]", "config file must hold a JSON object"),
])
def test_config_file_must_be_a_json_object(tmp_path, sample_csv, capsys,
                                           text, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert run_cli("fit", sample_csv, "--config", cfg,
                   "--out", tmp_path / "o") == 1
    assert message in capsys.readouterr().err


def test_config_file_strings_are_parsed_by_the_flag_type(tmp_path,
                                                        sample_csv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lam": "4", "u": "0", "particles": "30",
                               "seed": "4"}))
    assert run_cli("fit", sample_csv, "--config", cfg,
                   "--out", tmp_path / "o") == 0
    echoed = json.loads((tmp_path / "o" / "run_config.json").read_text())
    assert (echoed["lam"], echoed["u"], echoed["particles"],
            echoed["seed"]) == (4.0, 0.0, 30, 4)


@pytest.mark.parametrize("setting, message", [
    ({"raw": "false"}, "config key 'raw' must be true or false"),
    ({"particles": 30.5}, "config key 'particles' must be an integer"),
    ({"lam": True}, "config key 'lam' must be a finite number"),
])
def test_config_file_values_must_fit_the_flag_type(tmp_path, sample_csv,
                                                   capsys, setting, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lam": 4, "u": 0, "particles": 30, **setting}))
    assert run_cli("fit", sample_csv, "--config", cfg,
                   "--out", tmp_path / "o") == 1
    assert f"{cfg}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("grid", [[False, True], ["a"]])
def test_config_file_grid_lists_hold_finite_numbers(tmp_path, capsys, grid):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"u_grid": grid}))
    assert run_cli("study", "--dgp", "dgp1", "--config", cfg,
                   "--out", tmp_path / "s") == 1
    assert (f"{cfg}: config key 'u_grid' must be a list of finite numbers, "
            f"not {json.dumps(grid)}") in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_config_file_numbers_take_the_flag_type(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"reps": 2.0, "dgp": None, "u_grid": [0, 1],
                               "budgets": "0.5"}))
    parser = cli.build_parser()
    parser.commands["study"].load_config(
        str(cfg), vars(parser.parse_args(["study"])))
    args = parser.parse_args(["study"])
    assert type(args.reps) is int and args.reps == 2
    assert (args.dgp, args.u_grid, args.budgets) == (None, [0.0, 1.0], [0.5])
    cfg.write_text(json.dumps({"lam": 4, "particles": 30}))
    parser.commands["fit"].load_config(
        str(cfg), vars(parser.parse_args(["fit", "data.csv"])))
    args = parser.parse_args(["fit", "data.csv"])
    assert type(args.lam) is float and args.lam == 4.0
    assert type(args.particles) is int and args.particles == 30


def test_run_config_bytes(tmp_path, fitted, sample_csv):
    # the key order and spelling of run_config.json are part of its format
    assert (fitted / "run_config.json").read_text() == f"""{{
 "command": "fit",
 "data": {json.dumps(str(sample_csv))},
 "out": {json.dumps(str(fitted))},
 "lam": 4.0,
 "u": 0.0,
 "budget": null,
 "particles": 40,
 "seed": 7,
 "degree": 2,
 "sigma": 1.0,
 "propensity": null,
 "kappa": 0.25,
 "my": null,
 "mc": null,
 "raw": false,
 "budget_tol": 0.001
}}
"""
    out = tmp_path / "study"
    assert run_cli("study", "--dgp", "dgp1", "--reps", 1, "--n", 40,
                   "--particles", 20, "--n-test", 60, "--bins", 2,
                   "--u-grid", "0,1", "--lambda-grid", "4,16",
                   "--out", out) == 0
    assert (out / "run_config.json").read_text() == f"""{{
 "command": "study",
 "out": {json.dumps(str(out))},
 "dgp": "dgp1",
 "reps": 1,
 "n": 40,
 "particles": 20,
 "n_test": 60,
 "bins": 2,
 "seed": 0,
 "threads": 1,
 "u_grid": [
  0.0,
  1.0
 ],
 "lambda_grid": [
  4.0,
  16.0
 ],
 "budgets": null
}}
"""


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("small")
    assert cli.main(["simulate", "--dgp", "dgp1", "--n", "40",
                     "--seed", "2", "--out", str(out)]) == 0
    return out / "sample.csv"


def _edit_cell(src, dst, column, value):
    lines = src.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[5].split(",")
    row[header.index(column)] = value
    lines[5] = ",".join(row)
    dst.write_text("\n".join(lines) + "\n")
    return dst


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("column", ["y", "c", "d", "x2", "e"])
def test_fit_rejects_non_finite_values(tmp_path, small_csv, capsys, column,
                                       value):
    bad = _edit_cell(small_csv, tmp_path / "bad.csv", column, value)
    assert run_cli("fit", bad, "--out", tmp_path / "o", "--lambda", "4",
                   "--u", "0", "--particles", 20) == 1
    assert f"column '{column}' holds a non-finite value" in \
        capsys.readouterr().err
    assert not (tmp_path / "o" / "rule.json").exists()


def test_fit_rejects_a_row_of_the_wrong_width(tmp_path, small_csv, capsys):
    lines = small_csv.read_text().splitlines()
    lines[5] += ",0.7"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert run_cli("fit", bad, "--out", tmp_path / "o", "--lambda", "4",
                   "--u", "0", "--particles", 20) == 1
    assert f"{bad}: line 6 has 8 fields, the header has 7" in \
        capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ["abc", ""])
def test_fit_and_score_name_a_non_numeric_cell(tmp_path, small_csv, fitted,
                                               capsys, value):
    bad = _edit_cell(small_csv, tmp_path / "bad.csv", "y", value)
    assert run_cli("fit", bad, "--out", tmp_path / "o", "--lambda", "4",
                   "--u", "0", "--particles", 20) == 1
    assert f"{bad}: column 'y' holds a non-numeric value {value!r}" in \
        capsys.readouterr().err
    bad = _edit_cell(small_csv, tmp_path / "bad_x.csv", "x1", value)
    assert run_cli("score", fitted / "rule.json", bad,
                   "--out", tmp_path / "s") == 1
    assert f"{bad}: column 'x1' holds a non-numeric value {value!r}" in \
        capsys.readouterr().err
    assert not (tmp_path / "s" / "assignments.csv").exists()


@pytest.mark.parametrize("value", ["1_0", "\u0661", "\uff11.5"])
def test_fit_and_score_refuse_cells_float_takes_but_numpy_does_not(
        tmp_path, small_csv, fitted, capsys, value):
    # digit separators and non-ASCII digits: float() reads them, the CSV
    # reader's grammar (np.loadtxt's) does not
    float(value)
    bad = _edit_cell(small_csv, tmp_path / "bad.csv", "c", value)
    assert run_cli("fit", bad, "--out", tmp_path / "o", "--lambda", "4",
                   "--u", "0", "--particles", 20) == 1
    assert f"{bad}: column 'c' holds a non-numeric value {value!r}" in \
        capsys.readouterr().err
    bad = _edit_cell(small_csv, tmp_path / "bad_x.csv", "x3", value)
    assert run_cli("score", fitted / "rule.json", bad,
                   "--out", tmp_path / "s") == 1
    assert f"{bad}: column 'x3' holds a non-numeric value {value!r}" in \
        capsys.readouterr().err
    assert not (tmp_path / "s" / "assignments.csv").exists()


@pytest.mark.parametrize("header, odd", [("x1,x3", "x3"), ("x1,x01", "x01")])
def test_fit_and_score_take_only_covariates_named_x1_to_xk(tmp_path, fitted,
                                                          capsys, header, odd):
    rows = ["1.0,0.5,1,0.2,0.3,0.5", "-1.0,0.0,0,0.6,0.1,0.5"] * 4
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join([f"y,c,d,{header},e", *rows]) + "\n")
    assert run_cli("fit", bad, "--out", tmp_path / "o", "--lambda", "4",
                   "--u", "0", "--particles", 20) == 1
    assert f"{bad}: unexpected covariate column {odd!r}" in \
        capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    bad_x = tmp_path / "bad_x.csv"
    bad_x.write_text(f"{header}\n0.2,0.3\n0.6,0.1\n")
    assert run_cli("score", fitted / "rule.json", bad_x,
                   "--out", tmp_path / "s") == 1
    assert f"{bad_x}: unexpected covariate column {odd!r}" in \
        capsys.readouterr().err
    assert not (tmp_path / "s" / "assignments.csv").exists()


# ---------------------------------------------------------------------------
# score

def test_score_prob_mode(tmp_path, fitted, sample_csv):
    out = tmp_path / "probs"
    assert run_cli("score", fitted / "rule.json", sample_csv,
                   "--out", out) == 0
    lines = (out / "assignments.csv").read_text().strip().splitlines()
    assert lines[0] == "assignment"
    values = [float(v) for v in lines[1:]]
    assert len(values) == 50
    assert all(0.0 <= v <= 1.0 for v in values)


def test_score_mv_mode(tmp_path, fitted, sample_csv):
    out = tmp_path / "mv"
    assert run_cli("score", fitted / "rule.json", sample_csv,
                   "--out", out, "--mode", "mv") == 0
    lines = (out / "assignments.csv").read_text().strip().splitlines()
    assert set(lines[1:]) <= {"0", "1"}


def test_score_sample_mode_seeded(tmp_path, fitted, sample_csv):
    outs = [tmp_path / "s1", tmp_path / "s2"]
    for out in outs:
        assert run_cli("score", fitted / "rule.json", sample_csv,
                       "--out", out, "--mode", "sample", "--seed", 8) == 0
    a = (outs[0] / "assignments.csv").read_bytes()
    assert a == (outs[1] / "assignments.csv").read_bytes()
    lines = a.decode().strip().splitlines()
    assert set(lines[1:]) <= {"0", "1"}


def test_score_sample_mode_keeps_every_64_bit_seed_apart(tmp_path, fitted,
                                                        sample_csv):
    # a list key would round both seeds to the same float64, 2^63
    outs = []
    for seed in (2**63 + 1, 2**63 + 2):
        out = tmp_path / f"s{seed}"
        assert run_cli("score", fitted / "rule.json", sample_csv,
                       "--out", out, "--mode", "sample", "--seed", seed) == 0
        outs.append((out / "assignments.csv").read_bytes())
    assert outs[0] != outs[1]


def test_score_sample_mode_draws_below_2_63_are_unchanged(tmp_path, fitted,
                                                         sample_csv):
    # below 2^63 the uint64 key is the list key the output was drawn with
    for seed in (0, 8, 2**62 + 3):
        out = tmp_path / f"s{seed}"
        assert run_cli("score", fitted / "rule.json", sample_csv,
                       "--out", out, "--mode", "sample", "--seed", seed) == 0
        particles, fmap = load_rule(fitted / "rule.json")
        x = load_sample_csv(sample_csv).x
        want = sample_assignments(
            GibbsRule(particles, fmap), x,
            np.random.Generator(np.random.Philox(key=[seed, 0])))
        got = (out / "assignments.csv").read_text().split()[1:]
        assert got == [str(int(v)) for v in want]


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_score_rejects_a_seed_outside_64_bits(tmp_path, fitted, sample_csv,
                                              capsys, seed):
    out = tmp_path / "o"
    assert run_cli("score", fitted / "rule.json", sample_csv, "--out", out,
                   "--mode", "sample", "--seed", seed) == 1
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "-inf"])
def test_score_rejects_non_finite_covariates(tmp_path, fitted, sample_csv,
                                             capsys, value):
    bad = _edit_cell(sample_csv, tmp_path / "bad.csv", "x1", value)
    assert run_cli("score", fitted / "rule.json", bad,
                   "--out", tmp_path / "o") == 1
    assert "column 'x1' holds a non-finite value" in capsys.readouterr().err
    assert not (tmp_path / "o" / "assignments.csv").exists()


def test_score_dimension_mismatch(tmp_path, fitted, capsys):
    narrow = tmp_path / "narrow.csv"
    narrow.write_text("x1,x2\n0.1,0.2\n0.3,0.4\n")
    assert run_cli("score", fitted / "rule.json", narrow,
                   "--out", tmp_path / "o") == 1
    assert "expects 3 covariates" in capsys.readouterr().err


def test_score_rejects_wrong_kind(tmp_path, sample_csv, capsys):
    impostor = tmp_path / "notrule.json"
    impostor.write_text(json.dumps({"schema_version": 1,
                                    "kind": "bound_report",
                                    "payload": {}}))
    assert run_cli("score", impostor, sample_csv,
                   "--out", tmp_path / "o") == 1
    assert "not a fitted rule" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("feature_map", "degree", 2.7),
    ("feature_map", "d_x", "3"),
    ("feature_map", "d_x", 3.9),
    ("particles", "step_index", 1.5),
    ("particles", "step_index", -1),
    ("particles", "seed", -5),
    ("particles", "seed", 2.5),
    ("particles", "seed", True),
    ("particles", "seed", 2**64),
])
def test_score_rejects_a_rule_whose_int_field_is_not_an_integer(
        tmp_path, fitted, sample_csv, capsys, section, key, value):
    doc = json.loads((fitted / "rule.json").read_text())
    doc["payload"][section][key] = value
    rule = tmp_path / "rule.json"
    rule.write_text(json.dumps(doc))
    assert run_cli("score", rule, sample_csv, "--out", tmp_path / "o") == 1
    assert (f"{rule} holds an inconsistent rule payload: {key} must be an "
            f"integer") in capsys.readouterr().err
    assert not (tmp_path / "o" / "assignments.csv").exists()


# ---------------------------------------------------------------------------
# score streams its covariates in blocks of CSV_BLOCK_ROWS rows

R = CSV_BLOCK_ROWS


@pytest.fixture(scope="module")
def block_rules(tmp_path_factory):
    """Saved rules of 1000 and 300 particles.  The vote shares' row blocks
    (gibbs._blocks) divide R at 1000 particles and do not at 300."""
    out = tmp_path_factory.mktemp("rules")
    rng = np.random.default_rng(5)
    fmap = poly_feature_map(2, 3).fit_normalization(rng.normal(size=(200, 3)))
    paths = {}
    for m in (1000, 300):
        weights = rng.uniform(size=m)
        particles = WeightedParticles(rng.normal(size=(m, fmap.dimension)),
                                      weights / weights.sum(), 0, 1.0, 0.0, 0)
        paths[m] = out / f"rule_{m}.json"
        save_rule(particles, fmap, True, paths[m])
    return paths


def _write_covariates(path, n: int) -> np.ndarray:
    x = np.random.default_rng(n).normal(size=(n, 3))
    path.write_text("x1,x2,x3\n" + "".join(
        ",".join(map(repr, row)) + "\n" for row in x.tolist()))
    return x


@pytest.mark.parametrize("n_particles", [1000, 300])
@pytest.mark.parametrize("n", [2 * R, 2 * R + 1, 2 * R + 7])
def test_streamed_score_equals_one_call_over_all_rows(tmp_path, block_rules,
                                                      n_particles, n):
    cov = tmp_path / "cov.csv"
    x = _write_covariates(cov, n)
    particles, fmap = load_rule(block_rules[n_particles])
    rule = GibbsRule(particles, fmap)
    want = {
        "prob": map(_fmt, treat_probability(rule, x).tolist()),
        "mv": map(str, mv_decide(MajorityVoteRule(particles, fmap),
                                 x).tolist()),
        # one draw over all rows
        "sample": map(str, sample_assignments(
            rule, x, _StageStreams(4).at(0)).tolist()),
    }
    for mode, values in want.items():
        assert run_cli("score", block_rules[n_particles], cov, "--mode", mode,
                       "--seed", 4, "--out", tmp_path / mode) == 0
        assert (tmp_path / mode / "assignments.csv").read_text() == \
            "assignment\n" + "".join(v + "\n" for v in values)


def test_score_memory_does_not_grow_with_the_units(tmp_path, block_rules):
    def peak(n: int) -> int:
        cov = tmp_path / f"cov{n}.csv"
        _write_covariates(cov, n)
        tracemalloc.start()
        try:
            assert run_cli("score", block_rules[1000], cov,
                           "--out", tmp_path / f"o{n}") == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(8)  # first-call allocations
    assert peak(8 * R) - peak(2 * R) < 2**20


@pytest.mark.parametrize("line, message", [
    ("0.1,abc,0.3", "column 'x2' holds a non-numeric value 'abc'"),
    ("0.1,0.2,nan", "column 'x3' holds a non-finite value"),
    ("0.1,0.2", f"line {2 * R + 8} has 2 fields, the header has 3"),
])
def test_score_bad_row_in_the_last_block_writes_no_assignments(
        tmp_path, block_rules, capsys, line, message):
    cov = tmp_path / "cov.csv"
    _write_covariates(cov, 2 * R + 6)
    with open(cov, "a") as fh:
        fh.write(line + "\n")
    out = tmp_path / "o"
    assert run_cli("score", block_rules[1000], cov, "--out", out) == 1
    assert f"{cov}: {message}" in capsys.readouterr().err
    assert os.listdir(out) == ["run_config.json"]


# ---------------------------------------------------------------------------
# bounds / oracle

def test_bounds_stdout(capsys):
    assert run_cli("bounds", "--n", 100, "--kappa", "0.5", "--my", 1,
                   "--mc", 1, "--lambda", 10, "--u", 0, "--eps", "0.05") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["thm41a_slack"] == pytest.approx(0.3495732273553991,
                                                abs=1e-12)


def test_bounds_file_mode(tmp_path):
    out = tmp_path / "b"
    assert run_cli("bounds", "--n", 100, "--kappa", "0.5", "--my", 1,
                   "--mc", 1, "--lambda", 10, "--u", 0, "--eps", "0.05",
                   "--out", out) == 0
    doc = json.loads((out / "bounds.json").read_text())
    assert doc["kind"] == "bound_report"
    assert doc["payload"]["values"]["thm41a_slack"] == pytest.approx(
        0.3495732273553991, abs=1e-12)


def test_bounds_missing_flag(capsys):
    assert run_cli("bounds", "--n", 100, "--kappa", "0.5", "--my", 1,
                   "--mc", 1, "--lambda", 10, "--u", 0) == 1
    assert "--eps" in capsys.readouterr().err


def test_oracle_stdout(capsys):
    assert run_cli("oracle", "--dgp", "dgp1", "--budget", "0.5",
                   "--n", 400, "--seed", 5) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["B"] == 0.5
    assert doc["eta_B"] >= 0.0
    assert doc["cost_of_optimal"] <= 0.5 + 1e-6
    assert np.isfinite(doc["gain_of_optimal"])


def test_oracle_output_bytes(tmp_path, capsys):
    assert run_cli("oracle", "--dgp", "dgp1", "--budget", "0.6",
                   "--n", 20000, "--seed", 7) == 0
    assert capsys.readouterr().out == """{
 "B": 0.6,
 "eta_B": 1.0013196115531686,
 "cost_of_optimal": 0.6,
 "gain_of_optimal": 0.892511395124783
}
"""
    # a slack budget: the unconstrained rule, eta = 0
    assert run_cli("oracle", "--dgp", "dgp2", "--budget", "2",
                   "--n", 1000, "--seed", 9, "--out", tmp_path) == 0
    assert (tmp_path / "oracle.json").read_text() == """{
 "B": 2.0,
 "eta_B": 0.0,
 "cost_of_optimal": 1.0093834575336686,
 "gain_of_optimal": 1.0133119857717385
}
"""


def test_oracle_infeasible_budget(capsys):
    assert run_cli("oracle", "--dgp", "dgp1", "--budget", "-100",
                   "--n", 200) == 1
    assert "budget" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# study

def test_study_smoke(tmp_path):
    out = tmp_path / "study"
    rc = run_cli("study", "--dgp", "dgp2", "--reps", 1, "--n", 50,
                 "--particles", 30, "--n-test", 120, "--bins", 3,
                 "--seed", 9, "--threads", 1,
                 "--u-grid", "0,0.8", "--lambda-grid", "5,40",
                 "--out", out)
    assert rc == 0
    for method in ("pb_sa", "pb_mv", "pb_batch", "oracle_ratio",
                   "oracle_cate", "random"):
        assert (out / f"cost_curves_{method}.csv").exists()
    echoed = json.loads((out / "run_config.json").read_text())
    assert echoed["u_grid"] == [0.0, 0.8]
    study_cfg = json.loads((out / "study_config.json").read_text())
    assert study_cfg["dgp"]["id"] == "DGP2"
    # grid values off the fixed ladder are tempered to, not snapped
    rep = json.loads((out / "replication_0.json").read_text())
    assert {s[k] for s in rep["selections"]
            for k in ("lambda_sa", "lambda_mv")} <= {5.0, 40.0}


@pytest.mark.parametrize("flag, value, message", [
    ("--budgets", "0.5,0.2", "query_budgets must be strictly increasing"),
    ("--budgets", "0.5", "query_budgets needs at least 2 values"),
    ("--lambda-grid", "2048", "lambda_grid values must lie in (0, 1024]"),
])
def test_study_rejects_bad_grids_before_any_replication(tmp_path, capsys,
                                                        flag, value, message):
    out = tmp_path / "study"
    args = {"--u-grid": "0,0.8", "--lambda-grid": "4.0,32.0", flag: value}
    rc = run_cli("study", "--dgp", "dgp1", "--reps", 1, "--n", 50,
                 "--particles", 30, "--n-test", 120, "--bins", 3,
                 "--threads", 1, "--out", out,
                 *[tok for pair in args.items() for tok in pair])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not list(out.glob("replication_*.json"))


def test_study_rejects_negative_penalties_naming_the_flag(tmp_path, capsys):
    out = tmp_path / "study"
    rc = run_cli("study", "--dgp", "dgp1", "--reps", 1, "--n", 50,
                 "--particles", 30, "--n-test", 120, "--bins", 3,
                 "--threads", 1, "--out", out, "--u-grid=-1,0")
    assert rc == 1
    err = capsys.readouterr().err
    assert "--u-grid" in err and "u_grid values must be finite and " \
        "non-negative" in err
    assert not list(out.glob("replication_*.json"))


def test_study_requires_design(tmp_path, capsys):
    assert run_cli("study", "--out", tmp_path / "s") == 1
    assert "--dgp" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# plumbing

def test_no_subcommand_prints_help(capsys):
    assert cli.main([]) == 1
    assert "fit" in capsys.readouterr().err


def test_unknown_flag_exits_validation():
    with pytest.raises(SystemExit) as caught:
        cli.main(["fit", "--bogus"])
    assert caught.value.code == 1


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as caught:
        cli.main(["--help"])
    assert caught.value.code == 0
    capsys.readouterr()


def test_runtime_failure_exit_code(monkeypatch, tmp_path, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("weights vanished")

    monkeypatch.setattr("pbpolicy.harness.run_study", boom)
    # a tiny study, so that a patch which misses fails fast instead of
    # running the default twenty replications
    rc = run_cli("study", "--dgp", "dgp1", "--reps", 1, "--n", 50,
                 "--particles", 30, "--n-test", 100, "--bins", 3,
                 "--u-grid", "0,0.8", "--lambda-grid", "4,8",
                 "--out", tmp_path / "s")
    assert rc == 2
    assert "weights vanished" in capsys.readouterr().err


def test_fit_exits_2_on_a_bad_proposal_covariance(monkeypatch, tmp_path,
                                                  sample_csv, capsys):
    import pbpolicy.smc as smc_mod

    monkeypatch.setattr(smc_mod, "_cov",
                        lambda thetas: -np.eye(thetas.shape[1]))
    rc = run_cli("fit", sample_csv, "--out", tmp_path / "f", "--lambda", "4",
                 "--u", "0", "--particles", "20")
    assert rc == 2
    assert "not positive definite at step 1" in capsys.readouterr().err


_POOL = ["concurrent.futures.process", "multiprocessing"]


@pytest.mark.parametrize("module, absent", [
    ("pbpolicy.cli", ["pbpolicy.harness", *_POOL]),
    ("pbpolicy.harness", _POOL)])
def test_importing_loads_neither_the_study_harness_nor_a_process_pool(
        module, absent):
    # fit and score start without them; study imports the harness when it
    # runs, and the harness imports the pool only when a study opens one
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    probe = (f"import sys, {module}; "
             f"print([m for m in {absent!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=root,
                          env={**os.environ, "PYTHONPATH": "src"},
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


# the BLAS numpy was built against, as numpy reports it
NUMPY_BLAS = (getattr(np.__config__, "CONFIG", {})
              .get("Build Dependencies", {}).get("blas", {})
              .get("name", "unknown"))

# reads, in the process that runs it, the thread count of every OpenBLAS
# mapped into it through the getter that matches gibbs's setter
BLAS_THREADS_PROBE = """
import ctypes
import pbpolicy.cli
counts = []
paths = {ln.split()[-1] for ln in open("/proc/self/maps")
         if "openblas" in ln.lower()}
for path in sorted(p for p in paths if p.startswith("/")):
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_",
                "openblas_get_num_threads64_", "openblas_get_num_threads"):
        if hasattr(lib, sym):
            counts.append(ctypes.CFUNCTYPE(ctypes.c_int)((sym, lib))())
            break
print(counts)
"""


@pytest.mark.skipif("openblas" not in NUMPY_BLAS.lower(),
                    reason=f"numpy reports BLAS {NUMPY_BLAS!r}, not OpenBLAS")
def test_importing_sets_numpys_openblas_to_one_thread():
    # each of the kernel's blocks is too small for OpenBLAS to split, and
    # whole blocks go to two Python threads instead, so the import overrides
    # a thread count asked for before numpy loaded
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run([sys.executable, "-c", BLAS_THREADS_PROBE],
                          cwd=root, capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": "src",
                               "OPENBLAS_NUM_THREADS": "2"})
    assert proc.stdout.strip() == "[1]"


# runs fit in this process and prints the kernel helper state on its last
# line: "_Helper" where a helper thread ran, "bool" where none did
FIT_PROBE = """
import sys
from pbpolicy import cli, gibbs
rc = cli.main(sys.argv[1:])
print(type(gibbs._helper).__name__)
sys.exit(rc)
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two CPUs to pin a child to one of them")
def test_a_fit_pinned_to_one_cpu_writes_the_bytes_of_an_unpinned_fit(
        tmp_path):
    # on one CPU the kernel starts no helper and walks every block itself
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    assert run_cli("simulate", "--dgp", "dgp1", "--n", 1000, "--seed", 5,
                   "--out", tmp_path / "sim") == 0
    cpu = min(os.sched_getaffinity(0))
    helpers = {}
    for name, pin in (("free", None),
                      ("pinned", lambda: os.sched_setaffinity(0, {cpu}))):
        proc = subprocess.run(
            [sys.executable, "-c", FIT_PROBE, "fit",
             str(tmp_path / "sim" / "sample.csv"), "--lambda", "4",
             "--u", "0.5", "--particles", "100", "--seed", "2",
             "--out", str(tmp_path / name)],
            cwd=root, env={**os.environ, "PYTHONPATH": "src"},
            preexec_fn=pin, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        helpers[name] = proc.stdout.split()[-1]
    assert helpers == {"free": "_Helper", "pinned": "bool"}
    for name in ("rule.json", "diagnostics.json"):
        assert (tmp_path / "pinned" / name).read_bytes() \
            == (tmp_path / "free" / name).read_bytes(), name


def test_console_script_installed():
    exe = shutil.which("pbpolicy")
    assert exe, "console script not on PATH"
    proc = subprocess.run(
        [exe, "bounds", "--n", "100", "--kappa", "0.5", "--my", "1",
         "--mc", "1", "--lambda", "10", "--u", "0", "--eps", "0.05"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert round(doc["thm41a_slack"], 4) == 0.3496
