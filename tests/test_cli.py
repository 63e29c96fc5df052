"""End-to-end checks of the command line interface.

Most tests call main() in process and assert on exit codes, files, and
stream output; one goes through the installed console script to check the
packaging wiring.
"""

import json
import shutil
import subprocess

import numpy as np
import pytest

from pbpolicy import cli
from pbpolicy.persist import load
from pbpolicy.smc import build_default_ladder


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("PBPOLICY_SEED", raising=False)
    monkeypatch.delenv("PBPOLICY_THREADS", raising=False)


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


def test_simulate_env_seed(tmp_path, monkeypatch):
    flagged = tmp_path / "flagged"
    assert run_cli("simulate", "--dgp", "dgp1", "--n", 6, "--seed", 7,
                   "--out", flagged) == 0
    monkeypatch.setenv("PBPOLICY_SEED", "7")
    env = tmp_path / "env"
    assert run_cli("simulate", "--dgp", "dgp1", "--n", 6, "--out", env) == 0
    assert ((flagged / "sample.csv").read_bytes()
            == (env / "sample.csv").read_bytes())


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
    assert len(stages) == 200
    assert all(0.0 <= s["acceptance"] <= 1.0 for s in stages)
    assert all(1.0 <= s["ess"] <= 40.0 for s in stages)
    assert stages[-1]["lam"] == 4.0

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


def test_fit_slack_budget_is_the_unpenalized_fit(tmp_path, budget_csv):
    args = ["--lambda", "8", "--particles", 40, "--seed", 5]
    assert run_cli("fit", budget_csv, "--out", tmp_path / "u0",
                   "--u", "0", *args) == 0
    assert run_cli("fit", budget_csv, "--out", tmp_path / "slack",
                   "--budget", "50", *args) == 0
    assert ((tmp_path / "u0" / "rule.json").read_bytes()
            == (tmp_path / "slack" / "rule.json").read_bytes())
    diag = json.loads((tmp_path / "slack" / "diagnostics.json").read_text())
    assert diag["smc_runs"] == 1 and diag["budget_gap"] == 0.0
    fixed = json.loads((tmp_path / "u0" / "diagnostics.json").read_text())
    assert not {"budget_gap", "smc_runs", "pilot_u", "tilted_ess"} & set(fixed)


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
    from pbpolicy.data import _read_csv
    from pbpolicy.persist import load_rule
    from pbpolicy.rules import GibbsRule, sample_assignments

    for seed in (0, 8, 2**62 + 3):
        out = tmp_path / f"s{seed}"
        assert run_cli("score", fitted / "rule.json", sample_csv,
                       "--out", out, "--mode", "sample", "--seed", seed) == 0
        particles, fmap = load_rule(fitted / "rule.json")
        _, _, x = _read_csv(sample_csv)
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
    report = load(out / "bounds.json")
    assert report.values["thm41a_slack"] == pytest.approx(
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
                 "--u-grid", "0,0.8", "--lambda-grid", "4.0,32.0",
                 "--out", out)
    assert rc == 0
    for method in ("pb_sa", "pb_mv", "pb_batch", "oracle_ratio",
                   "oracle_cate", "random"):
        assert (out / f"cost_curves_{method}.csv").exists()
    echoed = json.loads((out / "run_config.json").read_text())
    assert echoed["u_grid"] == [0.0, 0.8]
    study_cfg = json.loads((out / "study_config.json").read_text())
    assert study_cfg["dgp"]["id"] == "DGP2"


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

    monkeypatch.setattr(cli, "run_study", boom)
    rc = run_cli("study", "--dgp", "dgp1", "--out", tmp_path / "s")
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
