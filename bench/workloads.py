"""The three benchmark workloads.

Each workload has a set-up (input generation and any fitting the timed body
needs), one unit of timed work, the output checks run after each unit, and
a digest of the unit's outputs.  Every call into the program goes through a
module attribute (`harness.run_study`, `cli.main`, `smc.run_smc`, ...) so
the traced run can rebind it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os

import numpy as np

from pbpolicy import cli, data, dgp, harness, rules, smc
from pbpolicy.gibbs import IsotropicNormalPrior

# study_rep: one replication on a 4-penalty grid and the default lambda
# grid.  n and particles are half the paper's 1000 so that one unit takes
# about 14 s on a 2-core machine instead of 30 s, which keeps every run
# inside the benchmark's time budget.  The master seed is pinned and does
# not follow the benchmark seed: cross-validation picks lambda, and the
# picked lambda sets the length of the four final tempering runs, so the
# unit took 11.9 to 14.6 s across master seeds 101-105.
STUDY_SEED = 0
STUDY_N = 500
STUDY_PARTICLES = 500
STUDY_U_GRID = (0.0, 0.8, 1.6, 3.2)
STUDY_N_TEST = 10000
STUDY_BINS = 20

# fit_budget: the budget-targeting case the ROADMAP reports as missing its
# tolerance (sample from `simulate --dgp dgp1 --n 1000 --seed 11`,
# `fit --lambda 32 --budget 0.45`).  It is pinned and does not follow the
# benchmark seed: the bisection's probe count moves between 6 and 37 with
# the sample and fit seeds, so a seeded sample would swamp wall_s in
# input noise.  250 particles (not 1000) keep one fit near 3.5 s, so a run
# times about eight fits; the fit still misses its tolerance, by 45 times.
FIT_SAMPLE_SEED = 11
FIT_N = 1000
FIT_LAMBDA = 32.0
FIT_BUDGET = 0.45
FIT_BUDGET_TOL = 1e-3
FIT_PARTICLES = 250
FIT_SEED = 0

# deploy: serve fitted rules on 10k units, the `score` size users run.  A
# population whose vote matrix is several times the L3 (120k units x 500
# particles, 480 MB) spent most of its time in page faults and varied by
# +-25% between units on a shared 2-core machine, which no end-to-end bound
# could hold; see README.md.  Set-up fits use a moderate lambda to stay
# short.
DEPLOY_TRAIN_N = 500
DEPLOY_LAMBDA = 8.0
DEPLOY_RULE_U = 0.6
DEPLOY_MV_U = (0.3, 0.9, 1.8)
DEPLOY_PARTICLES = 1000
DEPLOY_UNITS = 10_000
DEPLOY_CANDIDATES = 10_000
DEPLOY_BINS = 20
SCORE_MODES = ("prob", "mv", "sample")


def _digest_files(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _cli(args: list, checks: list) -> None:
    rc = cli.main([str(a) for a in args])
    checks.append((f"cli {args[0]} returns 0", rc == 0))


def _weights_ok(rule_path: str) -> bool:
    with open(rule_path) as fh:
        w = np.asarray(json.load(fh)["payload"]["particles"]["weights"])
    return bool(abs(w.sum() - 1.0) <= 1e-10 and w.min() >= 0.0)


class StudyRep:
    """harness.run_study: one replication of the simulation study."""

    name = "study_rep"

    def setup(self, seed: int, work: str, checks: list) -> dict:
        return {
            "dgp": dgp.DGPSpec("DGP1", STUDY_SEED, STUDY_N),
            "grids": harness.GridSpec(u_grid=np.array(STUDY_U_GRID)),
            "config": harness.StudyConfig(particles=STUDY_PARTICLES,
                                          n_test=STUDY_N_TEST,
                                          n_bins=STUDY_BINS, workers=1),
        }

    def unit(self, inputs: dict, out: str, checks: list):
        config = dataclasses.replace(inputs["config"], out_dir=out)
        return harness.run_study(inputs["dgp"], 1, inputs["grids"], config)

    def check(self, inputs: dict, out: str, report, checks: list) -> None:
        rep = report.replications[0]
        checks.append(("one selection per penalty",
                       len(rep.selections) == len(STUDY_U_GRID)))
        grid = set(inputs["grids"].lambda_grid.tolist())
        checks.append(("selected lambdas lie on the grid",
                       all(s["lambda_sa"] in grid and s["lambda_mv"] in grid
                           for s in rep.selections)))
        checks.append(("study curves are finite",
                       all(np.all(np.isfinite(c.gains))
                           for c in report.curves.values())))
        # the batch budget is the largest estimated majority-vote cost
        cap = max(s["est_cost_mv"] for s in rep.selections)
        checks.append(("batch cost stays within its budget",
                       float(rep.curves["pb_batch"].costs.max()) <= cap + 1e-9
                       or cap <= 0))
        checks.append(("study artifacts written",
                       len(self._artifacts(out)) == 8))

    @staticmethod
    def _artifacts(out: str) -> list:
        return sorted(os.path.join(out, f) for f in os.listdir(out))

    def digest(self, out: str, report) -> str:
        return _digest_files(self._artifacts(out))

    def known_defects(self, out: str) -> dict:
        return {}


class FitBudget:
    """`pbpolicy fit --budget`: repeated SMC runs inside the budget solve."""

    name = "fit_budget"

    def setup(self, seed: int, work: str, checks: list) -> dict:
        sim = os.path.join(work, "sim")
        _cli(["simulate", "--dgp", "dgp1", "--n", FIT_N,
              "--seed", FIT_SAMPLE_SEED, "--out", sim], checks)
        return {"sample": os.path.join(sim, "sample.csv")}

    def unit(self, inputs: dict, out: str, checks: list):
        _cli(["fit", inputs["sample"], "--lambda", FIT_LAMBDA,
              "--budget", FIT_BUDGET, "--budget-tol", FIT_BUDGET_TOL,
              "--particles", FIT_PARTICLES, "--seed", FIT_SEED,
              "--out", out], checks)

    def check(self, inputs: dict, out: str, result, checks: list) -> None:
        checks.append(("rule particle weights sum to 1",
                       _weights_ok(os.path.join(out, "rule.json"))))
        diag = self._diagnostics(out)
        checks.append(("penalty solved and non-negative",
                       diag["u_solved"] and diag["u"] >= 0.0))
        checks.append(("estimated cost is finite",
                       math.isfinite(diag["estimated_cost"])))
        checks.append(("final fit ran the full ladder",
                       len(diag["stages"])
                       == smc.build_default_ladder(diag["u"], FIT_LAMBDA).T))

    @staticmethod
    def _diagnostics(out: str) -> dict:
        with open(os.path.join(out, "diagnostics.json")) as fh:
            return json.load(fh)

    def digest(self, out: str, result) -> str:
        return _digest_files([os.path.join(out, "rule.json"),
                              os.path.join(out, "diagnostics.json")])

    def known_defects(self, out: str) -> dict:
        """The budget miss ROADMAP item 3 fixes; reported, not counted."""
        cost = self._diagnostics(out)["estimated_cost"]
        gap = abs(cost - FIT_BUDGET) / FIT_BUDGET_TOL
        return {"budget_gap": gap, "estimated_cost": cost,
                "budget": FIT_BUDGET, "budget_tol": FIT_BUDGET_TOL,
                "meets_budget_tol": gap <= 1.0}


class Deploy:
    """Serve fitted rules: `pbpolicy score` three ways and batch_assign."""

    name = "deploy"

    def setup(self, seed: int, work: str, checks: list) -> dict:
        sim = os.path.join(work, "sim")
        _cli(["simulate", "--dgp", "dgp1", "--n", DEPLOY_TRAIN_N,
              "--seed", seed, "--out", sim], checks)
        sample_csv = os.path.join(sim, "sample.csv")
        fit = os.path.join(work, "fit")
        _cli(["fit", sample_csv, "--lambda", DEPLOY_LAMBDA,
              "--u", DEPLOY_RULE_U, "--particles", DEPLOY_PARTICLES,
              "--seed", seed, "--out", fit], checks)
        rule_path = os.path.join(fit, "rule.json")
        checks.append(("rule particle weights sum to 1",
                       _weights_ok(rule_path)))

        mv_rules = self._mv_rules(data.load_sample_csv(sample_csv), seed)

        rng = np.random.default_rng([seed, 1])
        covariates = os.path.join(work, "covariates.csv")
        with open(covariates, "w") as fh:
            fh.write("x1,x2,x3\n")
            for row in rng.uniform(0.0, 1.0, size=(DEPLOY_UNITS, 3)).tolist():
                fh.write(f"{row[0]!r},{row[1]!r},{row[2]!r}\n")

        population = dgp.generate(
            dgp.DGPSpec("DGP1", seed + 1, DEPLOY_CANDIDATES))
        candidates = rules.BatchCandidates(
            x=population.x,
            unit_costs=population.expected_cost / population.n)
        budget = max(cost for _, cost in mv_rules.values())
        return {"rule": rule_path, "covariates": covariates,
                "candidates": candidates, "mv_rules": mv_rules,
                "budget": budget}

    @staticmethod
    def _mv_rules(sample, seed: int) -> dict:
        """Majority-vote rules at spread penalties, each with its cost."""
        fmap = data.poly_feature_map(2, sample.x.shape[1])
        fmap = fmap.fit_normalization(sample.x)
        feats = fmap.transform(sample.x)
        scores = data.ipw_transform(sample)
        prior = IsotropicNormalPrior(q=fmap.dimension, sigma=1.0)
        out = {}
        for i, u in enumerate(DEPLOY_MV_U):
            ladder = smc.build_default_ladder(u, DEPLOY_LAMBDA)
            particles = smc.run_smc(scores, feats, prior, ladder,
                                smc.SMCConfig(n_particles=DEPLOY_PARTICLES,
                                              seed=seed + 100 + i))[ladder.T]
            rule = rules.MajorityVoteRule(particles, fmap)
            cost = float(scores.delta_c @ rules.mv_decide(rule, sample.x)
                         / scores.n)
            out[u] = (rule, cost)
        return out

    def unit(self, inputs: dict, out: str, checks: list):
        for mode in SCORE_MODES:
            _cli(["score", inputs["rule"], inputs["covariates"],
                  "--mode", mode, "--seed", 0,
                  "--out", os.path.join(out, mode)], checks)
        return rules.batch_assign(inputs["candidates"], inputs["mv_rules"],
                                  budget=inputs["budget"], n_bins=DEPLOY_BINS)

    def check(self, inputs: dict, out: str, plan, checks: list) -> None:
        for mode in SCORE_MODES:
            values = np.loadtxt(os.path.join(out, mode, "assignments.csv"),
                                skiprows=1, ndmin=1)
            checks.append((f"score {mode}: one row per unit",
                           values.shape == (DEPLOY_UNITS,)))
            if mode == "prob":
                checks.append(("vote shares lie in [0, 1]",
                               bool(np.all((values >= 0) & (values <= 1)))))
            else:
                checks.append((f"score {mode} writes 0/1",
                               bool(np.all((values == 0) | (values == 1)))))
        checks.append(("batch bin cost <= its edge",
                       all(cost <= edge + 1e-9 for edge, cost in
                           zip(plan.bin_edges, plan.realized_cost_by_bin))))
        checks.append(("batch treats someone", len(plan.assignment_log) > 0))

    def digest(self, out: str, plan) -> str:
        h = hashlib.sha256(_digest_files(
            [os.path.join(out, m, "assignments.csv") for m in SCORE_MODES]
        ).encode())
        h.update(repr((plan.selected_u, plan.realized_cost_by_bin,
                       plan.assignment_log)).encode())
        return h.hexdigest()

    def known_defects(self, out: str) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (StudyRep(), FitBudget(), Deploy())}
