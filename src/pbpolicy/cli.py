"""Command line front end wiring the library into reproducible runs.

Six subcommands: `fit` estimates a policy posterior from a sample CSV,
`score` applies a saved rule to new covariates, `study` reproduces the
simulation benchmark, `bounds` evaluates certificate slacks, `oracle`
solves the population budget problem for a built-in design, and `simulate`
draws synthetic samples.

Conventions shared by every subcommand:

  * exit code 0 on success, 1 when the inputs are invalid, 2 when a run
    fails midway;
  * results are files inside the directory named by --out, and nothing is
    written anywhere else (`bounds`, `oracle`, and `simulate` print to
    stdout when --out is omitted);
  * a JSON config file passed with --config pre-fills flags, explicit
    flags win, and the fully resolved configuration is echoed to
    run_config.json next to the outputs;
  * identical inputs and seeds produce byte-identical outputs;
  * PBPOLICY_SEED supplies the default --seed and PBPOLICY_THREADS the
    default --threads; no other environment variables are consulted.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from pbpolicy.bounds import BoundInputs, bound_report
from pbpolicy.data import (_read_csv, ipw_transform, load_sample_csv,
                           poly_feature_map)
from pbpolicy.dgp import DGP_IDS, DGPSpec, generate
from pbpolicy.gibbs import (U_BRACKET_CAP, InfeasibleBudgetError,
                            IsotropicNormalPrior, solve_u_hat,
                            tilted_cost_evaluator, tilted_weights,
                            welfare_cost_matrix)
from pbpolicy.harness import GridSpec, StudyConfig, run_study
from pbpolicy.oracle import known_simulated, oracle_report, solve_eta_B
from pbpolicy.persist import (_open_atomic, _write_atomic, load_rule, save,
                              save_rule)
from pbpolicy.rules import (GibbsRule, MajorityVoteRule, mv_decide,
                            rule_empirical_cost, rule_empirical_welfare,
                            sample_assignments, treat_probability)
from pbpolicy.smc import SMCConfig, build_default_ladder, ess, run_smc

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

# SMC runs a budget fit may make before it gives up; an infeasible budget
# takes 22 (u = 0, then doubling from 1 to the bracket cap 2^20)
_MAX_SMC_RUNS = 50

# flag spellings for post-merge required-value errors, where the argparse
# dest differs from the flag users type
_FLAG_NAMES = {"lam": "--lambda", "n_test": "--n-test"}


def _default_seed() -> int:
    raw = os.environ.get("PBPOLICY_SEED")
    return int(raw) if raw else 0


def _default_threads() -> int:
    raw = os.environ.get("PBPOLICY_THREADS")
    if raw:
        return int(raw)
    return os.cpu_count() or 1


def _dgp_id(value) -> str:
    name = str(value).upper()
    if name not in DGP_IDS:
        raise ValueError(f"unknown design {value!r}, expected dgp1 or dgp2")
    return name


def _float_list(value):
    """Comma separated floats from a flag, or a list from a config file."""
    if value is None:
        return None
    if isinstance(value, str):
        toks = [tok for tok in value.split(",") if tok.strip()]
        if not toks:
            raise ValueError("empty value list")
        return [float(tok) for tok in toks]
    return [float(v) for v in value]


def _ensure_out(path: str) -> str:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create output directory {path}: {exc}") from exc
    return path


def _resolve_config(args, defaults: dict) -> dict:
    """Builtin defaults, then the config file, then explicit flags."""
    merged = dict(defaults)
    path = getattr(args, "config", None)
    if path is not None:
        with open(path) as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ValueError(f"{path}: config file must hold a JSON object")
        unknown = sorted(set(loaded) - set(defaults))
        if unknown:
            raise ValueError(
                f"{path}: unknown config keys: {', '.join(unknown)}")
        merged.update(loaded)
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    return merged


def _require(cfg: dict, command: str, *keys: str):
    missing = [_FLAG_NAMES.get(k, "--" + k.replace("_", "-"))
               for k in keys if cfg[k] is None]
    if missing:
        raise ValueError(f"{command} requires {' and '.join(missing)}")


def _echo_config(out_dir: str, command: str, cfg: dict, inputs=None):
    doc = {"command": command}
    if inputs:
        doc.update(inputs)
    doc.update(cfg)
    _write_atomic(os.path.join(out_dir, "run_config.json"), doc)


def _write_csv(path: str, header, rows):
    with _open_atomic(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _fmt(value) -> str:
    # repr of a Python float round-trips exactly, which keeps CSV output
    # byte-stable across runs
    return repr(float(value))


# ---------------------------------------------------------------------------
# fit / score

def _fit_defaults() -> dict:
    return {
        "out": None, "lam": None, "u": None, "budget": None,
        "particles": 1000, "seed": _default_seed(), "degree": 2,
        "sigma": 1.0, "propensity": None, "kappa": 0.25,
        "my": None, "mc": None, "raw": None, "budget_tol": 1e-3,
    }


def _fit_budget(budget: float, tol: float, lam: float, posterior_at,
                scores, feats, normalized: bool, tau_ess: float):
    """The posterior at u_hat(budget, lam) from as few SMC runs as it takes.

    Each run is a pilot at penalty u_p.  Its cloud, tilted across penalties
    (gibbs.tilted_cost_evaluator), gives a cost curve that is exactly
    monotone in u, and solve_u_hat inverts that curve.  The cloud tilted to
    u_hat is the answer when its effective sample size is at least
    tau_ess * N, or at least the pilot's own (the tilt then cost nothing).

    Otherwise the next pilot runs at u_hat, or, when no penalty brings the
    tilted cost down to the budget, at twice u_p (1 from 0); past the
    bracket cap the budget is infeasible.  A tilt is trustworthy only near
    its pilot, so earlier pilots bracket the next one: a pilot whose own
    cost is over the budget bounds u_hat from below, one within it from
    above, and a step that would leave the bracket bisects it instead.

    Returns the particles at u_hat, the last pilot's stage trace and the
    budget-solve diagnostics.
    """
    u_pilot, u_lo, u_hi = 0.0, 0.0, math.inf
    runs = 0
    while True:
        trace: list = []
        pilot = posterior_at(u_pilot, trace)
        runs += 1
        _, costs = welfare_cost_matrix(pilot.thetas, scores, feats)
        curve = tilted_cost_evaluator(pilot.weights, costs, lam, u_pilot,
                                      scores, normalized)
        if curve(lam, u_pilot) > budget:
            u_lo = u_pilot
        else:
            u_hi = u_pilot
        try:
            u_hat = solve_u_hat(budget, lam, curve, tolerance=tol)
        except InfeasibleBudgetError:
            if u_pilot >= U_BRACKET_CAP:
                raise
            u_next = max(2.0 * u_pilot, 1.0)
        else:
            weights = tilted_weights(pilot.weights, costs, lam, u_pilot,
                                     u_hat, scores, normalized)
            tilted_ess = ess(weights)
            if tilted_ess >= min(tau_ess * pilot.n_particles,
                                 ess(pilot.weights)):
                solved = replace(pilot, weights=weights, u=u_hat)
                return solved, trace, {"smc_runs": runs, "pilot_u": u_pilot,
                                       "tilted_ess": tilted_ess}
            u_next = u_hat
        if not u_lo < u_next < u_hi:
            u_next = 0.5 * (u_lo + u_hi)
        if runs == _MAX_SMC_RUNS:
            raise RuntimeError(
                f"budget solve did not settle after {runs} SMC runs: the "
                f"penalty is bracketed in [{u_lo!r}, {u_hi!r}]")
        u_pilot = u_next


def _cmd_fit(args) -> int:
    cfg = _resolve_config(args, _fit_defaults())
    cfg["raw"] = bool(cfg["raw"])
    _require(cfg, "fit", "out", "lam")
    if (cfg["u"] is None) == (cfg["budget"] is None):
        raise ValueError("fit requires exactly one of --u or --budget")
    if not cfg["budget_tol"] > 0:
        raise ValueError("--budget-tol must be positive")
    out = _ensure_out(cfg["out"])
    _echo_config(out, "fit", cfg, {"data": args.data})

    sample = load_sample_csv(args.data, propensity_const=cfg["propensity"],
                             kappa=cfg["kappa"], m_y=cfg["my"], m_c=cfg["mc"])
    scores = ipw_transform(sample)
    fmap = poly_feature_map(cfg["degree"], sample.x.shape[1])
    fmap = fmap.fit_normalization(sample.x)
    feats = fmap.transform(sample.x)
    prior = IsotropicNormalPrior(q=fmap.dimension, sigma=cfg["sigma"])
    normalized = not cfg["raw"]
    lam = float(cfg["lam"])
    # every run, budget pilots included, uses the fit's own seed
    smc_cfg = SMCConfig(n_particles=cfg["particles"], seed=int(cfg["seed"]),
                        normalized=normalized)

    def posterior_at(u_value: float, trace: list):
        ladder = build_default_ladder(u_value, lam)
        return run_smc(scores, feats, prior, ladder, smc_cfg,
                       trace=trace)[ladder.T]

    solve_report = None
    if cfg["budget"] is not None:
        budget = float(cfg["budget"])
        tol = float(cfg["budget_tol"])
        particles, trace, solve_report = _fit_budget(
            budget, tol, lam, posterior_at, scores, feats, normalized,
            smc_cfg.tau_ess)
        u_final = particles.u
        u_solved = True
    else:
        budget = None
        u_final = float(cfg["u"])
        if u_final < 0:
            raise ValueError("--u must be non-negative")
        u_solved = False
        trace = []
        particles = posterior_at(u_final, trace)

    rule = GibbsRule(particles, fmap)
    save_rule(particles, fmap, normalized, os.path.join(out, "rule.json"))
    cost = rule_empirical_cost(rule, scores, feats)
    diagnostics = {
        "lam": lam,
        "u": u_final,
        "u_solved": u_solved,
        "budget": budget,
        "normalized": normalized,
        "estimated_cost": cost,
        "estimated_welfare": rule_empirical_welfare(rule, scores, feats),
        "n": int(sample.n),
        "q": int(fmap.dimension),
    }
    if solve_report is not None:
        # at u = 0 the budget does not bind, so only an overrun is a miss
        miss = abs(cost - budget) if u_final > 0 else max(cost - budget, 0.0)
        diagnostics["budget_gap"] = miss / tol
        diagnostics.update(solve_report)
    diagnostics["stages"] = trace
    _write_atomic(os.path.join(out, "diagnostics.json"), diagnostics)
    if solve_report is not None and diagnostics["budget_gap"] > 1.0:
        raise RuntimeError(
            f"estimated cost {cost!r} misses the budget {budget!r} by "
            f"budget_gap = {diagnostics['budget_gap']:.3g} tolerances "
            f"(--budget-tol {tol!r})")
    return EXIT_OK


def _score_defaults() -> dict:
    return {"out": None, "mode": "prob", "seed": _default_seed()}


def _cmd_score(args) -> int:
    cfg = _resolve_config(args, _score_defaults())
    _require(cfg, "score", "out")
    if cfg["mode"] not in ("prob", "mv", "sample"):
        raise ValueError(f"unknown score mode {cfg['mode']!r}")
    if cfg["mode"] == "sample" and not 0 <= int(cfg["seed"]) < 2**64:
        raise ValueError(f"--seed must lie in [0, 2^64), got {cfg['seed']}")
    out = _ensure_out(cfg["out"])
    _echo_config(out, "score", cfg,
                 {"rule": args.rule, "covariates": args.covariates})

    particles, fmap = load_rule(args.rule)
    _, _, x = _read_csv(args.covariates)
    if x.shape[1] != fmap.d_x:
        raise ValueError(f"rule expects {fmap.d_x} covariates but "
                         f"{args.covariates} has {x.shape[1]}")
    rule = GibbsRule(particles, fmap)
    if cfg["mode"] == "prob":
        values = [_fmt(v) for v in treat_probability(rule, x)]
    elif cfg["mode"] == "mv":
        values = [str(int(v)) for v in mv_decide(MajorityVoteRule(
            particles, fmap), x)]
    else:
        # a uint64 key keeps every 64-bit seed exact; a list key would pass
        # seeds of 2^63 and above through float64
        rng = np.random.Generator(np.random.Philox(
            key=np.array([int(cfg["seed"]), 0], dtype=np.uint64)))
        values = [str(int(v)) for v in sample_assignments(rule, x, rng)]
    _write_csv(os.path.join(out, "assignments.csv"), ["assignment"],
               ([v] for v in values))
    return EXIT_OK


# ---------------------------------------------------------------------------
# study

def _study_defaults() -> dict:
    return {
        "out": None, "dgp": None, "reps": None, "n": 1000,
        "particles": 1000, "n_test": 10000, "bins": 20,
        "seed": _default_seed(), "threads": _default_threads(),
        "paper_scale": None, "u_grid": None, "lambda_grid": None,
        "budgets": None,
    }


def _cmd_study(args) -> int:
    cfg = _resolve_config(args, _study_defaults())
    cfg["paper_scale"] = bool(cfg["paper_scale"])
    _require(cfg, "study", "out", "dgp")
    if cfg["reps"] is None:
        cfg["reps"] = 100 if cfg["paper_scale"] else 20
    for key in ("u_grid", "lambda_grid", "budgets"):
        cfg[key] = _float_list(cfg[key])
    out = _ensure_out(cfg["out"])
    _echo_config(out, "study", cfg)

    dgp = DGPSpec(_dgp_id(cfg["dgp"]), int(cfg["seed"]), int(cfg["n"]))
    grids = None
    if cfg["u_grid"] is not None or cfg["lambda_grid"] is not None:
        kwargs = {}
        if cfg["u_grid"] is not None:
            kwargs["u_grid"] = cfg["u_grid"]
        if cfg["lambda_grid"] is not None:
            kwargs["lambda_grid"] = cfg["lambda_grid"]
        try:
            grids = GridSpec(**kwargs)
        except ValueError as exc:
            raise ValueError(f"--u-grid/--lambda-grid: {exc}") from None
    study_cfg = StudyConfig(particles=int(cfg["particles"]),
                            n_test=int(cfg["n_test"]),
                            n_bins=int(cfg["bins"]),
                            workers=int(cfg["threads"]),
                            out_dir=out,
                            query_budgets=cfg["budgets"])
    run_study(dgp, int(cfg["reps"]), grids=grids, config=study_cfg)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bounds / oracle / simulate

def _bounds_defaults() -> dict:
    return {
        "out": None, "n": None, "kappa": None, "my": None, "mc": None,
        "lam": None, "u": None, "eps": None, "dkl": 0.0, "uhat": 0.0,
        "q": None, "grid_size": None, "nu": None,
    }


def _cmd_bounds(args) -> int:
    cfg = _resolve_config(args, _bounds_defaults())
    _require(cfg, "bounds", "n", "kappa", "my", "mc", "lam", "u", "eps")
    inputs = BoundInputs(n=int(cfg["n"]), kappa=cfg["kappa"],
                         m_y=cfg["my"], m_c=cfg["mc"], lam=cfg["lam"],
                         u=cfg["u"], epsilon=cfg["eps"], q=cfg["q"],
                         grid_cardinality=cfg["grid_size"], nu=cfg["nu"])
    report = bound_report(inputs, d_kl=cfg["dkl"], u_hat=cfg["uhat"])
    if cfg["out"] is not None:
        out = _ensure_out(cfg["out"])
        _echo_config(out, "bounds", cfg)
        save(report, os.path.join(out, "bounds.json"))
    else:
        print(json.dumps(report.values, indent=1))
    return EXIT_OK


def _oracle_defaults() -> dict:
    return {"out": None, "dgp": None, "budget": None, "n": 10000,
            "seed": _default_seed()}


def _cmd_oracle(args) -> int:
    cfg = _resolve_config(args, _oracle_defaults())
    _require(cfg, "oracle", "dgp", "budget")
    dgp_id = _dgp_id(cfg["dgp"])
    known = known_simulated(dgp_id)
    x = known.sample_x(int(cfg["n"]), int(cfg["seed"]))
    rule = solve_eta_B(float(cfg["budget"]), known, x)
    doc = oracle_report(rule, known, x)
    if cfg["out"] is not None:
        out = _ensure_out(cfg["out"])
        _echo_config(out, "oracle", cfg)
        _write_atomic(os.path.join(out, "oracle.json"), doc)
    else:
        print(json.dumps(doc, indent=1))
    return EXIT_OK


def _simulate_defaults() -> dict:
    return {"out": None, "dgp": None, "n": None, "seed": _default_seed()}


def _cmd_simulate(args) -> int:
    cfg = _resolve_config(args, _simulate_defaults())
    _require(cfg, "simulate", "dgp", "n")
    population = generate(DGPSpec(_dgp_id(cfg["dgp"]), int(cfg["seed"]),
                                  int(cfg["n"])))
    s = population.sample
    header = (["y", "c", "d"]
              + [f"x{j + 1}" for j in range(s.x.shape[1])] + ["e"])
    e = s.propensities()
    rows = ([_fmt(s.y[i]), _fmt(s.c[i]), str(int(s.d[i]))]
            + [_fmt(v) for v in s.x[i]] + [_fmt(e[i])]
            for i in range(s.n))
    if cfg["out"] is not None:
        out = _ensure_out(cfg["out"])
        _echo_config(out, "simulate", cfg)
        _write_csv(os.path.join(out, "sample.csv"), header, rows)
    else:
        sys.stdout.write(",".join(header) + "\n")
        for row in rows:
            sys.stdout.write(",".join(row) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; remap those onto the
    validation exit code so callers can tell bad flags from crashed runs."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pbpolicy",
                     description="Budget-constrained treatment policies from "
                                 "experimental or observational samples.")
    sub = parser.add_subparsers(dest="command", metavar="command",
                                parser_class=_Parser)

    fit = sub.add_parser("fit", help="estimate a policy posterior from a CSV")
    fit.add_argument("data", help="sample CSV with columns y, c, d, x1..xk "
                                  "and optionally e")
    fit.add_argument("--out", help="output directory")
    fit.add_argument("--config", help="JSON file of flag defaults")
    fit.add_argument("--lambda", dest="lam", type=float,
                     help="posterior temperature")
    fit.add_argument("--u", type=float, help="budget penalty weight")
    fit.add_argument("--budget", type=float,
                     help="per-capita budget; the penalty weight is solved")
    fit.add_argument("--budget-tol", dest="budget_tol", type=float,
                     help="tolerance on the solved budget (default 1e-3)")
    fit.add_argument("--particles", type=int,
                     help="particle count (default 1000)")
    fit.add_argument("--seed", type=int,
                     help="RNG seed (default $PBPOLICY_SEED or 0)")
    fit.add_argument("--degree", type=int,
                     help="polynomial feature degree (default 2)")
    fit.add_argument("--sigma", type=float, help="prior scale (default 1)")
    fit.add_argument("--propensity", type=float,
                     help="constant propensity when the CSV has no e column")
    fit.add_argument("--kappa", type=float,
                     help="overlap bound in (0, 1/2) (default 0.25)")
    fit.add_argument("--my", type=float, help="declared outcome range")
    fit.add_argument("--mc", type=float, help="declared cost range")
    fit.add_argument("--raw", action="store_const", const=True,
                     help="temper the raw criterion instead of the "
                          "scale-normalized one")
    fit.set_defaults(handler=_cmd_fit)

    score = sub.add_parser("score", help="apply a saved rule to covariates")
    score.add_argument("rule", help="rule.json written by fit")
    score.add_argument("covariates", help="CSV with columns x1..xk")
    score.add_argument("--out", help="output directory")
    score.add_argument("--config", help="JSON file of flag defaults")
    score.add_argument("--mode", choices=("prob", "mv", "sample"),
                       help="prob writes treatment probabilities, mv the "
                            "majority vote, sample a seeded draw")
    score.add_argument("--seed", type=int,
                       help="seed for --mode sample (default $PBPOLICY_SEED "
                            "or 0)")
    score.set_defaults(handler=_cmd_score)

    study = sub.add_parser("study", help="run the simulation benchmark")
    study.add_argument("--out", help="output directory")
    study.add_argument("--config", help="JSON file of flag defaults")
    study.add_argument("--dgp", help="dgp1 or dgp2")
    study.add_argument("--reps", type=int,
                       help="replications (default 20, 100 with "
                            "--paper-scale)")
    study.add_argument("--n", type=int,
                       help="training sample size per replication "
                            "(default 1000)")
    study.add_argument("--particles", type=int,
                       help="particle count (default 1000)")
    study.add_argument("--n-test", dest="n_test", type=int,
                       help="held-out population size (default 10000)")
    study.add_argument("--bins", type=int,
                       help="budget bins for the batch variant (default 20)")
    study.add_argument("--seed", type=int,
                       help="master seed (default $PBPOLICY_SEED or 0)")
    study.add_argument("--threads", type=int,
                       help="worker processes (default $PBPOLICY_THREADS or "
                            "the logical core count)")
    study.add_argument("--paper-scale", dest="paper_scale",
                       action="store_const", const=True,
                       help="default to 100 replications")
    study.add_argument("--u-grid", dest="u_grid",
                       help="comma separated penalty grid override")
    study.add_argument("--lambda-grid", dest="lambda_grid",
                       help="comma separated temperature grid override")
    study.add_argument("--budgets",
                       help="comma separated per-capita budgets to report")
    study.set_defaults(handler=_cmd_study)

    bounds = sub.add_parser("bounds", help="evaluate certificate slacks")
    bounds.add_argument("--out", help="output directory (default: stdout)")
    bounds.add_argument("--config", help="JSON file of flag defaults")
    bounds.add_argument("--n", type=int, help="sample size")
    bounds.add_argument("--kappa", type=float, help="overlap bound")
    bounds.add_argument("--my", type=float, help="outcome range")
    bounds.add_argument("--mc", type=float, help="cost range")
    bounds.add_argument("--lambda", dest="lam", type=float,
                        help="posterior temperature")
    bounds.add_argument("--u", type=float, help="budget penalty weight")
    bounds.add_argument("--eps", type=float, help="failure probability")
    bounds.add_argument("--dkl", type=float,
                        help="posterior-prior divergence (default 0)")
    bounds.add_argument("--uhat", type=float,
                        help="solved penalty weight (default 0)")
    bounds.add_argument("--q", type=int, help="feature dimension")
    bounds.add_argument("--grid-size", dest="grid_size", type=int,
                        help="policy grid cardinality")
    bounds.add_argument("--nu", type=float, help="prior mass floor")
    bounds.set_defaults(handler=_cmd_bounds)

    oracle = sub.add_parser("oracle",
                            help="solve the population budget problem")
    oracle.add_argument("--out", help="output directory (default: stdout)")
    oracle.add_argument("--config", help="JSON file of flag defaults")
    oracle.add_argument("--dgp", help="dgp1 or dgp2")
    oracle.add_argument("--budget", type=float, help="per-capita budget")
    oracle.add_argument("--n", type=int,
                        help="population size (default 10000)")
    oracle.add_argument("--seed", type=int,
                        help="population seed (default $PBPOLICY_SEED or 0)")
    oracle.set_defaults(handler=_cmd_oracle)

    sim = sub.add_parser("simulate", help="draw a synthetic sample")
    sim.add_argument("--out", help="output directory (default: stdout)")
    sim.add_argument("--config", help="JSON file of flag defaults")
    sim.add_argument("--dgp", help="dgp1 or dgp2")
    sim.add_argument("--n", type=int, help="sample size")
    sim.add_argument("--seed", type=int,
                     help="RNG seed (default $PBPOLICY_SEED or 0)")
    sim.set_defaults(handler=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = getattr(args, "handler", None)
    if handler is None:
        parser.print_help(sys.stderr)
        return EXIT_VALIDATION
    try:
        return handler(args)
    except (ValueError, TypeError, OSError) as exc:
        print(f"pbpolicy {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except KeyboardInterrupt:
        raise
    except Exception as exc:
        print(f"pbpolicy {args.command}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
