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
    flags win, each value must fit its flag's type, and the fully resolved
    configuration is echoed to run_config.json next to the outputs; that
    echo replays the run when its command and inputs match the command line;
  * identical inputs and seeds produce byte-identical outputs;
  * every default comes from its flag or a --config file, never from the
    environment; --seed defaults to 0 and --threads to 1: study_config.json
    records the workers, so a per-core default would tie its bytes to the host.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import replace

from pbpolicy.bounds import BoundInputs, bound_report
from pbpolicy.data import (_csv_blocks, ipw_transform, load_sample_csv,
                           poly_feature_map)
from pbpolicy.dgp import DGP_IDS, DGPSpec, generate
from pbpolicy.gibbs import (U_BRACKET_CAP, InfeasibleBudgetError,
                            IsotropicNormalPrior, solve_u_hat,
                            tilted_weights, welfare_cost_matrix)
from pbpolicy.oracle import oracle_report, solve_eta_B
from pbpolicy.persist import (_fmt, _read_json, _write_atomic, _write_csv,
                              _write_rows, load_rule, save, save_rule)
from pbpolicy.rules import (GibbsRule, MajorityVoteRule, mv_decide,
                            rule_empirical_cost, rule_empirical_welfare,
                            sample_assignments, treat_probability)
from pbpolicy.smc import (LAMBDA_CAP, TAU_ESS, SMCConfig, _StageStreams,
                          build_default_ladder, ess, run_smc, temper)

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

# SMC runs a budget fit may make before it gives up; an infeasible budget
# takes 22 (u = 0, then doubling from 1 to the bracket cap 2^20)
_MAX_SMC_RUNS = 50
# unsettled tilts of adaptive-ladder pilots after which a budget fit goes on
# with fixed-ladder runs; without a cap, a small cloud's pilots can chase
# each other to _MAX_SMC_RUNS
_LOCATE_RUNS = 4

# flag spellings for required-value errors, where the argparse dest differs
# from the flag users type
_FLAG_NAMES = {"lam": "--lambda"}


def _dgp_id(value) -> str:
    name = str(value).upper()
    if name not in DGP_IDS:
        raise ValueError(f"unknown design {value!r}, expected dgp1 or dgp2")
    return name


def _finite(value) -> float:
    """The type of every float flag: a finite number."""
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if not math.isfinite(number):
        raise argparse.ArgumentTypeError(f"{value!r} is not a finite number")
    return number


def _float_list(value):
    """Comma separated floats from a flag, or a list from a config file."""
    if isinstance(value, str):
        value = [_finite(tok) for tok in value.split(",") if tok.strip()]
        if not value:
            raise argparse.ArgumentTypeError("empty value list")
    return [float(v) for v in value]


def _require(cfg: dict, *keys: str):
    missing = [_FLAG_NAMES.get(k, "--" + k.replace("_", "-"))
               for k in keys if cfg[k] is None]
    if missing:
        raise ValueError(
            f"{cfg['command']} requires {' and '.join(missing)}")


@contextmanager
def _flags_named(**flags: str):
    """Name the flag in a ValueError raised in the block.  The library's
    checks begin their message with the field they check, and flags maps
    such a field to the flag that sets it."""
    try:
        yield
    except ValueError as exc:
        flag = flags.get(str(exc).split(" ", 1)[0])
        if flag is None:
            raise
        raise ValueError(f"{flag}: {exc}") from None


def _echo_config(cfg: dict) -> str:
    """Create the output directory and write the resolved configuration,
    input paths included, to run_config.json in it."""
    out = cfg["out"]
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create output directory {out}: {exc}") from exc
    _write_atomic(os.path.join(out, "run_config.json"), cfg)
    return out


# ---------------------------------------------------------------------------
# fit / score


def _fit_budget(budget: float, tol: float, lam: float, locate, confirm,
                scores, feats, normalized: bool):
    """The posterior at u_hat(budget, lam) from as few SMC runs as it takes.

    Each run is a pilot at penalty u_p from the current runner, called as
    runner(u_p, trace).  Its cloud, tilted across penalties at the fit's own
    lambda (gibbs.tilted_weights), gives a cost curve that is exactly
    monotone in u, and solve_u_hat inverts that curve.  A tilt settles when
    the tilted cloud's effective sample size is at least smc.TAU_ESS * N, or
    at least the pilot's own (the tilt then cost nothing).

    The runner starts as locate, which is cheap, and is handed over once to
    confirm, whose first settled tilt gives the answer: its cloud tilted to
    u_hat.  The hand-over comes when a locating tilt settles, and the next
    run then starts at that u_hat, unclamped; or after _LOCATE_RUNS tilts
    that did not settle, and the next run starts where the next pilot would
    have.  Either way the bracket resets, since the locating pilots' bracket
    does not bind the confirming runs.

    When a tilt does not settle, the next pilot runs at u_hat, or, when no
    penalty brings the tilted cost down to the budget, at twice u_p (1 from
    0); past the bracket cap the budget is infeasible.  A tilt is
    trustworthy only near its pilot, so earlier pilots of the same runner
    bracket the next one: a pilot whose own cost is over the budget bounds
    u_hat from below, one within it from above, and a step that would leave
    the bracket bisects it instead.  _MAX_SMC_RUNS bounds the runs of both
    runners together.

    Returns the particles at u_hat, the last run's stage trace and the
    budget-solve diagnostics; smc_runs counts the runs of both runners.
    """
    runner, u_pilot, u_lo, u_hi, misses = locate, 0.0, 0.0, math.inf, 0
    for runs in range(1, _MAX_SMC_RUNS + 1):
        trace: list = []
        pilot = runner(u_pilot, trace)
        _, costs = welfare_cost_matrix(pilot.thetas, scores, feats)

        def curve(_lam, u):
            # solve_u_hat probes (lambda, u); the cloud answers at its own lam
            return float(tilted_weights(pilot.weights, costs, lam, u_pilot, u,
                                        scores, normalized) @ costs)

        if curve(lam, u_pilot) > budget:
            u_lo = u_pilot
        else:
            u_hi = u_pilot
        try:
            u_next = solve_u_hat(budget, lam, curve, tolerance=tol)
        except InfeasibleBudgetError:
            if u_pilot >= U_BRACKET_CAP:
                raise
            u_next, settled = max(2.0 * u_pilot, 1.0), False
        else:
            weights = tilted_weights(pilot.weights, costs, lam, u_pilot,
                                     u_next, scores, normalized)
            tilted_ess = ess(weights)
            settled = tilted_ess >= min(TAU_ESS * pilot.n_particles,
                                        ess(pilot.weights))
            if settled and runner is confirm:
                solved = replace(pilot, weights=weights, u=u_next)
                return solved, trace, {"smc_runs": runs, "pilot_u": u_pilot,
                                       "tilted_ess": tilted_ess}
            misses += not settled
        # a settled u_hat hands over to a fresh bracket, where clamping a
        # u_hat of 0 would bisect to inf
        if not (settled or u_lo < u_next < u_hi):
            u_next = 0.5 * (u_lo + u_hi)
        if runner is locate and (settled or misses == _LOCATE_RUNS):
            runner, u_lo, u_hi = confirm, 0.0, math.inf
        u_pilot = u_next
    raise RuntimeError(
        f"budget solve did not settle after {_MAX_SMC_RUNS} SMC runs: the "
        f"penalty is bracketed in [{u_lo!r}, {u_hi!r}]")


def _cmd_fit(cfg: dict) -> int:
    _require(cfg, "out", "lam")
    budget, tol, lam = cfg["budget"], cfg["budget_tol"], cfg["lam"]
    if (cfg["u"] is None) == (budget is None):
        raise ValueError("fit requires exactly one of --u or --budget")
    if not tol > 0:
        raise ValueError("--budget-tol must be positive")
    if not 0.0 < lam <= LAMBDA_CAP:
        raise ValueError(f"--lambda must lie in (0, {LAMBDA_CAP:g}]")
    if budget is None and cfg["u"] < 0:
        raise ValueError("--u must be non-negative")

    sample = load_sample_csv(cfg["data"], propensity_const=cfg["propensity"],
                             kappa=cfg["kappa"], m_y=cfg["my"], m_c=cfg["mc"])
    scores = ipw_transform(sample)
    normalized = not cfg["raw"]
    with _flags_named(degree="--degree", sigma="--sigma",
                      n_particles="--particles", seed="--seed"):
        fmap = poly_feature_map(cfg["degree"], sample.x.shape[1])
        prior = IsotropicNormalPrior(q=fmap.dimension, sigma=cfg["sigma"])
        # every run, budget pilots included, uses the fit's own seed
        smc_cfg = SMCConfig(n_particles=cfg["particles"], seed=cfg["seed"],
                            normalized=normalized)
    try:
        fmap = fmap.fit_normalization(sample.x)
    except ValueError as exc:
        raise ValueError(f"{cfg['data']}: {exc}") from None
    out = _echo_config(cfg)
    feats = fmap.transform(sample.x)

    def fixed(u_value: float, trace: list):
        ladder = build_default_ladder(u_value, lam)
        harvested = run_smc(scores, feats, prior, ladder, smc_cfg, trace=trace)
        return harvested[max(harvested)]

    def adaptive(u_value: float, trace: list):
        return temper(scores, feats, prior, u_value, [lam],
                      smc_cfg.n_particles, smc_cfg.seed, normalized,
                      trace=trace)[lam]

    if budget is not None:
        particles, trace, solve_report = _fit_budget(
            budget, tol, lam, adaptive, fixed, scores, feats, normalized)
        u_final = particles.u
    else:
        u_final, trace = cfg["u"], []
        particles = adaptive(u_final, trace)

    rule = GibbsRule(particles, fmap)
    save_rule(particles, fmap, normalized, os.path.join(out, "rule.json"))
    cost = rule_empirical_cost(rule, scores, feats)
    diagnostics = {
        "lam": lam,
        "u": u_final,
        "u_solved": budget is not None,
        "budget": budget,
        "normalized": normalized,
        "estimated_cost": cost,
        "estimated_welfare": rule_empirical_welfare(rule, scores, feats),
        "n": int(sample.n),
        "q": int(fmap.dimension),
    }
    if budget is not None:
        # at u = 0 the budget does not bind, so only an overrun is a miss
        miss = abs(cost - budget) if u_final > 0 else max(cost - budget, 0.0)
        diagnostics["budget_gap"] = miss / tol
        diagnostics.update(solve_report)
    diagnostics["stages"] = trace
    _write_atomic(os.path.join(out, "diagnostics.json"), diagnostics)
    if budget is not None and diagnostics["budget_gap"] > 1.0:
        raise RuntimeError(
            f"estimated cost {cost!r} misses the budget {budget!r} by "
            f"budget_gap = {diagnostics['budget_gap']:.3g} tolerances "
            f"(--budget-tol {tol!r})")
    return EXIT_OK


def _cmd_score(cfg: dict) -> int:
    """Write the rule's assignment for each covariate row.

    The covariates are read one block of rows at a time (data._csv_blocks),
    and each block goes through the feature map, the vote shares and the
    formatting of its rows before the next is read; so memory holds one
    block, whatever the number of units.  The blocks are cut as the vote
    shares cut the decision matrix, so every value is bit for bit that of
    one call over all rows, and in sample mode the blocks' uniform draws
    continue one stream, as one draw over all rows would.  The rows stream
    into the atomic write: a bad row anywhere in the file removes its
    temporary file and leaves no assignments.csv.
    """
    _require(cfg, "out")
    mode = cfg["mode"]
    if mode not in ("prob", "mv", "sample"):
        raise ValueError(f"unknown score mode {mode!r}")
    if mode == "sample":
        with _flags_named(seed="--seed"):
            rng = _StageStreams(cfg["seed"]).at(0)
    out = _echo_config(cfg)

    particles, fmap = load_rule(cfg["rule"])
    rule = (MajorityVoteRule if mode == "mv" else GibbsRule)(particles, fmap)

    def rows():
        for block in _csv_blocks(cfg["covariates"]):
            x = block["x"]
            if x.shape[1] != fmap.d_x:
                raise ValueError(f"rule expects {fmap.d_x} covariates but "
                                 f"{cfg['covariates']} has {x.shape[1]}")
            if mode == "prob":
                cells = map(_fmt, treat_probability(rule, x).tolist())
            elif mode == "mv":
                cells = map(str, mv_decide(rule, x).tolist())
            else:
                cells = map(str, sample_assignments(rule, x, rng).tolist())
            yield from ([cell] for cell in cells)

    _write_csv(os.path.join(out, "assignments.csv"), ["assignment"], rows())
    return EXIT_OK


# ---------------------------------------------------------------------------
# study

def _cmd_study(cfg: dict) -> int:
    from pbpolicy.harness import CV_FOLDS, GridSpec, StudyConfig, run_study
    _require(cfg, "out", "dgp")
    if cfg["n"] < 2 * CV_FOLDS:
        raise ValueError(f"--n must be at least {2 * CV_FOLDS}, so that "
                         f"every cross-validation fit has 2 units")
    if cfg["reps"] < 1:
        raise ValueError("--reps must be >= 1")
    dgp = DGPSpec(_dgp_id(cfg["dgp"]), cfg["seed"], cfg["n"])
    with _flags_named(u_grid="--u-grid", lambda_grid="--lambda-grid",
                      particles="--particles", n_test="--n-test",
                      n_bins="--bins", workers="--threads",
                      query_budgets="--budgets"):
        grids = GridSpec(**{key: cfg[key] for key in ("u_grid", "lambda_grid")
                            if cfg[key] is not None})
        study_cfg = StudyConfig(
            particles=cfg["particles"], n_test=cfg["n_test"],
            n_bins=cfg["bins"], workers=cfg["threads"], out_dir=cfg["out"],
            query_budgets=cfg["budgets"])
    _echo_config(cfg)
    run_study(dgp, cfg["reps"], grids=grids, config=study_cfg)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bounds / oracle / simulate

def _cmd_bounds(cfg: dict) -> int:
    _require(cfg, "n", "kappa", "my", "mc", "lam", "u", "eps")
    inputs = BoundInputs(n=cfg["n"], kappa=cfg["kappa"],
                         m_y=cfg["my"], m_c=cfg["mc"], lam=cfg["lam"],
                         u=cfg["u"], epsilon=cfg["eps"], q=cfg["q"],
                         grid_cardinality=cfg["grid_size"], nu=cfg["nu"])
    report = bound_report(inputs, d_kl=cfg["dkl"], u_hat=cfg["uhat"])
    if cfg["out"] is not None:
        out = _echo_config(cfg)
        save(report, os.path.join(out, "bounds.json"))
    else:
        print(json.dumps(report, indent=1))
    return EXIT_OK


def _cmd_oracle(cfg: dict) -> int:
    _require(cfg, "dgp", "budget")
    population = generate(DGPSpec(_dgp_id(cfg["dgp"]), cfg["seed"], cfg["n"]))
    dy, dc = population.cate, population.expected_cost
    rule = solve_eta_B(cfg["budget"], dy, dc)
    doc = oracle_report(rule, dy, dc)
    if cfg["out"] is not None:
        out = _echo_config(cfg)
        _write_atomic(os.path.join(out, "oracle.json"), doc)
    else:
        print(json.dumps(doc, indent=1))
    return EXIT_OK


def _cmd_simulate(cfg: dict) -> int:
    _require(cfg, "dgp", "n")
    population = generate(DGPSpec(_dgp_id(cfg["dgp"]), cfg["seed"], cfg["n"]))
    s = population.sample
    header = (["y", "c", "d"]
              + [f"x{j + 1}" for j in range(s.x.shape[1])] + ["e"])
    rows = ([_fmt(s.y[i]), _fmt(s.c[i]), str(int(s.d[i]))]
            + [_fmt(v) for v in s.x[i]] + [_fmt(s.e[i])]
            for i in range(s.n))
    if cfg["out"] is not None:
        out = _echo_config(cfg)
        _write_csv(os.path.join(out, "sample.csv"), header, rows)
    else:
        _write_rows(sys.stdout, header, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; remap those onto the
    validation exit code so callers can tell bad flags from crashed runs.
    The top-level parser holds its subcommands' parsers in `commands`."""

    commands: dict

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")

    def load_config(self, path: str, given: dict) -> None:
        """Make a JSON config file's values this parser's defaults.  The
        command and the positional inputs come from the command line's
        parse, given; a run_config.json echo may only repeat them."""
        loaded = _read_json(path)
        if not isinstance(loaded, dict):
            raise ValueError(f"{path}: config file must hold a JSON object")
        inputs = ["command"] + [a.dest for a in self._actions
                                if not a.option_strings]
        for key in inputs:
            value = loaded.pop(key, given[key])
            if value != given[key]:
                raise ValueError(
                    f"{path}: config key {key!r} is {value!r}, but the "
                    f"command line gives {given[key]!r}")
        options = {a.dest: a for a in self._actions if a.option_strings}
        unknown = sorted(set(loaded) - set(options) - {"help", "config"})
        if unknown:
            raise ValueError(
                f"{path}: unknown config keys: {', '.join(unknown)}")
        self.set_defaults(**{key: _config_value(path, key, value, options[key])
                             for key, value in loaded.items()})


def _config_value(path: str, key: str, value, action):
    """A config file's value for one flag.  A string is left for argparse
    to parse by the flag's type; any other value must be one that the type
    keeps exactly, and a grid flag's list holds finite numbers only.  null
    leaves a flag that has no default unset."""
    def number(v) -> bool:
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    def finite(v) -> bool:
        return number(v) and abs(v) <= sys.float_info.max

    if isinstance(action, argparse._StoreTrueAction):
        want, ok = "true or false", isinstance(value, bool)
    elif isinstance(value, str) or (value is None and action.default is None):
        return value
    elif action.type is int:
        want = "an integer"
        ok = number(value) and (isinstance(value, int) or value.is_integer())
    elif action.type is _finite:
        want, ok = "a finite number", finite(value)
    elif action.type is _float_list:
        want = "a list of finite numbers"
        ok = isinstance(value, list) and all(map(finite, value))
    else:
        want, ok = "a string", False
    if not ok:
        raise ValueError(f"{path}: config key {key!r} must be {want}, "
                         f"not {json.dumps(value)}")
    return value if isinstance(value, bool) else action.type(value)


def build_parser() -> argparse.ArgumentParser:
    """The pbpolicy parser.  Each option holds its own default, and each
    subcommand declares its options in run_config.json's key order.  A
    string value in a config file is parsed by the option's type."""
    parser = _Parser(prog="pbpolicy",
                     description="Budget-constrained treatment policies from "
                                 "experimental or observational samples.")
    sub = parser.add_subparsers(dest="command", metavar="command",
                                parser_class=_Parser)
    parser.commands = sub.choices

    def command(name, handler, help, inputs=(), out="output directory"):
        cmd = sub.add_parser(name, help=help)
        cmd.set_defaults(handler=handler)
        for dest, input_help in inputs:
            cmd.add_argument(dest, help=input_help)
        cmd.add_argument("--out", help=out)
        cmd.add_argument("--config", help="JSON file of flag defaults")
        return cmd

    fit = command("fit", _cmd_fit, "estimate a policy posterior from a CSV",
                  [("data", "sample CSV with columns y, c, d, x1..xk and "
                            "optionally e")])
    fit.add_argument("--lambda", dest="lam", type=_finite,
                     help="posterior temperature")
    fit.add_argument("--u", type=_finite, help="budget penalty weight")
    fit.add_argument("--budget", type=_finite,
                     help="per-capita budget; the penalty weight is solved")
    fit.add_argument("--particles", type=int, default=1000,
                     help="particle count (default %(default)s)")
    fit.add_argument("--seed", type=int, default=0,
                     help="RNG seed (default %(default)s)")
    fit.add_argument("--degree", type=int, default=2,
                     help="polynomial feature degree (default %(default)s)")
    fit.add_argument("--sigma", type=_finite, default=1.0,
                     help="prior scale (default %(default)s)")
    fit.add_argument("--propensity", type=_finite,
                     help="constant propensity when the CSV has no e column")
    fit.add_argument("--kappa", type=_finite, default=0.25,
                     help="overlap bound in (0, 1/2) (default %(default)s)")
    fit.add_argument("--my", type=_finite, help="declared outcome range")
    fit.add_argument("--mc", type=_finite, help="declared cost range")
    fit.add_argument("--raw", action="store_true",
                     help="temper the raw criterion instead of the "
                          "scale-normalized one")
    fit.add_argument("--budget-tol", dest="budget_tol", type=_finite,
                     default=1e-3, help="tolerance on the solved budget "
                                        "(default %(default)s)")

    score = command("score", _cmd_score, "apply a saved rule to covariates",
                    [("rule", "rule.json written by fit"),
                     ("covariates", "CSV with columns x1..xk")])
    score.add_argument("--mode", choices=("prob", "mv", "sample"),
                       default="prob",
                       help="prob writes treatment probabilities, mv the "
                            "majority vote, sample a seeded draw (default "
                            "%(default)s)")
    score.add_argument("--seed", type=int, default=0,
                       help="seed for --mode sample (default %(default)s)")

    study = command("study", _cmd_study, "run the simulation benchmark")
    study.add_argument("--dgp", help="dgp1 or dgp2")
    study.add_argument("--reps", type=int, default=20,
                       help="replications (default %(default)s; the paper "
                            "runs 100)")
    study.add_argument("--n", type=int, default=1000,
                       help="training sample size per replication "
                            "(default %(default)s)")
    study.add_argument("--particles", type=int, default=1000,
                       help="particle count (default %(default)s)")
    study.add_argument("--n-test", dest="n_test", type=int, default=10000,
                       help="held-out population size (default %(default)s)")
    study.add_argument("--bins", type=int, default=20,
                       help="budget bins for the batch variant "
                            "(default %(default)s)")
    study.add_argument("--seed", type=int, default=0,
                       help="master seed (default %(default)s)")
    study.add_argument("--threads", type=int, default=1,
                       help="worker processes (default %(default)s; "
                            "study_config.json records the count)")
    study.add_argument("--u-grid", dest="u_grid", type=_float_list,
                       help="comma separated penalty grid override")
    study.add_argument("--lambda-grid", dest="lambda_grid", type=_float_list,
                       help="comma separated temperature grid override")
    study.add_argument("--budgets", type=_float_list,
                       help="comma separated per-capita budgets to report")

    bounds = command("bounds", _cmd_bounds, "evaluate certificate slacks",
                     out="output directory (default: stdout)")
    bounds.add_argument("--n", type=int, help="sample size")
    bounds.add_argument("--kappa", type=_finite, help="overlap bound")
    bounds.add_argument("--my", type=_finite, help="outcome range")
    bounds.add_argument("--mc", type=_finite, help="cost range")
    bounds.add_argument("--lambda", dest="lam", type=_finite,
                        help="posterior temperature")
    bounds.add_argument("--u", type=_finite, help="budget penalty weight")
    bounds.add_argument("--eps", type=_finite, help="failure probability")
    bounds.add_argument("--dkl", type=_finite, default=0.0,
                        help="posterior-prior divergence "
                             "(default %(default)s)")
    bounds.add_argument("--uhat", type=_finite, default=0.0,
                        help="solved penalty weight (default %(default)s)")
    bounds.add_argument("--q", type=int, help="feature dimension")
    bounds.add_argument("--grid-size", dest="grid_size", type=int,
                        help="policy grid cardinality")
    bounds.add_argument("--nu", type=_finite, help="prior mass floor")

    oracle = command("oracle", _cmd_oracle,
                     "solve the population budget problem",
                     out="output directory (default: stdout)")
    oracle.add_argument("--dgp", help="dgp1 or dgp2")
    oracle.add_argument("--budget", type=_finite, help="per-capita budget")
    oracle.add_argument("--n", type=int, default=10000,
                        help="population size (default %(default)s)")
    oracle.add_argument("--seed", type=int, default=0,
                        help="population seed (default %(default)s)")

    sim = command("simulate", _cmd_simulate, "draw a synthetic sample",
                  out="output directory (default: stdout)")
    sim.add_argument("--dgp", help="dgp1 or dgp2")
    sim.add_argument("--n", type=int, help="sample size")
    sim.add_argument("--seed", type=int, default=0,
                     help="RNG seed (default %(default)s)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return EXIT_VALIDATION
    try:
        if args.config is not None:
            # explicit flags win: parse again with the file's values as the
            # subcommand's defaults
            parser.commands[args.command].load_config(args.config, vars(args))
            args = parser.parse_args(argv)
        cfg = vars(args)
        handler = cfg.pop("handler")
        del cfg["config"]
        return handler(cfg)
    except (ValueError, TypeError, OSError) as exc:
        print(f"pbpolicy {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:
        print(f"pbpolicy {args.command}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
