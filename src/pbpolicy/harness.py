"""Simulation study orchestration.

For each training replication the pipeline fits penalized rules over a grid
of budget penalties, selecting the inverse temperature per penalty by
two-fold cross-validation, then scores every rule on a frozen test
population where the truth is known.  Per-replication gain-cost points are
interpolated into curves and averaged vertically across replications.

The penalties of a replication are independent tempering runs.  A study on
one worker shares them between two worker processes where two CPUs are
allowed, and assembles their results in grid order; `workers` > 1 runs
whole replications on that many processes instead, each running its
penalties in turn.  Either way the output bytes are those of one process.

The published comparison methods that rank units by estimated scores are
replaced here by oracle-score variants that rank by the true conditional
effects; study reports carry a note saying so.
"""
from __future__ import annotations

import contextlib
import hashlib
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence

import numpy as np

from . import __version__, gibbs
from .data import (Sample, _fmt, _write_atomic, _write_csv, ipw_transform,
                   poly_feature_map)
from .dgp import DGPSpec, SimulatedPopulation, generate
from .gibbs import IsotropicNormalPrior
from .oracle import gain_cost
# treat_probability, mv_decide, rule_empirical_cost and run_smc are not
# called here any more, but the benchmark's tracer (bench/tracing.py)
# rebinds them in this module
from .rules import (
    BatchCandidates,
    MajorityVoteRule,
    _clipped_votes,
    _weighted_votes,
    batch_assign,
    mv_decide,
    rule_empirical_cost,
    treat_probability,
)
from .smc import LAMBDA_CAP, run_smc, temper

__all__ = [
    "GridSpec",
    "CostCurve",
    "ReplicationResult",
    "StudyConfig",
    "StudyReport",
    "subseed",
    "default_query_budgets",
    "build_cost_curve",
    "oracle_ratio_baseline",
    "oracle_cate_baseline",
    "random_line_slope",
    "run_study",
]

BASELINE_NOTE = (
    "Comparison methods that rank units by estimated scores are replaced by "
    "oracle-score variants ranking on the true conditional effects; their "
    "curves are upper envelopes for any estimated ranking of the same form."
)

FEATURE_DEGREE = 2
PRIOR_SIGMA = 1.0
CV_FOLDS = 2

# a doubling grid with midpoints, 4, 6, 8, 12, ..., 768, 1024, each at the
# step of the fixed tempering ladder nearest it
_DEFAULT_LAMBDAS = (4.0, 6.1, 7.966666666666667, 11.933333333333334, 15.9,
                    24.066666666666666, 32.0, 48.42666666666666, 63.36,
                    96.21333333333334, 127.57333333333334, 191.78666666666666,
                    256.0, 384.0, 512.0, 768.0, 1024.0)


def subseed(*parts) -> int:
    """Stable 64-bit stream key derived from a path of labels and numbers."""
    text = "/".join(str(p) for p in parts)
    return int.from_bytes(
        hashlib.blake2b(text.encode(), digest_size=8).digest(), "little")


def default_query_budgets(dgp_id: str) -> np.ndarray:
    if dgp_id == "DGP1":
        return np.unique(np.concatenate([np.linspace(0.0, 1.5, 31),
                                         [0.25, 0.75]]))
    return np.unique(np.concatenate([np.linspace(0.0, 0.9, 31), [0.5]]))


@dataclass(frozen=True)
class GridSpec:
    """Penalty and inverse-temperature grids swept by the study."""

    u_grid: np.ndarray = field(
        default_factory=lambda: np.concatenate([[0.0],
                                                np.linspace(0.2, 4.0, 40)]))
    lambda_grid: np.ndarray = field(
        default_factory=lambda: np.array(_DEFAULT_LAMBDAS))

    def __post_init__(self):
        for name in ("u_grid", "lambda_grid"):
            g = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, g)
            if g.size == 0:
                raise ValueError(f"{name} is empty")
            if np.any(np.diff(g) <= 0):
                raise ValueError(f"{name} must be strictly increasing")
        if not np.all(np.isfinite(self.u_grid) & (self.u_grid >= 0)):
            raise ValueError("u_grid values must be finite and non-negative")
        lam = self.lambda_grid
        if not np.all((lam > 0) & (lam <= LAMBDA_CAP)):
            raise ValueError(f"lambda_grid values must lie in (0, {LAMBDA_CAP:g}]")
        if self.u_grid.size < 2:
            # each replication's cost curves join one point per penalty
            raise ValueError("u_grid needs at least 2 values")


@dataclass(frozen=True)
class CostCurve:
    """Piecewise-linear gain as a function of realized cost."""

    costs: np.ndarray
    gains: np.ndarray

    def __post_init__(self):
        costs = np.asarray(self.costs, dtype=float)
        gains = np.asarray(self.gains, dtype=float)
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "gains", gains)
        if costs.shape != gains.shape or costs.ndim != 1:
            raise ValueError("costs and gains must be aligned vectors")
        if costs.size < 2:
            raise ValueError("need at least 2 distinct costs")
        if np.any(np.diff(costs) <= 0):
            raise ValueError("costs must be strictly increasing")

    def gain_at(self, query):
        """Interpolated gain; queries outside the range clamp to endpoints."""
        return np.interp(query, self.costs, self.gains)

    def covers(self, query):
        """False where gain_at had to clamp rather than interpolate."""
        q = np.asarray(query, dtype=float)
        return (q >= self.costs[0]) & (q <= self.costs[-1])


@dataclass(frozen=True)
class ReplicationResult:
    """One training replication: selections per penalty plus raw curves."""

    index: int
    selections: list
    curves: dict


@dataclass(frozen=True)
class StudyConfig:
    """Knobs that do not change the scientific design of the study."""

    particles: int = 1000
    n_test: int = 10000
    n_bins: int = 20
    workers: int = 1
    out_dir: Optional[str] = None
    query_budgets: Optional[Sequence[float]] = None

    def __post_init__(self):
        for name, low in (("particles", 2), ("n_test", 1), ("n_bins", 1),
                          ("workers", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        if self.query_budgets is not None:
            # negative budgets stay legal: a rule may save cost
            q = np.asarray(self.query_budgets, dtype=float)
            if q.ndim != 1 or q.size < 2:
                raise ValueError("query_budgets needs at least 2 values")
            if not np.all(np.isfinite(q)):
                raise ValueError("query_budgets must be finite")
            if np.any(np.diff(q) <= 0):
                raise ValueError("query_budgets must be strictly increasing")


@dataclass(frozen=True)
class StudyReport:
    """Averaged curves per method plus everything needed to audit them."""

    dgp: DGPSpec
    n_reps: int
    query_budgets: np.ndarray
    curves: dict
    gain_se: dict
    replications: list


def build_cost_curve(points) -> CostCurve:
    """Sort gain-cost points by cost, keeping the best gain at equal costs."""
    best: dict = {}
    for c, g in points:
        c, g = float(c), float(g)
        if c not in best or g > best[c]:
            best[c] = g
    costs = np.array(sorted(best))
    return CostCurve(costs=costs, gains=np.array([best[c] for c in costs]))


def _greedy_baseline(score: np.ndarray, population: SimulatedPopulation,
                     budgets):
    """Treat units by descending score, ties by index, while the score is
    positive and the running cost stays within budget + 1e-9, for each of
    the budgets, which must be non-negative.

    One sort serves every budget: the cut is the first prefix whose
    cumulative cost exceeds the budget, or the first non-positive score.
    """
    if np.any(np.asarray(budgets) < 0):
        raise ValueError("budget must be non-negative")
    order = np.lexsort((np.arange(population.n), -score))
    cost = np.cumsum(population.expected_cost[order])
    gain = np.cumsum(population.cate[order])
    stops = np.flatnonzero(score[order] <= 0.0)
    first_stop = stops[0] if stops.size else population.n
    limit = np.asarray(budgets, dtype=float) + 1e-9
    k = np.minimum(np.searchsorted(np.maximum.accumulate(cost), limit,
                                   side="right"), first_stop)
    return (np.where(k > 0, gain[k - 1], 0.0),
            np.where(k > 0, cost[k - 1], 0.0))


def oracle_ratio_baseline(population: SimulatedPopulation, budgets):
    """Treat by descending true gain-to-cost ratio until the budget is hit.

    Returns cumulative (gain, cost) totals, not per-capita means, as arrays
    aligned with budgets.
    """
    ec, dy = population.expected_cost, population.cate
    with np.errstate(divide="ignore"):
        score = np.where(ec > 0, dy / np.where(ec > 0, ec, 1.0),
                         np.where(dy > 0, np.inf, -np.inf))
    return _greedy_baseline(score, population, budgets)


def oracle_cate_baseline(population: SimulatedPopulation, budgets):
    """Treat by descending true outcome effect until the budget is hit;
    returns as oracle_ratio_baseline does."""
    return _greedy_baseline(population.cate, population, budgets)


def random_line_slope(population: SimulatedPopulation) -> float:
    """Gain per unit cost when treatment is assigned at random."""
    return float(np.mean(population.cate) / np.mean(population.expected_cost))


def _fold_indices(n: int, folds: int, seed: int) -> list[np.ndarray]:
    """Contiguous blocks of a seeded shuffle, one block per fold."""
    if n < folds:
        raise ValueError("fewer units than folds")
    perm = np.random.default_rng(seed).permutation(n)
    return np.array_split(perm, folds)


def _prepare(sample: Sample):
    """The feature map normalized on sample, the sample's features under it,
    its IPW scores and the prior over the map's coefficients."""
    fmap = poly_feature_map(FEATURE_DEGREE, sample.x.shape[1])
    fmap = fmap.fit_normalization(sample.x)
    prior = IsotropicNormalPrior(q=len(fmap.exponents), sigma=PRIOR_SIGMA)
    return fmap, fmap.transform(sample.x), ipw_transform(sample), prior


def _holdout_objectives(u: float, lambda_grid, training: Sample,
                        particles: int, seed: int) -> dict[str, np.ndarray]:
    """Mean held-out penalized welfare per candidate, for both rule kinds.

    "lambda" holds the grid's candidates, which GridSpec keeps strictly
    increasing; "gibbs" and "mv" hold the objective of each rule kind at
    them.
    """
    lambdas = np.array(lambda_grid, dtype=float)
    totals = {"gibbs": np.zeros(lambdas.size), "mv": np.zeros(lambdas.size)}
    halves = _fold_indices(training.n, CV_FOLDS, subseed(seed, "folds"))
    for f, hold_idx in enumerate(halves):
        fit_idx = np.concatenate([h for g, h in enumerate(halves) if g != f])
        fmap, feats, scores, prior = _prepare(
            training.subset(np.sort(fit_idx)))
        clouds = temper(scores, feats, prior, u, lambdas, particles,
                        subseed(seed, "cv", f))
        hold = training.subset(np.sort(hold_idx))
        hold_scores = ipw_transform(hold)
        hold_feats = fmap.transform(hold.x)
        penalized = hold_scores.delta_y - u * hold_scores.delta_c
        for j, lam in enumerate(lambdas):
            prob = _clipped_votes(hold_feats, clouds[lam])
            dec = (prob > 0.5).astype(float)
            totals["gibbs"][j] += float(np.mean(penalized * prob))
            totals["mv"][j] += float(np.mean(penalized * dec))
        # freed before the next fold's run, not after it: one cloud per
        # candidate
        del clouds
    return {"lambda": lambdas,
            **{kind: v / CV_FOLDS for kind, v in totals.items()}}


def _select_lambdas(u: float, lambda_grid, training: Sample, particles: int,
                    seed: int) -> tuple[float, float]:
    """Inverse temperatures (stochastic rule, majority vote) with the best
    held-out penalized welfare.

    Every candidate is a rung of one adaptive tempering run per fold, which
    lands on it exactly, so the candidate's own value is what comes back;
    ties resolve to the smaller one.
    """
    table = _holdout_objectives(u, lambda_grid, training, particles, seed)
    return tuple(float(table["lambda"][int(np.argmax(table[kind]))])
                 for kind in ("gibbs", "mv"))


def _fit_penalty(lambda_grid, particles: int, training: Sample, prepared,
                 test, u_seed: int, u: float):
    """The selection record, sa and mv points, majority-vote rule with its
    estimated cost, and test vote shares of penalty u, whose streams derive
    from u_seed.  prepared is _prepare(training), and test holds the test
    population's covariates, true effects and expected costs.  Every
    argument pickles, so a worker process can run it."""
    fmap, feats, scores, prior = prepared
    test_x, dy, dc = test
    test_feats = fmap.transform(test_x)
    lam_sa, lam_mv = _select_lambdas(u, lambda_grid, training, particles,
                                     u_seed)
    # one tempering run, cut at the larger target, harvests both rules
    clouds = temper(scores, feats, prior, u, [lam_sa, lam_mv], particles,
                    subseed(u_seed, "fit"))
    # the training and test vote shares of each distinct cloud: the two
    # rules often share one
    train, shares = {}, {}
    for lam in {lam_sa, lam_mv}:
        train[lam] = _weighted_votes(feats, clouds[lam])
        shares[lam] = _clipped_votes(test_feats, clouds[lam])

    est_cost_sa = float(scores.delta_c @ train[lam_sa] / scores.n)
    est_cost_mv = float(scores.delta_c @ (train[lam_mv] > 0.5) / scores.n)
    mv_shares = shares[lam_mv]
    gain_sa, cost_sa = gain_cost(shares[lam_sa], dy, dc)
    gain_mv, cost_mv = gain_cost((mv_shares > 0.5).astype(float), dy, dc)
    selection = {
        "u": float(u), "lambda_sa": lam_sa, "lambda_mv": lam_mv,
        "est_cost_sa": est_cost_sa, "est_cost_mv": est_cost_mv,
        "true_cost_sa": cost_sa, "true_gain_sa": gain_sa,
        "true_cost_mv": cost_mv, "true_gain_mv": gain_mv,
    }
    return (selection, (cost_sa, gain_sa), (cost_mv, gain_mv),
            (MajorityVoteRule(clouds[lam_mv], fmap), est_cost_mv), mv_shares)


def _run_replication(dgp: DGPSpec, k: int, grids: GridSpec,
                     config: StudyConfig, test_pop: SimulatedPopulation,
                     penalty_map=map) -> ReplicationResult:
    """Replication k of the study.  Its penalties are independent, and
    penalty_map (map, or a process pool's map) runs them; the results come
    back in grid order either way."""
    rep_seed = subseed(dgp.seed, "rep", k)
    training = generate(DGPSpec(dgp.id, rep_seed, dgp.n)).sample
    # every penalty's final fit is normalized on the whole training sample,
    # so its features are built once here; each penalty maps the test
    # population itself, which was faster than pickling its features
    fit = partial(_fit_penalty, grids.lambda_grid, config.particles,
                  training, _prepare(training),
                  (test_pop.x, test_pop.cate, test_pop.expected_cost))
    u_seeds = [subseed(rep_seed, "u", i) for i in range(grids.u_grid.size)]
    selections, sa_points, mv_points, mv_rules, mv_shares = zip(
        *penalty_map(fit, u_seeds, grids.u_grid))
    mv_rules_by_u = dict(zip(grids.u_grid.tolist(), mv_rules))
    mv_shares_by_u = dict(zip(grids.u_grid.tolist(), mv_shares))

    cap = max(est for _, est in mv_rules_by_u.values())
    m = test_pop.n
    batch_points = [(0.0, 0.0)]
    if cap > 0:
        candidates = BatchCandidates(x=test_pop.x,
                                     unit_costs=test_pop.expected_cost / m)
        plan = batch_assign(candidates, mv_rules_by_u, budget=cap,
                            n_bins=config.n_bins, shares=mv_shares_by_u)
        for j in range(config.n_bins):
            gain = float(np.mean(test_pop.cate * plan.treated_by_bin[j]))
            batch_points.append((plan.realized_cost_by_bin[j], gain))
    if len({c for c, _ in batch_points}) < 2:
        batch_points = [(0.0, 0.0), (1.0, 0.0)]

    curves = {
        "pb_sa": build_cost_curve(sa_points),
        "pb_mv": build_cost_curve(mv_points),
        "pb_batch": build_cost_curve(batch_points),
    }
    return ReplicationResult(index=k, selections=list(selections),
                             curves=curves)


def _replications(jobs, workers: int):
    """Each job's replication as it returns: in order on one worker, in the
    order they finish on a pool of processes (imported only for a pool).

    On one worker, where two CPUs are allowed, two worker processes share
    the penalties of every replication; two threads would take turns at
    the interpreter lock, which most of a tempering run holds.  A pool
    worker runs its kernel calls on its own thread, so that
    `study --threads k` runs k kernel threads.  A failure cancels the
    tasks not yet handed to the workers; those already in the pool's call
    queue, one more than its workers, still run before the error is
    raised.
    """
    if workers == 1 and not gibbs._two_cpus():
        for job in jobs:
            yield _run_replication(*job)
        return
    from concurrent.futures import ProcessPoolExecutor, as_completed
    with ProcessPoolExecutor(max(workers, 2),
                             initializer=gibbs._one_kernel_thread) as pool:
        try:
            if workers == 1:
                for job in jobs:
                    yield _run_replication(*job, penalty_map=pool.map)
            else:
                futures = [pool.submit(_run_replication, *job)
                           for job in jobs]
                for done in as_completed(futures):
                    yield done.result()
        finally:
            # a failed replication or penalty ends the study without
            # running the rest
            pool.shutdown(cancel_futures=True)


def run_study(dgp: DGPSpec, replications: int, grids: GridSpec = None,
              config: StudyConfig = None) -> StudyReport:
    """Run the full pipeline and, when configured, write its artifacts.

    The DGPSpec's seed is the master seed: test population, fold splits,
    and every sampler stream are derived from it, so two runs with equal
    arguments produce identical reports and byte-identical files.  Each
    replication's file is written as soon as that replication returns, and
    the curves and the study's configuration once all have.
    """
    if replications < 1:
        raise ValueError("need at least one replication")
    grids = grids if grids is not None else GridSpec()
    config = config if config is not None else StudyConfig()

    test_pop = generate(DGPSpec(dgp.id, subseed(dgp.seed, "test"),
                                config.n_test))
    query = np.asarray(config.query_budgets, dtype=float) \
        if config.query_budgets is not None else default_query_budgets(dgp.id)

    jobs = [(dgp, k, grids, config, test_pop) for k in range(replications)]
    reps = []
    # closed on the way out, so that a failed write also shuts the pools
    with contextlib.closing(_replications(jobs, config.workers)) as done:
        for rep in done:
            reps.append(rep)
            if config.out_dir is not None:
                _write_replication(config.out_dir, rep)
    reps.sort(key=lambda rep: rep.index)

    curves, gain_se = {}, {}
    for method in ("pb_sa", "pb_mv", "pb_batch"):
        gains = np.array([r.curves[method].gain_at(query) for r in reps])
        curves[method] = CostCurve(costs=query, gains=gains.mean(axis=0))
        se = gains.std(axis=0, ddof=1) / np.sqrt(len(reps)) \
            if len(reps) > 1 else np.zeros_like(query)
        gain_se[method] = se

    m = test_pop.n
    for method, fn in (("oracle_ratio", oracle_ratio_baseline),
                       ("oracle_cate", oracle_cate_baseline)):
        gains, costs = fn(test_pop, query[query > 0] * m)
        base = build_cost_curve([(0.0, 0.0), *zip(costs / m, gains / m)])
        curves[method] = CostCurve(costs=query, gains=base.gain_at(query))
        gain_se[method] = np.zeros_like(query)

    slope = random_line_slope(test_pop)
    curves["random"] = CostCurve(costs=query, gains=slope * query)
    gain_se["random"] = np.zeros_like(query)

    report = StudyReport(dgp=dgp, n_reps=len(reps), query_budgets=query,
                         curves=curves, gain_se=gain_se, replications=reps)
    if config.out_dir is not None:
        _write_artifacts(report, grids, config)
    return report


def _write_replication(out: str, rep: ReplicationResult) -> None:
    os.makedirs(out, exist_ok=True)
    doc = {
        "replication": rep.index,
        "selections": rep.selections,
        "curves": {m: {"costs": c.costs.tolist(), "gains": c.gains.tolist()}
                   for m, c in rep.curves.items()},
    }
    _write_atomic(os.path.join(out, f"replication_{rep.index}.json"), doc)


def _write_artifacts(report: StudyReport, grids: GridSpec,
                     config: StudyConfig) -> None:
    out = config.out_dir
    for method, curve in report.curves.items():
        reps = str(report.n_reps if method.startswith("pb_") else 1)
        rows = ([_fmt(c), _fmt(g), _fmt(s), reps] for c, g, s in
                zip(curve.costs, curve.gains, report.gain_se[method]))
        _write_csv(os.path.join(out, f"cost_curves_{method}.csv"),
                   ["cost", "gain_mean", "gain_se", "n_reps"], [rows])

    echo = {
        "package_version": __version__,
        "dgp": {"id": report.dgp.id, "seed": report.dgp.seed,
                "n": report.dgp.n},
        "replications": report.n_reps,
        "particles": config.particles,
        "n_test": config.n_test,
        "n_bins": config.n_bins,
        "workers": config.workers,
        "u_grid": grids.u_grid.tolist(),
        "lambda_grid": grids.lambda_grid.tolist(),
        "query_budgets": report.query_budgets.tolist(),
        "notes": BASELINE_NOTE,
    }
    _write_atomic(os.path.join(out, "study_config.json"), echo)
