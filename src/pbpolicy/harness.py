"""Simulation study orchestration.

For each training replication the pipeline fits penalized rules over a grid
of budget penalties, selecting the inverse temperature per penalty by
two-fold cross-validation, then scores every rule on a frozen test
population where the truth is known.  Per-replication gain-cost points are
interpolated into curves and averaged vertically across replications.

The published comparison methods that rank units by estimated scores are
replaced here by oracle-score variants that rank by the true conditional
effects; study reports carry a note saying so.
"""
from __future__ import annotations

import hashlib
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .data import Sample, ipw_transform, poly_feature_map
from .dgp import DGPSpec, SimulatedPopulation, generate, true_gain_cost
from .gibbs import IsotropicNormalPrior
from .persist import _open_atomic, _write_atomic
# treat_probability and mv_decide are not called here any more, but the
# benchmark's tracer (bench/tracing.py) rebinds them in this module
from .rules import (
    BatchCandidates,
    GibbsRule,
    MajorityVoteRule,
    _clipped_votes,
    _weighted_votes,
    batch_assign,
    mv_decide,
    rule_empirical_cost,
    treat_probability,
)
from .smc import (
    LAMBDA_CAP,
    AdaptiveLadder,
    SMCConfig,
    build_default_ladder,
    run_smc,
)

__all__ = [
    "GridSpec",
    "CostCurve",
    "ReplicationResult",
    "StudyConfig",
    "StudyReport",
    "subseed",
    "default_lambda_grid",
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
MH_STEPS_PER_STAGE = 5

_LAMBDA_TARGETS = (4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0,
                   96.0, 128.0, 192.0, 256.0, 384.0, 512.0, 768.0, 1024.0)

_LADDER_LAMBDAS = np.array(
    [lam for lam, _ in build_default_ladder(0.0, 1024.0).steps])


def subseed(*parts) -> int:
    """Stable 64-bit stream key derived from a path of labels and numbers."""
    text = "/".join(str(p) for p in parts)
    return int.from_bytes(
        hashlib.blake2b(text.encode(), digest_size=8).digest(), "little")


def _nearest_rung(lam: float) -> int:
    return int(np.argmin(np.abs(_LADDER_LAMBDAS - lam)))


def default_lambda_grid() -> np.ndarray:
    """Ladder values closest to a doubling grid with midpoints, from 4 up."""
    steps = sorted({_nearest_rung(t) for t in _LAMBDA_TARGETS})
    return _LADDER_LAMBDAS[steps]


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
    lambda_grid: np.ndarray = field(default_factory=default_lambda_grid)

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


@dataclass(frozen=True)
class CostCurve:
    """Piecewise-linear gain as a function of realized cost."""

    method: str
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
        if self.particles < 2 or self.n_test < 1 or self.n_bins < 1:
            raise ValueError("particles, n_test, and n_bins must be positive")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
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
    notes: str = BASELINE_NOTE


def build_cost_curve(points, method: str = "") -> CostCurve:
    """Sort gain-cost points by cost, keeping the best gain at equal costs."""
    pts = [(float(c), float(g)) for c, g in points]
    if len(pts) < 2:
        raise ValueError("need at least 2 points")
    best: dict = {}
    for c, g in pts:
        if c not in best or g > best[c]:
            best[c] = g
    if len(best) < 2:
        raise ValueError("need at least 2 distinct costs")
    costs = np.array(sorted(best))
    return CostCurve(method=method, costs=costs,
                     gains=np.array([best[c] for c in costs]))


def _greedy_baseline(score: np.ndarray, population: SimulatedPopulation,
                     budget):
    """Treat units by descending score, ties by index, while the score is
    positive and the running cost stays within budget + 1e-9.

    One sort serves every budget: the cut is the first prefix whose
    cumulative cost exceeds the budget, or the first non-positive score.
    """
    order = np.lexsort((np.arange(population.n), -score))
    cost = np.cumsum(population.expected_cost[order])
    gain = np.cumsum(population.cate[order])
    stops = np.flatnonzero(score[order] <= 0.0)
    first_stop = stops[0] if stops.size else population.n
    limit = np.asarray(budget, dtype=float) + 1e-9
    k = np.minimum(np.searchsorted(np.maximum.accumulate(cost), limit,
                                   side="right"), first_stop)
    gains = np.where(k > 0, gain[k - 1], 0.0)
    costs = np.where(k > 0, cost[k - 1], 0.0)
    if gains.ndim == 0:
        return float(gains), float(costs)
    return gains, costs


def oracle_ratio_baseline(population: SimulatedPopulation, budget):
    """Treat by descending true gain-to-cost ratio until the budget is hit.

    Returns cumulative (gain, cost) totals, not per-capita means: floats for
    a scalar budget, arrays for an array of budgets.
    """
    if np.any(np.asarray(budget) < 0):
        raise ValueError("budget must be non-negative")
    ec, dy = population.expected_cost, population.cate
    with np.errstate(divide="ignore"):
        score = np.where(ec > 0, dy / np.where(ec > 0, ec, 1.0),
                         np.where(dy > 0, np.inf, -np.inf))
    return _greedy_baseline(score, population, budget)


def oracle_cate_baseline(population: SimulatedPopulation, budget):
    """Treat by descending true outcome effect until the budget is hit;
    returns as oracle_ratio_baseline does."""
    if np.any(np.asarray(budget) < 0):
        raise ValueError("budget must be non-negative")
    return _greedy_baseline(population.cate.copy(), population, budget)


def random_line_slope(population: SimulatedPopulation) -> float:
    """Gain per unit cost when treatment is assigned at random."""
    return float(np.mean(population.cate) / np.mean(population.expected_cost))


def _fold_indices(n: int, folds: int, seed: int) -> list[np.ndarray]:
    """Contiguous blocks of a seeded shuffle, one block per fold."""
    if n < folds:
        raise ValueError("fewer units than folds")
    perm = np.random.default_rng(seed).permutation(n)
    return np.array_split(perm, folds)


def _rungs(lambdas) -> list[int]:
    """Ladder steps nearest each candidate inverse temperature, ascending."""
    return sorted({_nearest_rung(lam) for lam in lambdas})


def _prepare(sample: Sample):
    """The feature map normalized on sample, the sample's features under it
    and its IPW scores."""
    fmap = poly_feature_map(FEATURE_DEGREE, sample.x.shape[1])
    fmap = fmap.fit_normalization(sample.x)
    return fmap, fmap.transform(sample.x), ipw_transform(sample)


def _tempered_clouds(u: float, rungs: list[int], prepared, particles: int,
                     seed: int) -> dict:
    """One adaptive tempering run on a _prepare'd sample up to the highest
    rung, with the cloud harvested at every rung, keyed by rung."""
    fmap, feats, scores = prepared
    prior = IsotropicNormalPrior(q=len(fmap.exponents), sigma=PRIOR_SIGMA)
    harvested = run_smc(scores, feats, prior,
                        AdaptiveLadder(u, _LADDER_LAMBDAS[rungs]),
                        SMCConfig(n_particles=particles, seed=seed,
                                  mh_steps_per_stage=MH_STEPS_PER_STAGE))
    by_lam = {cloud.lam: cloud for cloud in harvested.values()}
    return {step: by_lam[_LADDER_LAMBDAS[step]] for step in rungs}


def _holdout_objectives(u: float, lambda_grid, training: Sample,
                        particles: int, seed: int) -> dict[str, np.ndarray]:
    """Mean held-out penalized welfare per rung, for both rule kinds.

    "lambda" holds the ascending rung values nearest the candidates; "gibbs"
    and "mv" hold the objective of each rule kind at those rungs.
    """
    rungs = _rungs(lambda_grid)
    if not rungs:
        raise ValueError("lambda grid is empty")
    totals = {"gibbs": np.zeros(len(rungs)), "mv": np.zeros(len(rungs))}
    halves = _fold_indices(training.n, CV_FOLDS, subseed(seed, "folds"))
    for f, hold_idx in enumerate(halves):
        fit_idx = np.concatenate([h for g, h in enumerate(halves) if g != f])
        prepared = _prepare(training.subset(np.sort(fit_idx)))
        clouds = _tempered_clouds(u, rungs, prepared, particles,
                                  subseed(seed, "cv", f))
        hold = training.subset(np.sort(hold_idx))
        hold_scores = ipw_transform(hold)
        hold_feats = prepared[0].transform(hold.x)
        penalized = hold_scores.delta_y - u * hold_scores.delta_c
        for j, step in enumerate(rungs):
            prob = _clipped_votes(hold_feats, clouds[step])
            dec = (prob > 0.5).astype(float)
            totals["gibbs"][j] += float(np.mean(penalized * prob))
            totals["mv"][j] += float(np.mean(penalized * dec))
    return {"lambda": _LADDER_LAMBDAS[rungs],
            **{kind: v / CV_FOLDS for kind, v in totals.items()}}


def _select_lambdas(u: float, lambda_grid, training: Sample, particles: int,
                    seed: int) -> tuple[float, float]:
    """Inverse temperatures (stochastic rule, majority vote) with the best
    held-out penalized welfare.

    Each candidate snaps to its nearest ladder rung, so one tempering run per
    fold serves the whole grid, and the rung value is what comes back; ties
    resolve to the smaller rung.
    """
    table = _holdout_objectives(u, lambda_grid, training, particles, seed)
    return tuple(float(table["lambda"][int(np.argmax(table[kind]))])
                 for kind in ("gibbs", "mv"))


def _mv_empirical_cost(rule: MajorityVoteRule, scores, features) -> float:
    shares = _weighted_votes(features, rule.particles)
    return float(scores.delta_c @ (shares > 0.5) / scores.n)


def _fit_both_rules(u: float, lam_sa: float, lam_mv: float, prepared,
                    particles: int, seed: int):
    """One tempering run, cut at the larger target, harvesting both rungs."""
    clouds = _tempered_clouds(u, _rungs([lam_sa, lam_mv]), prepared,
                              particles, seed)
    fmap = prepared[0]
    return (GibbsRule(clouds[_nearest_rung(lam_sa)], fmap),
            MajorityVoteRule(clouds[_nearest_rung(lam_mv)], fmap))


def _run_replication(dgp: DGPSpec, k: int, grids: GridSpec,
                     config: StudyConfig,
                     test_pop: SimulatedPopulation) -> ReplicationResult:
    rep_seed = subseed(dgp.seed, "rep", k)
    training = generate(DGPSpec(dgp.id, rep_seed, dgp.n)).sample
    # every penalty's final fit is normalized on the whole training sample,
    # so its features and the test population's are built once here
    prepared = fmap, feats, scores = _prepare(training)
    test_feats = fmap.transform(test_pop.x)

    selections = []
    sa_points, mv_points = [], []
    mv_rules_by_u, mv_shares_by_u = {}, {}
    for i, u in enumerate(grids.u_grid):
        u_seed = subseed(rep_seed, "u", i)
        lam_sa, lam_mv = _select_lambdas(u, grids.lambda_grid, training,
                                         config.particles, u_seed)
        rule_sa, rule_mv = _fit_both_rules(u, lam_sa, lam_mv, prepared,
                                           config.particles,
                                           subseed(u_seed, "fit"))

        est_cost_sa = rule_empirical_cost(rule_sa, scores, feats)
        est_cost_mv = _mv_empirical_cost(rule_mv, scores, feats)
        mv_shares = _clipped_votes(test_feats, rule_mv.particles)
        gain_sa, cost_sa = true_gain_cost(
            _clipped_votes(test_feats, rule_sa.particles), test_pop)
        gain_mv, cost_mv = true_gain_cost(
            (mv_shares > 0.5).astype(float), test_pop)

        mv_rules_by_u[float(u)] = (rule_mv, est_cost_mv)
        mv_shares_by_u[float(u)] = mv_shares
        sa_points.append((cost_sa, gain_sa))
        mv_points.append((cost_mv, gain_mv))
        selections.append({
            "u": float(u), "lambda_sa": lam_sa, "lambda_mv": lam_mv,
            "est_cost_sa": est_cost_sa, "est_cost_mv": est_cost_mv,
            "true_cost_sa": cost_sa, "true_gain_sa": gain_sa,
            "true_cost_mv": cost_mv, "true_gain_mv": gain_mv,
        })

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
        "pb_sa": build_cost_curve(sa_points, "pb_sa"),
        "pb_mv": build_cost_curve(mv_points, "pb_mv"),
        "pb_batch": build_cost_curve(batch_points, "pb_batch"),
    }
    return ReplicationResult(index=k, selections=selections, curves=curves)


def _replication_job(args) -> ReplicationResult:
    return _run_replication(*args)


def run_study(dgp: DGPSpec, replications: int, grids: GridSpec = None,
              config: StudyConfig = None) -> StudyReport:
    """Run the full pipeline and, when configured, write its artifacts.

    The DGPSpec's seed is the master seed: test population, fold splits,
    and every sampler stream are derived from it, so two runs with equal
    arguments produce identical reports and byte-identical files.
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
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            reps = list(pool.map(_replication_job, jobs))
    else:
        reps = [_replication_job(job) for job in jobs]

    curves, gain_se = {}, {}
    for method in ("pb_sa", "pb_mv", "pb_batch"):
        gains = np.array([r.curves[method].gain_at(query) for r in reps])
        curves[method] = CostCurve(method=method, costs=query,
                                   gains=gains.mean(axis=0))
        se = gains.std(axis=0, ddof=1) / np.sqrt(len(reps)) \
            if len(reps) > 1 else np.zeros_like(query)
        gain_se[method] = se

    m = test_pop.n
    for method, fn in (("oracle_ratio", oracle_ratio_baseline),
                       ("oracle_cate", oracle_cate_baseline)):
        gains, costs = fn(test_pop, query[query > 0] * m)
        base = build_cost_curve([(0.0, 0.0), *zip(costs / m, gains / m)],
                                method)
        curves[method] = CostCurve(method=method, costs=query,
                                   gains=base.gain_at(query))
        gain_se[method] = np.zeros_like(query)

    slope = random_line_slope(test_pop)
    curves["random"] = CostCurve(method="random", costs=query,
                                 gains=slope * query)
    gain_se["random"] = np.zeros_like(query)

    report = StudyReport(dgp=dgp, n_reps=len(reps), query_budgets=query,
                         curves=curves, gain_se=gain_se, replications=reps)
    if config.out_dir is not None:
        _write_artifacts(report, grids, config)
    return report


def _write_artifacts(report: StudyReport, grids: GridSpec,
                     config: StudyConfig) -> None:
    out = config.out_dir
    os.makedirs(out, exist_ok=True)
    n_reps = {"pb_sa": report.n_reps, "pb_mv": report.n_reps,
              "pb_batch": report.n_reps}
    for method, curve in report.curves.items():
        lines = ["cost,gain_mean,gain_se,n_reps"]
        se = report.gain_se[method]
        for c, g, s in zip(curve.costs, curve.gains, se):
            lines.append(f"{float(c)!r},{float(g)!r},{float(s)!r},"
                         f"{n_reps.get(method, 1)}")
        with _open_atomic(os.path.join(out, f"cost_curves_{method}.csv")) as fh:
            fh.write("\n".join(lines) + "\n")

    for rep in report.replications:
        doc = {
            "replication": rep.index,
            "selections": rep.selections,
            "curves": {m: {"costs": c.costs.tolist(),
                           "gains": c.gains.tolist()}
                       for m, c in rep.curves.items()},
        }
        _write_atomic(os.path.join(out, f"replication_{rep.index}.json"), doc)

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
        "notes": report.notes,
    }
    _write_atomic(os.path.join(out, "study_config.json"), echo)
