"""Budget-penalized exponential weighting of linear threshold rules.

The posterior has density proportional to

    prior(theta) * exp[-lambda (u K_n(theta) - W_n(theta))],

where W_n and K_n are the empirical IPW welfare and cost of the rule.  The
normalized variant (the default) divides both functionals by the mean welfare
score, which rescales the effective inverse temperature by that mean.  Exact
finite-grid posteriors double as oracles for the SMC sampler, and the budget
map Lambda_hat(u) with its inverse u_hat(B, lambda) lives here too, on a grid
or on a weighted particle cloud reweighted ("tilted") across penalties.

Every decision, welfare and cost evaluation goes through one kernel,
_decisions (features @ thetas.T > 0), walked in blocks of about
DECISION_BLOCK_ELEMENTS entries of the units-by-rules matrix (_blocks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from pbpolicy.data import IPWScores

__all__ = [
    "GibbsParams",
    "IsotropicNormalPrior",
    "GridPosterior",
    "grid_posterior",
    "grid_cost_evaluator",
    "tilted_weights",
    "tilted_cost_evaluator",
    "empirical_budget_curve",
    "solve_u_hat",
    "grid_kl",
    "welfare_cost_matrix",
    "InfeasibleBudgetError",
]

U_BRACKET_CAP = 2.0**20

# Entries of one block of the decision matrix (1 MB of float64): the kernel
# and the vote shares never hold more than about this many at once.  Picked
# from a sweep over n in {250, 500, 1000} and 250-1000 particles.
DECISION_BLOCK_ELEMENTS = 2**17
_BLOCK_ALIGN = 8


class InfeasibleBudgetError(ValueError):
    """No penalty level can push the posterior cost down to the budget."""


@dataclass(frozen=True)
class GibbsParams:
    """Inverse temperature, budget penalty, and variant flag."""

    lam: float
    u: float
    normalized: bool = True

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if self.u < 0:
            raise ValueError(f"u must be non-negative, got {self.u}")


@dataclass(frozen=True)
class IsotropicNormalPrior:
    """Mean-zero normal prior with covariance sigma^2 I_q."""

    q: int
    sigma: float

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("dimension must be >= 1")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(scale=self.sigma, size=(n, self.q))

    def log_density(self, thetas: np.ndarray) -> np.ndarray:
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        norm = -0.5 * self.q * math.log(2 * math.pi * self.sigma**2)
        return norm - 0.5 * np.sum(thetas**2, axis=1) / self.sigma**2


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a 1-D float array, bit for bit as scipy's.

    The steps are those of scipy.special.logsumexp as scipy 1.15 rewrote it,
    without its argument handling: the m entries equal to the maximum are
    split out of the shifted sum s, the result is log1p(s / m) + log(m) + max,
    and log(sum(exp(a))) stands in wherever that is not finite.  An all -inf
    input therefore returns -inf.  Earlier scipy releases compute
    log(sum(exp(a - max))) + max, whose last bits differ; hence the scipy
    floor in pyproject.toml.
    """
    a_max = a.max()
    out = a_max
    if np.isfinite(a_max):
        ties = a == a_max
        m = float(np.count_nonzero(ties))
        s = np.exp(np.where(ties, -np.inf, a) - a_max).sum()
        if s != 0.0:
            s = s / m
        out = np.log1p(s) + np.log(m) + a_max
    if not np.isfinite(out):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = np.log(np.exp(a).sum())
    return out


def _decisions(thetas, features, scores: IPWScores | None = None,
               out: np.ndarray | None = None) -> np.ndarray:
    """The (n, m) matrix of 1.0 where unit i's features treat under rule j
    (features[i] @ thetas[j] > 0), else 0.0, written into out when given.

    When scores are given, features must hold one row per scored unit.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    features = np.asarray(features, dtype=float)
    if scores is not None and features.shape[0] != scores.n:
        raise ValueError("scores and features have mismatched lengths")
    # written as floats over the margins in place, so that the products that
    # follow do not each cast a boolean matrix
    dec = np.matmul(features, thetas.T, out=out)
    np.greater(dec, 0.0, out=dec, casting="unsafe")
    return dec


def _blocks(size: int, other: int) -> list[slice]:
    """Slices of range(size) that cut an (size, other) or (other, size)
    decision matrix into blocks of about DECISION_BLOCK_ELEMENTS entries.

    Every block but the last holds a multiple of 8 rows, and a remainder
    under 8 joins the block before it.  OpenBLAS's matrix-vector kernels sum
    rows in groups of four and a leftover row in another order, and numpy
    hands a one-row product to a dot product instead; so each row keeps the
    group and the position it has in the product over the whole matrix, and
    the blocked reductions equal the one-shot ones bit for bit.  The one
    exception is a one-shot product big enough for OpenBLAS to split across
    threads at a row count that is not a multiple of 4: there the blocks
    give the single-thread sums.
    """
    step = max(_BLOCK_ALIGN, DECISION_BLOCK_ELEMENTS // max(other, 1)
               // _BLOCK_ALIGN * _BLOCK_ALIGN)
    cuts = list(range(0, size, step))
    if len(cuts) > 1 and size - cuts[-1] < _BLOCK_ALIGN:
        cuts.pop()
    return [slice(a, b) for a, b in zip(cuts, cuts[1:] + [size])]


def _block_decisions(thetas, features, by_units: bool,
                     scores: IPWScores | None = None):
    """Yield (block, decisions) over the blocks of the (n, m) decision
    matrix: row blocks of the units when by_units, else column blocks of
    the rules.  Every block is written into one buffer, which the next
    block overwrites.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    features = np.asarray(features, dtype=float)
    n, m = features.shape[0], thetas.shape[0]
    blocks = _blocks(n, m) if by_units else _blocks(m, n)
    widest = max((b.stop - b.start for b in blocks), default=0)
    buffer = np.empty(widest * (m if by_units else n))
    for b in blocks:
        th, feats = (thetas, features[b]) if by_units else (thetas[b], features)
        out = buffer[:feats.shape[0] * th.shape[0]].reshape(
            feats.shape[0], th.shape[0])
        yield b, _decisions(th, feats, scores, out)


def welfare_cost_matrix(thetas: np.ndarray, scores: IPWScores,
                        features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical welfare and cost of each row of thetas, as two (m,) arrays.

    The rules are walked in column blocks (_blocks), so no call holds the
    whole (n, m) decision matrix.
    """
    m = np.atleast_2d(thetas).shape[0]
    w, k = np.empty(m), np.empty(m)
    for cols, dec in _block_decisions(thetas, features, False, scores):
        w[cols] = scores.delta_y @ dec
        k[cols] = scores.delta_c @ dec
    w /= scores.n
    k /= scores.n
    return w, k


def _scaled(params: GibbsParams, scores: IPWScores) -> float:
    # normalized variant divides W_n and K_n by the mean welfare score, which
    # is the same as scaling lambda by 1/mean_delta_y
    if not params.normalized:
        return params.lam
    if scores.mean_delta_y == 0.0:
        raise ValueError("normalized variant undefined: mean welfare score is zero")
    return params.lam / scores.mean_delta_y


@dataclass
class GridPosterior:
    """Exact posterior over a finite set of candidate rules."""

    thetas: np.ndarray  # (m, q)
    log_weights: np.ndarray  # normalized log probabilities
    probs: np.ndarray
    params: GibbsParams

    def __post_init__(self):
        s = self.probs.sum()
        if abs(s - 1.0) > 1e-12:
            self.probs = self.probs / s

    @property
    def m(self) -> int:
        return self.thetas.shape[0]

    def expectation(self, values: np.ndarray) -> float:
        values = np.asarray(values, dtype=float)
        if values.shape[0] != self.m:
            raise ValueError("values not aligned with the grid")
        return float(self.probs @ values)


def _as_theta_matrix(grid) -> np.ndarray:
    if isinstance(grid, np.ndarray):
        return np.atleast_2d(grid.astype(float))
    return np.vstack([np.asarray(g, float) for g in grid])


def grid_posterior(grid, prior_masses, params: GibbsParams,
                   scores: IPWScores, features) -> GridPosterior:
    """Exact Gibbs posterior on a finite grid of rules."""
    thetas = _as_theta_matrix(grid)
    pm = np.asarray(prior_masses, dtype=float)
    if thetas.shape[0] == 0:
        raise ValueError("grid is empty")
    if pm.shape[0] != thetas.shape[0]:
        raise ValueError("prior masses not aligned with the grid")
    if np.any(pm <= 0):
        raise ValueError("prior masses must be positive")
    if abs(pm.sum() - 1.0) > 1e-8:
        raise ValueError("prior masses must sum to 1")
    w, k = welfare_cost_matrix(thetas, scores, features)
    logw = np.log(pm) + _scaled(params, scores) * (w - params.u * k)
    logw = logw - _logsumexp(logw)
    return GridPosterior(thetas=thetas, log_weights=logw,
                         probs=np.exp(logw), params=params)


def grid_cost_evaluator(grid, prior_masses, scores: IPWScores, features,
                        normalized: bool = True) -> Callable[[float, float], float]:
    """Posterior expected cost (lam, u) -> integral of K_n, exact on a grid.

    The expectation integrand is always the raw empirical cost so the result
    compares directly against a budget, whichever variant weights the rules.
    """
    thetas = _as_theta_matrix(grid)
    pm = np.asarray(prior_masses, dtype=float)
    w, k = welfare_cost_matrix(thetas, scores, features)
    logpm = np.log(pm)

    def evaluate(lam: float, u: float) -> float:
        scale = _scaled(GibbsParams(lam, max(u, 0.0), normalized), scores)
        logw = logpm + scale * (w - u * k)
        logw = logw - _logsumexp(logw)
        return float(np.exp(logw) @ k)

    return evaluate


def tilted_weights(weights, costs, lam: float, u_from: float, u: float,
                   scores: IPWScores, normalized: bool = True) -> np.ndarray:
    """Reweight a cloud that targets the posterior at (lam, u_from) to target
    the posterior at (lam, u).

    Only the penalty term of the exponent moves, so each weight is multiplied
    by exp[-lam (u - u_from) K_n(theta_j)], with lambda scaled as the variant
    scales it, and the weights are renormalized.  costs are the raw empirical
    costs K_n of the cloud's members.  At u = u_from the weights come back
    unchanged.
    """
    weights = np.asarray(weights, dtype=float)
    if u == u_from:
        return weights.copy()
    scale = _scaled(GibbsParams(lam, 0.0, normalized), scores)
    with np.errstate(divide="ignore"):
        logw = np.log(weights) - scale * (u - u_from) * np.asarray(costs, float)
    return np.exp(logw - _logsumexp(logw))


def tilted_cost_evaluator(weights, costs, lam: float, u_from: float,
                          scores: IPWScores, normalized: bool = True
                          ) -> Callable[[float, float], float]:
    """Posterior expected cost (lam, u) -> integral of K_n, estimated by
    tilting one weighted cloud harvested at (lam, u_from) to each u.

    The derivative in u is -lambda Var_u(K_n) <= 0 (lambda scaled as the
    variant scales it), so the curve is non-increasing whatever the Monte
    Carlo error of the cloud, and strictly decreasing unless every weighted
    member has the same cost.  It answers at the harvest lambda only.
    """
    costs = np.asarray(costs, dtype=float)

    def evaluate(lam_value: float, u: float) -> float:
        if lam_value != lam:
            raise ValueError(f"the cloud was harvested at lambda={lam:g}, "
                             f"not {lam_value:g}")
        return float(tilted_weights(weights, costs, lam, u_from, u, scores,
                                    normalized) @ costs)

    return evaluate


def empirical_budget_curve(u_grid: Sequence[float], lam: float,
                           posterior_evaluator) -> list[tuple[float, float]]:
    """Evaluate u -> posterior expected cost along an ascending grid of u."""
    u_grid = [float(u) for u in u_grid]
    if any(b <= a for a, b in zip(u_grid, u_grid[1:])):
        raise ValueError("u_grid must be sorted strictly ascending")
    if u_grid and u_grid[0] < 0:
        raise ValueError("u values must be non-negative")
    return [(u, float(posterior_evaluator(lam, u))) for u in u_grid]


def solve_u_hat(B: float, lam: float, posterior_evaluator,
                tolerance: float = 1e-10) -> float:
    """Smallest penalty whose posterior cost meets the budget.

    Returns 0 when the unpenalized posterior is already within budget, else
    the root of Lambda_hat(u) = B.  The curve is strictly decreasing, so a
    doubling bracket followed by bisection suffices; the stopping rule is on
    the curve value, |Lambda_hat(u) - B| <= tolerance.  A curve that jumps
    across the budget instead raises RuntimeError as soon as its bracket can
    no longer be split.
    """
    val0 = float(posterior_evaluator(lam, 0.0))
    if val0 <= B:
        return 0.0
    lo, val_lo = 0.0, val0
    hi = 1.0
    val_hi = float(posterior_evaluator(lam, hi))
    while val_hi >= B:
        if hi >= U_BRACKET_CAP:
            raise InfeasibleBudgetError(
                f"posterior cost stays above the budget {B} out to u={hi:g}")
        lo, val_lo = hi, val_hi
        hi *= 2.0
        val_hi = float(posterior_evaluator(lam, hi))
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            raise RuntimeError(
                f"budget inversion cannot reach tolerance {tolerance:g}: the "
                f"bracket [{lo!r}, {hi!r}] cannot be split further, and the "
                f"posterior cost jumps from {val_lo!r} to {val_hi!r} across "
                f"the budget {B!r}")
        val = float(posterior_evaluator(lam, mid))
        if abs(val - B) <= tolerance:
            return mid
        if val > B:
            lo, val_lo = mid, val
        else:
            hi, val_hi = mid, val


def grid_kl(p, prior_masses) -> float:
    """KL divergence between two distributions on the same finite grid."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(prior_masses, dtype=float)
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))
