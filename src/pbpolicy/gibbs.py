"""Budget-penalized exponential weighting of linear threshold rules.

The posterior has density proportional to

    prior(theta) * exp[-lambda (u K_n(theta) - W_n(theta))],

where W_n and K_n are the empirical IPW welfare and cost of the rule.  The
normalized variant (the default) divides both functionals by the mean welfare
score, which rescales the effective inverse temperature by that mean.  Exact
finite-grid posteriors double as oracles for the SMC sampler, and the budget
map Lambda_hat(u) with its inverse u_hat(B, lambda) lives here too, as
grid_posterior(...) @ k on a grid or tilted_weights(...) @ k on a weighted
particle cloud reweighted ("tilted") across penalties.

Every decision, welfare and cost evaluation goes through one kernel,
_block_decisions (features @ thetas.T > 0), which walks the units-by-rules
matrix in blocks of about DECISION_BLOCK_ELEMENTS entries (_blocks).
Those blocks are too small to share across threads, so importing this module
sets numpy's OpenBLAS to one thread for the whole process, once
(_one_blas_thread); setting it per kernel call and restoring it was slower.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np

from pbpolicy.data import _BLOCK_ALIGN, IPWScores

__all__ = [
    "IsotropicNormalPrior",
    "grid_posterior",
    "tilted_weights",
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


def _one_blas_thread() -> None:
    """Set every OpenBLAS mapped in this process (numpy's) to one thread."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {ln.split()[-1] for ln in maps if "openblas" in ln.lower()}
    except OSError:
        return
    for path in sorted(p for p in paths if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_set_num_threads64_",
                    "openblas_set_num_threads64_", "openblas_set_num_threads"):
            if hasattr(lib, sym):
                ctypes.CFUNCTYPE(None, ctypes.c_int)((sym, lib))(1)
                break


_one_blas_thread()


class InfeasibleBudgetError(ValueError):
    """No penalty level can push the posterior cost down to the budget."""


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
    floor in pyproject.toml's test extra, for the tests that compare the two.
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


def _blocks(size: int, other: int) -> list[slice]:
    """Slices of range(size) that cut an (size, other) or (other, size)
    decision matrix into blocks of about DECISION_BLOCK_ELEMENTS entries.

    Every block but the last holds a multiple of 8 rows, and a remainder
    under 8 joins the block before it.  OpenBLAS's matrix-vector kernels sum
    rows in groups of four and a leftover row in another order, and numpy
    hands a one-row product to a dot product instead; so each row keeps the
    group and the position it has in the product over the whole matrix, and
    the blocked reductions equal the one-shot ones bit for bit.
    """
    step = max(_BLOCK_ALIGN, DECISION_BLOCK_ELEMENTS // max(other, 1)
               // _BLOCK_ALIGN * _BLOCK_ALIGN)
    cuts = list(range(0, size, step))
    if len(cuts) > 1 and size - cuts[-1] < _BLOCK_ALIGN:
        cuts.pop()
    return [slice(a, b) for a, b in zip(cuts, cuts[1:] + [size])]


def _block_decisions(thetas, features, by_units: bool):
    """Yield (block, decisions) over the blocks of the (n, m) decision
    matrix, which holds 1.0 where unit i's features treat under rule j
    (features[i] @ thetas[j] > 0), else 0.0: row blocks of the units when
    by_units, else column blocks of the rules.  Every block is written into
    one buffer, which the next block overwrites.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    features = np.asarray(features, dtype=float)
    n, m = features.shape[0], thetas.shape[0]
    blocks = _blocks(n, m) if by_units else _blocks(m, n)
    widest = max((b.stop - b.start for b in blocks), default=0)
    buffer = np.empty(widest * (m if by_units else n))
    for b in blocks:
        th, feats = (thetas, features[b]) if by_units else (thetas[b], features)
        dec = buffer[:feats.shape[0] * th.shape[0]].reshape(
            feats.shape[0], th.shape[0])
        # written as floats over the margins in place, so that the products
        # that follow do not each cast a boolean matrix
        np.matmul(feats, th.T, out=dec)
        np.greater(dec, 0.0, out=dec, casting="unsafe")
        yield b, dec


def _check_aligned(scores: IPWScores, features) -> None:
    if np.shape(features)[0] != scores.n:
        raise ValueError("scores and features have mismatched lengths")


def welfare_cost_matrix(thetas: np.ndarray, scores: IPWScores,
                        features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical welfare and cost of each row of thetas, as two (m,) arrays.

    The rules are walked in column blocks (_blocks), so no call holds the
    whole (n, m) decision matrix.
    """
    _check_aligned(scores, features)
    m = np.atleast_2d(thetas).shape[0]
    w, k = np.empty(m), np.empty(m)
    for cols, dec in _block_decisions(thetas, features, False):
        w[cols] = scores.delta_y @ dec
        k[cols] = scores.delta_c @ dec
    w /= scores.n
    k /= scores.n
    return w, k


def _scaled(lam: float, normalized: bool, scores: IPWScores) -> float:
    # normalized variant divides W_n and K_n by the mean welfare score, which
    # is the same as scaling lambda by 1/mean_delta_y
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    if not normalized:
        return lam
    if scores.mean_delta_y == 0.0:
        raise ValueError("normalized variant undefined: mean welfare score is zero")
    return lam / scores.mean_delta_y


def _check_penalty(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be non-negative, got {value}")


def grid_posterior(grid, prior_masses, lam: float, u: float,
                   scores: IPWScores, features,
                   normalized: bool = True) -> np.ndarray:
    """Exact Gibbs posterior on a finite grid of rules: the probability of
    each grid row at inverse temperature lam and penalty u."""
    _check_penalty("u", u)
    if len(grid) == 0:
        raise ValueError("grid is empty")
    thetas = np.vstack(grid).astype(float)
    pm = np.asarray(prior_masses, dtype=float)
    if pm.shape[0] != thetas.shape[0]:
        raise ValueError("prior masses not aligned with the grid")
    if not np.all(pm > 0):
        raise ValueError("prior masses must be positive")
    if not abs(pm.sum() - 1.0) <= 1e-8:
        raise ValueError("prior masses must sum to 1")
    w, k = welfare_cost_matrix(thetas, scores, features)
    logw = np.log(pm) + _scaled(lam, normalized, scores) * (w - u * k)
    return np.exp(logw - _logsumexp(logw))


def tilted_weights(weights, costs, lam: float, u_from: float, u: float,
                   scores: IPWScores, normalized: bool = True) -> np.ndarray:
    """Reweight a cloud that targets the posterior at (lam, u_from) to target
    the posterior at (lam, u).

    Only the penalty term of the exponent moves, so each weight is multiplied
    by exp[-lam (u - u_from) K_n(theta_j)], with lambda scaled as the variant
    scales it, and the weights are renormalized.  costs are the raw empirical
    costs K_n of the cloud's members.  At u = u_from the weights come back
    unchanged.

    The tilted cost u -> tilted_weights(...) @ costs has derivative
    -lam Var_u(K_n) <= 0 (lambda scaled as above), so it is non-increasing
    whatever the Monte Carlo error of the cloud, and strictly decreasing
    unless every weighted member has the same cost: solve_u_hat can invert
    it by bisection.
    """
    weights = np.asarray(weights, dtype=float)
    scale = _scaled(lam, normalized, scores)
    _check_penalty("u_from", u_from)
    _check_penalty("u", u)
    if u == u_from:
        return weights.copy()
    with np.errstate(divide="ignore"):
        logw = np.log(weights) - scale * (u - u_from) * np.asarray(costs, float)
    return np.exp(logw - _logsumexp(logw))


def solve_u_hat(B: float, lam: float, posterior_evaluator,
                tolerance: float = 1e-10) -> float:
    """Smallest penalty whose posterior cost meets the budget.

    Returns 0 when the unpenalized posterior is already within budget, else
    the root of Lambda_hat(u) = B.  The curve is strictly decreasing, so a
    doubling bracket followed by bisection suffices; the stopping rule is on
    the curve value, |Lambda_hat(u) - B| <= tolerance.  A curve that jumps
    across the budget instead raises RuntimeError as soon as its bracket can
    no longer be split.  A budget that is not a finite number raises
    ValueError.
    """
    if not math.isfinite(B):
        raise ValueError(f"budget must be a finite number, got {B!r}")
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
