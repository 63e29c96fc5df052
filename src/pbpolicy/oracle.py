"""Optimal budget-constrained policies for a population of known effects.

When the conditional effects of treatment on outcome (dy) and on cost (dc)
are known for every unit of a frozen evaluation population, the best rule
under a budget treats units in order of their cost-benefit ratio until the
budget is spent.  This module solves for that threshold multiplier and
computes the regret and loss functionals used to score estimated rules
against the optimum.  Each function takes the two effects as aligned
per-unit vectors; for a built-in design they are a generated population's
`cate` and `expected_cost`.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "OptimalRule",
    "budget_curve_beta",
    "solve_eta_B",
    "oracle_decisions",
    "oracle_report",
    "gain_cost",
    "regret_under_budget",
    "mv_loss_L_B",
]


@dataclass(frozen=True)
class OptimalRule:
    """Solved threshold rule: treat when the outcome effect exceeds
    eta times the cost effect, with randomized tie treatment.

    a1 is the treatment probability on tie units with positive cost effect,
    a2 on tie units with negative cost effect.  Both are zero whenever the
    budget lands exactly on an achievable cost.
    """

    budget: float
    eta: float
    a1: float = 0.0
    a2: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.budget):
            raise ValueError("budget must be finite")
        if not (np.isfinite(self.eta) and self.eta >= 0.0):
            raise ValueError("eta must be finite and non-negative")
        for name in ("a1", "a2"):
            a = getattr(self, name)
            if not (0.0 <= a <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1]")


def _deltas(dy, dc) -> tuple[np.ndarray, np.ndarray]:
    dy = np.asarray(dy, dtype=float)
    dc = np.asarray(dc, dtype=float)
    if dy.ndim != 1 or dc.shape != dy.shape:
        raise ValueError("effects must be two vectors with one value per unit")
    if dy.shape[0] == 0:
        raise ValueError("population must be non-empty")
    if not (np.all(np.isfinite(dy)) and np.all(np.isfinite(dc))):
        raise ValueError("effects must be finite on the population")
    return dy, dc


def _ratios(dy: np.ndarray, dc: np.ndarray) -> np.ndarray:
    r = np.full(dy.shape, np.nan)
    nz = dc != 0.0
    r[nz] = dy[nz] / dc[nz]
    return r


def _strict_treat(b: float, dy, dc, r) -> np.ndarray:
    # Equivalent to dy > b*dc, written through the cost-benefit ratio so
    # that tie membership (r == b) is exact on the stored floats: dividing
    # by a negative cost effect flips the inequality.
    return np.where(
        dc > 0.0, r > b, np.where(dc < 0.0, r < b, dy > 0.0)
    )


def _beta(b: float, dy, dc, r) -> float:
    return float(np.mean(dc * _strict_treat(b, dy, dc, r)))


def budget_curve_beta(b: float, dy, dc) -> float:
    """Expected cost of treating exactly the units with δ_y(x) > b·δ_c(x).

    Non-increasing in b; its value at b=0 is the cost of the unconstrained
    rule that treats every unit with a positive outcome effect.
    """
    if not np.isfinite(b):
        raise ValueError("threshold must be finite")
    dy, dc = _deltas(dy, dc)
    return _beta(b, dy, dc, _ratios(dy, dc))


def solve_eta_B(B: float, dy, dc) -> OptimalRule:
    """Solve for the smallest multiplier whose rule fits the budget B.

    The least a rule at multiplier η can spend is the strict rule's cost
    plus every negative-cost tie at η.  That least cost falls as η grows,
    jumps only at the population's cost-benefit ratios and reaches the
    cheapest possible cost at the largest ratio, so one search over 0 and
    the positive ratios finds the smallest η where it fits B.  The tie
    units at η then fill the budget with a fractional treatment
    probability: the positive-cost ties when the strict rule is within B,
    the negative-cost ties when it is not, so the realized cost equals B.

    Requires B to exceed the cost of the cheapest possible rule (treating
    only the units whose treatment reduces cost).
    """
    if not np.isfinite(B):
        raise ValueError("budget must be finite")
    dy, dc = _deltas(dy, dc)
    r = _ratios(dy, dc)
    m = dy.shape[0]

    floor = float(np.sum(dc[dc < 0.0])) / m
    if B <= floor:
        raise ValueError(
            f"budget {B} is at or below the minimum achievable cost {floor}")

    if _beta(0.0, dy, dc, r) <= B:
        return OptimalRule(budget=B, eta=0.0)

    positive = np.unique(r[np.isfinite(r) & (r > 0.0)])
    cands = np.concatenate([[0.0], positive])

    def tie_mass(eta: float, sign: int) -> float:
        at = (r == eta) & ((dc > 0.0) if sign > 0 else (dc < 0.0))
        return float(np.sum(dc[at])) / m

    # the largest ratio is taken to fit, as it does in exact arithmetic
    lo, hi = -1, len(cands) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _beta(cands[mid], dy, dc, r) + tie_mass(cands[mid], -1) <= B:
            hi = mid
        else:
            lo = mid

    eta = float(cands[hi])
    k_eta = _beta(eta, dy, dc, r)
    a1 = a2 = 0.0
    if k_eta <= B:
        pos = tie_mass(eta, +1)
        a1 = (B - k_eta) / pos if pos != 0.0 else 0.0
    else:
        neg = tie_mass(eta, -1)
        a2 = (B - k_eta) / neg if neg != 0.0 else 0.0

    a1 = min(max(a1, 0.0), 1.0)
    a2 = min(max(a2, 0.0), 1.0)
    rule = OptimalRule(budget=B, eta=eta, a1=a1, a2=a2)
    realized = k_eta + a1 * tie_mass(eta, +1) + a2 * tie_mass(eta, -1)
    if abs(realized - B) > 1e-9:
        warnings.warn(
            f"budget not exactly exhausted at eta={eta}: "
            f"realized cost {realized} vs budget {B}", stacklevel=2)
    return rule


def oracle_decisions(optimal: OptimalRule, dy, dc) -> np.ndarray:
    """Per-unit treatment probabilities of the solved rule, in [0, 1]."""
    dy, dc = _deltas(dy, dc)
    r = _ratios(dy, dc)
    dec = _strict_treat(optimal.eta, dy, dc, r).astype(float)
    tie = r == optimal.eta
    dec[tie & (dc > 0.0)] = optimal.a1
    dec[tie & (dc < 0.0)] = optimal.a2
    return dec


def oracle_report(optimal: OptimalRule, dy, dc) -> dict:
    """Summary of the solved rule on the population, with JSON-ready keys."""
    gain, cost = gain_cost(oracle_decisions(optimal, dy, dc), dy, dc)
    return {
        "B": optimal.budget,
        "eta_B": optimal.eta,
        "cost_of_optimal": cost,
        "gain_of_optimal": gain,
    }


def _decision_vector(f, m: int) -> np.ndarray:
    dec = np.asarray(f, dtype=float)
    if dec.shape != (m,):
        raise ValueError("rule decisions not aligned with the population")
    if not np.all((dec >= 0.0) & (dec <= 1.0)):
        raise ValueError("rule decisions must lie in [0, 1]")
    return dec


def gain_cost(f, dy, dc) -> tuple[float, float]:
    """Population gain and cost of rule f: the means of dy·f and dc·f.

    f is the rule's vector of per-unit treatment decisions (or
    probabilities, handled by linearity) on the population.
    """
    dy, dc = _deltas(dy, dc)
    dec = _decision_vector(f, dy.shape[0])
    return float(np.mean(dy * dec)), float(np.mean(dc * dec))


def regret_under_budget(f, optimal: OptimalRule, dy, dc) -> float:
    """Welfare gap between the solved optimum and rule f.

    Negative values are possible when f spends more than the budget the
    optimum was solved for.
    """
    dy, dc = _deltas(dy, dc)
    dec = _decision_vector(f, dy.shape[0])
    star = oracle_decisions(optimal, dy, dc)
    return float(np.mean(dy * (star - dec)))


def mv_loss_L_B(f, optimal: OptimalRule, dy, dc) -> float:
    """Margin-weighted disagreement with the solved optimum.

    The integrand (δ_y − η·δ_c)(f* − f) is non-negative pointwise, so this
    is non-negative for any rule, unlike the plain regret.
    """
    dy, dc = _deltas(dy, dc)
    dec = _decision_vector(f, dy.shape[0])
    star = oracle_decisions(optimal, dy, dc)
    return float(np.mean((dy - optimal.eta * dc) * (star - dec)))
