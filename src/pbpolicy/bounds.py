"""Closed-form finite-sample certificates for exponentially weighted rules.

Every function here is a pure formula substitution: Bernoulli KL and its
Pinsker gap, the high-probability slack terms for the regret and cost of a
Gibbs rule, the oracle-inequality remainders, and the normal-normal KL used
when the comparison class is a Gaussian tilt.  Nothing random, nothing fitted;
lambda/u selection happens elsewhere.  bound_report collects the values in a
plain dict keyed by formula name, and rejects a value that is not finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "BoundInputs",
    "small_kl",
    "small_kl_inverse",
    "pinsker_gap",
    "thm41a_slack",
    "thm41b_bound",
    "thm41c_bound",
    "thm42a_slack",
    "thm42b_terms",
    "thm43_bounds",
    "normal_kl",
    "bound_report",
]


@dataclass(frozen=True)
class BoundInputs:
    """Problem constants shared by the certificate formulas.

    q, grid_cardinality, and nu are optional because only some formulas need
    them: nu is the geometric margin constant of the smoothed-rule argument
    and must be supplied by the user, q is the feature dimension, and
    grid_cardinality switches on the union-bound correction for finite
    candidate sets.
    """

    n: int
    kappa: float
    m_y: float
    m_c: float
    lam: float
    u: float
    epsilon: float
    q: Optional[int] = None
    grid_cardinality: Optional[int] = None
    nu: Optional[float] = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if not (0.0 < self.kappa <= 0.5):
            raise ValueError("kappa must lie in (0, 1/2]")
        if not (self.m_y > 0 and self.m_c > 0):
            raise ValueError("outcome and cost bounds must be positive")
        if not self.lam > 0:
            raise ValueError("lam must be positive")
        if self.u < 0:
            raise ValueError("u must be non-negative")
        if not (0.0 < self.epsilon <= 1.0):
            raise ValueError("epsilon must lie in (0, 1]")
        if self.q is not None and self.q < 1:
            raise ValueError("q must be a positive integer")
        if self.grid_cardinality is not None and self.grid_cardinality < 1:
            raise ValueError("grid_cardinality must be a positive integer")
        if self.nu is not None and self.nu <= 0:
            raise ValueError("nu must be positive")

    @property
    def mass(self) -> float:
        """The combined score bound M_y + u M_c."""
        return self.m_y + self.u * self.m_c


def small_kl(a: float, b: float) -> float:
    """Bernoulli KL divergence kl(a, b), with 0 log 0 = 0 and a log(a/0) = inf."""
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise ValueError("arguments must lie in [0, 1]")
    out = 0.0
    if a > 0.0:
        if b == 0.0:
            return math.inf
        out += a * math.log(a / b)
    if a < 1.0:
        if b == 1.0:
            return math.inf
        out += (1 - a) * math.log((1 - a) / (1 - b))
    return out


def small_kl_inverse(a: float, c: float) -> float:
    """Largest b in [a, 1] with kl(a, b) <= c, by bisection.

    The stopping rule is on the kl value, not the interval width: near b = 1
    the divergence is so steep that a plain width cutoff leaves the returned
    root several digits short.
    """
    if c < 0:
        raise ValueError("kl level must be non-negative")
    if c == 0.0 or a == 1.0:
        return a
    lo, hi = a, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = small_kl(a, mid)
        if abs(val - c) <= 1e-12:
            return mid
        if val < c:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    return lo


def pinsker_gap(a: float, b: float) -> float:
    """kl(a, b) minus its Pinsker lower bound 2 (a - b)^2; non-negative."""
    return small_kl(a, b) - 2.0 * (a - b) ** 2


def _log_eps(inputs: BoundInputs, numerator: float) -> float:
    # log(numerator/eps), plus log|W| when a finite candidate set is declared
    out = math.log(numerator / inputs.epsilon)
    if inputs.grid_cardinality is not None:
        out += math.log(inputs.grid_cardinality)
    return out


def thm41a_slack(inputs: BoundInputs, d_kl: float, m_ell: Optional[float] = None) -> float:
    """High-probability slack for the posterior-averaged empirical functional.

    m_ell defaults to the outcome bound; pass inputs.m_c for the cost-side
    version of the same inequality.
    """
    if d_kl < 0:
        raise ValueError("KL divergence must be non-negative")
    m = inputs.m_y if m_ell is None else m_ell
    quad = inputs.lam**2 * m**2 / (8 * inputs.n * inputs.kappa**2)
    return (d_kl + quad + _log_eps(inputs, 1.0)) / inputs.lam


def thm41b_bound(inputs: BoundInputs, m_ell: Optional[float] = None) -> float:
    """Bound on the squared gap between population and empirical averages."""
    m = inputs.m_y if m_ell is None else m_ell
    n, kap, lam = inputs.n, inputs.kappa, inputs.lam
    mass = inputs.mass
    log_term = math.log(2 * math.sqrt(n)) + _log_eps(inputs, 2.0)
    bracket = (
        lam * math.sqrt(2.0) * mass / (kap * math.sqrt(n)) * math.sqrt(log_term)
        + lam**2 * mass**2 / (2 * n * kap**2)
        + log_term
    )
    return m**2 / (2 * n * kap**2) * bracket


def thm41c_bound(inputs: BoundInputs, m_ell: Optional[float] = None) -> float:
    """One-sided gap bound for the posterior-averaged functional."""
    m = inputs.m_y if m_ell is None else m_ell
    n, kap, lam = inputs.n, inputs.kappa, inputs.lam
    mass = inputs.mass
    log_term = math.log(2 * math.sqrt(n)) + _log_eps(inputs, 2.0)
    return (
        math.sqrt(2.0) * mass / (kap * math.sqrt(n)) * math.sqrt(log_term)
        + lam * mass**2 / (2 * n * kap**2)
        + (lam**2 * m**2 / (8 * n * kap**2) + _log_eps(inputs, 2.0)) / lam
    )


def thm42a_slack(inputs: BoundInputs, u_hat: float) -> float:
    """Additive remainder of the regret oracle inequality at the fitted penalty."""
    if u_hat < 0:
        raise ValueError("u_hat must be non-negative")
    n, kap, lam = inputs.n, inputs.kappa, inputs.lam
    log3 = _log_eps(inputs, 3.0)
    core = (2.0 / lam) * (lam**2 * inputs.m_y**2 / (8 * n * kap**2) + log3)
    penalty = u_hat * math.sqrt(inputs.m_c**2 * log3 / (2 * n * kap**2))
    return core + penalty


def thm42b_terms(inputs: BoundInputs) -> tuple[float, float]:
    """The pair (U1, U2) entering the data-driven budget oracle inequality."""
    n, kap, lam, u = inputs.n, inputs.kappa, inputs.lam, inputs.u
    mass = inputs.mass
    log4 = _log_eps(inputs, 4.0)
    log_term = math.log(2 * math.sqrt(n)) + log4
    u1 = (
        math.sqrt(2.0) * mass / (kap * math.sqrt(n)) * math.sqrt(log_term)
        + lam * mass**2 / (2 * n * kap**2)
    )
    u2 = (
        math.sqrt(mass**2 * log4 / (2 * n * kap**2))
        + (lam**2 * (inputs.m_y**2 + u * inputs.m_c**2) / (8 * n * kap**2)
           + (1 + u) * log4) / lam
    )
    return u1, u2


def thm43_bounds(inputs: BoundInputs) -> tuple[float, float, float, float]:
    """Rate-form remainders at the theory-recommended temperature.

    Requires the feature dimension q and the margin constant nu; the latter
    has no estimator and must come from the user.
    """
    if inputs.q is None:
        raise ValueError("feature dimension q is required")
    if inputs.nu is None:
        raise ValueError("margin constant nu is required")
    n, q, kap, u, nu = inputs.n, inputs.q, inputs.kappa, inputs.u, inputs.nu
    m_y, m_c = inputs.m_y, inputs.m_c
    mass = inputs.mass
    log4 = _log_eps(inputs, 4.0)
    root_qn = math.sqrt(q / n)
    ubar1 = root_qn * (nu * m_y / math.sqrt(q) + (m_y / kap) * (0.25 + 0.25 / n))
    ubar2 = (
        math.sqrt(q) * math.log(2 * math.sqrt(n))
        + math.sqrt(2.0) * u * math.sqrt(math.log(2 * math.sqrt(n)) + log4)
    ) / math.sqrt(n)
    ubar3 = (
        math.sqrt(log4 / 2.0) + (1 + u) * log4 / math.sqrt(q)
    ) / math.sqrt(n)
    ubar4 = (
        (kap * nu + math.sqrt(q) * (1 / (8 * n) + u / 2)) / math.sqrt(n)
        + root_qn * (m_y**2 + u * m_c**2) / (8 * mass**2)
    )
    return ubar1, ubar2, ubar3, ubar4


def normal_kl(mu_rho, sigma_rho: float, mu_pi, sigma_pi: float, q: int) -> float:
    """KL divergence between two isotropic q-dimensional normals."""
    import numpy as np

    if not (sigma_rho > 0 and sigma_pi > 0):
        raise ValueError("standard deviations must be positive")
    mu_rho = np.broadcast_to(np.asarray(mu_rho, dtype=float), (q,))
    mu_pi = np.broadcast_to(np.asarray(mu_pi, dtype=float), (q,))
    shift = float(np.sum((mu_rho - mu_pi) ** 2))
    ratio = sigma_rho**2 / sigma_pi**2
    return 0.5 * shift / sigma_pi**2 + 0.5 * q * (ratio - 1.0) - 0.5 * q * math.log(ratio)


def bound_report(inputs: BoundInputs, d_kl: float = 0.0, u_hat: float = 0.0) -> dict:
    """Evaluate every certificate the inputs allow and collect them by name,
    one entry per implemented formula; ValueError when one is not finite."""
    u1, u2 = thm42b_terms(inputs)
    values = {
        "thm41a_slack": thm41a_slack(inputs, d_kl),
        "thm41b_bound": thm41b_bound(inputs),
        "thm41c_bound": thm41c_bound(inputs),
        "thm42a_slack": thm42a_slack(inputs, u_hat),
        "thm42b_u1": u1,
        "thm42b_u2": u2,
    }
    if inputs.q is not None and inputs.nu is not None:
        ub1, ub2, ub3, ub4 = thm43_bounds(inputs)
        values.update(thm43_ubar1=ub1, thm43_ubar2=ub2,
                      thm43_ubar3=ub3, thm43_ubar4=ub4)
    for key, val in values.items():
        if not math.isfinite(val):
            raise ValueError(f"bound {key} is not finite: {val}")
    return values
