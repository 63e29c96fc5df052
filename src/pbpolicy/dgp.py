"""Two synthetic treatment environments with known conditional effects.

Both draw three covariates, an additive noise term truncated to [-2, 2], a
binomial treatment cost (control cost is zero), and a fair-coin treatment
assignment, so the propensity is constant at 1/2.  The hidden conditional
gain E[Y1-Y0|X] and conditional cost E[C1|X] of each unit ride along as
arrays on the generated population; the oracle scores rules against them.

Environment 1: X ~ U(0,1)^3,
    Y_d = 3 - 2 X1 + X2 - X3 + d (1 - X1^2 + X2 + X3) + eps,
    C1 ~ Binomial(5, (1 - X3^2 + 2 X2)/5).
Environment 2: X ~ U(-1,1)^3, with sig(z) = 1/(1+e^-z),
    Y_d = 1 + max(X1 + X2, 0) + X3 + 2 d sig(2 (X1 + X2)/3) + eps,
    C1 ~ Binomial(5, 2 sig(2 X2 + X3)/5).

Each unit gets its own counter-based RNG stream keyed by (seed, unit index),
so generation is reproducible regardless of chunking or thread count.  Unit
i's stream is the one Generator(Philox(key=[seed, i])) gives, drawn from
smc._StageStreams, which re-keys one Philox in place for each unit.  The
seed must lie in [0, 2^64).  The first key word is the list form's: it goes
through np.asarray, so a seed of 2^63 or more keeps its float64 rounding,
and seeds that differ only in their low bits there share their streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pbpolicy.data import Sample
from pbpolicy.smc import _StageStreams, _check_seed

__all__ = ["DGPSpec", "SimulatedPopulation", "generate"]

DGP_IDS = ("DGP1", "DGP2")

# kappa for the simulated samples: e(x) = 1/2 sits inside [kappa, 1-kappa]
# and the sample validator wants kappa strictly below 1/2
SIM_KAPPA = 0.49


@dataclass(frozen=True)
class DGPSpec:
    """Which environment, which seed, how many units."""

    id: str
    seed: int
    n: int

    def __post_init__(self):
        if self.id not in DGP_IDS:
            raise ValueError(f"unknown environment id {self.id!r}, expected one of {DGP_IDS}")
        if self.n < 1:
            raise ValueError("n must be >= 1")


@dataclass
class SimulatedPopulation:
    """Observed sample plus the hidden conditional effects of its units."""

    sample: Sample
    cate: np.ndarray        # E[Y1 - Y0 | X_i]
    expected_cost: np.ndarray  # E[C1 | X_i]

    @property
    def n(self) -> int:
        return self.sample.n

    @property
    def x(self) -> np.ndarray:
        return self.sample.x


def _truncated_normal(rng: np.random.Generator) -> float:
    # rejection from the standard normal; acceptance is about 95.4%
    while True:
        z = rng.normal()
        if -2.0 <= z <= 2.0:
            return z


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _expected_cost(dgp_id: str, x2, x3):
    """E[C1 | X], five times the binomial cost's success probability."""
    if dgp_id == "DGP1":
        return 1.0 - x3**2 + 2.0 * x2
    return 2.0 * _sigmoid(2.0 * x2 + x3)


def _conditional_means(dgp_id: str, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    x1, x2, x3 = x[:, 0], x[:, 1], x[:, 2]
    if dgp_id == "DGP1":
        base = 3.0 - 2.0 * x1 + x2 - x3
        cate = 1.0 - x1**2 + x2 + x3
    else:
        base = 1.0 + np.maximum(x1 + x2, 0.0) + x3
        cate = 2.0 * _sigmoid(2.0 * (x1 + x2) / 3.0)
    return base, cate, _expected_cost(dgp_id, x2, x3)


def generate(spec: DGPSpec) -> SimulatedPopulation:
    """Draw a population with its hidden effects, one RNG stream per unit."""
    n = spec.n
    x = np.empty((n, 3))
    eps = np.empty(n)
    c1 = np.empty(n)
    d = np.empty(n, dtype=int)
    lo = 0.0 if spec.id == "DGP1" else -1.0
    _check_seed(spec.seed)
    # the list form's first key word (see the module docstring)
    first_word = int(np.asarray([spec.seed, 0]).astype(np.uint64)[0])
    streams = _StageStreams(first_word)
    for i in range(n):
        rng = streams.at(i)
        x[i] = rng.uniform(lo, 1.0, size=3)
        eps[i] = _truncated_normal(rng)
        c1[i] = rng.binomial(5, _expected_cost(spec.id, x[i, 1], x[i, 2]) / 5.0)
        d[i] = rng.integers(0, 2)

    base, cate, ecost = _conditional_means(spec.id, x)
    y0 = base + eps
    y1 = base + cate + eps
    sample = Sample(
        y=y1 * d + y0 * (1 - d),
        c=c1 * d,  # the control cost is zero
        d=d,
        x=x,
        e=np.full(n, 0.5),
        kappa=SIM_KAPPA,
    )
    return SimulatedPopulation(sample=sample, cate=cate, expected_cost=ecost)
