"""Two synthetic treatment environments with known conditional effects.

Both draw three covariates, an additive noise term truncated to [-2, 2], a
binomial treatment cost (control cost is zero), and a fair-coin treatment
assignment, so the propensity is constant at 1/2.  Hidden per-unit truth
(potential outcomes, conditional gain E[Y1-Y0|X], conditional cost E[C1|X])
rides along for oracle evaluation.

Environment 1: X ~ U(0,1)^3,
    Y_d = 3 - 2 X1 + X2 - X3 + d (1 - X1^2 + X2 + X3) + eps,
    C1 ~ Binomial(5, (1 - X3^2 + 2 X2)/5).
Environment 2: X ~ U(-1,1)^3, with sig(z) = 1/(1+e^-z),
    Y_d = 1 + max(X1 + X2, 0) + X3 + 2 d sig(2 (X1 + X2)/3) + eps,
    C1 ~ Binomial(5, 2 sig(2 X2 + X3)/5).

Each unit gets its own counter-based RNG stream keyed by (seed, unit index),
so generation is reproducible regardless of chunking or thread count.  Unit
i's stream is the one Generator(Philox(key=[seed, i])) gives.  generate
builds one Philox and re-keys it in place for each unit, restarting its
counter and buffer, instead of building a bit generator per unit.  The key
goes through np.asarray as that list does, so a seed of 2^63 or more keeps
the float64 rounding of the list form: seeds that differ only in their low
bits there share their streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pbpolicy.data import Sample

__all__ = ["DGPSpec", "SimulatedPopulation", "generate", "true_gain_cost",
           "true_cate", "true_catc"]

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
    """Observed sample plus the hidden truth it was generated from."""

    spec: DGPSpec
    sample: Sample
    y0: np.ndarray
    y1: np.ndarray
    c0: np.ndarray
    c1: np.ndarray
    cate: np.ndarray        # E[Y1 - Y0 | X_i]
    expected_cost: np.ndarray  # E[C1 | X_i]

    def __post_init__(self):
        d = self.sample.d
        if not np.array_equal(self.sample.y, self.y1 * d + self.y0 * (1 - d)):
            raise ValueError("observed outcome must equal Y1 D + Y0 (1-D)")
        if not np.array_equal(self.sample.c, self.c1 * d + self.c0 * (1 - d)):
            raise ValueError("observed cost must equal C1 D + C0 (1-D)")

    @property
    def n(self) -> int:
        return self.sample.n

    @property
    def x(self) -> np.ndarray:
        return self.sample.x


def _half(x):
    return np.full(np.atleast_2d(x).shape[0], 0.5)


def _truncated_normal(rng: np.random.Generator) -> float:
    # rejection from the standard normal; acceptance is about 95.4%
    while True:
        z = rng.normal()
        if -2.0 <= z <= 2.0:
            return z


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _conditional_means(dgp_id: str, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    x1, x2, x3 = x[:, 0], x[:, 1], x[:, 2]
    if dgp_id == "DGP1":
        base = 3.0 - 2.0 * x1 + x2 - x3
        cate = 1.0 - x1**2 + x2 + x3
        ecost = 1.0 - x3**2 + 2.0 * x2
    else:
        base = 1.0 + np.maximum(x1 + x2, 0.0) + x3
        cate = 2.0 * _sigmoid(2.0 * (x1 + x2) / 3.0)
        ecost = 2.0 * _sigmoid(2.0 * x2 + x3)
    return base, cate, ecost


def true_cate(dgp_id: str):
    """Conditional mean treatment effect on the outcome, as a callable on x."""
    if dgp_id not in DGP_IDS:
        raise ValueError(f"unknown DGP id {dgp_id!r}")
    return lambda x: _conditional_means(dgp_id, x)[1]


def true_catc(dgp_id: str):
    """Conditional mean treatment effect on the cost, as a callable on x.

    Untreated cost is identically zero, so this is just the treated arm's
    conditional mean.
    """
    if dgp_id not in DGP_IDS:
        raise ValueError(f"unknown DGP id {dgp_id!r}")
    return lambda x: _conditional_means(dgp_id, x)[2]


def generate(spec: DGPSpec) -> SimulatedPopulation:
    """Draw a population with its hidden truth, one RNG stream per unit."""
    n = spec.n
    x = np.empty((n, 3))
    eps = np.empty(n)
    c1 = np.empty(n)
    d = np.empty(n, dtype=int)
    lo = 0.0 if spec.id == "DGP1" else -1.0
    bitgen = np.random.Philox(key=np.asarray([spec.seed, 0]).astype(np.uint64))
    fresh = bitgen.state
    rng = np.random.Generator(bitgen)
    for i in range(n):
        fresh["state"]["key"][1] = i
        bitgen.state = fresh
        x[i] = rng.uniform(lo, 1.0, size=3)
        eps[i] = _truncated_normal(rng)
        if spec.id == "DGP1":
            p = (1.0 - x[i, 2] ** 2 + 2.0 * x[i, 1]) / 5.0
        else:
            p = 2.0 * _sigmoid(2.0 * x[i, 1] + x[i, 2]) / 5.0
        assert 0.0 <= p <= 1.0
        c1[i] = rng.binomial(5, p)
        d[i] = rng.integers(0, 2)

    base, cate, ecost = _conditional_means(spec.id, x)
    y0 = base + eps
    y1 = base + cate + eps
    c0 = np.zeros(n)
    sample = Sample(
        y=y1 * d + y0 * (1 - d),
        c=c1 * d + c0 * (1 - d),
        d=d,
        x=x,
        propensity=_half,
        kappa=SIM_KAPPA,
    )
    return SimulatedPopulation(spec=spec, sample=sample, y0=y0, y1=y1,
                               c0=c0, c1=c1, cate=cate, expected_cost=ecost)


def true_gain_cost(f, population: SimulatedPopulation) -> tuple[float, float]:
    """Population gain and cost of a rule, via the stored conditional means.

    f may be a callable mapping the covariate matrix to per-unit treatment
    decisions (or probabilities), or a precomputed vector of the same.
    Probabilities are handled by linearity.
    """
    dec = f(population.x) if callable(f) else f
    dec = np.asarray(dec, dtype=float)
    if dec.shape != (population.n,):
        raise ValueError("decisions not aligned with the population")
    if np.any((dec < 0) | (dec > 1)):
        raise ValueError("decisions must lie in [0, 1]")
    gain = float(np.mean(population.cate * dec))
    cost = float(np.mean(population.expected_cost * dec))
    return gain, cost
