"""Tempering sequential Monte Carlo over linear threshold rules.

The sampler walks an increasing ladder of (lambda_t, u_t) pairs. At each stage
it (1) resamples systematically when the effective sample size falls below
tau_ess * N, (2) moves every particle with a Gaussian random-walk Metropolis
kernel whose covariance is the empirical covariance of the current cloud
scaled by t^-0.9, targeting the exponentially weighted posterior at
(lambda_t, u_t), and (3) multiplies the importance weights by

    omega_t = exp[lambda_t (W - u_t K) - lambda_{t-1} (W - u_{t-1} K)]

evaluated at the pre-move particle positions, then renormalizes.  Weights are
kept in log space throughout; the raw exponentials underflow long before
lambda reaches its final value.

Determinism: stage t consumes a dedicated counter-based RNG stream, the one
np.random.Philox(key=[seed, t]) gives, drawing in a fixed order (resampling
uniform if triggered, then per Metropolis step a proposal block and an
acceptance block).  Truncating the ladder therefore reproduces the prefix of a
longer run bit for bit, which is what makes mid-ladder checkpoints
trustworthy.  The first key word is the seed itself only below 2^63: numpy
turns the list [seed, t] into float64 when the seed does not fit an int64, so
a larger seed (about half of the harness's 64-bit subseeds) is rounded to 53
significant bits, and seeds that round alike share their stage streams.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from pbpolicy.data import IPWScores
from pbpolicy.gibbs import IsotropicNormalPrior, _logsumexp, welfare_cost_matrix

__all__ = [
    "TemperatureLadder",
    "WeightedParticles",
    "SMCConfig",
    "build_default_ladder",
    "ess",
    "resample_systematic",
    "mh_move",
    "run_smc",
]

LADDER_KNOT_STEPS = (0, 200, 320, 470, 800)
LADDER_KNOT_LAMBDAS = (0.0, 4.0, 32.0, 256.0, 1024.0)
U_RAMP_END = 200
LAMBDA_CAP = 1024.0


@dataclass(frozen=True)
class TemperatureLadder:
    """Schedule of (lambda_t, u_t) pairs with harvest points."""

    steps: tuple  # ((lam_0, u_0), ..., (lam_T, u_T))
    checkpoints: tuple = ()

    def __post_init__(self):
        steps = tuple((float(l), float(u)) for l, u in self.steps)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "checkpoints",
                           tuple(sorted(int(c) for c in set(self.checkpoints))))
        if not steps:
            raise ValueError("ladder has no steps")
        if steps[0] != (0.0, 0.0):
            raise ValueError("ladder must start at (lambda, u) = (0, 0)")
        for t, ((la, ua), (lb, ub)) in enumerate(zip(steps, steps[1:]), start=1):
            if lb < la or ub < ua:
                raise ValueError(f"ladder decreases at step {t}")
            if lb == la and ub == ua:
                raise ValueError(f"ladder stalls at step {t}")
        for c in self.checkpoints:
            if not 0 <= c <= self.T:
                raise ValueError(f"checkpoint {c} outside 0..{self.T}")

    @property
    def T(self) -> int:
        return len(self.steps) - 1

    def with_checkpoints(self, indices: Sequence[int]) -> "TemperatureLadder":
        return replace(self, checkpoints=tuple(indices))

    def truncated(self, last_step: int) -> "TemperatureLadder":
        """The prefix ladder ending at a given step."""
        if not 1 <= last_step <= self.T:
            raise ValueError(f"cannot truncate to step {last_step}")
        return TemperatureLadder(self.steps[:last_step + 1],
                                 tuple(c for c in self.checkpoints if c <= last_step))


@dataclass
class WeightedParticles:
    """A weighted particle cloud harvested at one ladder step."""

    thetas: np.ndarray  # (N, q)
    weights: np.ndarray  # (N,), sum to 1
    step_index: int
    lam: float
    u: float
    seed: int

    def __post_init__(self):
        self.thetas = np.atleast_2d(np.asarray(self.thetas, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float)
        if self.n_particles < 2:
            raise ValueError("need at least 2 particles")
        if self.weights.shape != (self.n_particles,):
            raise ValueError("weights not aligned with particles")
        if np.any(self.weights < 0):
            raise ValueError("weights must be non-negative")
        if abs(self.weights.sum() - 1.0) > 1e-10:
            raise ValueError("weights must sum to 1")

    @property
    def n_particles(self) -> int:
        return self.thetas.shape[0]

    @property
    def q(self) -> int:
        return self.thetas.shape[1]

    def expectation(self, values: np.ndarray) -> float:
        values = np.asarray(values, dtype=float)
        if values.shape[0] != self.n_particles:
            raise ValueError("values not aligned with particles")
        return float(self.weights @ values)


@dataclass(frozen=True)
class SMCConfig:
    """Sampler tuning knobs."""

    n_particles: int = 1000
    tau_ess: float = 0.5
    mh_steps_per_stage: int = 1
    covariance_scale_exponent: float = 0.9
    seed: int = 0
    normalized: bool = True

    def __post_init__(self):
        if self.n_particles < 2:
            raise ValueError("n_particles must be >= 2")
        if not (0.0 < self.tau_ess < 1.0):
            raise ValueError("tau_ess must lie in (0, 1)")
        if self.mh_steps_per_stage < 1:
            raise ValueError("mh_steps_per_stage must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


def _lambda_at(t: float) -> float:
    for a, b, la, lb in zip(LADDER_KNOT_STEPS, LADDER_KNOT_STEPS[1:],
                            LADDER_KNOT_LAMBDAS, LADDER_KNOT_LAMBDAS[1:]):
        if t <= b:
            return la + (lb - la) * (t - a) / (b - a)
    raise ValueError(f"step {t} beyond the ladder")


def build_default_ladder(u_final: float, lambda_final: float) -> TemperatureLadder:
    """The piecewise-linear schedule, truncated at the requested temperature.

    lambda ramps through the fixed knots, u ramps linearly to u_final over the
    first 200 steps and then stays flat.  The ladder stops at the first step
    whose lambda reaches lambda_final and that last pair is clamped to exactly
    (lambda_final, u_final).  Harvest defaults to the last step only.
    """
    if u_final < 0:
        raise ValueError("u_final must be non-negative")
    if not (0.0 < lambda_final <= LAMBDA_CAP):
        raise ValueError(f"lambda_final must lie in (0, {LAMBDA_CAP:g}]")
    steps = []
    for t in range(LADDER_KNOT_STEPS[-1] + 1):
        lam = _lambda_at(t)
        u = u_final * min(t / U_RAMP_END, 1.0)
        if lam >= lambda_final - 1e-12:
            steps.append((lambda_final, u_final))
            break
        steps.append((lam, u))
    ladder = TemperatureLadder(tuple(steps))
    return ladder.with_checkpoints([ladder.T])


def ess(weights: np.ndarray) -> float:
    """Effective sample size 1 / sum of squared normalized weights."""
    weights = np.asarray(weights, dtype=float)
    if abs(weights.sum() - 1.0) > 1e-8:
        raise ValueError("weights must be normalized")
    return float(1.0 / (weights * weights).sum())


def resample_systematic(weights: np.ndarray,
                        rng: np.random.Generator) -> np.ndarray:
    """Indices of a systematic resample: particle j is drawn floor(N w_j) or
    ceil(N w_j) times, from one uniform draw."""
    weights = np.asarray(weights, dtype=float)
    n = weights.shape[0]
    u0 = rng.uniform(0.0, 1.0 / n)
    cum = np.cumsum(weights)
    cum[-1] = 1.0  # guard against cumulative rounding
    points = u0 + np.arange(n) / n
    return np.searchsorted(cum, points, side="right")


def _proposal_root(cov: np.ndarray) -> np.ndarray:
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    if not np.isfinite(cov).all():
        raise ValueError("proposal covariance is not finite")
    if not cov.any():
        return np.zeros_like(cov)
    return np.linalg.cholesky(cov)


def mh_move(thetas: np.ndarray, state: tuple, evaluate, log_ratio,
            proposal_covariance, rng: np.random.Generator
            ) -> tuple[np.ndarray, tuple, np.ndarray]:
    """One random-walk Metropolis sweep of every particle.

    state is a tuple of per-particle (N,) arrays cached at thetas;
    evaluate(proposed) returns the same tuple at an (N, q) matrix of
    proposals, and log_ratio(new, old) maps the two tuples to the N log
    acceptance ratios.  Returns the moved thetas, their state and the
    boolean acceptance of each particle.  Weights are not involved; the
    kernel leaves the target invariant.
    """
    root = _proposal_root(proposal_covariance)
    n = thetas.shape[0]
    noise = rng.standard_normal(size=thetas.shape)
    proposed = thetas + noise @ root.T
    new = evaluate(proposed)
    accept = np.log(rng.uniform(size=n)) < log_ratio(new, state)
    thetas = np.where(accept[:, None], proposed, thetas)
    state = tuple(np.where(accept, a, b) for a, b in zip(new, state))
    return thetas, state, accept


class _StageStreams:
    """The stage-t stream of Generator(Philox(key=[seed, t])), without
    building a new bit generator per stage: one Philox is re-keyed in place.
    Its first key word is the one Philox(key=[seed, 0]) stores (see the
    module docstring), and every stage restarts the counter and the buffer.
    """

    def __init__(self, seed: int):
        self._bitgen = np.random.Philox(key=[seed, 0])
        self._state = self._bitgen.state
        self._rng = np.random.Generator(self._bitgen)

    def at(self, step: int) -> np.random.Generator:
        self._state["state"]["key"][1] = step
        self._bitgen.state = self._state
        return self._rng


def _cov(thetas: np.ndarray) -> np.ndarray:
    """np.cov(thetas, rowvar=False, ddof=1) as a (q, q) array, through the
    same steps without np.cov's argument handling."""
    x = np.array(thetas, dtype=float).T
    x -= x.mean(axis=1)[:, None]
    c = np.dot(x, x.T)
    c *= np.true_divide(1, x.shape[1] - 1)
    return c


def run_smc(sample_scores: IPWScores, features, prior: IsotropicNormalPrior,
            ladder: TemperatureLadder, config: SMCConfig,
            prior_sampler=None, trace=None) -> dict[int, WeightedParticles]:
    """Run the ladder and harvest the requested checkpoints.

    prior_sampler optionally replaces the prior draw at step 0 (the Metropolis
    target still uses prior.log_density); used when the prior is a surrogate
    for a finite grid.

    trace, when given a list, receives one record per stage with the
    effective sample size before resampling, whether resampling fired, and
    the Metropolis acceptance rate.  Recording draws nothing from the RNG,
    so traced and untraced runs harvest identical particles.
    """
    features = np.asarray(features, dtype=float)
    n_p = config.n_particles
    if config.normalized and sample_scores.mean_delta_y == 0.0:
        raise ValueError("normalized variant undefined: mean welfare score is zero")
    scale = 1.0 / sample_scores.mean_delta_y if config.normalized else 1.0

    streams = _StageStreams(config.seed)
    rng0 = streams.at(0)
    sampler = prior_sampler if prior_sampler is not None else prior.sample
    thetas = np.asarray(sampler(n_p, rng0), dtype=float)
    q = prior.q
    if thetas.shape != (n_p, q):
        raise ValueError("prior sampler returned the wrong shape")

    def evaluate(th: np.ndarray) -> tuple:
        # the cached per-particle state: scaled welfare, cost and log prior
        w, k = welfare_cost_matrix(th, sample_scores, features)
        return scale * w, scale * k, prior.log_density(th)

    state = evaluate(thetas)
    log_psi = np.full(n_p, -np.log(n_p))

    def harvest(step: int, lam: float, u: float) -> WeightedParticles:
        return WeightedParticles(thetas=thetas.copy(), weights=np.exp(log_psi),
                                 step_index=step, lam=lam, u=u, seed=config.seed)

    out: dict[int, WeightedParticles] = {}
    if 0 in ladder.checkpoints:
        out[0] = harvest(0, *ladder.steps[0])

    lam_prev, u_prev = ladder.steps[0]
    for t in range(1, ladder.T + 1):
        lam_t, u_t = ladder.steps[t]
        rng = streams.at(t)

        # Step 2: resample when the weights have degenerated
        psi = np.exp(log_psi)
        stage_ess = ess(psi)
        resampled = stage_ess < config.tau_ess * n_p
        if resampled:
            idx = resample_systematic(psi, rng)
            thetas = thetas[idx]
            state = tuple(a[idx] for a in state)
            log_psi = np.full(n_p, -np.log(n_p))

        # incremental weight from the pre-move scores
        wbar, kbar, _ = state
        log_inc = (lam_t * (wbar - u_t * kbar)
                   - lam_prev * (wbar - u_prev * kbar))

        # Step 3: Metropolis sweeps targeting the stage-t posterior
        def log_ratio(new: tuple, old: tuple) -> np.ndarray:
            (w_new, k_new, lp_new), (w_old, k_old, lp_old) = new, old
            return (lam_t * ((w_new - w_old) - u_t * (k_new - k_old))
                    + lp_new - lp_old)

        cov = _cov(thetas)
        cov *= t**(-config.covariance_scale_exponent)
        cov.flat[::q + 1] += 1e-8
        accepted = 0
        for _ in range(config.mh_steps_per_stage):
            thetas, state, accept = mh_move(thetas, state, evaluate,
                                            log_ratio, cov, rng)
            accepted += int(np.count_nonzero(accept))

        if trace is not None:
            trace.append({
                "step": t,
                "lam": float(lam_t),
                "u": float(u_t),
                "ess": float(stage_ess),
                "resampled": bool(resampled),
                "acceptance": accepted / (n_p * config.mh_steps_per_stage),
            })

        log_psi = log_psi + log_inc
        norm = _logsumexp(log_psi)
        if not np.isfinite(norm):
            raise RuntimeError(
                f"all particle weights vanished at step {t} "
                f"(lambda={lam_t:g}, u={u_t:g})")
        log_psi = log_psi - norm

        if t in ladder.checkpoints:
            out[t] = harvest(t, lam_t, u_t)
        lam_prev, u_prev = lam_t, u_t

    return out
