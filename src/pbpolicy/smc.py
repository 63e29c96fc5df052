"""Tempering sequential Monte Carlo over linear threshold rules.

The sampler walks an increasing sequence of (lambda_t, u_t) pairs from the
prior at (0, 0).  At each stage it (1) resamples systematically when the
effective sample size falls below tau_ess * N, (2) moves every particle with
a Gaussian random-walk Metropolis kernel whose covariance is the empirical
covariance of the current cloud times a scale, targeting the exponentially
weighted posterior at (lambda_t, u_t), and (3) multiplies the importance
weights by

    omega_t = exp[lambda_t (W - u_t K) - lambda_{t-1} (W - u_{t-1} K)]

evaluated at the pre-move particle positions, then renormalizes.  Weights are
kept in log space throughout; the raw exponentials underflow long before
lambda reaches its final value.  The proposal covariance is factored once
per stage, and every sweep of the stage proposes with that Cholesky root; a
covariance that is not finite or not positive definite raises RuntimeError
naming the stage, lambda and u.

Two schedules drive the stages:

- TemperatureLadder is fixed in advance: build_default_ladder's 800-step
  piecewise-linear ladder, or any other increasing tuple of pairs.  The
  proposal scale is t^-covariance_scale_exponent and one run harvests the
  ladder's checkpoint steps.
- AdaptiveLadder picks each lambda_t from the particles: the largest step,
  up to the next rung, whose incremental weights keep the conditional ESS
  (Zhou, Johansen & Aston 2016) at CESS_FRACTION * N, found by bisection.
  The next rung is taken whenever its own CESS meets the target, so every
  rung is reached exactly and harvested.  u follows lambda along the fixed
  ladder's ramp, u_t = u_final * min(lambda_t / 4, 1); when the first rung
  lies below 4 the ramp ends there instead, so every harvest is at u_final.
  Each stage runs config.mh_steps_per_stage sweeps with proposal scale
  RW_SCALE / q (Chopin & Papaspiliopoulos 2020, ch. 17).  A stage that
  cannot raise lambda by 2^-20 of the way to the next rung raises
  RuntimeError naming the stage, lambda and u.

Determinism: stage t consumes a dedicated counter-based RNG stream, the one
np.random.Philox(key=np.array([seed, t], dtype=np.uint64)) gives, drawing in
a fixed order (resampling uniform if triggered, then per Metropolis step a
proposal block and an acceptance block).  Choosing an adaptive lambda_t
draws nothing.  So a fixed ladder cut short reproduces the prefix of a
longer run bit for bit, and an adaptive run over the first k rungs
reproduces the first k harvests of a run over more rungs; that is what makes
mid-ladder checkpoints trustworthy.  Every 64-bit seed is its own first key
word.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from pbpolicy.data import IPWScores
from pbpolicy.gibbs import IsotropicNormalPrior, _logsumexp, welfare_cost_matrix

__all__ = [
    "TemperatureLadder",
    "AdaptiveLadder",
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
U_RAMP_LAMBDA = LADDER_KNOT_LAMBDAS[1]  # lambda at step U_RAMP_END

# Adaptive stages keep the conditional ESS at CESS_FRACTION * N and propose
# with RW_SCALE / q times the cloud covariance.  RW_SCALE is a tenth of the
# 2.38^2 that suits smooth targets: the welfare is a step function of theta,
# and at 2.38^2 the high rungs accepted 2-5% of moves.  At CESS 0.8 and the
# full 2.38^2, rung means of welfare sat up to 8.5 cross-seed standard errors
# below the fixed ladder's; at these values 1 of 96 such gaps exceeded 3.
CESS_FRACTION = 0.9
RW_SCALE = 0.1 * 2.38**2
_BISECTION_STEPS = 20  # lambda_t is found to 2^-20 of the way to the rung


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

    # the schedule run_smc drives: next pair, harvest, end, proposal scale
    def _next(self, t, lam_prev, u_prev, log_psi, wbar, kbar):
        return self.steps[t]

    def _harvests(self, t: int, lam: float) -> bool:
        return t in self.checkpoints

    def _finished(self, t: int, lam: float) -> bool:
        return t == self.T

    def _proposal_scale(self, t: int, q: int, config: "SMCConfig") -> float:
        return t**(-config.covariance_scale_exponent)


def _cess_fraction(log_psi: np.ndarray, log_inc: np.ndarray) -> float:
    """Conditional ESS over N of incremental weights exp(log_inc) applied to
    normalized log weights log_psi: (sum W g)^2 / sum W g^2, from two plain
    max-shifted log sums.  The bisection calls it about 20 times a stage and
    needs no bit-exact match with scipy, so it skips gibbs._logsumexp."""
    a = log_psi + log_inc
    b = a + log_inc
    a_max, b_max = a.max(), b.max()
    log_num = 2.0 * (a_max + np.log(np.exp(a - a_max).sum()))
    log_den = b_max + np.log(np.exp(b - b_max).sum())
    return float(np.exp(log_num - log_den))


@dataclass(frozen=True)
class AdaptiveLadder:
    """A schedule chosen stage by stage from the particles (see the module
    docstring), ending at the last rung and harvesting every rung.

    The harvest of a rung is keyed by its stage index like a fixed ladder's
    checkpoint; its lam equals the rung value exactly.
    """

    u_final: float
    rungs: tuple

    def __post_init__(self):
        u_final = float(self.u_final)
        if not (np.isfinite(u_final) and u_final >= 0.0):
            raise ValueError("u_final must be non-negative")
        rungs = tuple(sorted({float(r) for r in self.rungs}))
        if not rungs:
            raise ValueError("adaptive ladder has no rungs")
        if not all(0.0 < r <= LAMBDA_CAP for r in rungs):
            raise ValueError(f"rungs must lie in (0, {LAMBDA_CAP:g}]")
        object.__setattr__(self, "u_final", u_final)
        object.__setattr__(self, "rungs", rungs)

    def u_at(self, lam: float) -> float:
        """The penalty on the ramp at inverse temperature lam."""
        return self.u_final * min(lam / min(U_RAMP_LAMBDA, self.rungs[0]), 1.0)

    def _next(self, t, lam_prev, u_prev, log_psi, wbar, kbar):
        old = lam_prev * (wbar - u_prev * kbar)

        def meets_target(lam: float) -> bool:
            log_inc = lam * (wbar - self.u_at(lam) * kbar) - old
            return _cess_fraction(log_psi, log_inc) >= CESS_FRACTION

        lo = lam_prev
        hi = next(r for r in self.rungs if r > lam_prev)
        if meets_target(hi):
            return hi, self.u_at(hi)
        for _ in range(_BISECTION_STEPS):
            mid = 0.5 * (lo + hi)
            if meets_target(mid):
                lo = mid
            else:
                hi = mid
        if lo == lam_prev:
            raise RuntimeError(
                f"tempering stalled at step {t} (lambda={lam_prev:g}, "
                f"u={u_prev:g}): no step keeps the conditional ESS at "
                f"{CESS_FRACTION:g} N")
        return lo, self.u_at(lo)

    def _harvests(self, t: int, lam: float) -> bool:
        return lam in self.rungs

    def _finished(self, t: int, lam: float) -> bool:
        return lam == self.rungs[-1]

    def _proposal_scale(self, t: int, q: int, config: "SMCConfig") -> float:
        return RW_SCALE / q


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
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a non-negative integer below 2^64")


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


def _proposal_root(cov: np.ndarray, t: int, lam: float, u: float
                   ) -> np.ndarray:
    """The Cholesky root of stage t's proposal covariance, or RuntimeError
    naming the stage when the covariance is not finite or not positive
    definite."""
    where = f"at step {t} (lambda={lam:g}, u={u:g})"
    if not np.isfinite(cov).all():
        raise RuntimeError(f"proposal covariance is not finite {where}")
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise RuntimeError(
            f"proposal covariance is not positive definite {where}") from None


def mh_move(thetas: np.ndarray, state: tuple, evaluate, log_ratio,
            proposal_root, rng: np.random.Generator
            ) -> tuple[np.ndarray, tuple, np.ndarray]:
    """One random-walk Metropolis sweep of every particle.

    The proposal adds proposal_root @ z to each particle, z standard normal,
    so its covariance is root @ root.T.  state is a tuple of per-particle
    (N,) arrays cached at thetas; evaluate(proposed) returns the same tuple
    at an (N, q) matrix of proposals, and log_ratio(new, old) maps the two
    tuples to the N log acceptance ratios.  Returns the moved thetas, their
    state and the boolean acceptance of each particle.  Weights are not
    involved; the kernel leaves the target invariant.
    """
    root = np.atleast_2d(np.asarray(proposal_root, dtype=float))
    if not np.isfinite(root).all():
        raise ValueError("proposal root is not finite")
    n = thetas.shape[0]
    noise = rng.standard_normal(size=thetas.shape)
    proposed = thetas + noise @ root.T
    new = evaluate(proposed)
    accept = np.log(rng.uniform(size=n)) < log_ratio(new, state)
    thetas = np.where(accept[:, None], proposed, thetas)
    state = tuple(np.where(accept, a, b) for a, b in zip(new, state))
    return thetas, state, accept


class _StageStreams:
    """The stage-t stream of Generator(Philox(key=np.array([seed, t],
    dtype=np.uint64))), without building a new bit generator per stage: one
    Philox is re-keyed in place, and every stage restarts the counter and
    the buffer.  The uint64 array keeps every 64-bit seed exact; a plain list
    would pass through float64 for seeds of 2^63 and above.
    """

    def __init__(self, seed: int):
        self._bitgen = np.random.Philox(
            key=np.array([seed, 0], dtype=np.uint64))
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
            ladder: TemperatureLadder | AdaptiveLadder, config: SMCConfig,
            prior_sampler=None, trace=None) -> dict[int, WeightedParticles]:
    """Run the ladder and harvest its checkpoints (a TemperatureLadder) or
    its rungs (an AdaptiveLadder), keyed by stage index.

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
    t, lam_prev, u_prev = 0, 0.0, 0.0
    if ladder._harvests(t, lam_prev):
        out[0] = harvest(0, lam_prev, u_prev)

    while not ladder._finished(t, lam_prev):
        t += 1
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
        lam_t, u_t = ladder._next(t, lam_prev, u_prev, log_psi, wbar, kbar)
        log_inc = (lam_t * (wbar - u_t * kbar)
                   - lam_prev * (wbar - u_prev * kbar))

        # Step 3: Metropolis sweeps targeting the stage-t posterior
        def log_ratio(new: tuple, old: tuple) -> np.ndarray:
            (w_new, k_new, lp_new), (w_old, k_old, lp_old) = new, old
            return (lam_t * ((w_new - w_old) - u_t * (k_new - k_old))
                    + lp_new - lp_old)

        cov = _cov(thetas)
        cov *= ladder._proposal_scale(t, q, config)
        cov.flat[::q + 1] += 1e-8
        root = _proposal_root(cov, t, lam_t, u_t)
        accepted = 0
        for _ in range(config.mh_steps_per_stage):
            thetas, state, accept = mh_move(thetas, state, evaluate,
                                            log_ratio, root, rng)
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

        if ladder._harvests(t, lam_t):
            out[t] = harvest(t, lam_t, u_t)
        lam_prev, u_prev = lam_t, u_t

    return out
