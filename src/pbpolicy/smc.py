"""Tempering sequential Monte Carlo over linear threshold rules.

The sampler walks an increasing sequence of (lambda_t, u_t) pairs from the
prior at (0, 0).  At each stage it (1) resamples systematically when the
effective sample size falls below TAU_ESS * N, (2) moves every particle with
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

Two schedules drive the stages.  Each is built from a final penalty u_final
and a tuple of rungs, the lambdas at which the run harvests its cloud; the
run ends at the last rung.

- TemperatureLadder is fixed in advance: the 800-step piecewise-linear
  ladder, truncated at the last rung, whose other rungs must be lambdas of
  its steps.  u ramps with the step count, u_t = u_final * min(t / 200, 1),
  and the proposal scale is t^-COVARIANCE_SCALE_EXPONENT.
  build_default_ladder(u, lam) is the one-rung ladder.
- AdaptiveLadder picks each lambda_t from the particles: the largest step,
  up to the next rung, whose incremental weights keep the conditional ESS
  (Zhou, Johansen & Aston 2016) at CESS_FRACTION * N, found by bisection.
  The next rung is taken whenever its own CESS meets the target, so every
  rung is reached exactly.  u follows lambda along the fixed ladder's ramp,
  u_t = u_final * min(lambda_t / 4, 1); when the first rung lies below 4
  the ramp ends there instead, so every harvest is at u_final.  Each stage
  runs config.mh_steps_per_stage sweeps with proposal scale RW_SCALE / q
  (Chopin & Papaspiliopoulos 2020, ch. 17).  A stage that cannot raise
  lambda by 2^-20 of the way to the next rung raises RuntimeError naming
  the stage, lambda and u.

temper is the adaptive run at MH_STEPS_PER_STAGE sweeps per stage that
`fit` (but for the budget solve's confirming runs), the study and the
examples make, its clouds keyed by lambda.

Determinism: stage t consumes a dedicated counter-based RNG stream, the one
np.random.Philox(key=np.array([seed, t], dtype=np.uint64)) gives, drawing in
a fixed order (resampling uniform if triggered, then per Metropolis step a
proposal block and an acceptance block).  Choosing an adaptive lambda_t
draws nothing.  So a run of either ladder over the first k rungs reproduces
the first k harvests of a run over more rungs bit for bit (a fixed ladder
truncated at a lower rung is a prefix of the longer one); that is what makes
the harvests at lower rungs trustworthy.  Every 64-bit seed is its own first
key word.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from pbpolicy.data import IPWScores
from pbpolicy.gibbs import (IsotropicNormalPrior, _logsumexp, _scaled,
                            welfare_cost_matrix)

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
    "temper",
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
MH_STEPS_PER_STAGE = 5
# Both ladders resample below TAU_ESS * N, and cli's budget solve accepts a
# tilted cloud whose ESS reaches it.  The fixed ladder proposes with
# t^-COVARIANCE_SCALE_EXPONENT times the cloud covariance at stage t.
TAU_ESS = 0.5
COVARIANCE_SCALE_EXPONENT = 0.9
_BISECTION_STEPS = 20  # lambda_t is found to 2^-20 of the way to the rung


def _lambda_at(t: float) -> float:
    for a, b, la, lb in zip(LADDER_KNOT_STEPS, LADDER_KNOT_STEPS[1:],
                            LADDER_KNOT_LAMBDAS, LADDER_KNOT_LAMBDAS[1:]):
        if t <= b:
            return la + (lb - la) * (t - a) / (b - a)
    raise ValueError(f"step {t} beyond the ladder")


@dataclass(frozen=True)
class _Ladder:
    """A schedule that ends at the last of its rungs and harvests every rung,
    tempering towards the penalty u_final."""

    u_final: float
    rungs: tuple

    def __post_init__(self):
        u_final = float(self.u_final)
        if not (np.isfinite(u_final) and u_final >= 0.0):
            raise ValueError("u_final must be non-negative")
        rungs = tuple(sorted({float(r) for r in self.rungs}))
        if not rungs:
            raise ValueError("ladder has no rungs")
        if not all(0.0 < r <= LAMBDA_CAP for r in rungs):
            raise ValueError(f"rungs must lie in (0, {LAMBDA_CAP:g}]")
        object.__setattr__(self, "u_final", u_final)
        object.__setattr__(self, "rungs", rungs)


@dataclass(frozen=True)
class TemperatureLadder(_Ladder):
    """The piecewise-linear schedule through the LADDER_KNOT_* knots, with u
    ramping to u_final over the first U_RAMP_END steps.  It stops at the
    first step whose lambda reaches the last rung, clamped to exactly
    (rungs[-1], u_final); every other rung must be the lambda of a step."""

    steps: tuple = field(init=False, repr=False)  # ((0, 0), ..., (lam_T, u_T))

    def __post_init__(self):
        super().__post_init__()
        lambda_final = self.rungs[-1]
        steps = [(0.0, 0.0)]
        for t in range(1, LADDER_KNOT_STEPS[-1] + 1):
            lam = _lambda_at(t)
            if lam >= lambda_final - 1e-12:
                steps.append((lambda_final, self.u_final))
                break
            steps.append((lam, self.u_final * min(t / U_RAMP_END, 1.0)))
        stray = set(self.rungs).difference(lam for lam, _ in steps)
        if stray:
            raise ValueError(f"rung {min(stray):g} is not a step of the ladder")
        object.__setattr__(self, "steps", tuple(steps))

    @property
    def T(self) -> int:
        return len(self.steps) - 1

    # the schedule run_smc drives: rungs, next pair, proposal scale
    def _next(self, t, lam_prev, u_prev, log_psi, wbar, kbar):
        return self.steps[t]

    def _proposal_scale(self, t: int, q: int) -> float:
        return t**(-COVARIANCE_SCALE_EXPONENT)


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
class AdaptiveLadder(_Ladder):
    """A schedule chosen stage by stage from the particles (see the module
    docstring).  Every rung is reached exactly: a harvest's lam equals its
    rung, and the harvest is keyed by its stage index.
    """

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

    def _proposal_scale(self, t: int, q: int) -> float:
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
        if not np.isfinite(self.thetas).all():
            raise ValueError("thetas must be finite")
        if not np.all(self.weights >= 0):
            raise ValueError("weights must be non-negative")
        if abs(self.weights.sum() - 1.0) > 1e-10:
            raise ValueError("weights must sum to 1")

    @property
    def n_particles(self) -> int:
        return self.thetas.shape[0]

    @property
    def q(self) -> int:
        return self.thetas.shape[1]


@dataclass(frozen=True)
class SMCConfig:
    """Sampler tuning knobs."""

    n_particles: int = 1000
    mh_steps_per_stage: int = 1
    seed: int = 0
    normalized: bool = True

    def __post_init__(self):
        if self.n_particles < 2:
            raise ValueError("n_particles must be >= 2")
        if self.mh_steps_per_stage < 1:
            raise ValueError("mh_steps_per_stage must be >= 1")
        _check_seed(self.seed)


def build_default_ladder(u_final: float, lambda_final: float) -> TemperatureLadder:
    """The fixed ladder with the one rung lambda_final, harvested at its last
    step."""
    return TemperatureLadder(u_final, (lambda_final,))


def ess(weights: np.ndarray) -> float:
    """Effective sample size 1 / sum of squared normalized weights."""
    weights = np.asarray(weights, dtype=float)
    if not abs(weights.sum() - 1.0) <= 1e-8:
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


def _check_seed(seed: int) -> None:
    """Reject a seed that cannot be the first word of a Philox key."""
    if not 0 <= seed < 2**64:
        raise ValueError(
            f"seed must be a non-negative integer below 2^64, got {seed}")


class _StageStreams:
    """The stage-t stream of Generator(Philox(key=np.array([seed, t],
    dtype=np.uint64))), without building a new bit generator per stage: one
    Philox is re-keyed in place, and every stage restarts the counter and
    the buffer.  The uint64 array keeps every 64-bit seed exact; a plain list
    would pass through float64 for seeds of 2^63 and above.
    """

    def __init__(self, seed: int):
        _check_seed(seed)
        self._bitgen = np.random.Philox(
            key=np.array([seed, 0], dtype=np.uint64))
        self._state = self._bitgen.state
        self._rng = np.random.Generator(self._bitgen)

    def at(self, step: int) -> np.random.Generator:
        self._state["state"]["key"][1] = step
        self._bitgen.state = self._state
        return self._rng


def _cov(thetas: np.ndarray) -> np.ndarray:
    """The particles' sample covariance as a (q, q) array, also at q = 1."""
    return np.atleast_2d(np.cov(thetas, rowvar=False))


def run_smc(sample_scores: IPWScores, features, prior: IsotropicNormalPrior,
            ladder: TemperatureLadder | AdaptiveLadder, config: SMCConfig,
            trace=None) -> dict[int, WeightedParticles]:
    """Run the ladder to its last rung and harvest the cloud at every rung,
    keyed by stage index.

    trace, when given a list, receives one record per stage with the
    effective sample size before resampling, whether resampling fired, and
    the Metropolis acceptance rate.  Recording draws nothing from the RNG,
    so traced and untraced runs harvest identical particles.
    """
    features = np.asarray(features, dtype=float)
    n_p = config.n_particles
    scale = _scaled(1.0, config.normalized, sample_scores)

    streams = _StageStreams(config.seed)
    rng0 = streams.at(0)
    thetas = prior.sample(n_p, rng0)
    q = prior.q

    def evaluate(th: np.ndarray) -> tuple:
        # the cached per-particle state: scaled welfare, cost and log prior
        w, k = welfare_cost_matrix(th, sample_scores, features)
        return scale * w, scale * k, prior.log_density(th)

    state = evaluate(thetas)
    log_psi = np.full(n_p, -np.log(n_p))

    out: dict[int, WeightedParticles] = {}
    t, lam_prev, u_prev = 0, 0.0, 0.0
    while lam_prev != ladder.rungs[-1]:
        t += 1
        rng = streams.at(t)

        # Step 2: resample when the weights have degenerated
        psi = np.exp(log_psi)
        stage_ess = ess(psi)
        resampled = stage_ess < TAU_ESS * n_p
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
        cov *= ladder._proposal_scale(t, q)
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

        if lam_t in ladder.rungs:
            out[t] = WeightedParticles(
                thetas=thetas.copy(), weights=np.exp(log_psi), step_index=t,
                lam=lam_t, u=u_t, seed=config.seed)
        lam_prev, u_prev = lam_t, u_t

    return out


def temper(sample_scores: IPWScores, features, prior: IsotropicNormalPrior,
           u: float, rungs, n_particles: int, seed: int,
           normalized: bool = True,
           trace=None) -> dict[float, WeightedParticles]:
    """One run_smc on AdaptiveLadder(u, rungs) at MH_STEPS_PER_STAGE sweeps
    per stage, its clouds keyed by lambda; trace is run_smc's."""
    config = SMCConfig(n_particles=n_particles, seed=seed,
                       normalized=normalized,
                       mh_steps_per_stage=MH_STEPS_PER_STAGE)
    harvested = run_smc(sample_scores, features, prior,
                        AdaptiveLadder(u, rungs), config, trace=trace)
    return {cloud.lam: cloud for cloud in harvested.values()}
