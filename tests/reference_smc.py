"""Frozen reference for the tempering stage loop.

This is run_smc's stage loop and the welfare/cost kernel as they stood
before the stage was stripped of per-call library overhead: scipy's
logsumexp, np.cov, a boolean decision matrix, and a Philox bit generator and
Generator built afresh for every stage.  run_smc must reproduce it bit for
bit on a fixed ladder; tests/test_smc.py holds it to that.  Keep it
unchanged: a change here would move the reference, not the sampler.  Its
revisions key each stage by a uint64 array, so that seeds of 2^63 and above
are no longer rounded to 53 bits on the way in, and read the resampling
threshold and the proposal scale exponent from the sampler's constants,
which replaced the config fields of the same values, and harvest the stages
whose lambda is one of the ladder's rungs, which replaced its checkpoint
step indices; the fixed ladder's lambda strictly increases, so these pick
the same stages.

reference_run_adaptive is run_smc's adaptive path, written out with the same
steps: each stage's lambda is the next rung when that rung keeps the
conditional ESS at CESS_FRACTION * N, and otherwise the result of
_BISECTION_STEPS bisections towards it; u follows the ramp; the proposal is
RW_SCALE / q times the cloud covariance.  It guards the adaptive sampler as
reference_run_smc guards the fixed ladder.
"""

import numpy as np
from scipy.special import logsumexp

from pbpolicy.smc import (_BISECTION_STEPS, CESS_FRACTION,
                          COVARIANCE_SCALE_EXPONENT, RW_SCALE, TAU_ESS,
                          U_RAMP_LAMBDA)


def reference_welfare_cost(thetas, scores, features):
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    features = np.asarray(features, dtype=float)
    dec = (features @ thetas.T > 0.0)
    n = scores.n
    w = (scores.delta_y @ dec) / n
    k = (scores.delta_c @ dec) / n
    return w, k


def _systematic_indices(weights, u0):
    n = weights.shape[0]
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    points = u0 + np.arange(n) / n
    return np.searchsorted(cum, points, side="right")


def _stage_rng(seed, step):
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, step], dtype=np.uint64)))


def reference_run_smc(sample_scores, features, prior, ladder, config):
    """Harvest {step: (thetas, weights)} at the fixed ladder's rungs, and
    the per-stage trace, exactly as run_smc did."""
    features = np.asarray(features, dtype=float)
    n_p = config.n_particles
    scale = 1.0 / sample_scores.mean_delta_y if config.normalized else 1.0

    rng0 = _stage_rng(config.seed, 0)
    thetas = np.asarray(prior.sample(n_p, rng0), dtype=float)
    w_raw, k_raw = reference_welfare_cost(thetas, sample_scores, features)
    wbar, kbar = scale * w_raw, scale * k_raw
    log_prior = prior.log_density(thetas)
    log_psi = np.full(n_p, -np.log(n_p))

    out, trace = {}, []
    lam_prev, u_prev = ladder.steps[0]
    for t in range(1, ladder.T + 1):
        lam_t, u_t = ladder.steps[t]
        rng = _stage_rng(config.seed, t)

        psi = np.exp(log_psi)
        stage_ess = 1.0 / np.sum(psi**2)
        resampled = stage_ess < TAU_ESS * n_p
        if resampled:
            u0 = rng.uniform(0.0, 1.0 / n_p)
            idx = _systematic_indices(psi, u0)
            thetas = thetas[idx]
            wbar, kbar, log_prior = wbar[idx], kbar[idx], log_prior[idx]
            log_psi = np.full(n_p, -np.log(n_p))

        log_inc = (lam_t * (wbar - u_t * kbar)
                   - lam_prev * (wbar - u_prev * kbar))

        cov = np.cov(thetas, rowvar=False, ddof=1)
        cov = np.atleast_2d(cov) * t**(-COVARIANCE_SCALE_EXPONENT)
        cov[np.diag_indices_from(cov)] += 1e-8
        root = np.linalg.cholesky(cov)
        accepted = 0
        for _ in range(config.mh_steps_per_stage):
            noise = rng.standard_normal(size=(n_p, prior.q))
            proposed = thetas + noise @ root.T
            w_prop, k_prop = reference_welfare_cost(proposed, sample_scores,
                                                    features)
            w_prop, k_prop = scale * w_prop, scale * k_prop
            lp_prop = prior.log_density(proposed)
            delta = (lam_t * ((w_prop - wbar) - u_t * (k_prop - kbar))
                     + lp_prop - log_prior)
            accept = np.log(rng.uniform(size=n_p)) < delta
            accepted += int(np.count_nonzero(accept))
            thetas = np.where(accept[:, None], proposed, thetas)
            wbar = np.where(accept, w_prop, wbar)
            kbar = np.where(accept, k_prop, kbar)
            log_prior = np.where(accept, lp_prop, log_prior)

        trace.append({
            "step": t,
            "lam": float(lam_t),
            "u": float(u_t),
            "ess": float(stage_ess),
            "resampled": bool(resampled),
            "acceptance": accepted / (n_p * config.mh_steps_per_stage),
        })

        log_psi = log_psi + log_inc
        log_psi = log_psi - logsumexp(log_psi)

        if lam_t in ladder.rungs:
            out[t] = (thetas.copy(), np.exp(log_psi))
        lam_prev, u_prev = lam_t, u_t
    return out, trace


def _reference_cess(log_psi, log_inc):
    # (sum W g)^2 / (N sum W g^2) from two max-shifted log sums
    a = log_psi + log_inc
    b = a + log_inc
    log_num = 2.0 * (a.max() + np.log(np.sum(np.exp(a - a.max()))))
    log_den = b.max() + np.log(np.sum(np.exp(b - b.max())))
    return float(np.exp(log_num - log_den))


def reference_run_adaptive(sample_scores, features, prior, ladder, config):
    """Harvest {step: (thetas, weights)} at every rung of an AdaptiveLadder,
    and the per-stage trace, exactly as run_smc does."""
    features = np.asarray(features, dtype=float)
    n_p = config.n_particles
    q = prior.q
    scale = 1.0 / sample_scores.mean_delta_y if config.normalized else 1.0
    rungs, u_final = ladder.rungs, ladder.u_final

    def u_at(lam):
        return u_final * min(lam / min(U_RAMP_LAMBDA, rungs[0]), 1.0)

    rng0 = _stage_rng(config.seed, 0)
    thetas = np.asarray(prior.sample(n_p, rng0), dtype=float)
    w_raw, k_raw = reference_welfare_cost(thetas, sample_scores, features)
    wbar, kbar = scale * w_raw, scale * k_raw
    log_prior = prior.log_density(thetas)
    log_psi = np.full(n_p, -np.log(n_p))

    out, trace = {}, []
    t, lam_prev, u_prev = 0, 0.0, 0.0
    while lam_prev != rungs[-1]:
        t += 1
        rng = _stage_rng(config.seed, t)

        psi = np.exp(log_psi)
        stage_ess = 1.0 / np.sum(psi**2)
        resampled = stage_ess < TAU_ESS * n_p
        if resampled:
            u0 = rng.uniform(0.0, 1.0 / n_p)
            idx = _systematic_indices(psi, u0)
            thetas = thetas[idx]
            wbar, kbar, log_prior = wbar[idx], kbar[idx], log_prior[idx]
            log_psi = np.full(n_p, -np.log(n_p))

        def meets_target(lam):
            log_inc = (lam * (wbar - u_at(lam) * kbar)
                       - lam_prev * (wbar - u_prev * kbar))
            return _reference_cess(log_psi, log_inc) >= CESS_FRACTION

        lo = lam_prev
        hi = min(r for r in rungs if r > lam_prev)
        if meets_target(hi):
            lam_t = hi
        else:
            for _ in range(_BISECTION_STEPS):
                mid = 0.5 * (lo + hi)
                if meets_target(mid):
                    lo = mid
                else:
                    hi = mid
            assert lo > lam_prev, "tempering stalled"
            lam_t = lo
        u_t = u_at(lam_t)

        log_inc = (lam_t * (wbar - u_t * kbar)
                   - lam_prev * (wbar - u_prev * kbar))

        cov = np.cov(thetas, rowvar=False, ddof=1)
        cov = np.atleast_2d(cov) * (RW_SCALE / q)
        cov[np.diag_indices_from(cov)] += 1e-8
        root = np.linalg.cholesky(cov)
        accepted = 0
        for _ in range(config.mh_steps_per_stage):
            noise = rng.standard_normal(size=(n_p, q))
            proposed = thetas + noise @ root.T
            w_prop, k_prop = reference_welfare_cost(proposed, sample_scores,
                                                    features)
            w_prop, k_prop = scale * w_prop, scale * k_prop
            lp_prop = prior.log_density(proposed)
            delta = (lam_t * ((w_prop - wbar) - u_t * (k_prop - kbar))
                     + lp_prop - log_prior)
            accept = np.log(rng.uniform(size=n_p)) < delta
            accepted += int(np.count_nonzero(accept))
            thetas = np.where(accept[:, None], proposed, thetas)
            wbar = np.where(accept, w_prop, wbar)
            kbar = np.where(accept, k_prop, kbar)
            log_prior = np.where(accept, lp_prop, log_prior)

        trace.append({
            "step": t,
            "lam": float(lam_t),
            "u": float(u_t),
            "ess": float(stage_ess),
            "resampled": bool(resampled),
            "acceptance": accepted / (n_p * config.mh_steps_per_stage),
        })

        log_psi = log_psi + log_inc
        log_psi = log_psi - logsumexp(log_psi)

        if lam_t in rungs:
            out[t] = (thetas.copy(), np.exp(log_psi))
        lam_prev, u_prev = lam_t, u_t
    return out, trace
