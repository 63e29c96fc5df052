"""Tests for the certificate formulas and Bernoulli KL utilities."""

import math

import numpy as np
import pytest

from pbpolicy.bounds import (
    BoundInputs,
    bound_report,
    normal_kl,
    pinsker_gap,
    small_kl,
    small_kl_inverse,
    thm41a_slack,
    thm41b_bound,
    thm41c_bound,
    thm42a_slack,
    thm42b_terms,
    thm43_bounds,
)


def base_inputs(**kw):
    args = dict(n=100, kappa=0.5, m_y=1.0, m_c=1.0, lam=10.0, u=0.0, epsilon=0.05)
    args.update(kw)
    return BoundInputs(**args)


def test_small_kl_values():
    assert small_kl(0.5, 0.5) == 0.0
    assert small_kl(0.1, 0.5) == pytest.approx(0.3680642071684971, rel=1e-14)
    assert small_kl(0.3, 0.0) == math.inf
    assert small_kl(0.0, 1.0) == math.inf
    # zero-probability conventions
    assert small_kl(0.0, 0.0) == 0.0
    assert small_kl(1.0, 1.0) == 0.0
    assert small_kl(0.0, 0.5) == pytest.approx(math.log(2.0))
    with pytest.raises(ValueError):
        small_kl(-0.1, 0.5)
    with pytest.raises(ValueError):
        small_kl(0.5, 1.2)


def test_pinsker_gap_values():
    assert pinsker_gap(0.5, 0.5) == 0.0
    assert pinsker_gap(0.1, 0.5) == pytest.approx(0.04806420716849702, rel=1e-13)
    assert pinsker_gap(0.0, 1.0) == math.inf


def test_small_kl_inverse_roundtrip():
    rng = np.random.default_rng(13)
    for _ in range(100):
        a = rng.uniform(0.0, 1.0)
        b = rng.uniform(a, 1.0)
        if b >= 1.0 - 1e-12:
            continue
        c = small_kl(a, b)
        back = small_kl_inverse(a, c)
        assert abs(back - b) <= 1e-9
    assert small_kl_inverse(0.3, 0.0) == 0.3
    assert small_kl_inverse(1.0, 5.0) == 1.0
    with pytest.raises(ValueError):
        small_kl_inverse(0.5, -1.0)


def test_thm41a_hand_value():
    # lam=10, M=1, kappa=0.5, n=100, eps=0.05, D_KL=0
    assert thm41a_slack(base_inputs(), 0.0) == pytest.approx(
        0.3495732273553991, rel=1e-14)
    # vanishing terms: eps=1 kills the log, tiny lam kills the quadratic
    tiny = base_inputs(lam=1e-6, epsilon=1.0)
    assert thm41a_slack(tiny, 0.0) < 1e-6
    with pytest.raises(ValueError):
        thm41a_slack(base_inputs(), -0.1)


def test_thm41a_union_bound_correction():
    plain = thm41a_slack(base_inputs(), 0.0)
    gridded = thm41a_slack(base_inputs(grid_cardinality=41), 0.0)
    assert gridded - plain == pytest.approx(3.713572066704308 / 10.0, rel=1e-13)


def test_thm41b_u_zero_reduction():
    inp = base_inputs(n=400, lam=5.0, m_c=7.0)  # u=0: m_c must not matter
    alt = base_inputs(n=400, lam=5.0, m_c=2.0)
    assert thm41b_bound(inp) == thm41b_bound(alt)
    # manual evaluation at u=0
    log_term = math.log(2 * math.sqrt(400)) + math.log(2 / 0.05)
    bracket = (5.0 * math.sqrt(2) * 1.0 / (0.5 * 20.0) * math.sqrt(log_term)
               + 25.0 / (2 * 400 * 0.25) + log_term)
    assert thm41b_bound(inp) == pytest.approx(bracket / (2 * 400 * 0.25), rel=1e-13)


def test_thm41b_matches_tuned_lambda_display():
    # at lam = a kappa sqrt(n)/(M_y + u M_c) the square root of the bound has
    # the closed display form with bracket a sqrt(log 4n + 2 log(2/eps)) + ...
    n, kap, m_y, m_c, u, eps, a = 900, 0.4, 2.0, 1.5, 0.6, 0.1, 1.3
    mass = m_y + u * m_c
    lam = a * kap * math.sqrt(n) / mass
    inp = BoundInputs(n=n, kappa=kap, m_y=m_y, m_c=m_c, lam=lam, u=u, epsilon=eps)
    got = math.sqrt(thm41b_bound(inp, m_ell=m_c))
    bracket = (a * math.sqrt(math.log(4 * n) + 2 * math.log(2 / eps))
               + a**2 / 2
               + math.log(2 * math.sqrt(n)) + math.log(2 / eps))
    want = m_c / (kap * math.sqrt(2 * n)) * math.sqrt(bracket)
    assert got == pytest.approx(want, rel=1e-12)


def test_thm41c_structure():
    inp = base_inputs(n=400, lam=5.0, u=0.5)
    n, kap, lam = 400, 0.5, 5.0
    mass = 1.0 + 0.5 * 1.0
    log_term = math.log(2 * math.sqrt(n)) + math.log(2 / 0.05)
    want = (math.sqrt(2) * mass / (kap * math.sqrt(n)) * math.sqrt(log_term)
            + lam * mass**2 / (2 * n * kap**2)
            + (lam**2 / (8 * n * kap**2) + math.log(2 / 0.05)) / lam)
    assert thm41c_bound(inp) == pytest.approx(want, rel=1e-13)


def test_thm42a_penalty_term():
    inp = base_inputs(n=250, lam=8.0)
    core = thm42a_slack(inp, u_hat=0.0)
    want_core = (2 / 8.0) * (64.0 / (8 * 250 * 0.25) + math.log(3 / 0.05))
    assert core == pytest.approx(want_core, rel=1e-13)
    with_pen = thm42a_slack(inp, u_hat=2.0)
    pen = 2.0 * math.sqrt(math.log(3 / 0.05) / (2 * 250 * 0.25))
    assert with_pen - core == pytest.approx(pen, rel=1e-13)
    with pytest.raises(ValueError):
        thm42a_slack(inp, u_hat=-1.0)


def test_thm42b_terms_u_zero():
    inp = base_inputs(n=500, lam=6.0, m_c=9.0)
    alt = base_inputs(n=500, lam=6.0, m_c=1.0)
    assert thm42b_terms(inp) == thm42b_terms(alt)
    u1, u2 = thm42b_terms(inp)
    log4 = math.log(4 / 0.05)
    log_term = math.log(2 * math.sqrt(500)) + log4
    assert u1 == pytest.approx(
        math.sqrt(2) / (0.5 * math.sqrt(500)) * math.sqrt(log_term)
        + 6.0 / (2 * 500 * 0.25), rel=1e-13)
    assert u2 == pytest.approx(
        math.sqrt(log4 / (2 * 500 * 0.25))
        + (36.0 / (8 * 500 * 0.25) + log4) / 6.0, rel=1e-13)


def test_thm43_formulas():
    inp = base_inputs(n=1000, q=10, nu=2.0, u=0.5, m_y=2.0, m_c=1.0, lam=3.0)
    ub1, ub2, ub3, ub4 = thm43_bounds(inp)
    n, q, kap, nu, u = 1000, 10, 0.5, 2.0, 0.5
    m_y, m_c = 2.0, 1.0
    assert ub1 == pytest.approx(
        math.sqrt(q / n) * (nu * m_y / math.sqrt(q)
                            + (m_y / kap) * (0.25 + 0.25 / n)), rel=1e-13)
    log4 = math.log(4 / 0.05)
    assert ub2 == pytest.approx(
        (math.sqrt(q) * math.log(2 * math.sqrt(n))
         + math.sqrt(2) * u * math.sqrt(math.log(2 * math.sqrt(n)) + log4))
        / math.sqrt(n), rel=1e-13)
    assert ub3 == pytest.approx(
        (math.sqrt(log4 / 2) + (1 + u) * log4 / math.sqrt(q)) / math.sqrt(n),
        rel=1e-13)
    mass = m_y + u * m_c
    assert ub4 == pytest.approx(
        (kap * nu + math.sqrt(q) * (1 / (8 * n) + u / 2)) / math.sqrt(n)
        + math.sqrt(q / n) * (m_y**2 + u * m_c**2) / (8 * mass**2), rel=1e-13)


def test_thm43_requires_q_and_nu():
    with pytest.raises(ValueError, match="q"):
        thm43_bounds(base_inputs(nu=1.0))
    with pytest.raises(ValueError, match="nu"):
        thm43_bounds(base_inputs(q=10))


def test_thm43_n_scaling():
    a = thm43_bounds(base_inputs(n=10_000, q=5, nu=1.0, u=0.3))[3]
    b = thm43_bounds(base_inputs(n=20_000, q=5, nu=1.0, u=0.3))[3]
    assert b / a == pytest.approx(1 / math.sqrt(2), abs=0.01)


def test_bounds_shrink_with_n_and_grow_with_confidence():
    for fn in [lambda i: thm41a_slack(i, 0.5),
               thm41b_bound,
               thm41c_bound,
               lambda i: thm42a_slack(i, 1.0),
               lambda i: sum(thm42b_terms(i))]:
        vals = [fn(base_inputs(n=n, lam=2.0, u=0.4)) for n in (100, 1000, 10_000)]
        assert vals[0] > vals[1] > vals[2]
        by_eps = [fn(base_inputs(epsilon=e, lam=2.0, u=0.4))
                  for e in (0.2, 0.05, 0.01)]
        assert by_eps[0] < by_eps[1] < by_eps[2]


def test_normal_kl():
    assert normal_kl(0.0, 1.0, 0.0, 1.0, 4) == 0.0
    # unit-norm mean shift at the theory scales
    q, n = 10, 1000
    got = normal_kl(np.full(q, 1 / math.sqrt(q)), 1 / (2 * math.sqrt(n * q)),
                    0.0, 1 / math.sqrt(q), q)
    assert got == pytest.approx(41.47149820051014, rel=1e-12)
    assert got == pytest.approx((q / 2) * (1 / (4 * n) + math.log(4 * n)), rel=1e-12)
    q2, n2 = 3, 50
    got2 = normal_kl(np.full(q2, 1 / math.sqrt(q2)), 1 / (2 * math.sqrt(n2 * q2)),
                     0.0, 1 / math.sqrt(q2), q2)
    assert got2 == pytest.approx(7.954976049822054, rel=1e-12)
    # mean shift only
    assert normal_kl(np.array([3.0, 4.0]), 1.0, 0.0, 1.0, 2) == pytest.approx(12.5)
    with pytest.raises(ValueError):
        normal_kl(0.0, -1.0, 0.0, 1.0, 2)


def test_inputs_validation():
    with pytest.raises(ValueError):
        base_inputs(n=0)
    with pytest.raises(ValueError):
        base_inputs(kappa=0.6)
    with pytest.raises(ValueError):
        base_inputs(m_y=0.0)
    with pytest.raises(ValueError):
        base_inputs(lam=0.0)
    with pytest.raises(ValueError):
        base_inputs(u=-1.0)
    with pytest.raises(ValueError):
        base_inputs(epsilon=0.0)
    with pytest.raises(ValueError):
        base_inputs(epsilon=1.5)
    with pytest.raises(ValueError):
        base_inputs(nu=-2.0)


def test_bound_report():
    rep = bound_report(base_inputs(), d_kl=0.0, u_hat=0.0)
    assert rep["thm41a_slack"] == pytest.approx(0.3495732273553991)
    assert set(rep) == {
        "thm41a_slack", "thm41b_bound", "thm41c_bound",
        "thm42a_slack", "thm42b_u1", "thm42b_u2",
    }
    full = bound_report(base_inputs(q=10, nu=1.0))
    assert "thm43_ubar1" in full
    assert all(math.isfinite(v) for v in full.values())
    with pytest.raises(ValueError, match="not finite"):
        bound_report(base_inputs(), d_kl=math.inf)
