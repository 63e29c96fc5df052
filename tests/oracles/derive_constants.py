"""Independent derivations of every hand-checkable example value used in the tests.

Run `python tests/oracles/derive_constants.py` to print the constants. Each value
here is computed from first principles (closed forms, combinatorics, quadrature),
NOT by importing the package, so the test literals frozen from this output are an
independent check on the implementation.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy import integrate, stats


def g(x):
    return float.__repr__(float(x))


def ipw_scores():
    # delta_y = Y*D/e - Y*(1-D)/(1-e); delta_c analogous with C
    dy_treated = 2.0 * 1 / 0.5
    dc_control = -1.0 * 1 / (1 - 0.5)
    print("ipw delta_y (Y=2,D=1,e=0.5)     =", g(dy_treated))
    print("ipw delta_c (C=1,D=0,e=0.5)     =", g(dc_control))
    print("welfare n=2 dy=(4,-2) dec=(1,0) =", g((4.0 * 1 + -2.0 * 0) / 2))
    print("cost    n=2 dc=(2,2)  dec=(1,0) =", g((2.0 * 1 + 2.0 * 0) / 2))


def monomial_counts():
    # number of monomials of total degree <= deg in d variables = C(d+deg, deg)
    for deg, d in [(2, 3), (1, 1), (2, 2)]:
        print(f"monomials deg<={deg} d_x={d}          =", math.comb(d + deg, deg))


def gibbs_examples():
    print("log_score lam=1 u=0   W=1      =", g(-1.0 * (0.0 * 0 - 1.0)))
    print("log_score lam=2 u=0.5 W=1 K=2  =", g(-2.0 * (0.5 * 2.0 - 1.0)))
    print("log_score lam=2 u=1   W=1 K=2  =", g(-2.0 * (1.0 * 2.0 - 1.0)))
    # two-point grid, uniform prior, lam=1, u=0, W=(1,0): softmax(1,0)
    p1 = math.e / (1 + math.e)
    print("two-point softmax p1           =", g(p1))
    print("two-point softmax p2           =", g(1 - p1))
    # two-point grid K=(0,1), W=(0,0), lam=1: posterior mass on point 2 is
    # exp(-u)/(1+exp(-u)) = 1/(1+e^u), so cost Lambda(u) = 1/(1+e^u)
    for u in [0.0, 0.5, 1.0, 2.0]:
        print(f"logistic Lambda(u={u})           =", g(1 / (1 + math.exp(u))))
    # invert 1/(1+e^u) = 1/4  ->  u = ln 3
    print("u_hat for B=0.25               =", g(math.log(3.0)))


def smc_examples():
    print("ess (0.5,0.5,0,0)              =", g(1 / (0.25 + 0.25)))
    # ladder schedule: lambda knots (0,0),(200,4),(320,32),(470,256),(800,1024);
    # u knots (0,0),(200,u_f),(800,u_f); truncate at first step with lam >= target
    knots_t = [0, 200, 320, 470, 800]
    knots_l = [0.0, 4.0, 32.0, 256.0, 1024.0]

    def lam_at(t):
        for a, b, la, lb in zip(knots_t, knots_t[1:], knots_l, knots_l[1:]):
            if t <= b:
                return la + (lb - la) * (t - a) / (b - a)
        raise ValueError(t)

    def trunc_step(lam_final):
        for t in range(0, 801):
            if lam_at(t) >= lam_final - 1e-12:
                return t
        raise ValueError(lam_final)

    print("ladder final step lam=1024     =", trunc_step(1024.0))
    print("ladder final step lam=4        =", trunc_step(4.0))
    print("ladder length lam=4 (pairs)    =", trunc_step(4.0) + 1)
    print("ladder final step lam=32       =", trunc_step(32.0))
    # CV rungs: ladder values nearest the dyadic targets
    targets = []
    for k in range(2, 10):
        targets.append(2.0**k)
        targets.append((2.0**k + 2.0 ** (k + 1)) / 2)
    targets.append(2.0**10)
    targets = sorted(set(targets))
    grid = np.array([lam_at(t) for t in range(801)])
    steps = [int(np.argmin(np.abs(grid - tg))) for tg in targets]
    print("cv targets                     =", [g(t) for t in targets])
    print("cv rung steps                  =", steps)
    print("cv rung lambdas                =", [g(grid[s]) for s in steps])


def kl_examples():
    a, b = 0.1, 0.5
    kl = a * math.log(a / b) + (1 - a) * math.log((1 - a) / (1 - b))
    print("small_kl(0.1,0.5)              =", g(kl))
    print("pinsker_gap(0.1,0.5)           =", g(kl - 2 * (a - b) ** 2))


def bound_examples():
    # (1/lam) * [lam^2 M^2/(8 n kap^2) + log(1/eps)] at D_KL=0
    lam, M, kap, n, eps = 10.0, 1.0, 0.5, 100, 0.05
    quad = lam**2 * M**2 / (8 * n * kap**2)
    print("thm41a quad term               =", g(quad))
    print("thm41a_slack(D_KL=0)           =", g((quad + math.log(1 / eps)) / lam))
    print("log(41)                        =", g(math.log(41.0)))
    # normal KL special case: sig_pi = 1/sqrt(q), sig_rho = 1/(2 sqrt(n q)),
    # ||mu_rho|| = 1, mu_pi = 0. General isotropic formula reduces to
    # (q/2)[1/(4n) + log(4n)]; verify numerically for a few (q, n).
    for q, n in [(10, 1000), (3, 50)]:
        sig_pi2 = 1.0 / q
        sig_rho2 = 1.0 / (4 * n * q)
        general = (
            0.5 * 1.0 / sig_pi2
            + (q / 2) * (sig_rho2 / sig_pi2 - 1)
            - (q / 2) * math.log(sig_rho2 / sig_pi2)
        )
        closed = (q / 2) * (1 / (4 * n) + math.log(4 * n))
        print(f"normal_kl reduction q={q} n={n}   =", g(general), "==", g(closed))


def dgp_values():
    print("dgp1 cate at (0,0,0)           =", g(1 - 0.0**2 + 0.0 + 0.0))
    print("dgp1 E[C1|x=(0,1,0)]           =", g(5 * (1 - 0.0**2 + 2 * 1.0) / 5))
    # E[1 - X1^2 + X2 + X3] with X ~ U(0,1)^3 = 1 - 1/3 + 1/2 + 1/2 = 5/3
    print("dgp1 E[delta_y]                =", Fraction(1) - Fraction(1, 3) + Fraction(1, 2) + Fraction(1, 2))
    # E[1 - X3^2 + 2 X2] = 1 - 1/3 + 1 = 5/3
    print("dgp1 E[E[C1|X]]                =", Fraction(1) - Fraction(1, 3) + Fraction(1))
    # sd of standard normal truncated to [-2, 2]: var = 1 - 2*2*phi(2)/(2*Phi(2)-1)
    a = 2.0
    mass = 2 * stats.norm.cdf(a) - 1
    var = 1 - 2 * a * stats.norm.pdf(a) / mass
    print("trunc normal accept prob       =", g(mass))
    print("trunc normal sd                =", g(math.sqrt(var)))
    # DGP2: E[C1] = E[2 Lambda(2 X2 + X3)] with X2, X3 ~ U(-1,1): equals 1 by the
    # symmetry Lambda(z)+Lambda(-z)=1; confirm by quadrature.
    val, _ = integrate.dblquad(
        lambda x3, x2: 2.0 / (1 + math.exp(-(2 * x2 + x3))) / 4.0,
        -1, 1, lambda _: -1, lambda _: 1,
    )
    print("dgp2 E[C1] (quadrature)        =", g(val))


def oracle_two_type():
    # types: A (dy=2, dc=1, mass 1/2), B (dy=1, dc=1, mass 1/2)
    def beta(b):
        out = 0.0
        for dy, dc in [(2.0, 1.0), (1.0, 1.0)]:
            if dy > b * dc:
                out += 0.5 * dc
        return out

    print("two-type beta(0)               =", g(beta(0.0)))
    print("two-type beta(1.5)             =", g(beta(1.5)))
    print("two-type beta(3)               =", g(beta(3.0)))
    # B=0.5: eta = inf{b: beta(b) <= 0.5} = 1 (beta drops to 0.5 once b >= 1
    # excludes type B, strictly: at b=1, 1 > 1*1 is false -> beta(1)=0.5)
    print("two-type beta(1)               =", g(beta(1.0)))
    # optimal rule at eta=1 treats A only: gain = 0.5*2 = 1, cost = 0.5
    print("two-type optimal gain B=0.5    =", g(0.5 * 2.0))
    # regret of never-treat = 1 - 0 = 1; of always-treat = 1 - (0.5*2+0.5*1) = -0.5
    print("two-type regret always-treat   =", g(1.0 - (0.5 * 2.0 + 0.5 * 1.0)))
    # L(always-treat) at eta=1: margin A = 2-1=1, f*=1 -> (1)(1-1)=0;
    # margin B = 1-1=0 -> contributes 0. Total 0.
    print("two-type L(always-treat)       =", g(0.0))


def oracle_mixed_sign():
    # types: A (dy=-1, dc=-2, ratio 0.5), C (dy=4, dc=1, ratio 4), mass 1/2.
    # Treating A hurts welfare but refunds budget; the rule set is
    #   dc>0: treat iff ratio > b;  dc<0: treat iff ratio < b.
    def enum(b, fa, fc):
        # cost, gain of (A treated w.p. fa, C treated w.p. fc)
        return 0.5 * (-2.0 * fa + 1.0 * fc), 0.5 * (-1.0 * fa + 4.0 * fc)

    def beta(b):
        fa = 1.0 if 0.5 < b else 0.0
        fc = 1.0 if 4.0 > b else 0.0
        return enum(b, fa, fc)[0]

    print("mixed beta(0)                  =", g(beta(0.0)))       # C only
    print("mixed beta(0.5)                =", g(beta(0.5)))       # tie out
    print("mixed beta(4)                  =", g(beta(4.0)))       # A only
    print("mixed floor                    =", g(0.5 * -2.0))
    # B=-0.75: beta(0.5+)= -0.5 > -0.75 so eta=4 with fractional C:
    # cost = -1 + 0.5*a1 = -0.75 -> a1 = 0.5; gain = 0.5*(-1) + 0.5*4*0.5
    print("mixed B=-0.75 eta              =", g(4.0))
    print("mixed B=-0.75 a1               =", g(0.5))
    cost, gain = enum(4.0, 1.0, 0.5)
    print("mixed B=-0.75 cost, gain       =", g(cost), g(gain))
    # B=-0.2: beta(0.5)=0.5 > -0.2 >= beta(0.5+)=-0.5 -> eta=0.5, a2 fills:
    # cost = 0.5 + a2*(-1.0) = -0.2 -> a2 = 0.7
    print("mixed B=-0.2 eta               =", g(0.5))
    print("mixed B=-0.2 a2                =", g(0.7))
    cost, gain = enum(0.5, 0.7, 1.0)
    print("mixed B=-0.2 cost, gain        =", g(cost), g(gain))


if __name__ == "__main__":
    ipw_scores()
    monomial_counts()
    gibbs_examples()
    smc_examples()
    kl_examples()
    bound_examples()
    dgp_values()
    oracle_two_type()
