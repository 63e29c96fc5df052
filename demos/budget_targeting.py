"""How the budget penalty maps to realized cost, on a grid you can audit.

With a finite candidate set the posterior is available in closed form, so
the cost curve u -> expected cost and the inversion that finds the penalty
matching a target budget can be shown exactly, without any sampling.  The
second half prints certificate slacks for the same design parameters.
"""

import numpy as np

from pbpolicy import (
    BoundInputs,
    IPWScores,
    bound_report,
    grid_posterior,
    solve_u_hat,
)
from pbpolicy.gibbs import welfare_cost_matrix

rng = np.random.default_rng(5)

# thirty candidate threshold rules over two features, sixty units
n, q, m = 60, 2, 30
features = rng.normal(size=(n, q))
grid = rng.normal(size=(m, q))
masses = np.full(m, 1.0 / m)
delta_y = rng.normal(loc=1.0, size=n)
delta_c = np.abs(rng.normal(loc=1.0, size=n))
scores = IPWScores(delta_y, delta_c)

LAM = 16.0
_, costs = welfare_cost_matrix(grid, scores, features)


def evaluator(lam, u):
    """Posterior expected cost of the grid at (lam, u), exact."""
    return float(grid_posterior(grid, masses, lam, u, scores, features,
                                normalized=False) @ costs)


print("posterior expected cost along the penalty axis (lambda = 16):")
for u in np.linspace(0.0, 3.0, 7):
    print(f"  u = {u:4.1f}   cost = {evaluator(LAM, u):.5f}")

budget = 0.55 * evaluator(LAM, 0.0)
u_hat = solve_u_hat(budget, LAM, evaluator, tolerance=1e-10)
print(f"\ntarget budget {budget:.5f}: solved penalty u_hat = {u_hat:.6f}")
print(f"cost at the solved penalty: {evaluator(LAM, u_hat):.10f}")

# the slacks shrink roughly as lambda/n for fixed lambda, so desk-scale n
# gives vacuous certificates; evaluate them where they become informative
inputs = BoundInputs(n=20_000, kappa=0.25, m_y=2.0, m_c=2.0, lam=LAM,
                     u=u_hat, epsilon=0.05, grid_cardinality=m)
print("\ncertificate slacks for the same rule family at n = 20000:")
for name, value in bound_report(inputs, d_kl=1.2, u_hat=u_hat).items():
    print(f"  {name:16s} {value:.6f}")
