"""Finite-grid surrogate prior for validating the SMC sampler.

A mixture of very narrow Gaussians centered on the grid points stands in for
a discrete prior.  As long as every grid point keeps a healthy margin
|phi(x)' theta| relative to sigma * |phi(x)|, the threshold decisions are
constant within each mixture component, so the exact finite-grid posterior is
also the marginal law of the component index under the SMC target, and SMC
expectations can be checked against grid_posterior values directly.
"""

import numpy as np
from scipy.special import logsumexp

# exp of anything below this underflows to exactly 0.0 in float64
_EXP_UNDERFLOW = -800.0


class GridMixturePrior:
    def __init__(self, grid, masses, sigma=1e-6):
        self.grid = np.atleast_2d(np.asarray(grid, dtype=float))
        self.masses = np.asarray(masses, dtype=float)
        self.sigma = float(sigma)
        assert abs(self.masses.sum() - 1.0) < 1e-9
        self.q = self.grid.shape[1]
        self._log_masses = np.log(self.masses)
        self._log_norm = -0.5 * self.q * np.log(2 * np.pi * self.sigma**2)

    def sample(self, n, rng):
        idx = rng.choice(self.grid.shape[0], size=n, p=self.masses)
        return self.grid[idx] + self.sigma * rng.standard_normal((n, self.q))

    def log_density(self, thetas):
        """logsumexp over the components for finite thetas, bit for bit as
        log_density_reference, at about a third of its cost."""
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        comp = (self._log_masses[None, :] + self._log_norm
                - _squared_distances(thetas, self.grid) / (2 * self.sigma**2))
        return _row_logsumexp(comp)

    def log_density_reference(self, thetas):
        """The dense (n, m, q) tensor and scipy's logsumexp along axis 1."""
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        # (n, m) squared distances to the component centers
        d2 = ((thetas[:, None, :] - self.grid[None, :, :]) ** 2).sum(axis=2)
        comp = self._log_masses[None, :] + self._log_norm - d2 / (2 * self.sigma**2)
        return logsumexp(comp, axis=1)


class IdentityMap:
    """Feature map of grid rules, which already work in feature space;
    GibbsRule calls only transform."""

    def transform(self, x):
        return x


def _squared_distances(thetas, grid):
    """(n, m) squared distances, summed over the coordinates in the order
    numpy's reduction over a short last axis adds them."""
    d2 = np.subtract(thetas[:, 0, None], grid[:, 0])
    np.multiply(d2, d2, out=d2)
    diff = np.empty_like(d2)
    for k in range(1, grid.shape[1]):
        np.subtract(thetas[:, k, None], grid[:, k], out=diff)
        np.multiply(diff, diff, out=diff)
        d2 += diff
    return d2


def _row_logsumexp(a):
    """scipy.special.logsumexp(a, axis=1) for a finite (n, m) array, through
    the same steps (maxima split out, log1p(s / m) + log(m) + max), but
    taking exp only of the shifted entries that do not underflow to 0."""
    a_max = a.max(axis=1, keepdims=True)
    shifted = a - a_max
    ties = shifted == 0.0
    m = np.count_nonzero(ties, axis=1).astype(float)[:, None]
    keep = shifted > _EXP_UNDERFLOW
    keep &= ~ties
    e = np.zeros_like(a)
    e[keep] = np.exp(shifted[keep])
    s = e.sum(axis=1, keepdims=True)
    s = np.where(s == 0, s, s / m)
    return (np.log1p(s) + np.log(m) + a_max)[:, 0]


def random_grid_problem(rng, n_units=40, grid_size=8, q=2, margin=1e-2):
    """A random finite-grid problem whose decisions are margin-safe.

    Returns (grid, prior_masses, scores-like delta arrays, features).  Every
    |phi(x_i)' theta_j| is at least margin * |phi(x_i)|, so mixture jitter at
    sigma = 1e-6 cannot flip any decision.
    """
    features = rng.normal(size=(n_units, q))
    grid = []
    while len(grid) < grid_size:
        theta = rng.normal(size=q)
        theta /= np.linalg.norm(theta)
        margins = features @ theta
        if np.all(np.abs(margins) >= margin * np.linalg.norm(features, axis=1)):
            grid.append(theta)
    delta_y = rng.normal(size=n_units) + 1.0
    delta_c = rng.normal(size=n_units) + 0.5
    masses = rng.dirichlet(np.ones(grid_size) * 5.0)
    return np.array(grid), masses, delta_y, delta_c, features
