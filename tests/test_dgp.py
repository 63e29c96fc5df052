"""Tests for the synthetic environments."""

import math

import numpy as np
import pytest

from pbpolicy.dgp import DGPSpec, _conditional_means, _sigmoid, generate


def test_spec_validation():
    DGPSpec("DGP1", 0, 10)
    with pytest.raises(ValueError, match="environment id"):
        DGPSpec("DGP3", 0, 10)
    with pytest.raises(ValueError, match="n must"):
        DGPSpec("DGP1", 0, 0)


def test_dgp1_conditional_means():
    pop = generate(DGPSpec("DGP1", 3, 200))
    x1, x2, x3 = pop.x[:, 0], pop.x[:, 1], pop.x[:, 2]
    np.testing.assert_allclose(pop.cate, 1 - x1**2 + x2 + x3)
    np.testing.assert_allclose(pop.expected_cost, 1 - x3**2 + 2 * x2)
    # hand values of the formulas themselves
    assert 1 - 0.0**2 + 0.0 + 0.0 == 1.0
    assert 5 * (1 - 0.0**2 + 2 * 1.0) / 5 == 3.0


def test_observed_face_identity():
    for dgp in ("DGP1", "DGP2"):
        pop = generate(DGPSpec(dgp, 11, 300))
        d, c = pop.sample.d, pop.sample.c
        # the control cost is zero, a treated cost a Binomial(5, p) draw
        assert np.all(c[d == 0] == 0)
        assert np.all((c >= 0) & (c <= 5))
        assert np.all(c == np.round(c))
        np.testing.assert_array_equal(pop.sample.e, 0.5)


def test_dgp1_population_moments():
    n = 4000
    pop = generate(DGPSpec("DGP1", 7, n))
    # E[gain score] and E[cost] are both 5/3 for this environment
    se_g = pop.cate.std() / math.sqrt(n)
    assert abs(pop.cate.mean() - 5 / 3) < 3 * se_g
    se_c = pop.expected_cost.std() / math.sqrt(n)
    assert abs(pop.expected_cost.mean() - 5 / 3) < 3 * se_c
    assert np.all((pop.x >= 0) & (pop.x <= 1))
    d_mean = pop.sample.d.mean()
    assert abs(d_mean - 0.5) < 3 * math.sqrt(0.25 / n)


def test_noise_is_truncated_with_known_sd():
    n = 4000
    pop = generate(DGPSpec("DGP1", 19, n))
    x1, x2, x3 = pop.x[:, 0], pop.x[:, 1], pop.x[:, 2]
    d = pop.sample.d
    eps = pop.sample.y - (3 - 2 * x1 + x2 - x3) - d * pop.cate
    assert np.all(np.abs(eps) <= 2.0)
    # sd of a standard normal truncated to [-2, 2]
    want_sd = 0.8796256610342398
    se = want_sd / math.sqrt(2 * n)
    assert abs(eps.std() - want_sd) < 3 * se
    assert abs(eps.mean()) < 3 * want_sd / math.sqrt(n)


def test_dgp2_shapes_and_moments():
    n = 4000
    pop = generate(DGPSpec("DGP2", 29, n))
    assert np.all((pop.x >= -1) & (pop.x <= 1))
    assert np.all(pop.cate > 0)  # sigmoid gain is strictly positive
    assert np.all(pop.cate < 2)
    # E[C1] = 1 by the sigmoid symmetry
    se = pop.expected_cost.std() / math.sqrt(n)
    assert abs(pop.expected_cost.mean() - 1.0) < 3 * se
    x1, x2 = pop.x[:, 0], pop.x[:, 1]
    sig = 1 / (1 + np.exp(-2 * (x1 + x2) / 3))
    np.testing.assert_allclose(pop.cate, 2 * sig)


def test_seeded_determinism():
    a = generate(DGPSpec("DGP1", 42, 100))
    b = generate(DGPSpec("DGP1", 42, 100))
    np.testing.assert_array_equal(a.sample.y, b.sample.y)
    np.testing.assert_array_equal(a.sample.x, b.sample.x)
    np.testing.assert_array_equal(a.sample.c, b.sample.c)
    c = generate(DGPSpec("DGP1", 43, 100))
    assert not np.array_equal(a.sample.x, c.sample.x)
    # per-unit streams: a longer run starts with the same units
    longer = generate(DGPSpec("DGP1", 42, 150))
    np.testing.assert_array_equal(longer.sample.x[:100], a.sample.x)
    np.testing.assert_array_equal(longer.sample.y[:100], a.sample.y)


def _unit_by_unit(spec):
    """generate's draws with a Philox and a Generator built for every unit,
    keyed by the list [seed, i]."""
    lo = 0.0 if spec.id == "DGP1" else -1.0
    x, eps = np.empty((spec.n, 3)), np.empty(spec.n)
    c1, d = np.empty(spec.n), np.empty(spec.n, dtype=int)
    for i in range(spec.n):
        rng = np.random.Generator(np.random.Philox(key=[spec.seed, i]))
        x[i] = rng.uniform(lo, 1.0, size=3)
        while True:
            eps[i] = rng.normal()
            if -2.0 <= eps[i] <= 2.0:
                break
        if spec.id == "DGP1":
            p = (1.0 - x[i, 2] ** 2 + 2.0 * x[i, 1]) / 5.0
        else:
            p = 2.0 * _sigmoid(2.0 * x[i, 1] + x[i, 2]) / 5.0
        c1[i] = rng.binomial(5, p)
        d[i] = rng.integers(0, 2)
    return x, eps, c1, d


@pytest.mark.parametrize("dgp_id", ["DGP1", "DGP2"])
@pytest.mark.parametrize("seed", [0, 2**40 + 3, 2**63 + 7])
def test_rekeyed_unit_streams_draw_what_a_philox_per_unit_draws(dgp_id, seed):
    spec = DGPSpec(dgp_id, seed, 300)
    pop = generate(spec)
    x, eps, c1, d = _unit_by_unit(spec)
    np.testing.assert_array_equal(pop.x, x)
    np.testing.assert_array_equal(pop.sample.d, d)
    np.testing.assert_array_equal(pop.sample.c, c1 * d)
    base, cate, _ = _conditional_means(dgp_id, x)
    np.testing.assert_array_equal(
        pop.sample.y, np.where(d == 1, base + cate + eps, base + eps))


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_generate_rejects_a_seed_outside_64_bits(seed):
    with pytest.raises(ValueError, match=f"below 2\\^64, got {seed}"):
        generate(DGPSpec("DGP1", seed, 3))

