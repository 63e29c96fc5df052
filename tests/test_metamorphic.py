"""Metamorphic relations: inputs rescaled by powers of two give the same
outputs, byte for byte.

Doubling a float is exact, and so is every rescaling it implies further on
(a mean, a standard deviation, a cost-benefit ratio), so each relation holds
bit for bit rather than within a tolerance.

- `fit --u`: outcomes doubled at twice the penalty (the normalized
  criterion), costs doubled at half the penalty (normalized and --raw), and
  covariates doubled, each give the same particles.
- `score`: a rule fitted on doubled covariates and scored on doubled
  covariates writes the same assignments in every mode.
- `oracle.solve_eta_B`: doubled outcome effects double the multiplier;
  a doubled budget with doubled cost effects halves it; the tie shares a1
  and a2 stay the same.
"""

import csv
import json

import numpy as np
import pytest

from pbpolicy import cli
from pbpolicy.oracle import solve_eta_B

LAM, U, PARTICLES, SEED = 16, 0.6, 200, 3


@pytest.fixture(scope="module")
def sample(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    assert cli.main(["simulate", "--dgp", "dgp1", "--n", "300",
                     "--seed", "8", "--out", str(out)]) == 0
    with open(out / "sample.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, np.array(rows, dtype=float)


def _write(path, header, table, **factors):
    """table as a CSV, each column named in factors (x for every x column)
    multiplied by its factor."""
    table = table.copy()
    for j, name in enumerate(header):
        table[:, j] *= factors.get("x" if name.startswith("x") else name, 1.0)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in table.tolist():
            fh.write(",".join(map(repr, row)) + "\n")
    return path


def _fit(path, out, u, *flags):
    assert cli.main(["fit", str(path), "--lambda", str(LAM), "--u", repr(u),
                     "--particles", str(PARTICLES), "--seed", str(SEED),
                     "--out", str(out), *flags]) == 0
    return json.loads((out / "rule.json").read_text())["payload"]["particles"]


@pytest.mark.parametrize("factors,u,flags", [
    ({"y": 2.0}, 2 * U, ()),
    ({"c": 2.0}, U / 2, ()),
    ({"c": 2.0}, U / 2, ("--raw",)),
    ({"x": 2.0}, U, ()),
], ids=["y2_at_2u", "c2_at_half_u", "c2_at_half_u_raw", "x2"])
def test_fit_u_is_invariant_to_rescaled_inputs(tmp_path, sample, factors, u,
                                               flags):
    header, table = sample
    base = _fit(_write(tmp_path / "base.csv", header, table),
                tmp_path / "base", U, *flags)
    scaled = _fit(_write(tmp_path / "scaled.csv", header, table, **factors),
                  tmp_path / "scaled", u, *flags)
    assert scaled["thetas"] == base["thetas"]
    assert scaled["weights"] == base["weights"]
    assert scaled["u"] == u


def test_score_is_invariant_to_doubled_covariates(tmp_path, sample):
    header, table = sample
    rng = np.random.default_rng(17)
    covariates = rng.uniform(0.0, 1.0, size=(500, 3))
    names = ["x1", "x2", "x3"]
    outputs = {}
    for name, factor in (("base", 1.0), ("scaled", 2.0)):
        fitted = tmp_path / name
        _fit(_write(tmp_path / f"{name}.csv", header, table, x=factor),
             fitted, U)
        units = _write(tmp_path / f"{name}_x.csv", names, covariates,
                       x=factor)
        for mode in ("prob", "mv", "sample"):
            out = tmp_path / f"{name}_{mode}"
            assert cli.main(["score", str(fitted / "rule.json"), str(units),
                             "--mode", mode, "--seed", "4",
                             "--out", str(out)]) == 0
            outputs[name, mode] = (out / "assignments.csv").read_bytes()
    for mode in ("prob", "mv", "sample"):
        assert outputs["scaled", mode] == outputs["base", mode], mode


def test_oracle_multiplier_scales_with_the_effects():
    shares = []
    for seed in range(6):
        rng = np.random.default_rng(seed)
        # repeated values make ties, so the tie shares a1 and a2 are
        # exercised; costs of both signs give the negative-cost ties of a2
        dy = rng.choice(rng.normal(0.5, 1.0, size=40), size=400)
        dc = rng.choice(rng.normal(0.0, 0.5, size=40), size=400)
        floor = float(np.sum(dc[dc < 0.0])) / dc.size
        spend = float(np.mean(dc * (dy > 0.0)))
        budget = floor + 0.5 * (spend - floor)
        base = solve_eta_B(budget, dy, dc)
        assert base.eta > 0.0
        outcome = solve_eta_B(budget, 2.0 * dy, dc)
        assert outcome.eta == 2.0 * base.eta
        assert (outcome.a1, outcome.a2) == (base.a1, base.a2)
        cost = solve_eta_B(2.0 * budget, dy, 2.0 * dc)
        assert cost.eta == base.eta / 2.0
        assert (cost.a1, cost.a2) == (base.a1, base.a2)
        shares.append((base.a1, base.a2))
    assert any(0.0 < a1 < 1.0 for a1, _ in shares)
    assert any(0.0 < a2 < 1.0 for _, a2 in shares)
