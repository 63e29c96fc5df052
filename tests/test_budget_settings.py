"""The paper's budget settings, end to end against exact ground truth.

Each test derives samples from DGP1 by an exact transform whose conditional
effects are known, fits them with `pbpolicy fit --budget`, and scores the
fitted rule on a large test population against the optimal rule that
`oracle.solve_eta_B` solves there.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from pbpolicy import cli, oracle
from pbpolicy.data import _sample_csv, _write_csv, load_rule
from pbpolicy.dgp import DGPSpec, generate
from pbpolicy.rules import MajorityVoteRule, mv_decide

# a quantity constraint: treatment costs 1 and control 0 on every unit, so
# the cost effect is 1 everywhere and a budget B is the treated share
QUANTITY_BUDGET = 0.3
QUANTITY_TOL = 1e-3
QUANTITY_FIT = ["--lambda", "256", "--particles", "500"]

# Margins, fixed from a pilot before the test's own seeds ran: the same fit
# on samples and fit seeds 101-113 (13 fits), each scored on this test
# population (seed 999, 20,000 units), whose optimal rule at B = 0.3 gains
# 0.678.  Each margin is the largest shortfall over the 13 pilot fits,
# rounded up to the next multiple of 0.05.
# - Against the optimum at B the majority-vote rule fell short by 0.003 to
#   0.318: it treated 17-32% of the population, mostly fewer than B, while
#   its stochastic rule met B on the sample.  So this margin is wide.
QUANTITY_MARGIN_AT_B = 0.35
# - Against the optimum at the share the majority-vote rule treats itself
#   it fell short by 0.006 to 0.073.  Treating that share at random falls
#   about 0.17 short, so this margin tells a ranking by the effect from a
#   random one.
QUANTITY_MARGIN_AT_SHARE = 0.1


def _optimal_gain(budget: float, dy, dc) -> float:
    optimal = oracle.solve_eta_B(budget, dy, dc)
    return oracle.gain_cost(oracle.oracle_decisions(optimal, dy, dc),
                            dy, dc)[0]


@pytest.mark.parametrize("seed", [1, 2])
def test_a_quantity_constraint_fit_treats_the_budgets_share_near_optimally(
        tmp_path, seed):
    sample = generate(DGPSpec("DGP1", seed, 1000)).sample
    sample = replace(sample, c=sample.d.astype(float))
    _write_csv(str(tmp_path / "sample.csv"), *_sample_csv(sample))
    assert cli.main(["fit", str(tmp_path / "sample.csv"), *QUANTITY_FIT,
                     "--budget", str(QUANTITY_BUDGET),
                     "--budget-tol", str(QUANTITY_TOL), "--seed", str(seed),
                     "--out", str(tmp_path / "fit")]) == 0
    diagnostics = json.loads((tmp_path / "fit" / "diagnostics.json")
                             .read_text())
    assert abs(diagnostics["estimated_cost"] - QUANTITY_BUDGET) \
        <= QUANTITY_TOL

    test = generate(DGPSpec("DGP1", 999, 20000))
    dy, dc = test.cate, np.ones(test.n)
    particles, fmap = load_rule(tmp_path / "fit" / "rule.json")
    treated = mv_decide(MajorityVoteRule(particles, fmap), test.x)
    gain, share = oracle.gain_cost(treated.astype(float), dy, dc)
    assert abs(gain - _optimal_gain(QUANTITY_BUDGET, dy, dc)) \
        <= QUANTITY_MARGIN_AT_B
    assert 0.0 < share < 1.0
    assert _optimal_gain(share, dy, dc) - gain <= QUANTITY_MARGIN_AT_SHARE
