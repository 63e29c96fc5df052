"""Deployable decision rules built from weighted particle clouds.

Three deployment styles share one particle representation.  The stochastic
rule treats x with probability equal to the particle vote share, the majority
vote rule thresholds that share at 1/2, and the batch procedure walks a grid
of cost bins, picking for each bin the vote rule whose estimated cost is
nearest the bin edge and greedily treating the highest-scored untreated
candidates until the ledger hits the edge.

Vote shares come from the decision kernel (gibbs._block_decisions), which
walks the units in row blocks of about DECISION_BLOCK_ELEMENTS decisions,
so scoring never holds the whole units-by-particles matrix.  The shares are
bit for bit those of one product over the whole matrix, with the one
exception that gibbs._blocks names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from pbpolicy.data import IPWScores, PolyFeatureMap, WeightedParticles
from pbpolicy.gibbs import _block_decisions, _check_aligned

__all__ = [
    "GibbsRule",
    "MajorityVoteRule",
    "BatchCandidates",
    "BatchPlan",
    "treat_probability",
    "mv_decide",
    "sample_assignments",
    "rule_empirical_cost",
    "rule_empirical_welfare",
    "batch_assign",
]


@dataclass
class GibbsRule:
    """Stochastic rule: treat x with probability equal to the vote share."""

    particles: WeightedParticles
    feature_map: PolyFeatureMap


@dataclass
class MajorityVoteRule(GibbsRule):
    """Deterministic rule: treat when the vote share strictly exceeds 1/2."""


def _weighted_votes(features: np.ndarray,
                    particles: WeightedParticles) -> np.ndarray:
    """Weighted share of the particles that treat each row of features.

    The units are walked in row blocks (gibbs._blocks), so memory stays
    bounded whatever the number of units.
    """
    return _block_decisions(particles.thetas, features, True,
                            (particles.weights,))[0]


def _clipped_votes(features: np.ndarray,
                   particles: WeightedParticles) -> np.ndarray:
    # rounding in the dot product can spill a hair past the unit interval
    return np.clip(_weighted_votes(features, particles), 0.0, 1.0)


def treat_probability(rule: GibbsRule, x) -> np.ndarray:
    """Particle vote share, one value per row of x (a 1-D x is one unit)."""
    feats = rule.feature_map.transform(np.atleast_2d(np.asarray(x, dtype=float)))
    return _clipped_votes(feats, rule.particles)


def mv_decide(rule: MajorityVoteRule, x) -> np.ndarray:
    """1 where the vote share strictly exceeds 1/2, else 0, one value per
    row of x."""
    return (treat_probability(rule, x) > 0.5).astype(int)


def sample_assignments(rule: GibbsRule, x, rng: np.random.Generator) -> np.ndarray:
    """Bernoulli draws of the stochastic rule, one per row of x."""
    shares = treat_probability(rule, x)
    return (rng.uniform(size=shares.shape[0]) < shares).astype(int)


def rule_empirical_cost(rule: GibbsRule, scores: IPWScores, features) -> float:
    """Empirical IPW cost of the stochastic rule on transformed features.

    Equals the particle-weighted average of the per-rule costs exactly, by
    exchanging the two sums.
    """
    _check_aligned(scores, features)
    shares = _weighted_votes(features, rule.particles)
    return float(scores.delta_c @ shares / scores.n)


def rule_empirical_welfare(rule: GibbsRule, scores: IPWScores, features) -> float:
    """Empirical IPW welfare of the stochastic rule on transformed features."""
    _check_aligned(scores, features)
    shares = _weighted_votes(features, rule.particles)
    return float(scores.delta_y @ shares / scores.n)


@dataclass
class BatchCandidates:
    """Target units awaiting assignment: covariates and per-unit costs."""

    x: np.ndarray
    unit_costs: np.ndarray

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        self.unit_costs = np.asarray(self.unit_costs, dtype=float)
        if self.unit_costs.shape != (self.x.shape[0],):
            raise ValueError("unit costs not aligned with candidates")
        if not np.all(self.unit_costs >= 0):
            raise ValueError("unit costs must be non-negative")

    @property
    def n(self) -> int:
        return self.x.shape[0]


@dataclass
class BatchPlan:
    """Outcome of the binned greedy assignment.

    treated_by_bin holds the cumulative treated mask at the close of each
    bin; assignment_log records (bin index, candidate index) in the order
    treatments were handed out.
    """

    bin_edges: np.ndarray
    selected_u: tuple
    treated_by_bin: tuple
    realized_cost_by_bin: tuple
    assignment_log: tuple

    def __post_init__(self):
        for edge, cost in zip(self.bin_edges, self.realized_cost_by_bin):
            if not cost <= edge + 1e-9:
                raise ValueError("realized cost exceeds its bin edge")


def batch_assign(candidates: BatchCandidates,
                 mv_rules_by_u: Mapping[float, tuple],
                 budget: float, n_bins: int, shares=None) -> BatchPlan:
    """Greedy cost-binned assignment over a shared budget.

    mv_rules_by_u maps each penalty u to (rule, estimated_cost).  For every
    bin edge the rule with estimated cost nearest the edge (absolute
    distance, ties to the smaller u) ranks the untreated candidates by vote
    share, ties broken by ascending candidate index, and treatment proceeds
    down the ranking until the next treatment would push cumulative cost past
    the edge.  Candidates treated in earlier bins stay treated.  shares may
    map each u to its rule's vote shares on the candidates, as
    treat_probability gives them, when the caller has them already.
    """
    if not mv_rules_by_u:
        raise ValueError("no vote rules to select from")
    if not budget > 0.0:
        raise ValueError("budget must be positive")
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    edges = np.linspace(0.0, budget, n_bins + 1)[1:]
    us = sorted(mv_rules_by_u)
    est_costs = np.array([float(mv_rules_by_u[u][1]) for u in us])
    # vote shares per rule, computed once; a picked rule's ranking, sorted
    # once
    if shares is None:
        shares = {u: treat_probability(mv_rules_by_u[u][0], candidates.x)
                  for u in us}
    orders = {}

    treated = np.zeros(candidates.n, dtype=bool)
    cum_cost = 0.0
    selected, masks, realized, log = [], [], [], []
    for b, edge in enumerate(edges):
        pick = us[int(np.argmin(np.abs(est_costs - edge)))]
        selected.append(pick)
        if pick not in orders:
            orders[pick] = np.lexsort((np.arange(candidates.n),
                                       -np.asarray(shares[pick])))
        rest = orders[pick][~treated[orders[pick]]]
        # the ledger after each further treatment, added left to right as a
        # unit-by-unit walk adds it; the walk stops at the first overrun
        ledger = np.cumsum(np.concatenate(
            ([cum_cost], candidates.unit_costs[rest])))[1:]
        over = np.flatnonzero(ledger > edge + 1e-12)
        take = rest[:over[0] if over.size else rest.size]
        if take.size:
            treated[take] = True
            cum_cost = ledger[take.size - 1]
            log.extend((b, int(idx)) for idx in take)
        masks.append(treated.copy())
        realized.append(cum_cost)
    return BatchPlan(bin_edges=edges, selected_u=tuple(selected),
                     treated_by_bin=tuple(masks),
                     realized_cost_by_bin=tuple(realized),
                     assignment_log=tuple(log))
