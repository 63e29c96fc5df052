"""Tests for versioned JSON serialization and the golden fixture file."""

import json
from pathlib import Path

import numpy as np
import pytest

from pbpolicy.bounds import BoundReport
from pbpolicy.dgp import DGPSpec, generate
from pbpolicy.gibbs import GibbsParams
from pbpolicy.persist import (
    SCHEMA_VERSION,
    FixtureSet,
    load,
    load_fixture_set,
    load_rule,
    save,
    save_fixture_set,
    save_rule,
)
from pbpolicy.smc import WeightedParticles

from gridprior import random_grid_problem
from pbpolicy.data import IPWScores, poly_feature_map
from pbpolicy.gibbs import grid_posterior

FIXTURE_FILE = Path(__file__).parent / "fixtures" / "fixture_set.json"


def random_particles(rng, n=16, q=3):
    w = rng.uniform(0.1, 1.0, size=n)
    return WeightedParticles(
        thetas=rng.normal(size=(n, q)),
        weights=w / w.sum(),
        step_index=int(rng.integers(0, 800)),
        lam=float(rng.uniform(0.5, 64.0)),
        u=float(rng.uniform(0.0, 2.0)),
        seed=int(rng.integers(0, 2**31)),
    )


def test_particles_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(61)
    for k in range(5):
        p = random_particles(rng)
        path = tmp_path / f"particles_{k}.json"
        save(p, path)
        q = load(path)
        np.testing.assert_array_equal(q.thetas, p.thetas)
        np.testing.assert_array_equal(q.weights, p.weights)
        assert (q.step_index, q.lam, q.u, q.seed) == \
            (p.step_index, p.lam, p.u, p.seed)


def test_fitted_rule_round_trip_and_dimension_check(tmp_path):
    rng = np.random.default_rng(64)
    x = rng.normal(size=(50, 2))
    fmap = poly_feature_map(2, 2).fit_normalization(x)
    p = random_particles(rng, q=fmap.dimension)
    path = tmp_path / "rule.json"
    save_rule(p, fmap, False, path)
    doc = json.loads(path.read_text())
    assert list(doc) == ["schema_version", "kind", "payload"]
    assert doc["kind"] == "fitted_rule" and doc["payload"]["normalized"] is False
    got, got_map = load_rule(path)
    np.testing.assert_array_equal(got.thetas, p.thetas)
    np.testing.assert_array_equal(got.weights, p.weights)
    np.testing.assert_array_equal(got_map.transform(x), fmap.transform(x))
    doc["payload"]["feature_map"]["d_x"] = 3
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="particle dimension"):
        load_rule(path)


def test_grid_posterior_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(62)
    grid, masses, dy, dc, features = random_grid_problem(rng)
    scores = IPWScores(dy, dc, float(dy.mean()))
    post = grid_posterior(grid, masses, GibbsParams(lam=3.0, u=0.7),
                          scores, features)
    path = tmp_path / "posterior.json"
    save(post, path)
    back = load(path)
    np.testing.assert_array_equal(back.thetas, post.thetas)
    np.testing.assert_array_equal(back.log_weights, post.log_weights)
    np.testing.assert_array_equal(back.probs, post.probs)
    assert back.params == post.params


def test_population_round_trip_is_bit_exact(tmp_path):
    pop = generate(DGPSpec("DGP2", 11, 25))
    path = tmp_path / "pop.json"
    save(pop, path)
    back = load(path)
    assert back.spec == pop.spec
    for field in ("y0", "y1", "c0", "c1", "cate", "expected_cost"):
        np.testing.assert_array_equal(getattr(back, field), getattr(pop, field))
    np.testing.assert_array_equal(back.sample.y, pop.sample.y)
    np.testing.assert_array_equal(back.sample.x, pop.sample.x)
    np.testing.assert_array_equal(back.sample.d, pop.sample.d)


def test_bound_report_round_trip(tmp_path):
    report = BoundReport(values={"thm41a_slack": 0.25, "thm41b_bound": 1.5})
    path = tmp_path / "report.json"
    save(report, path)
    assert load(path).values == report.values


def test_schema_version_mismatch_is_hard_error(tmp_path):
    path = tmp_path / "report.json"
    save(BoundReport(values={"a": 1.0}), path)
    doc = json.loads(path.read_text())
    doc["schema_version"] = SCHEMA_VERSION + 1
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="schema_version"):
        load(path)


def test_missing_schema_version_rejected(tmp_path):
    path = tmp_path / "naked.json"
    path.write_text('{"kind": "bound_report", "payload": {"values": {}}}')
    with pytest.raises(ValueError, match="schema_version"):
        load(path)


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schema_version": 1, "kind": ')
    with pytest.raises(ValueError, match="not valid JSON"):
        load(path)


def test_dimension_inconsistency_rejected(tmp_path):
    rng = np.random.default_rng(63)
    path = tmp_path / "particles.json"
    save(random_particles(rng), path)
    doc = json.loads(path.read_text())
    doc["payload"]["weights"] = doc["payload"]["weights"][:-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="inconsistent payload"):
        load(path)


def test_unknown_kind_rejected(tmp_path):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"schema_version": SCHEMA_VERSION,
                                "kind": "mystery", "payload": {}}))
    with pytest.raises(ValueError, match="unknown kind"):
        load(path)


def test_save_rejects_unsupported_type(tmp_path):
    with pytest.raises(TypeError, match="cannot serialize"):
        save(3.0, tmp_path / "nope.json")
    with pytest.raises(TypeError, match="unsupported type"):
        FixtureSet(entries={"x": object()})


def test_save_leaves_no_temp_files(tmp_path):
    save(BoundReport(values={"a": 1.0}), tmp_path / "r.json")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json"]


def test_fixture_set_round_trip(tmp_path):
    rng = np.random.default_rng(64)
    fixtures = FixtureSet(entries={
        "cloud": random_particles(rng),
        "pop": generate(DGPSpec("DGP1", 2, 10)),
    })
    path = tmp_path / "set.json"
    save_fixture_set(fixtures, path)
    back = load_fixture_set(path)
    np.testing.assert_array_equal(back["cloud"].thetas,
                                  fixtures["cloud"].thetas)
    assert back["pop"].spec == fixtures["pop"].spec


def test_load_fixture_set_rejects_single_object_file(tmp_path):
    path = tmp_path / "single.json"
    save(BoundReport(values={"a": 1.0}), path)
    with pytest.raises(ValueError, match="fixture set"):
        load_fixture_set(path)


def test_golden_fixture_file():
    fixtures = load_fixture_set(FIXTURE_FILE)
    golden = fixtures["golden_grid_posterior"]
    np.testing.assert_allclose(
        golden.probs, [0.7310585786300049, 0.2689414213699951], atol=1e-4)
    # exact softmax of a unit score gap, independently derived
    assert fixtures["golden_bound_report"].values["thm41a_slack"] == \
        0.3495732273553991
    tiny = fixtures["tiny_population"]
    np.testing.assert_array_equal(tiny.x, generate(DGPSpec("DGP1", 0, 8)).x)
