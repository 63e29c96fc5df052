"""Tests for versioned JSON serialization and the atomic write path."""

import json

import numpy as np
import pytest

from pbpolicy import cli
from pbpolicy.bounds import BoundInputs, bound_report
from pbpolicy.data import (SCHEMA_VERSION, WeightedParticles, load_rule,
                           poly_feature_map, save, save_rule)


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


def test_fitted_rule_round_trip_and_dimension_check(tmp_path):
    rng = np.random.default_rng(61)
    x = rng.normal(size=(50, 2))
    fmap = poly_feature_map(2, 2).fit_normalization(x)
    # the particle cloud survives bit for bit
    for k in range(5):
        p = random_particles(rng, q=fmap.dimension)
        path = tmp_path / f"rule_{k}.json"
        save_rule(p, fmap, False, path)
        got, got_map = load_rule(path)
        np.testing.assert_array_equal(got.thetas, p.thetas)
        np.testing.assert_array_equal(got.weights, p.weights)
        assert (got.step_index, got.lam, got.u, got.seed) == \
            (p.step_index, p.lam, p.u, p.seed)
        np.testing.assert_array_equal(got_map.transform(x), fmap.transform(x))
    doc = json.loads(path.read_text())
    assert list(doc) == ["schema_version", "kind", "payload"]
    assert doc["kind"] == "fitted_rule" and doc["payload"]["normalized"] is False
    doc["payload"]["feature_map"]["d_x"] = 3
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="particle dimension"):
        load_rule(path)


def test_bound_report_round_trip(tmp_path):
    report = bound_report(BoundInputs(n=100, kappa=0.5, m_y=1.0, m_c=1.0,
                                      lam=10.0, u=0.0, epsilon=0.05))
    path = tmp_path / "report.json"
    save(report, path)
    doc = json.loads(path.read_text())
    assert list(doc) == ["schema_version", "kind", "payload"]
    assert (doc["schema_version"], doc["kind"]) == (SCHEMA_VERSION,
                                                    "bound_report")
    values = doc["payload"]["values"]
    assert values == report
    # independently derived (tests/oracles/derive_constants.py)
    assert values["thm41a_slack"] == 0.3495732273553991


def test_schema_version_mismatch_is_hard_error(tmp_path):
    fmap = poly_feature_map(2, 2)
    path = tmp_path / "rule.json"
    save_rule(random_particles(np.random.default_rng(62), q=fmap.dimension),
              fmap, True, path)
    doc = json.loads(path.read_text())
    doc["schema_version"] = SCHEMA_VERSION + 1
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="schema_version"):
        load_rule(path)


def test_missing_schema_version_rejected(tmp_path):
    path = tmp_path / "naked.json"
    path.write_text('{"kind": "fitted_rule", "payload": {}}')
    with pytest.raises(ValueError, match="schema_version"):
        load_rule(path)


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schema_version": 1, "kind": ')
    with pytest.raises(ValueError, match="not valid JSON"):
        load_rule(path)


def test_dimension_inconsistency_rejected(tmp_path):
    rng = np.random.default_rng(63)
    fmap = poly_feature_map(2, 2).fit_normalization(rng.normal(size=(30, 2)))
    path = tmp_path / "rule.json"
    save_rule(random_particles(rng, q=fmap.dimension), fmap, True, path)
    saved = path.read_text()
    covariates = tmp_path / "x.csv"
    covariates.write_text("x1,x2\n0.1,0.2\n")
    nan = float("nan")
    for k, (corrupt, message) in enumerate([
            (lambda fm, p: p["weights"].pop(), "weights not aligned"),
            (lambda fm, p: fm.update(means=[0.0]),
             "means and sds must each hold 6 finite values"),
            (lambda fm, p: fm.update(means=[nan] + fm["means"][1:]),
             "means and sds must each hold 6 finite values"),
            (lambda fm, p: fm.update(sds=fm["sds"][:-1] + [0.0]),
             "the sds positive"),
            (lambda fm, p: p.update(thetas=[[nan] * 6] + p["thetas"][1:]),
             "thetas must be finite"),
            (lambda fm, p: p.update(weights=[nan] + p["weights"][1:]),
             "weights must be non-negative")]):
        doc = json.loads(saved)
        corrupt(doc["payload"]["feature_map"], doc["payload"]["particles"])
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"{path} holds an inconsistent "
                                             f"rule payload: .*{message}"):
            load_rule(path)
        # score refuses the file before it scores anything
        out = tmp_path / f"score_{k}"
        assert cli.main(["score", str(path), str(covariates),
                         "--out", str(out)]) == 1
        assert not (out / "assignments.csv").exists()


@pytest.mark.parametrize("field, value, message", [
    # the three edits that scored with exit 0 when lam and u went through
    # float() and normalized was not read
    ("lam", "16", "lam must be a finite number in (0, 1024], not '16'"),
    ("u", "nan", "u must be a finite number >= 0, not 'nan'"),
    ("normalized", "yes", "normalized must be true or false, not 'yes'"),
    ("lam", True, "lam must be a finite number"),
    ("lam", 0, "lam must be a finite number in (0, 1024], not 0"),
    ("lam", 1024.5, "lam must be a finite number in (0, 1024]"),
    ("lam", float("inf"), "lam must be a finite number"),
    ("u", -0.5, "u must be a finite number >= 0, not -0.5"),
    ("u", float("nan"), "u must be a finite number >= 0, not nan"),
    ("u", 10**400, "u must be a finite number >= 0"),
    ("u", None, "u must be a finite number"),
    ("normalized", 1, "normalized must be true or false, not 1"),
    ("normalized", None, "normalized must be true or false, not None"),
])
def test_rule_fields_typed_float_and_bool_are_checked(tmp_path, field, value,
                                                      message):
    fmap = poly_feature_map(2, 2)
    path = tmp_path / "rule.json"
    save_rule(random_particles(np.random.default_rng(64), q=fmap.dimension),
              fmap, True, path)
    doc = json.loads(path.read_text())
    payload = doc["payload"]
    (payload if field == "normalized" else payload["particles"])[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as raised:
        load_rule(path)
    assert str(raised.value).startswith(
        f"{path} holds an inconsistent rule payload: ")
    assert message in str(raised.value)
    covariates = tmp_path / "x.csv"
    covariates.write_text("x1,x2\n0.1,0.2\n")
    out = tmp_path / "scored"
    assert cli.main(["score", str(path), str(covariates),
                     "--out", str(out)]) == 1
    assert not (out / "assignments.csv").exists()


def test_rule_floats_at_their_bounds_load(tmp_path):
    fmap = poly_feature_map(2, 2)
    path = tmp_path / "rule.json"
    for lam, u, normalized in ((1024.0, 0.0, False), (1e-300, 2.0**20, True),
                               (16, 3, True)):
        p = random_particles(np.random.default_rng(65), q=fmap.dimension)
        save_rule(p, fmap, normalized, path)
        doc = json.loads(path.read_text())
        doc["payload"]["particles"].update(lam=lam, u=u)
        path.write_text(json.dumps(doc))
        got, _ = load_rule(path)
        assert (got.lam, got.u) == (lam, u)
        assert type(got.lam) is float and type(got.u) is float


def test_unknown_kind_rejected(tmp_path):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"schema_version": SCHEMA_VERSION,
                                "kind": "mystery", "payload": {}}))
    with pytest.raises(ValueError, match="not a fitted rule file"):
        load_rule(path)
    # a bound report is not a rule either
    save({"a": 1.0}, path)
    with pytest.raises(ValueError, match="not a fitted rule file"):
        load_rule(path)


def test_save_leaves_no_temp_files(tmp_path):
    save({"a": 1.0}, tmp_path / "r.json")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json"]


def test_failed_write_leaves_no_temp_file_and_keeps_target(tmp_path):
    def blocks():
        yield [["1.0"]]
        raise RuntimeError("row source failed")

    fresh = tmp_path / "a.csv"
    with pytest.raises(RuntimeError, match="row source failed"):
        cli._write_csv(str(fresh), ["assignment"], blocks())
    assert list(tmp_path.iterdir()) == []

    kept = tmp_path / "b.csv"
    kept.write_bytes(b"assignment\n0.5\n")
    with pytest.raises(RuntimeError, match="row source failed"):
        cli._write_csv(str(kept), ["assignment"], blocks())
    assert kept.read_bytes() == b"assignment\n0.5\n"
    assert [p.name for p in tmp_path.iterdir()] == ["b.csv"]
