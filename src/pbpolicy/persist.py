"""Versioned JSON serialization for checkpoints, posteriors, fitted rules
and fixtures.

Every file carries a schema version and a kind tag; loading a file written
under a different schema version is a hard error.  Floats pass through
Python's shortest round-trip decimal form, so numeric fields survive a
save/load cycle bit for bit.  Writes go to a temporary file in the target
directory followed by an atomic rename.
"""
from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .bounds import BoundReport
from .data import PolyFeatureMap, poly_feature_map
from .dgp import DGPSpec, SimulatedPopulation, generate
from .gibbs import GibbsParams, GridPosterior
from .smc import WeightedParticles

SCHEMA_VERSION = 1

__all__ = [
    "SCHEMA_VERSION",
    "FixtureSet",
    "save",
    "load",
    "save_fixture_set",
    "load_fixture_set",
    "save_rule",
    "load_rule",
]

_RULE_KIND = "fitted_rule"


def _particles_payload(p: WeightedParticles) -> dict:
    return {
        "thetas": p.thetas.tolist(),
        "weights": p.weights.tolist(),
        "step_index": int(p.step_index),
        "lam": float(p.lam),
        "u": float(p.u),
        "seed": int(p.seed),
    }


def _particles_restore(d: dict) -> WeightedParticles:
    return WeightedParticles(
        thetas=np.asarray(d["thetas"], dtype=float),
        weights=np.asarray(d["weights"], dtype=float),
        step_index=int(d["step_index"]),
        lam=float(d["lam"]),
        u=float(d["u"]),
        seed=int(d["seed"]),
    )


def _grid_payload(g: GridPosterior) -> dict:
    return {
        "thetas": g.thetas.tolist(),
        "log_weights": g.log_weights.tolist(),
        "probs": g.probs.tolist(),
        "lam": float(g.params.lam),
        "u": float(g.params.u),
        "normalized": bool(g.params.normalized),
    }


def _grid_restore(d: dict) -> GridPosterior:
    return GridPosterior(
        thetas=np.asarray(d["thetas"], dtype=float),
        log_weights=np.asarray(d["log_weights"], dtype=float),
        probs=np.asarray(d["probs"], dtype=float),
        params=GibbsParams(lam=float(d["lam"]), u=float(d["u"]),
                           normalized=bool(d["normalized"])),
    )


def _population_payload(p: SimulatedPopulation) -> dict:
    # A simulated population is a pure function of its spec (one RNG
    # stream per unit), so the spec is the whole state.
    return {"id": p.spec.id, "seed": int(p.spec.seed), "n": int(p.spec.n)}


def _population_restore(d: dict) -> SimulatedPopulation:
    return generate(DGPSpec(id=d["id"], seed=int(d["seed"]), n=int(d["n"])))


def _bounds_payload(b: BoundReport) -> dict:
    return {"values": {k: float(v) for k, v in b.values.items()}}


def _bounds_restore(d: dict) -> BoundReport:
    return BoundReport(values=dict(d["values"]))


_KINDS = {
    WeightedParticles: ("weighted_particles", _particles_payload),
    GridPosterior: ("grid_posterior", _grid_payload),
    SimulatedPopulation: ("simulated_population", _population_payload),
    BoundReport: ("bound_report", _bounds_payload),
}

_RESTORERS = {
    "weighted_particles": _particles_restore,
    "grid_posterior": _grid_restore,
    "simulated_population": _population_restore,
    "bound_report": _bounds_restore,
}


@dataclass(frozen=True)
class FixtureSet:
    """Named collection of serializable objects stored in one file."""

    entries: Mapping[str, object]

    def __post_init__(self):
        for name, obj in self.entries.items():
            if type(obj) not in _KINDS:
                raise TypeError(f"entry {name!r} has unsupported type "
                                f"{type(obj).__name__}")

    def __getitem__(self, name: str):
        return self.entries[name]


def _encode(obj) -> dict:
    try:
        kind, payload_fn = _KINDS[type(obj)]
    except KeyError:
        raise TypeError(f"cannot serialize {type(obj).__name__}") from None
    return {"kind": kind, "payload": payload_fn(obj)}


def _decode(doc: dict, path: os.PathLike):
    kind = doc.get("kind")
    if kind not in _RESTORERS:
        raise ValueError(f"{path}: unknown kind {kind!r}")
    try:
        return _RESTORERS[kind](doc["payload"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: inconsistent payload: {exc}") from exc


@contextmanager
def _open_atomic(path):
    """A text file that replaces path, by an atomic rename, once the block
    that writes it ends."""
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", newline="") as fh:
        yield fh
    os.replace(tmp, path)


def _write_atomic(path, doc: dict) -> None:
    with _open_atomic(path) as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _read_versioned(path) -> dict:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "schema_version" not in doc:
        raise ValueError(f"{path} is missing a schema_version")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ValueError(
            f"{path} has schema_version {doc['schema_version']}, "
            f"expected {SCHEMA_VERSION}")
    return doc


def save(obj, path) -> None:
    """Write one serializable object to a versioned JSON file."""
    doc = {"schema_version": SCHEMA_VERSION, **_encode(obj)}
    _write_atomic(path, doc)


def load(path):
    """Read back an object written by save; the file names its own kind."""
    return _decode(_read_versioned(path), path)


def save_fixture_set(fixtures: FixtureSet, path) -> None:
    """Write a named collection of objects as one versioned file."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "fixture_set",
        "entries": {name: _encode(obj)
                    for name, obj in fixtures.entries.items()},
    }
    _write_atomic(path, doc)


def load_fixture_set(path) -> FixtureSet:
    """Read back a fixture collection, restoring each entry by kind."""
    doc = _read_versioned(path)
    if doc.get("kind") != "fixture_set":
        raise ValueError(f"{path} does not hold a fixture set")
    entries = doc.get("entries")
    if not isinstance(entries, dict):
        raise ValueError(f"{path} is missing its entries table")
    return FixtureSet(entries={name: _decode(sub, path)
                               for name, sub in entries.items()})


def save_rule(particles: WeightedParticles, fmap: PolyFeatureMap,
              normalized: bool, path) -> None:
    """Write a fitted rule: its particle cloud, the polynomial feature map
    it reads covariates through, and the criterion variant."""
    payload = {
        "particles": _particles_payload(particles),
        "feature_map": {
            "degree": int(fmap.degree),
            "d_x": int(fmap.d_x),
            "means": None if fmap.means is None else [float(v) for v in fmap.means],
            "sds": None if fmap.sds is None else [float(v) for v in fmap.sds],
        },
        "normalized": bool(normalized),
    }
    doc = {"schema_version": SCHEMA_VERSION, "kind": _RULE_KIND,
           "payload": payload}
    _write_atomic(path, doc)


def load_rule(path) -> tuple[WeightedParticles, PolyFeatureMap]:
    """Read back the particle cloud and feature map written by save_rule."""
    doc = _read_versioned(path)
    if doc.get("kind") != _RULE_KIND:
        raise ValueError(f"{path} is not a fitted rule file")
    try:
        payload = doc["payload"]
        particles = _particles_restore(payload["particles"])
        fm = payload["feature_map"]
        fmap = poly_feature_map(int(fm["degree"]), int(fm["d_x"]))
        if fm.get("means") is not None:
            fmap = replace(fmap,
                           means=np.asarray(fm["means"], dtype=float),
                           sds=np.asarray(fm["sds"], dtype=float))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path} holds an inconsistent rule payload: {exc}") from exc
    if particles.thetas.shape[1] != fmap.dimension:
        raise ValueError(f"{path}: particle dimension does not match the feature map")
    return particles, fmap
