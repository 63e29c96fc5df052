"""Versioned JSON serialization for the two documents the program writes,
bound reports (the name -> value dict of bounds.bound_report) and fitted
rules, the reader of every JSON input file, the CSV writer, and the atomic
write every output file goes through.

Every document carries a schema version and a kind tag; loading a file
written under a different schema version is a hard error.  Floats pass
through Python's shortest round-trip decimal form, so numeric fields survive
a save/load cycle bit for bit.  Writes go to a temporary file in the target
directory followed by an atomic rename.
"""
from __future__ import annotations

import json
import os
from contextlib import contextmanager, suppress
from dataclasses import replace

from .data import PolyFeatureMap, poly_feature_map
from .smc import WeightedParticles

SCHEMA_VERSION = 1

__all__ = [
    "SCHEMA_VERSION",
    "save",
    "save_rule",
    "load_rule",
]

_BOUNDS_KIND = "bound_report"
_RULE_KIND = "fitted_rule"


@contextmanager
def _open_atomic(path):
    """A text file that replaces path, by an atomic rename, once the block
    that writes it ends."""
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        # the target keeps its old bytes; the partial file goes
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _write_atomic(path, doc: dict) -> None:
    with _open_atomic(path) as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _write_rows(fh, header, blocks) -> None:
    """A CSV of a header and blocks of rows of string cells, written to fh
    with one write per block."""
    fh.write(",".join(header) + "\n")
    for rows in blocks:
        fh.write("\n".join([*map(",".join, rows), ""]))


def _write_csv(path, header, blocks) -> None:
    """A CSV of a header and blocks of rows of string cells, written
    atomically."""
    with _open_atomic(path) as fh:
        _write_rows(fh, header, blocks)


def _fmt(value) -> str:
    # repr of a Python float round-trips exactly, which keeps CSV output
    # byte-stable across runs
    return repr(float(value))


def _read_json(path):
    """The JSON value in the file at path; ValueError naming the file when
    it is not valid JSON."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def save(report: dict, path) -> None:
    """Write a bound report, certificate name -> value, to a versioned JSON
    file."""
    payload = {"values": {k: float(v) for k, v in report.items()}}
    _write_atomic(path, {"schema_version": SCHEMA_VERSION,
                         "kind": _BOUNDS_KIND, "payload": payload})


def save_rule(particles: WeightedParticles, fmap: PolyFeatureMap,
              normalized: bool, path) -> None:
    """Write a fitted rule: its particle cloud, the polynomial feature map
    it reads covariates through, and the criterion variant."""
    payload = {
        "particles": {
            "thetas": particles.thetas.tolist(),
            "weights": particles.weights.tolist(),
            "step_index": int(particles.step_index),
            "lam": float(particles.lam),
            "u": float(particles.u),
            "seed": int(particles.seed),
        },
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
    doc = _read_json(path)
    if not isinstance(doc, dict) or "schema_version" not in doc:
        raise ValueError(f"{path} is missing a schema_version")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ValueError(
            f"{path} has schema_version {doc['schema_version']}, "
            f"expected {SCHEMA_VERSION}")
    if doc.get("kind") != _RULE_KIND:
        raise ValueError(f"{path} is not a fitted rule file")
    try:
        payload = doc["payload"]
        cloud = payload["particles"]
        particles = WeightedParticles(
            thetas=cloud["thetas"],
            weights=cloud["weights"],
            step_index=int(cloud["step_index"]),
            lam=float(cloud["lam"]),
            u=float(cloud["u"]),
            seed=int(cloud["seed"]),
        )
        fm = payload["feature_map"]
        fmap = poly_feature_map(int(fm["degree"]), int(fm["d_x"]))
        if particles.q != fmap.dimension:
            raise ValueError("particle dimension does not match the "
                             "feature map")
        fmap = replace(fmap, means=fm.get("means"), sds=fm.get("sds"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path} holds an inconsistent rule payload: {exc}") from exc
    return particles, fmap
