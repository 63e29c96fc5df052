"""Run the two reduced-scale benchmark studies used by the acceptance tests.

    python3 scripts/run_acceptance_studies.py

Writes results/studies/dgp1, results/studies/dgp2 and
results/studies/fingerprint.json.  The fingerprint is the package version
and a sha256 of the six cost-curve CSVs that acceptance criterion 10's tiny
study writes (a few seconds of compute), so it moves whenever the numerics
of a study move.  A study whose artifacts exist is skipped only when the
recorded fingerprint equals the current one; otherwise both studies are
run again, roughly ten minutes per design on a 2-core machine.  The
acceptance suite recomputes the fingerprint once per session and fails,
naming this script, when the studies on disk were built by other numerics.
"""

import hashlib
import json
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from pbpolicy import __version__, cli
from pbpolicy.dgp import DGPSpec
from pbpolicy.harness import StudyConfig, run_study
from pbpolicy.persist import _write_atomic

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
STUDIES = os.path.join(ROOT, "results", "studies")
FINGERPRINT = os.path.join(STUDIES, "fingerprint.json")
MASTER_SEED = 0
REPLICATIONS = 20
N_TRAIN = 1000
PARTICLES = 1000

# acceptance criterion 10's study: two replications on a tiny design
TINY_STUDY_ARGS = [
    "study", "--dgp", "dgp1", "--reps", "2", "--n", "60",
    "--particles", "40", "--n-test", "150", "--bins", "3",
    "--seed", "17", "--threads", "1",
    "--u-grid", "0.0,0.7", "--lambda-grid", "4.0,32.0",
]


def numerics_fingerprint() -> dict:
    """Package version and the sha256 of the tiny study's cost curves."""
    with tempfile.TemporaryDirectory() as out:
        if cli.main([*TINY_STUDY_ARGS, "--out", out]) != 0:
            raise RuntimeError("the fingerprint study failed")
        names = sorted(n for n in os.listdir(out)
                       if n.startswith("cost_curves_"))
        digest = hashlib.sha256()
        for name in names:
            digest.update(name.encode())
            with open(os.path.join(out, name), "rb") as fh:
                digest.update(fh.read())
    return {"package_version": __version__, "cost_curve_files": names,
            "sha256": digest.hexdigest()}


def recorded_fingerprint():
    """The fingerprint.json on disk, or None when there is none."""
    if not os.path.exists(FINGERPRINT):
        return None
    with open(FINGERPRINT) as fh:
        return json.load(fh)


def write_fingerprint(fingerprint: dict) -> None:
    os.makedirs(STUDIES, exist_ok=True)
    _write_atomic(FINGERPRINT, fingerprint)


def main():
    current = numerics_fingerprint()
    fresh = recorded_fingerprint() == current
    for name, dgp_id in (("dgp1", "DGP1"), ("dgp2", "DGP2")):
        out = os.path.join(STUDIES, name)
        if fresh and os.path.exists(os.path.join(out, "study_config.json")):
            print(f"{name}: artifacts match the fingerprint, skipping")
            continue
        t0 = time.time()
        print(f"{name}: running {REPLICATIONS} replications ...", flush=True)
        run_study(DGPSpec(dgp_id, MASTER_SEED, N_TRAIN), REPLICATIONS,
                  config=StudyConfig(particles=PARTICLES, out_dir=out))
        print(f"{name}: done in {(time.time() - t0) / 60:.1f} min", flush=True)
    write_fingerprint(current)


if __name__ == "__main__":
    main()
