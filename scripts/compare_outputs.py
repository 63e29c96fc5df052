"""Byte-identity check of the program's outputs: a base git ref against the
working tree.

    python3 scripts/compare_outputs.py --base HEAD~1

Both sides are extracted as scripts/bench_pairs.py extracts them (`git
archive` of the base ref, and of a tree object of the working tree).  Each
side runs the fixed list RUNS from its own work directory with relative
--out and input paths, so that the run_config.json echoes compare equal:
simulate, fit (--u, --raw, the benchmark's deploy set-up fit, the
benchmark's --budget case, and a --budget case whose locating pilots hand
over without settling), score in all three modes on a small sample and on
one that ends a row past a block edge of score's CSV reader, the decision
kernel's split of one block between two threads (fit) and its many blocks
on a unit count that is not a multiple of 8 (score), oracle and
bounds on stdout and with --out, both Python demos, and
run_acceptance_studies.py's tiny study on one worker, on two worker
processes, and on one worker with 3 penalties, which its two threads may
finish out of grid order and the replication puts back in it; then fit,
bounds and the study again from their own
run_config.json echoes, so that a config file's values, grid lists
included, are byte-checked too.  One fit and one score read CSVs written
here in every form the CSV reader takes (_write_odd_csvs): quoted cells,
CRLF line ends, empty lines, exponents, a leading + and spaces around
cells.  Every command's stdout is kept as
stdout/<name>.txt, with an "[exit N]" line when it exits non-zero.

Prints one line per file, equal, differs, or only on one side, and exits 1
when any file is not equal.  A side takes about 7 s on a 2-core machine.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_pairs import _extract, _working_tree  # noqa: E402
from run_acceptance_studies import TINY_STUDY_ARGS  # noqa: E402

from pbpolicy.data import CSV_BLOCK_ROWS  # noqa: E402

HIGH_SEED = str(2**63 + 7)
_FIT = ["--lambda", "16", "--particles", "200", "--seed", "1"]
_BOUNDS = ["--n", "20000", "--kappa", "0.25", "--my", "2", "--mc", "2",
           "--lambda", "16", "--u", "0.5", "--eps", "0.05"]

# (name, argv): a pbpolicy command, or a demo when argv[0] is a .py file;
# later runs read what earlier ones wrote
RUNS = [
    ("simulate_dgp1", ["simulate", "--dgp", "dgp1", "--n", "400",
                       "--seed", "11", "--out", "sim_dgp1"]),
    ("simulate_dgp2", ["simulate", "--dgp", "dgp2", "--n", "400",
                       "--seed", HIGH_SEED, "--out", "sim_dgp2"]),
    ("simulate_stdout", ["simulate", "--dgp", "dgp1", "--n", "50",
                         "--seed", "3"]),
    ("fit_u", ["fit", "sim_dgp1/sample.csv", "--u", "0.5", *_FIT,
               "--out", "fit_u"]),
    ("fit_raw", ["fit", "sim_dgp1/sample.csv", "--u", "0.5", "--raw", *_FIT,
                 "--out", "fit_raw"]),
    # the fit in the benchmark's deploy set-up
    ("simulate_deploy", ["simulate", "--dgp", "dgp1", "--n", "500",
                         "--seed", "1", "--out", "sim_deploy"]),
    ("fit_u_deploy", ["fit", "sim_deploy/sample.csv", "--lambda", "8",
                      "--u", "0.6", "--particles", "1000", "--seed", "1",
                      "--out", "fit_u_deploy"]),
    # the benchmark's fit_budget case
    ("simulate_bench", ["simulate", "--dgp", "dgp1", "--n", "1000",
                        "--seed", "11", "--out", "sim_bench"]),
    ("fit_budget", ["fit", "sim_bench/sample.csv", "--lambda", "32",
                    "--budget", "0.45", "--budget-tol", "1e-3",
                    "--particles", "250", "--seed", "0",
                    "--out", "fit_budget"]),
    # a tiny cloud whose adaptive pilots hand over after _LOCATE_RUNS misses
    ("fit_budget_handover", ["fit", "sim_bench/sample.csv", "--lambda", "32",
                             "--budget", "0.2", "--particles", "16",
                             "--seed", "1", "--out", "fit_budget_handover"]),
    *((f"score_{mode}", ["score", "fit_u/rule.json", "sim_dgp2/sample.csv",
                         "--mode", mode, "--seed", "5",
                         "--out", f"score_{mode}"])
      for mode in ("prob", "mv", "sample")),
    # two full blocks and a one-row remainder, which joins the second block
    ("simulate_blocks", ["simulate", "--dgp", "dgp1",
                         "--n", str(2 * CSV_BLOCK_ROWS + 1), "--seed", "13",
                         "--out", "sim_blocks"]),
    *((f"score_blocks_{mode}", ["score", "fit_u/rule.json",
                                "sim_blocks/sample.csv", "--mode", mode,
                                "--seed", "6",
                                "--out", f"score_blocks_{mode}"])
      for mode in ("prob", "mv", "sample")),
    # a fit whose 300 units x 350 particles are one block of the decision
    # kernel, cut into halves of 168 and 182 particles for its two threads
    ("simulate_split", ["simulate", "--dgp", "dgp1", "--n", "300",
                        "--seed", "21", "--out", "sim_split"]),
    ("fit_split", ["fit", "sim_split/sample.csv", "--lambda", "16",
                   "--u", "0.5", "--particles", "350", "--seed", "2",
                   "--out", "fit_split"]),
    # vote shares of a 1000-particle rule on a unit count that is not a
    # multiple of 8: many kernel blocks of 128 units in each block of rows
    ("simulate_many", ["simulate", "--dgp", "dgp2",
                       "--n", str(3 * CSV_BLOCK_ROWS + 5), "--seed", "19",
                       "--out", "sim_many"]),
    ("score_many", ["score", "fit_u_deploy/rule.json", "sim_many/sample.csv",
                    "--mode", "prob", "--out", "score_many"]),
    # the CSVs of _write_odd_csvs
    ("fit_odd_csv", ["fit", "odd/sample.csv", "--u", "0.5", *_FIT,
                     "--out", "fit_odd_csv"]),
    ("score_odd_csv", ["score", "fit_u/rule.json", "odd/covariates.csv",
                       "--mode", "prob", "--out", "score_odd_csv"]),
    ("oracle_stdout", ["oracle", "--dgp", "dgp1", "--budget", "0.6",
                       "--n", "20000", "--seed", "7"]),
    ("oracle_out", ["oracle", "--dgp", "dgp2", "--budget", "2",
                    "--n", "1000", "--seed", "9", "--out", "oracle"]),
    ("bounds_stdout", ["bounds", *_BOUNDS]),
    ("bounds_out", ["bounds", *_BOUNDS, "--q", "10", "--nu", "0.01",
                    "--dkl", "1.2", "--uhat", "0.4", "--out", "bounds"]),
    ("demo_budget_targeting", ["demos/budget_targeting.py"]),
    ("demo_fit_and_score", ["demos/fit_and_score.py"]),
    ("study", [*TINY_STUDY_ARGS, "--out", "study"]),
    # the same study on a pool of two worker processes; the later --threads
    # overrides TINY_STUDY_ARGS' own
    ("study_threads", [*TINY_STUDY_ARGS, "--threads", "2",
                       "--out", "study_threads"]),
    # an odd penalty count on one worker, whose penalties two threads share
    ("study_odd_penalties", [*TINY_STUDY_ARGS, "--u-grid", "0.0,0.7,1.4",
                             "--out", "study_odd_penalties"]),
    # replays of earlier runs from their run_config.json echoes
    ("fit_u_replay", ["fit", "sim_dgp1/sample.csv",
                      "--config", "fit_u/run_config.json",
                      "--out", "fit_u_replay"]),
    ("bounds_replay", ["bounds", "--config", "bounds/run_config.json",
                       "--out", "bounds_replay"]),
    ("study_replay", ["study", "--config", "study/run_config.json",
                      "--out", "study_replay"]),
]


# a cell's text forms, and its dress, cycled through a file's cells
_FORMS = [repr, "%.17g".__mod__, "%e".__mod__,
          lambda v: ("" if repr(v)[0] == "-" else "+") + repr(v)]
_DRESS = [str, '"{}"'.format, " {} ".format, '" {}"'.format]


def _write_odd_csv(path: str, header: list, table: np.ndarray) -> None:
    """table as a CSV with CRLF line ends, an empty line after every
    seventh row and its cells in the forms above."""
    lines = [",".join(header)]
    for i, row in enumerate(table.tolist()):
        lines.append(",".join(
            _DRESS[(i + j) % len(_DRESS)](_FORMS[(i + 2 * j) % len(_FORMS)](v))
            for j, v in enumerate(row)))
        if i % 7 == 6:
            lines.append("")
    with open(path, "w", newline="") as fh:
        fh.write("".join(line + "\r\n" for line in lines))


def _write_odd_csvs(work: str) -> None:
    """odd/sample.csv, a 300-unit sample for fit, and odd/covariates.csv,
    covariates for score whose rows end past a block edge of the reader."""
    rng = np.random.default_rng(27)
    os.makedirs(os.path.join(work, "odd"))
    n = 300
    d = rng.integers(0, 2, size=n)
    x = rng.uniform(size=(n, 3))
    y = 1.0 + x @ [1.0, -2.0, 0.5] + d * (x[:, 0] - 0.4) \
        + rng.normal(scale=0.3, size=n)
    c = d * rng.uniform(0.5, 1.5, size=n)
    _write_odd_csv(os.path.join(work, "odd", "sample.csv"),
                   ["y", "c", "d", "x1", "x2", "x3", "e"],
                   np.column_stack([y, c, d, x, np.full(n, 0.5)]))
    _write_odd_csv(os.path.join(work, "odd", "covariates.csv"),
                   ["x1", "x2", "x3"],
                   rng.uniform(size=(2 * CSV_BLOCK_ROWS + 3, 3)))


def _run_all(tree: str, work: str) -> None:
    """Run RUNS with the package in tree, from the directory work."""
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    os.makedirs(os.path.join(work, "stdout"))
    _write_odd_csvs(work)
    for name, argv in RUNS:
        cmd = ([sys.executable, os.path.join(tree, argv[0])]
               if argv[0].endswith(".py")
               else [sys.executable, "-m", "pbpolicy.cli", *argv])
        got = subprocess.run(cmd, cwd=work, env=env, capture_output=True)
        text = got.stdout
        if got.returncode != 0:
            text += f"[exit {got.returncode}]\n".encode()
            print(f"{name} exited {got.returncode} in {tree}:\n"
                  f"{got.stderr.decode()[-2000:]}", file=sys.stderr)
        with open(os.path.join(work, "stdout", f"{name}.txt"), "wb") as fh:
            fh.write(text)


def _files(root: str) -> dict:
    out = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git ref of the base tree")
    args = p.parse_args(argv)
    found = []
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        for side, tree_ish in (("base", args.base), ("head", _working_tree())):
            tree, work = (os.path.join(tmp, side, d) for d in ("tree", "work"))
            os.makedirs(tree)
            _extract(tree_ish, tree)
            _run_all(tree, work)
            found.append(_files(work))
    base, head = found
    unequal = 0
    for path in sorted(set(base) | set(head)):
        if path not in head:
            verdict = f"only in {args.base}"
        elif path not in base:
            verdict = "only in the working tree"
        else:
            verdict = "equal" if base[path] == head[path] else "differs"
        unequal += verdict != "equal"
        print(f"{verdict:24} {path}")
    print(f"{len(set(base) | set(head)) - unequal} equal, {unequal} not")
    return 1 if unequal else 0


if __name__ == "__main__":
    sys.exit(main())
