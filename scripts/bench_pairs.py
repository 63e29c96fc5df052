"""Paired benchmark runs: a base git ref against the working tree.

    python3 scripts/bench_pairs.py --base HEAD~1 --workload study_rep --pairs 10

The base ref is extracted with `git archive` into a temporary directory.
Each pair runs `python3 bench/run_bench.py --workload W --seed S --seconds T
--trace X` once from each tree, with a fresh seed per pair, and alternates
which tree runs first; T is BENCHMARK.json's run_seconds.  Both trees must
hold identical `bench/` files, so the two sides measure the same benchmark;
the script stops otherwise.

For every metric it prints each side's median and quartiles, how many pairs
the working tree won (ties count for neither side), and whether the
numerics digests of the two sides were equal in every pair.  A gain is
claimed only when the working tree wins at least nine tenths of the pairs
and the medians differ by more than the base's quartile spread; the script
prints that verdict and, for end-to-end metrics, whether the working tree's
median stays within the bound that BENCHMARK.json fixes.  The last line of
standard output is a JSON object with every run's metrics and digest.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git ref of the base tree")
    p.add_argument("--workload", required=True,
                   choices=("study_rep", "fit_budget", "deploy"))
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1,
                   help="seed of the first pair; pair i uses seed + i")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    return args


def _extract(ref: str, dest: str) -> None:
    tar = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def _tree_digest(root: str) -> dict:
    """sha256 of every file under root/bench, by relative path."""
    out = {}
    base = os.path.join(root, "bench")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, base)] = \
                    hashlib.sha256(fh.read()).hexdigest()
    return out


def _run(tree: str, args, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run_bench.py", "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(args.trace)]
    got = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                         timeout=max(600.0, 20 * seconds))
    lines = got.stdout.strip().splitlines()
    if got.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} failed "
                           f"({got.returncode}):\n{got.stderr[-2000:]}")
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"seed": seed, "digest": detail.get("digest"),
            "correct": result["correct"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _summary(runs: dict, spec: dict) -> list:
    rows = []
    for name in sorted(runs["base"][0]["metrics"]):
        base = [r["metrics"][name] for r in runs["base"]]
        head = [r["metrics"][name] for r in runs["head"]]
        lower = spec.get(name, {}).get("better", "lower") == "lower"
        wins = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
        b1, b2, b3 = _quartiles(base)
        h1, h2, h3 = _quartiles(head)
        diff = (b2 - h2) if lower else (h2 - b2)
        row = {"metric": name, "base_median": b2, "base_q1": b1,
               "base_q3": b3, "head_median": h2, "head_q1": h1,
               "head_q3": h3, "wins": wins, "pairs": len(base),
               "gain": wins >= 0.9 * len(base) and diff > b3 - b1}
        bound = spec.get(name, {}).get("bound")
        if bound is not None and b2:
            row["within_bound"] = -diff / abs(b2) <= bound
        rows.append(row)
    return rows


def main(argv=None) -> int:
    args = _parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = float(bench["run_seconds"])
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    with tempfile.TemporaryDirectory(prefix="bench-base-") as base_tree:
        _extract(args.base, base_tree)
        if _tree_digest(base_tree) != _tree_digest(ROOT):
            print(f"bench_pairs: bench/ differs between {args.base} and the "
                  "working tree; the two sides would not measure the same "
                  "benchmark", file=sys.stderr)
            return 2
        runs = {"base": [], "head": []}
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                tree = base_tree if side == "base" else ROOT
                runs[side].append(_run(tree, args, seed, seconds))
            b, h = runs["base"][-1], runs["head"][-1]
            print(f"pair {i + 1}/{args.pairs} seed {seed}: "
                  + "  ".join(f"{k} {b['metrics'][k]:.4g} -> "
                              f"{h['metrics'][k]:.4g}"
                              for k in ("wall_s", "setup_s", "peak_rss_mb")
                              if k in b["metrics"]), flush=True)

    digests_equal = all(b["digest"] == h["digest"]
                        for b, h in zip(runs["base"], runs["head"]))
    failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    rows = _summary(runs, spec)
    print(f"\n{args.workload}: base {args.base} vs working tree, "
          f"{args.pairs} pairs, --seconds {seconds:g} --trace {args.trace}")
    print(f"digests equal in every pair: {digests_equal}; failed checks: "
          f"base {failed['base']}, head {failed['head']}")
    print(f"{'metric':32} {'base median [q1, q3]':>32} "
          f"{'head median [q1, q3]':>32} {'wins':>7}  verdict")
    for r in rows:
        verdict = "gain" if r["gain"] else "no gain"
        if "within_bound" in r:
            verdict += ", within bound" if r["within_bound"] \
                else ", OUTSIDE bound"
        base = f"{r['base_median']:.4g} [{r['base_q1']:.4g}, {r['base_q3']:.4g}]"
        head = f"{r['head_median']:.4g} [{r['head_q1']:.4g}, {r['head_q3']:.4g}]"
        print(f"{r['metric']:32} {base:>32} {head:>32} "
              f"{r['wins']:>4}/{r['pairs']:<2}  {verdict}")
    print(json.dumps({"workload": args.workload, "base": args.base,
                      "seconds": seconds, "trace": args.trace,
                      "digests_equal": digests_equal, "summary": rows,
                      "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
