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

With --out BENCH_<n>.json the result is also kept in a file: the machine
block of run_bench.py's detail line, both commits (the base's and HEAD's,
with whether tracked files differed from HEAD), and under "workloads" each
workload's pairs, summary rows and digest equality.  A later call with the
same file, base and HEAD adds its workload to it (a traced run under
"<workload> --trace 1"), so one file holds the claimed gain and the
no-regression pairs of a change:

    python3 scripts/bench_pairs.py --base HEAD~1 --workload study_rep \
        --seed 801 --out BENCH_8.json
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
    p.add_argument("--out", help="JSON file that keeps the result; a file "
                                 "written for the same commits gains this "
                                 "workload")
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


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def _commits(base_ref: str) -> dict:
    return {
        "base": {"ref": base_ref,
                 "commit": _git("rev-parse", f"{base_ref}^{{commit}}")},
        "head": {"commit": _git("rev-parse", "HEAD"),
                 "dirty": bool(_git("status", "--porcelain",
                                    "--untracked-files=no"))},
    }


def _kept(path: str, commits: dict) -> dict:
    """The document at path, or a new one; None when it holds other
    commits."""
    if not os.path.exists(path):
        return {"machine": None, **commits, "workloads": {}}
    with open(path) as fh:
        doc = json.load(fh)
    same = all(doc[side]["commit"] == commits[side]["commit"]
               for side in ("base", "head"))
    return doc if same else None


def _keep(path: str, doc: dict, args, seconds: float, machine: dict,
          runs: dict, rows: list, digests_equal: bool) -> None:
    doc["machine"] = doc["machine"] or machine
    key = args.workload + (" --trace 1" if args.trace else "")
    doc["workloads"][key] = {
        "seconds": seconds, "trace": args.trace, "pairs": [
            {"seed": b["seed"], "base": b, "head": h}
            for b, h in zip(runs["base"], runs["head"])],
        "digests_equal": digests_equal, "summary": rows}
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    os.replace(tmp, path)


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
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "machine": detail.get("machine", {})}


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
    if args.out:
        doc = _kept(args.out, _commits(args.base))
        if doc is None:
            print(f"bench_pairs: {args.out} holds other commits; choose "
                  "another --out", file=sys.stderr)
            return 2

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

    # the machine block once; each run keeps its own source hash, and the
    # seeds and commits are kept beside the runs
    machine = {k: v for k, v in runs["head"][0]["machine"].items()
               if k not in ("git_commit", "git_dirty", "src_sha256", "seed")}
    for r in runs["base"] + runs["head"]:
        m = r.pop("machine")
        r["src_sha256"] = m.get("src_sha256")
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
    if args.out:
        _keep(args.out, doc, args, seconds, machine, runs, rows,
              digests_equal)
    return 0


if __name__ == "__main__":
    sys.exit(main())
