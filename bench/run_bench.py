"""Benchmark of the pbpolicy estimator: three workloads, one command.

    python3 bench/run_bench.py --workload study_rep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  With --trace 0 the last line of standard output is a JSON object
with the end-to-end metrics (wall_s, setup_s, peak_rss_mb); with --trace 1
it holds the per-layer metrics of one traced set-up plus one traced unit of
work, a fixed amount of work whatever --seconds says, so counts repeat.  The line before it holds the output checks, the numerics digest,
known defects and machine metadata.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("study_rep", "fit_budget", "deploy")
SETUP_REPEATS = 3


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def _import_program():
    """Import the workloads (numpy, scipy and pbpolicy with them); time it."""
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import workloads
    import pbpolicy
    elapsed = time.perf_counter() - start
    if os.path.dirname(os.path.abspath(pbpolicy.__file__)) \
            != os.path.join(SRC, "pbpolicy"):
        raise ImportError(f"pbpolicy imported from {pbpolicy.__file__}, "
                          f"not from {SRC}")
    return workloads, elapsed


# -- metadata ---------------------------------------------------------------

def _read(path: str):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def _blas_threads():
    """OpenBLAS's own thread count, read through its C API when loaded."""
    maps = _read("/proc/self/maps") or ""
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def _git(*args):
    try:
        got = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return got.stdout.strip() if got.returncode == 0 else None


def _metadata(seed: int) -> dict:
    import numpy
    import scipy

    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for d in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        level, kind = _read(f"{d}/level"), _read(f"{d}/type")
        if level and kind and kind.strip() in ("Unified", "Data"):
            caches[f"L{level.strip()}"] = (_read(f"{d}/size") or "").strip()
    mem_total = None
    for line in (_read("/proc/meminfo") or "").splitlines():
        if line.startswith("MemTotal:"):
            mem_total = line.split(":", 1)[1].strip()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    src = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "pbpolicy", "*.py"))):
        with open(path, "rb") as fh:
            src.update(fh.read())
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu_model,
        "l2": caches.get("L2"), "l3": caches.get("L3"),
        "mem_total": mem_total,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": commit,
        "git_dirty": None if status is None else bool(status),
        "src_sha256": src.hexdigest(), "seed": seed,
    }


# -- measurement ------------------------------------------------------------

def _tail(samples: list):
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    import numpy
    for p in (99, 95, 90, 75, 50):
        if len(samples) * (100 - p) / 100 >= 10:
            return {"p": p, "value": float(numpy.percentile(samples, p))}
    return None


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system


def _timed_unit(workload, inputs, out, checks):
    start = time.perf_counter()
    result = workload.unit(inputs, out, checks)
    return result, time.perf_counter() - start


def _measure(workload, seed, seconds, work, import_s, checks, detail):
    """Untraced run: repeated set-ups, then units until --seconds is spent."""
    setup_times = []
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = workload.setup(seed, os.path.join(work, f"setup{i}"), checks)
        setup_times.append(time.perf_counter() - start)

    walls, digests = [], []
    while True:
        out = os.path.join(work, f"unit{len(walls)}")
        result, wall = _timed_unit(workload, inputs, out, checks)
        walls.append(wall)
        workload.check(inputs, out, result, checks)
        digests.append(workload.digest(out, result))
        detail["known_defects"] = workload.known_defects(out)
        shutil.rmtree(out)
        if sum(walls) + statistics.median(walls) > seconds:
            break
    if len(digests) > 1:
        checks.append(("outputs repeat bit for bit across units",
                       len(set(digests)) == 1))

    detail.update(digest=digests[0], wall_s_samples=walls,
                  wall_s_tail=_tail(walls), setup_s_samples=setup_times,
                  import_s=import_s)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": import_s + statistics.median(setup_times),
                    "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }


def _measure_traced(workload, seed, work, run_id, checks, detail):
    """One untraced unit, then one traced set-up and unit on the same seed."""
    import tracing

    inputs = workload.setup(seed, os.path.join(work, "setup"), checks)
    out = os.path.join(work, "untraced")
    result, wall_untraced = _timed_unit(workload, inputs, out, checks)
    workload.check(inputs, out, result, checks)
    digest_untraced = workload.digest(out, result)

    tracer = tracing.Tracer(run_id)
    tracer.install()
    try:
        inputs = workload.setup(seed, os.path.join(work, "traced-setup"),
                                checks)
        tracer.phase = "body"
        out = os.path.join(work, "traced")
        cpu0 = _cpu_s()
        result, wall_traced = _timed_unit(workload, inputs, out, checks)
        cpu_s = _cpu_s() - cpu0
    finally:
        tracer.remove()
    workload.check(inputs, out, result, checks)
    digest_traced = workload.digest(out, result)
    checks.extend(tracer.checks)
    checks.append(("traced digest equals untraced digest",
                   digest_traced == digest_untraced))

    defects = workload.known_defects(out)
    layer = tracer.layer_metrics()
    layer["cli.fit.budget_gap"] = defects.get("budget_gap", 0.0)
    layer["proc.cpu_s"] = cpu_s

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    spans_path = os.path.join(ROOT, ".bench_out", f"spans-{run_id}.json")
    with open(spans_path, "w") as fh:
        json.dump({"run": run_id, "spans": tracer.spans}, fh)
    detail.update(digest=digest_untraced, known_defects=defects,
                  tracing_overhead_s=wall_traced - wall_untraced,
                  wall_s_untraced=wall_untraced, wall_s_traced=wall_traced,
                  spans_file=os.path.relpath(spans_path, ROOT))
    return {name: {"value": float(v), "unit": _unit_of(name)}
            for name, v in layer.items()}


def _unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return {"gibbs.kernel.flops_computed": "flop",
            "gibbs.kernel.bytes_computed": "B",
            "cli.bytes_written": "B",
            "smc.acceptance": "fraction",
            "smc.min_ess": "particles",
            "cli.fit.budget_gap": "tol"}.get(name, "count")


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        workloads, import_s = _import_program()
    except ImportError as exc:
        print(f"run_bench: cannot import the program from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work = os.path.join(ROOT, ".bench_work", run_id)
    checks: list = []
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    try:
        if args.trace:
            metrics = _measure_traced(workload, args.seed, work, run_id,
                                      checks, detail)
        else:
            metrics = _measure(workload, args.seed, args.seconds, work,
                               import_s, checks, detail)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = Counter(name for name, _ in checks)
    failed = Counter(name for name, ok in checks if not ok)
    detail["checks"] = {name: {"attempted": n, "failed": failed[name]}
                        for name, n in attempted.items()}
    detail["machine"] = _metadata(args.seed)
    n_failed = sum(failed.values())
    print(json.dumps(detail))
    print(json.dumps({"correct": n_failed == 0, "attempted": len(checks),
                      "failed": n_failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
