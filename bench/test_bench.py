"""Self-checks of the benchmark itself.

    python3 -m pytest bench/test_bench.py

Every workload runs traced twice on one seed, and untraced on a second seed.
Counts must repeat exactly, traced outputs must match untraced ones, and
without the program's sources the benchmark must fail without a result.
About three minutes on a 2-core machine.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("study_rep", "fit_budget", "deploy")

# counts made by the program's layers; each must repeat exactly on one seed
COUNTS = (
    "gibbs.kernel.calls", "gibbs.kernel.evals", "gibbs.kernel.flops_computed",
    "gibbs.kernel.bytes_computed", "gibbs.solve_u_hat.probes",
    "smc.run_smc.calls", "smc.stages", "smc.resamples",
    "rules.vote.units", "rules.batch_assign.assignments",
    "data.feature_transform.rows", "dgp.generate.calls", "dgp.generate.units",
)


def _run(workload, seed, trace, root=ROOT):
    got = subprocess.run(
        [sys.executable, os.path.join(root, "bench", "run_bench.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600)
    return got


def _result(got):
    assert got.returncode == 0, got.stderr
    lines = got.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_on_one_seed(workload):
    runs = [_result(_run(workload, 7, 1)) for _ in range(2)]
    for detail, result in runs:
        assert result["correct"] and result["failed"] == 0, detail["checks"]
        assert "traced digest equals untraced digest" in detail["checks"]
    (d1, r1), (d2, r2) = runs
    assert d1["digest"] == d2["digest"]
    for name in COUNTS:
        assert r1["metrics"][name]["value"] == r2["metrics"][name]["value"], name
    assert r1["metrics"]["gibbs.kernel.calls"]["value"] > 0
    assert r1["metrics"]["smc.stages"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_untraced(workload):
    detail, result = _result(_run(workload, 8, 0))
    assert result["correct"] and result["failed"] == 0, detail["checks"]
    assert set(result["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program():
    bare = os.path.join(ROOT, ".bench_work", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        got = _run("deploy", 1, 0, root=bare)
        assert got.returncode != 0
        assert got.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
