"""The benchmark tracer must still find every function it swaps by name.

bench/tracing.py rebinds program functions, methods and writers by their
attribute names.  A rename or removal in the program would otherwise show
only in the slow benchmark tests, so this installs and removes the tracer.
"""

import importlib.util
import os

from pbpolicy import cli

_TRACING = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_removes_cleanly():
    tracing = _load_tracing()
    originals = {(owner, attr): owner.__dict__[attr]
                 for owner, attr, _ in tracing._REBIND + tracing._METHODS}
    originals.update({(cli, attr): cli.__dict__[attr]
                      for attr in tracing._WRITERS})
    tracer = tracing.Tracer("t")
    try:
        tracer.install()
        assert all(owner.__dict__[attr] is not fn
                   for (owner, attr), fn in originals.items())
    finally:
        tracer.remove()
    assert all(owner.__dict__[attr] is fn
               for (owner, attr), fn in originals.items())


def test_traced_program_keeps_the_call_shapes_the_tracer_reads(tmp_path):
    # the tracer reads solve_u_hat's (B, lam, evaluator) and run_smc's
    # (..., config, trace=) argument shapes; a small run of each path it
    # wraps shows a change to them here instead of in the benchmark only
    from pbpolicy import dgp, harness

    tracing = _load_tracing()
    tracer = tracing.Tracer("t")
    sim, fit = tmp_path / "sim", tmp_path / "fit"
    codes = []
    tracer.install()
    try:
        codes.append(cli.main(["simulate", "--dgp", "dgp1", "--n", "200",
                               "--seed", "11", "--out", str(sim)]))
        codes.append(cli.main(["fit", str(sim / "sample.csv"),
                               "--lambda", "8", "--budget", "0.45",
                               "--particles", "40", "--seed", "0",
                               "--out", str(fit)]))
        for mode in ("prob", "mv", "sample"):
            codes.append(cli.main(["score", str(fit / "rule.json"),
                                   str(sim / "sample.csv"), "--mode", mode,
                                   "--out", str(tmp_path / mode)]))
        harness.run_study(
            dgp.DGPSpec("DGP1", 0, 60), 1,
            harness.GridSpec(u_grid=[0.0, 0.8], lambda_grid=[4.0, 8.0]),
            harness.StudyConfig(particles=30, n_test=100, n_bins=3))
    finally:
        tracer.remove()
    assert codes == [0] * 5
    assert tracer.checks and all(ok for _, ok in tracer.checks), \
        [name for name, ok in tracer.checks if not ok]
    metrics = tracer.layer_metrics()
    for name in ("gibbs.solve_u_hat.probes", "gibbs.kernel.calls",
                 "smc.run_smc.calls"):
        assert metrics[name] > 0, name
