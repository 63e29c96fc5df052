"""Spans and counters recorded around calls into the program's layers.

Only the traced run installs the tracer.  It rebinds each public function
where its caller looks it up (a module attribute, or a method on a class),
so the program itself is unchanged.  Spans stay in memory and are written
out once, when the run ends.  Each span records its name, parent, phase
(set-up or timed body) and the workload-run id; a span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import math
import os
import time
from collections import defaultdict

import numpy as np

from pbpolicy import cli, data, dgp, gibbs, harness, rules, smc

# (module, attribute, span name) for plain functions.  Each is rebound in
# every module whose code calls it by that name.
_REBIND = [
    (harness, "run_study", "harness.run_study"),
    (harness, "oracle_ratio_baseline", "harness.baselines"),
    (harness, "oracle_cate_baseline", "harness.baselines"),
    (harness, "generate", "dgp.generate"),
    (cli, "generate", "dgp.generate"),
    (dgp, "generate", "dgp.generate"),
    (data, "ipw_transform", "data.ipw_transform"),
    (harness, "ipw_transform", "data.ipw_transform"),
    (cli, "ipw_transform", "data.ipw_transform"),
    (harness, "treat_probability", "rules.treat_probability"),
    (cli, "treat_probability", "rules.treat_probability"),
    (rules, "mv_decide", "rules.mv_decide"),
    (harness, "mv_decide", "rules.mv_decide"),
    (cli, "mv_decide", "rules.mv_decide"),
    (cli, "sample_assignments", "rules.sample_assignments"),
    (harness, "rule_empirical_cost", "rules.rule_empirical_cost"),
    (cli, "rule_empirical_cost", "rules.rule_empirical_cost"),
    (harness, "batch_assign", "rules.batch_assign"),
    (rules, "batch_assign", "rules.batch_assign"),
    (smc, "welfare_cost_matrix", "gibbs.kernel"),
    (gibbs, "welfare_cost_matrix", "gibbs.kernel"),
    (smc, "run_smc", "smc.run_smc"),
    (harness, "run_smc", "smc.run_smc"),
    (cli, "run_smc", "smc.run_smc"),
    (cli, "solve_u_hat", "gibbs.solve_u_hat"),
    (cli, "main", "cli.main"),
]

# (class, method, span name) for methods the layers call on objects
_METHODS = [
    (gibbs.IsotropicNormalPrior, "log_density", "gibbs.prior"),
    (data.PolyFeatureMap, "transform", "data.feature_transform"),
]

# cli's writers; counted for cli.bytes_written, not given spans
_WRITERS = ["_write_csv", "_write_atomic"]


def _rows(x) -> int:
    return int(np.atleast_2d(np.asarray(x)).shape[0])


class Tracer:
    """In-memory spans, counters and output checks for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.phase = "setup"
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.min_ess = math.inf
        self.checks: list[tuple[str, bool]] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name, "run": self.run_id,
                "phase": self.phase,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def _call(self, name, fn, args, kwargs):
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def check(self, name: str, ok: bool) -> None:
        self.checks.append((name, bool(ok)))

    # -- per-layer counters and checks, run after each wrapped call ---------

    def _after(self, name: str, args, result) -> None:
        c = self.counts
        if name == "gibbs.kernel":
            m, q = np.atleast_2d(np.asarray(args[0])).shape
            n = _rows(args[2])
            c["gibbs.kernel.evals"] += n * m
            # features @ thetas.T, the > 0 test, then two (n,) @ (n, m)
            # reductions; bytes are the arrays each step reads and writes
            c["gibbs.kernel.flops_computed"] += 2 * n * m * q + n * m + 4 * n * m
            c["gibbs.kernel.bytes_computed"] += (
                8 * (n * q + m * q) + 8 * n * m      # matmul in, out
                + 8 * n * m + n * m                  # compare in, out
                + 2 * (8 * n + n * m + 8 * m))       # two reductions
        elif name == "dgp.generate":
            c["dgp.generate.units"] += int(args[0].n)
        elif name == "data.feature_transform":
            c["data.feature_transform.rows"] += _rows(args[1])
        elif name in ("rules.treat_probability", "rules.mv_decide",
                      "rules.sample_assignments"):
            x = args[1]
            c["rules.vote.units"] += _rows(x)
            values = np.atleast_1d(np.asarray(result, dtype=float))
            if name == "rules.treat_probability":
                self.check("vote shares lie in [0, 1]",
                           np.all((values >= 0.0) & (values <= 1.0)))
            else:
                self.check(f"{name} returns 0/1",
                           np.all((values == 0.0) | (values == 1.0)))
        elif name == "rules.rule_empirical_cost":
            c["rules.vote.units"] += _rows(args[2])
        elif name == "rules.batch_assign":
            candidates, by_u = args[0], args[1]
            c["rules.vote.units"] += candidates.n * len(by_u)
            c["rules.batch_assign.assignments"] += len(result.assignment_log)
            self.check("batch bin cost <= its edge",
                       all(cost <= edge + 1e-9 for edge, cost in
                           zip(result.bin_edges, result.realized_cost_by_bin)))
        elif name == "smc.run_smc":
            ok = all(abs(float(p.weights.sum()) - 1.0) <= 1e-10
                     and float(p.weights.min()) >= 0.0
                     for p in result.values())
            self.check("particle weights sum to 1", ok)

    def _record_stages(self, stages: list, n_particles: int, mh_steps: int):
        c = self.counts
        c["smc.stages"] += len(stages)
        c["smc.resamples"] += sum(1 for s in stages if s["resampled"])
        c["smc.accepted"] += sum(s["acceptance"] for s in stages) \
            * n_particles * mh_steps
        c["smc.proposed"] += len(stages) * n_particles * mh_steps
        if stages:
            self.min_ess = min(self.min_ess, min(s["ess"] for s in stages))

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        if name == "smc.run_smc":
            return self._wrap_run_smc(fn)
        if name == "gibbs.solve_u_hat":
            return self._wrap_solve_u_hat(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self._call(name, fn, args, kwargs)
            self._after(name, args, result)
            return result
        return wrapper

    def _wrap_run_smc(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # run_smc(scores, features, prior, ladder, config,
            #         prior_sampler=None, trace=None); its docstring says a
            # trace draws nothing from the RNG, and the traced-vs-untraced
            # digest check holds it to that
            if len(args) > 6:
                stages = args[6]
            else:
                stages = kwargs.get("trace")
                if stages is None:
                    stages = kwargs["trace"] = []
            before = len(stages)
            result = self._call("smc.run_smc", fn, args, kwargs)
            config = args[4] if len(args) > 4 else kwargs["config"]
            self._record_stages(stages[before:], config.n_particles,
                                config.mh_steps_per_stage)
            self._after("smc.run_smc", args, result)
            return result
        return wrapper

    def _wrap_solve_u_hat(self, fn):
        @functools.wraps(fn)
        def wrapper(B, lam, posterior_evaluator, *args, **kwargs):
            def probe(lam_value, u_value):
                self.counts["gibbs.solve_u_hat.probes"] += 1
                return posterior_evaluator(lam_value, u_value)
            return self._call("gibbs.solve_u_hat", fn,
                              (B, lam, probe) + args, kwargs)
        return wrapper

    def _wrap_writer(self, fn):
        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            result = fn(path, *args, **kwargs)
            self.counts["cli.bytes_written"] += os.path.getsize(path)
            return result
        return wrapper

    # -- install / remove ----------------------------------------------------

    def install(self) -> None:
        for module, attr, name in _REBIND:
            self._swap(module, attr, self._wrap(name, getattr(module, attr)))
        for cls, attr, name in _METHODS:
            self._swap(cls, attr, self._wrap(name, cls.__dict__[attr]))
        for attr in _WRITERS:
            self._swap(cli, attr, self._wrap_writer(getattr(cli, attr)))

    def _swap(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def remove(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    # -- aggregation -----------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time covered by its children.

        The program runs on one thread, so children of one span never
        overlap and their durations add up to the time they cover.
        """
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer numbers, summed over every span of the run."""
        busy: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        own: dict[str, float] = defaultdict(float)
        self_time = self.self_times()
        for s in self.spans:
            busy[s["name"]] += s["end"] - s["start"]
            calls[s["name"]] += 1
            own[s["name"]] += self_time[s["id"]]
        c = self.counts
        proposed = c["smc.proposed"]
        return {
            "gibbs.kernel.calls": calls["gibbs.kernel"],
            "gibbs.kernel.busy_s": busy["gibbs.kernel"],
            "gibbs.kernel.evals": c["gibbs.kernel.evals"],
            "gibbs.kernel.flops_computed": c["gibbs.kernel.flops_computed"],
            "gibbs.kernel.bytes_computed": c["gibbs.kernel.bytes_computed"],
            "gibbs.prior.busy_s": busy["gibbs.prior"],
            "gibbs.solve_u_hat.probes": c["gibbs.solve_u_hat.probes"],
            "gibbs.solve_u_hat.busy_s": busy["gibbs.solve_u_hat"],
            "smc.run_smc.calls": calls["smc.run_smc"],
            "smc.run_smc.busy_s": busy["smc.run_smc"],
            "smc.run_smc.self_s": own["smc.run_smc"],
            "smc.stages": c["smc.stages"],
            "smc.resamples": c["smc.resamples"],
            "smc.acceptance": c["smc.accepted"] / proposed if proposed else 0.0,
            "smc.min_ess": self.min_ess if proposed else 0.0,
            "rules.treat_probability.busy_s": busy["rules.treat_probability"],
            "rules.mv_decide.busy_s": busy["rules.mv_decide"],
            "rules.sample_assignments.busy_s": busy["rules.sample_assignments"],
            "rules.rule_empirical_cost.busy_s": busy["rules.rule_empirical_cost"],
            "rules.batch_assign.busy_s": busy["rules.batch_assign"],
            "rules.vote.units": c["rules.vote.units"],
            "rules.batch_assign.assignments": c["rules.batch_assign.assignments"],
            "data.ipw_transform.busy_s": busy["data.ipw_transform"],
            "data.feature_transform.busy_s": busy["data.feature_transform"],
            "data.feature_transform.rows": c["data.feature_transform.rows"],
            "dgp.generate.calls": calls["dgp.generate"],
            "dgp.generate.busy_s": busy["dgp.generate"],
            "dgp.generate.units": c["dgp.generate.units"],
            "harness.run_study.busy_s": busy["harness.run_study"],
            "harness.self_s": own["harness.run_study"],
            "harness.baselines.busy_s": busy["harness.baselines"],
            "cli.self_s": own["cli.main"],
            "cli.bytes_written": c["cli.bytes_written"],
        }
