"""Budget-penalized exponential weighting of linear threshold rules.

The posterior has density proportional to

    prior(theta) * exp[-lambda (u K_n(theta) - W_n(theta))],

where W_n and K_n are the empirical IPW welfare and cost of the rule.  The
normalized variant (the default) divides both functionals by the absolute
value of the mean welfare score, which rescales the effective inverse
temperature by it; the sign is kept, so a sample whose mean welfare score is
negative still favours rules of high welfare and low cost.  Exact
finite-grid posteriors double as oracles for the SMC sampler, and the budget
map Lambda_hat(u) with its inverse u_hat(B, lambda) lives here too, as
grid_posterior(...) @ k on a grid or tilted_weights(...) @ k on a weighted
particle cloud reweighted ("tilted") across penalties.

Every decision, welfare and cost evaluation goes through one kernel,
_block_decisions (features @ thetas.T > 0), which walks the units-by-rules
matrix in blocks of about DECISION_BLOCK_ELEMENTS entries (_blocks) and
returns the products of the decisions with the vectors it is given.
Importing this module sets numpy's OpenBLAS to one thread for the whole
process, once (_one_blas_thread): each block is too small for OpenBLAS to
split, and setting it per kernel call and restoring it was slower.
"""

from __future__ import annotations

import ctypes
import math
import os
import queue
import threading
from dataclasses import dataclass

import numpy as np

from pbpolicy.data import _BLOCK_ALIGN, IPWScores

__all__ = [
    "IsotropicNormalPrior",
    "grid_posterior",
    "tilted_weights",
    "solve_u_hat",
    "grid_kl",
    "welfare_cost_matrix",
    "InfeasibleBudgetError",
]

U_BRACKET_CAP = 2.0**20

# Entries of one block of the decision matrix (1 MB of float64): the kernel
# and the vote shares never hold more than about this many at once on each
# of their two threads.  Picked from a sweep over n in {250, 500, 1000} and
# 250-1000 particles.
DECISION_BLOCK_ELEMENTS = 2**17

# A matrix that fits in one block is cut in two, one half per thread, from
# this many entries.  On a 2-vCPU KVM host the split saved about 6% of a
# call at 90,000 entries and 15-20% at 110,000-130,000 (study size, 250
# units x 500 particles: 81 -> 68 us), and nothing, or a few us lost, near
# 70,000, where the hand-off to the helper costs what it saves.
_SPLIT_ELEMENTS = 5 * 2**14

def _openblas_libs() -> list:
    """Every OpenBLAS mapped in this process (numpy's), as a ctypes library;
    none where /proc/self/maps cannot be read."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {ln.split()[-1] for ln in maps if "openblas" in ln.lower()}
    except OSError:
        return []
    return [ctypes.CDLL(p) for p in sorted(p for p in paths
                                           if p.startswith("/"))]


def _one_blas_thread() -> None:
    """Set every OpenBLAS mapped in this process (numpy's) to one thread."""
    for lib in _openblas_libs():
        for sym in ("scipy_openblas_set_num_threads64_",
                    "openblas_set_num_threads64_", "openblas_set_num_threads"):
            if hasattr(lib, sym):
                ctypes.CFUNCTYPE(None, ctypes.c_int)((sym, lib))(1)
                break


_one_blas_thread()


class InfeasibleBudgetError(ValueError):
    """No penalty level can push the posterior cost down to the budget."""


@dataclass(frozen=True)
class IsotropicNormalPrior:
    """Mean-zero normal prior with covariance sigma^2 I_q."""

    q: int
    sigma: float

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("dimension must be >= 1")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(scale=self.sigma, size=(n, self.q))

    def log_density(self, thetas: np.ndarray) -> np.ndarray:
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        norm = -0.5 * self.q * math.log(2 * math.pi * self.sigma**2)
        return norm - 0.5 * np.sum(thetas**2, axis=1) / self.sigma**2


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a 1-D float array, bit for bit as scipy's.

    The steps are those of scipy.special.logsumexp as scipy 1.15 rewrote it,
    without its argument handling: the m entries equal to the maximum are
    split out of the shifted sum s, the result is log1p(s / m) + log(m) + max,
    and log(sum(exp(a))) stands in wherever that is not finite.  An all -inf
    input therefore returns -inf.  Earlier scipy releases compute
    log(sum(exp(a - max))) + max, whose last bits differ; hence the scipy
    floor in pyproject.toml's test extra, for the tests that compare the two.
    """
    a_max = a.max()
    out = a_max
    if np.isfinite(a_max):
        ties = a == a_max
        m = float(np.count_nonzero(ties))
        s = np.exp(np.where(ties, -np.inf, a) - a_max).sum()
        if s != 0.0:
            s = s / m
        out = np.log1p(s) + np.log(m) + a_max
    if not np.isfinite(out):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = np.log(np.exp(a).sum())
    return out


def _blocks(size: int, other: int) -> list[slice]:
    """Slices of range(size) that cut an (size, other) or (other, size)
    decision matrix into blocks of about DECISION_BLOCK_ELEMENTS entries.

    Every block but the last holds a multiple of 8 rows, and a remainder
    under 8 joins the block before it.  OpenBLAS's matrix-vector kernels sum
    rows in groups of four and a leftover row in another order, and numpy
    hands a one-row product to a dot product instead; so each row keeps the
    group and the position it has in the product over the whole matrix, and
    the blocked reductions equal the one-shot ones bit for bit.
    """
    step = max(_BLOCK_ALIGN, DECISION_BLOCK_ELEMENTS // max(other, 1)
               // _BLOCK_ALIGN * _BLOCK_ALIGN)
    cuts = list(range(0, size, step))
    if len(cuts) > 1 and size - cuts[-1] < _BLOCK_ALIGN:
        cuts.pop()
    return [slice(a, b) for a, b in zip(cuts, cuts[1:] + [size])]


try:
    _getcpu = ctypes.CDLL(None).sched_getcpu
    _getcpu.argtypes, _getcpu.restype = [], ctypes.c_int
except (AttributeError, OSError):  # a libc without sched_getcpu
    _getcpu = None


class _Helper(threading.Thread):
    """A daemon thread that walks the second half of a kernel call's blocks.

    A woken thread may be placed on its waker's CPU, where it would only
    take turns with the caller: on a 2-vCPU KVM host a 500 x 500 call took
    180 us on two threads sharing one CPU, the same as on one thread, and
    115 us with the helper kept off the caller's CPU.  So wherever the
    caller is found on one of the helper's CPUs, the helper is moved to
    the others (sched_setaffinity on the helper's own thread only).
    """

    def __init__(self):
        super().__init__(daemon=True, name="pbpolicy-kernel")
        self.cpus = None  # the CPUs the helper is kept on, once it is moved
        self.tasks = queue.SimpleQueue()

    def run(self) -> None:
        while True:
            task, done = self.tasks.get()
            try:
                task()
            except BaseException as exc:  # raised again in the caller
                done.put(exc)
            else:
                done.put(None)
            del task, done  # let go of the finished call's arrays

    def submit(self, task) -> queue.SimpleQueue:
        """Hand task to the helper; the queue returned gets None when it is
        done, or the exception it raised.  Callers on several threads may
        each move the helper; its tasks run one at a time wherever it is."""
        cpu = _getcpu() if _getcpu is not None else -1
        if cpu >= 0 and (self.cpus is None or cpu in self.cpus):
            others = os.sched_getaffinity(0) - {cpu}
            try:
                os.sched_setaffinity(self.native_id, others)
                self.cpus = others
            except (OSError, ValueError):  # e.g. others is empty
                pass
        done = queue.SimpleQueue()
        self.tasks.put((task, done))
        return done


# This process's helper: None until the first kernel call that could use
# it, then the running _Helper, or False where the kernel stays on the
# caller's thread (one CPU allowed, no thread could be started, or a study
# pool worker).  A forked child decides again rather than wait on a thread
# that was not copied.
_helper = None
_helper_lock = threading.Lock()


def _reset_helper() -> None:
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_helper)


def _two_cpus() -> bool:
    """Whether this process may run on at least two CPUs."""
    return (hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


def _one_kernel_thread() -> None:
    """Keep this process's kernel on the caller's thread.  A study's pool
    workers start with it: the two that share a one-worker study's
    penalties, and those of `study --threads k`, so that k workers run k
    kernel threads."""
    global _helper
    _helper = False


def _kernel_helper():
    """This process's _Helper, started on first use, or False."""
    global _helper
    if _helper is None:
        with _helper_lock:
            if _helper is None:
                helper = False
                if _two_cpus():
                    helper = _Helper()
                    try:
                        helper.start()
                    except RuntimeError:  # e.g. "can't start new thread"
                        helper = False
                _helper = helper
    return _helper


def _block_decisions(thetas, features, by_units: bool,
                     vectors) -> np.ndarray:
    """Products of the (n, m) decision matrix, which holds 1.0 where unit
    i's features treat under rule j (features[i] @ thetas[j] > 0), else
    0.0: row i of the array returned is decisions @ vectors[i] (n entries)
    when by_units, else vectors[i] @ decisions (m entries).  The matrix is
    walked in row blocks of the units when by_units, else in column blocks
    of the rules, and never held whole.

    Where a helper thread runs, the caller walks the first half of the
    blocks and the helper the second, each into its own buffer, which the
    caller allocates and each block overwrites; a matrix of one block and
    at least _SPLIT_ELEMENTS entries is cut into two blocks of 8-aligned
    rows first.  Each block makes the same one-thread BLAS calls on the
    same rows either way, so every output bit is that of one thread.  An
    exception in the helper's half is raised again here.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    features = np.asarray(features, dtype=float)
    n, m = features.shape[0], thetas.shape[0]
    size, other = (n, m) if by_units else (m, n)
    out = np.empty((len(vectors), size))
    rows = list(zip(vectors, out))
    blocks = _blocks(size, other)
    helper = _kernel_helper()
    if (helper and len(blocks) == 1 and n * m >= _SPLIT_ELEMENTS
            and size >= 2 * _BLOCK_ALIGN):
        half = size // 2 // _BLOCK_ALIGN * _BLOCK_ALIGN
        blocks = [slice(0, half), slice(half, size)]

    def walk(part, buffer):
        for b in part:
            th, feats = (thetas, features[b]) if by_units \
                else (thetas[b], features)
            dec = buffer[:feats.shape[0] * th.shape[0]].reshape(
                feats.shape[0], th.shape[0])
            # written as floats over the margins in place, so that the
            # products that follow do not each cast a boolean matrix
            np.matmul(feats, th.T, out=dec)
            np.greater(dec, 0.0, out=dec, casting="unsafe")
            for vector, row in rows:
                row[b] = dec @ vector if by_units else vector @ dec

    def widest(part):
        return max((b.stop - b.start for b in part), default=0) * other

    if not helper or len(blocks) < 2:
        walk(blocks, np.empty(widest(blocks)))
        return out
    cut = (len(blocks) + 1) // 2
    mine, theirs = blocks[:cut], blocks[cut:]
    # one allocation for both buffers: glibc hands a freed chunk of this
    # size back to the next call, where two freed 1 MB chunks were returned
    # to the system and faulted in again on every call
    buffers = np.empty(widest(mine) + widest(theirs))
    my_buffer, their_buffer = np.split(buffers, [widest(mine)])
    done = helper.submit(lambda: walk(theirs, their_buffer))
    try:
        walk(mine, my_buffer)
    finally:
        # the helper writes into this call's arrays: wait for it even when
        # the caller's half failed
        failure = done.get()
    if failure is not None:
        raise failure
    return out


def _check_aligned(scores: IPWScores, features) -> None:
    if np.shape(features)[0] != scores.n:
        raise ValueError("scores and features have mismatched lengths")


def welfare_cost_matrix(thetas: np.ndarray, scores: IPWScores,
                        features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical welfare and cost of each row of thetas, as two (m,) arrays.

    The rules are walked in column blocks (_blocks), so no call holds the
    whole (n, m) decision matrix.
    """
    _check_aligned(scores, features)
    w, k = _block_decisions(thetas, features, False,
                            (scores.delta_y, scores.delta_c)) / scores.n
    return w, k


def _scaled(lam: float, normalized: bool, scores: IPWScores) -> float:
    # normalized variant divides W_n and K_n by |mean welfare score|, which
    # is the same as scaling lambda by 1/|mean_delta_y|; dividing by a
    # negative mean would turn the posterior upside down
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    if not normalized:
        return lam
    if scores.mean_delta_y == 0.0:
        raise ValueError("normalized variant undefined: mean welfare score is zero")
    return lam / abs(scores.mean_delta_y)


def _check_penalty(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be non-negative, got {value}")


def grid_posterior(grid, prior_masses, lam: float, u: float,
                   scores: IPWScores, features,
                   normalized: bool = True) -> np.ndarray:
    """Exact Gibbs posterior on a finite grid of rules: the probability of
    each grid row at inverse temperature lam and penalty u."""
    _check_penalty("u", u)
    if len(grid) == 0:
        raise ValueError("grid is empty")
    thetas = np.vstack(grid).astype(float)
    pm = np.asarray(prior_masses, dtype=float)
    if pm.shape[0] != thetas.shape[0]:
        raise ValueError("prior masses not aligned with the grid")
    if not np.all(pm > 0):
        raise ValueError("prior masses must be positive")
    if not abs(pm.sum() - 1.0) <= 1e-8:
        raise ValueError("prior masses must sum to 1")
    w, k = welfare_cost_matrix(thetas, scores, features)
    logw = np.log(pm) + _scaled(lam, normalized, scores) * (w - u * k)
    return np.exp(logw - _logsumexp(logw))


def tilted_weights(weights, costs, lam: float, u_from: float, u: float,
                   scores: IPWScores, normalized: bool = True) -> np.ndarray:
    """Reweight a cloud that targets the posterior at (lam, u_from) to target
    the posterior at (lam, u).

    Only the penalty term of the exponent moves, so each weight is multiplied
    by exp[-lam (u - u_from) K_n(theta_j)], with lambda scaled as the variant
    scales it, and the weights are renormalized.  costs are the raw empirical
    costs K_n of the cloud's members.  At u = u_from the weights come back
    unchanged.

    The tilted cost u -> tilted_weights(...) @ costs has derivative
    -lam Var_u(K_n) <= 0 (lambda scaled as above), so it is non-increasing
    whatever the Monte Carlo error of the cloud, and strictly decreasing
    unless every weighted member has the same cost: solve_u_hat can invert
    it by bisection.
    """
    weights = np.asarray(weights, dtype=float)
    scale = _scaled(lam, normalized, scores)
    _check_penalty("u_from", u_from)
    _check_penalty("u", u)
    if u == u_from:
        return weights.copy()
    with np.errstate(divide="ignore"):
        logw = np.log(weights) - scale * (u - u_from) * np.asarray(costs, float)
    return np.exp(logw - _logsumexp(logw))


def solve_u_hat(B: float, lam: float, posterior_evaluator,
                tolerance: float = 1e-10) -> float:
    """Smallest penalty whose posterior cost meets the budget.

    Returns 0 when the unpenalized posterior is already within budget, else
    the root of Lambda_hat(u) = B.  The curve is strictly decreasing, so a
    doubling bracket followed by bisection suffices; the stopping rule is on
    the curve value, |Lambda_hat(u) - B| <= tolerance.  A curve that jumps
    across the budget instead raises RuntimeError as soon as its bracket can
    no longer be split.  A budget that is not a finite number raises
    ValueError.
    """
    if not math.isfinite(B):
        raise ValueError(f"budget must be a finite number, got {B!r}")
    val0 = float(posterior_evaluator(lam, 0.0))
    if val0 <= B:
        return 0.0
    lo, val_lo = 0.0, val0
    hi = 1.0
    val_hi = float(posterior_evaluator(lam, hi))
    while val_hi >= B:
        if hi >= U_BRACKET_CAP:
            raise InfeasibleBudgetError(
                f"posterior cost stays above the budget {B} out to u={hi:g}")
        lo, val_lo = hi, val_hi
        hi *= 2.0
        val_hi = float(posterior_evaluator(lam, hi))
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            raise RuntimeError(
                f"budget inversion cannot reach tolerance {tolerance:g}: the "
                f"bracket [{lo!r}, {hi!r}] cannot be split further, and the "
                f"posterior cost jumps from {val_lo!r} to {val_hi!r} across "
                f"the budget {B!r}")
        val = float(posterior_evaluator(lam, mid))
        if abs(val - B) <= tolerance:
            return mid
        if val > B:
            lo, val_lo = mid, val
        else:
            hi, val_hi = mid, val


def grid_kl(p, prior_masses) -> float:
    """KL divergence between two distributions on the same finite grid."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(prior_masses, dtype=float)
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))
