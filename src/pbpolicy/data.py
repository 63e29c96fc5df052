"""Data model, the polynomial feature map, the inverse propensity weighted
scores consumed by every other module, the weighted particle cloud, and
every file form the package reads or writes.

Scores are the per-unit transforms

    delta_y_i = Y_i D_i / e(X_i) - Y_i (1 - D_i) / (1 - e(X_i)),

and analogously delta_c_i with the cost C_i.  A linear threshold policy treats
when phi(x)' theta > 0 (strict; ties assign no treatment), so all empirical
functionals are scale invariant in theta.

CSV input is read by one block reader (_csv_blocks): it checks the header
once, then parses CSV_BLOCK_ROWS rows at a time.  load_sample_csv joins the
blocks into a Sample; `pbpolicy score` scores and writes each block before
it reads the next, so its memory holds one block whatever the number of
units.  _sample_csv lays a Sample out as the CSV load_sample_csv reads.

Two JSON documents are versioned, bound reports (save) and fitted rules
(save_rule, load_rule): each carries a schema version, and loading another
version is a hard error.  Floats pass through Python's shortest round-trip
decimal form, so values survive a save/load cycle bit for bit.  Every
output file is written to a temporary file in the target directory, then
renamed over its target (_open_atomic).
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

__all__ = [
    "Sample",
    "IPWScores",
    "PolyFeatureMap",
    "ipw_transform",
    "poly_feature_map",
    "WeightedParticles",
    "load_sample_csv",
    "SCHEMA_VERSION",
    "save",
    "save_rule",
    "load_rule",
]

# Rows in one block of a CSV read: `score` holds about this many covariate
# rows, as text and as features, at a time.  A multiple of _BLOCK_ALIGN.
CSV_BLOCK_ROWS = 2048
# Row blocks of the covariates and of the decision matrix start on multiples
# of this many rows, and a remainder of fewer rows joins the block before it
# (gibbs._blocks says why).
_BLOCK_ALIGN = 8

# The top of every tempering ladder (smc), so the largest lam a rule file
# may hold.
LAMBDA_CAP = 1024.0

SCHEMA_VERSION = 1
_BOUNDS_KIND = "bound_report"
_RULE_KIND = "fitted_rule"


@dataclass
class Sample:
    """An i.i.d. collection of observations with the known propensity e of
    each unit.

    `m_y` and `m_c` are optional declared outcome/cost bounds (|y| <= m_y/2,
    |c| <= m_c/2); operations that need them refuse to run when they are
    absent rather than estimating them from data.
    """

    y: np.ndarray
    c: np.ndarray
    d: np.ndarray
    x: np.ndarray  # shape (n, d_x)
    e: np.ndarray
    kappa: float
    m_y: Optional[float] = None
    m_c: Optional[float] = None

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.c = np.asarray(self.c, dtype=float)
        self.d = np.asarray(self.d)
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        self.e = np.asarray(self.e, dtype=float)
        n = self.y.shape[0]
        if n == 0:
            raise ValueError("sample is empty")
        if not (self.c.shape[0] == self.d.shape[0] == self.x.shape[0]
                == self.e.shape[0] == n):
            raise ValueError("sample columns have mismatched lengths")
        columns = {"y": self.y, "c": self.c, "e": self.e}
        columns.update((f"x{j + 1}", col) for j, col in enumerate(self.x.T))
        for name, col in columns.items():
            _check_finite(col, f"sample column {name!r}")
        if not np.isin(self.d, (0, 1)).all():
            raise ValueError("treatment indicator column must be 0/1")
        if not (0.0 < self.kappa < 0.5):
            raise ValueError(f"kappa must lie in (0, 1/2), got {self.kappa}")
        e = self.e
        if np.any(e < self.kappa - 1e-12) or np.any(e > 1 - self.kappa + 1e-12):
            raise ValueError("a propensity lies outside [kappa, 1-kappa] "
                             "on the sample")
        if self.m_y is not None and np.any(np.abs(self.y) > self.m_y / 2 + 1e-12):
            raise ValueError("outcome magnitude exceeds declared m_y/2")
        if self.m_c is not None and np.any(np.abs(self.c) > self.m_c / 2 + 1e-12):
            raise ValueError("cost magnitude exceeds declared m_c/2")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    def subset(self, idx: np.ndarray) -> "Sample":
        return Sample(self.y[idx], self.c[idx], self.d[idx], self.x[idx],
                      self.e[idx], self.kappa, self.m_y, self.m_c)


@dataclass(frozen=True)
class IPWScores:
    """Per-unit welfare and cost scores."""

    delta_y: np.ndarray
    delta_c: np.ndarray

    @property
    def n(self) -> int:
        return self.delta_y.shape[0]

    @property
    def mean_delta_y(self) -> float:
        return float(np.mean(self.delta_y))


def ipw_transform(sample: Sample) -> IPWScores:
    """Inverse propensity weighted per-unit scores of a sample.

    Raises if declared bounds m_y/m_c are contradicted by the implied score
    bounds.  The sample has already checked its propensities' overlap.
    """
    e = sample.e
    d = sample.d.astype(float)
    dy = sample.y * d / e - sample.y * (1 - d) / (1 - e)
    dc = sample.c * d / e - sample.c * (1 - d) / (1 - e)
    if sample.m_y is not None:
        cap = sample.m_y / (2 * sample.kappa) + 1e-9
        if np.any(np.abs(dy) > cap):
            raise ValueError("welfare score exceeds m_y/(2 kappa)")
    if sample.m_c is not None:
        cap = sample.m_c / (2 * sample.kappa) + 1e-9
        if np.any(np.abs(dc) > cap):
            raise ValueError("cost score exceeds m_c/(2 kappa)")
    return IPWScores(dy, dc)


@dataclass
class PolyFeatureMap:
    """All monomials of the covariates up to a total degree, optionally
    centered and scaled by training statistics.

    The constant monomial is exempt from normalization (its sd is zero); any
    other monomial with sd below 1e-12 on the fitting data is an error.
    means and sds are both None, or both one finite value per monomial,
    the sds positive.
    """

    degree: int
    d_x: int
    exponents: np.ndarray = field(repr=False)  # (q, d_x) int
    means: Optional[np.ndarray] = None
    sds: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.means is None and self.sds is None:
            return
        self.means = np.asarray(self.means, dtype=float)
        self.sds = np.asarray(self.sds, dtype=float)
        q = self.dimension
        if (self.means.shape != (q,) or self.sds.shape != (q,)
                or not np.isfinite([self.means, self.sds]).all()
                or np.any(self.sds <= 0)):
            raise ValueError(f"feature map means and sds must each hold {q} "
                             f"finite values, the sds positive")

    @property
    def dimension(self) -> int:
        return self.exponents.shape[0]

    def raw(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.d_x:
            raise ValueError(f"expected {self.d_x} covariates, got {x.shape[1]}")
        # monomial j is prod_k x[:, k] ** exponents[j, k], multiplied left
        # to right into one (n, q) array.  Each covariate's powers come as
        # an (n, q) block whose exponent varies along the row, so numpy runs
        # its array power loop at every d_x; a power per monomial column
        # would broadcast one exponent down the column when d_x = 1, and
        # numpy squares such an exponent of 2 by a multiplication, which can
        # differ from the power loop in the last bit.
        out = x[:, :1] ** self.exponents[:, 0]
        power = np.empty_like(out)
        for k in range(1, self.d_x):
            out *= np.power(x[:, k:k + 1], self.exponents[:, k], out=power)
        return out

    def fit_normalization(self, x_train: np.ndarray) -> "PolyFeatureMap":
        m = self.raw(x_train)
        if m.shape[0] < 2:
            raise ValueError(f"need at least 2 rows to normalize the "
                             f"features, got {m.shape[0]}")
        means = m.mean(axis=0)
        sds = m.std(axis=0, ddof=1)
        const = (self.exponents == 0).all(axis=1)
        means[const] = 0.0
        sds[const] = 1.0
        if np.any(sds[~const] < 1e-12):
            raise ValueError("a non-constant monomial has (near) zero sd on the fitting data")
        return replace(self, means=means, sds=sds)

    def transform(self, x: np.ndarray) -> np.ndarray:
        m = self.raw(x)
        if self.means is None:
            return m
        return (m - self.means) / self.sds


def poly_feature_map(degree: int, d_x: int) -> PolyFeatureMap:
    """Monomial feature map of all total degrees 0..degree in d_x covariates.

    Ordered by total degree, then lexicographically within a degree, so the
    layout is stable: constant first, then linears, then quadratics, ...
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if d_x < 1:
        raise ValueError("d_x must be >= 1")
    rows = []
    for total in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(d_x), total):
            exps = np.zeros(d_x, dtype=int)
            for j in combo:
                exps[j] += 1
            rows.append(exps)
    return PolyFeatureMap(degree=degree, d_x=d_x, exponents=np.array(rows, dtype=int))


@dataclass
class WeightedParticles:
    """A weighted particle cloud harvested at one ladder step."""

    thetas: np.ndarray  # (N, q)
    weights: np.ndarray  # (N,), sum to 1
    step_index: int
    lam: float
    u: float
    seed: int

    def __post_init__(self):
        self.thetas = np.atleast_2d(np.asarray(self.thetas, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float)
        if self.n_particles < 2:
            raise ValueError("need at least 2 particles")
        if self.weights.shape != (self.n_particles,):
            raise ValueError("weights not aligned with particles")
        if not np.isfinite(self.thetas).all():
            raise ValueError("thetas must be finite")
        if not np.all(self.weights >= 0):
            raise ValueError("weights must be non-negative")
        if abs(self.weights.sum() - 1.0) > 1e-10:
            raise ValueError("weights must sum to 1")

    @property
    def n_particles(self) -> int:
        return self.thetas.shape[0]

    @property
    def q(self) -> int:
        return self.thetas.shape[1]


def load_sample_csv(path, propensity_const: Optional[float] = None,
                    kappa: Optional[float] = None,
                    m_y: Optional[float] = None,
                    m_c: Optional[float] = None) -> Sample:
    """Read a sample from CSV with header columns y, c, d, x1..x_k and an
    optional propensity column e.  When no e column exists, a constant
    propensity must be supplied.  Every value read must be finite.
    """
    blocks = list(_csv_blocks(path, required=("y", "c", "d"),
                              optional=("e",)))
    cols = {name: np.concatenate([b[name] for b in blocks])
            for name in blocks[0]}
    if "e" in cols:
        e = cols["e"]
    elif propensity_const is not None:
        e = np.full(len(cols["y"]), float(propensity_const))
    else:
        raise ValueError(f"{path}: no e column and no constant propensity given")
    if kappa is None:
        lo = float(min(e.min(), 1 - e.max()))
        kappa = min(lo, 0.49)
        if kappa <= 0:
            raise ValueError("propensities leave no room for a positive kappa")
    return Sample(cols["y"], cols["c"], cols["d"], cols["x"], e, kappa,
                  m_y=m_y, m_c=m_c)


def _sample_csv(sample: Sample) -> tuple:
    """The CSV that load_sample_csv reads back as sample: the header
    y,c,d,x1..xk,e and blocks of CSV_BLOCK_ROWS rows of string cells."""
    header = (["y", "c", "d"]
              + [f"x{j + 1}" for j in range(sample.x.shape[1])] + ["e"])
    columns = [(_fmt, sample.y), (_fmt, sample.c),
               (str, sample.d.astype(int)),
               *((_fmt, x) for x in sample.x.T), (_fmt, sample.e)]
    blocks = (zip(*(map(fmt, col[lo:lo + CSV_BLOCK_ROWS].tolist())
                    for fmt, col in columns))
              for lo in range(0, sample.n, CSV_BLOCK_ROWS))
    return header, blocks


def _csv_blocks(path, required=(), optional=()):
    """Yield the float columns of a CSV one block of rows at a time.

    Each block is a dict: "x" holds the block's covariates (the columns
    x1..xk, in index order), and each required column and each optional one
    the header holds is a 1-D array under its own name.  The header is
    checked when the first block is asked for: the file is not empty, no
    name repeats, the required columns are present, the covariates are x1..xk.

    Every block holds CSV_BLOCK_ROWS rows but the last, and a remainder of
    fewer than _BLOCK_ALIGN rows joins the block before it, as gibbs._blocks
    cuts the decision matrix; so a caller that scores block by block meets
    the same matrix-vector products as one call over every row.  Empty
    lines are skipped.  One np.loadtxt call parses a block; a block it
    rejects, or whose columns hold a non-finite value, is read again row by
    row (_parse_rows), which names the fault or, when it lies only in
    columns the caller does not take, returns the block.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty CSV")
        repeated = [c for i, c in enumerate(header) if c in header[:i]]
        if repeated:
            raise ValueError(f"{path}: column {repeated[0]!r} appears more "
                             f"than once")
        for name in required:
            if name not in header:
                raise ValueError(f"{path}: missing column {name!r}")
        xnames = [c for c in header if c.startswith("x") and c[1:].isdigit()]
        xcols = [f"x{k}" for k in range(1, len(xnames) + 1)]
        if not xcols:
            raise ValueError(f"{path}: no covariate columns x1..xk found")
        odd = [c for c in xnames if c not in xcols]
        if odd:
            raise ValueError(f"{path}: unexpected covariate column {odd[0]!r}")
        named = [*required, *(c for c in optional if c in header)]
        # the columns taken, in the order their faults are reported
        used = [header.index(c) for c in (*xcols, *named)]

        def parse(lines, rows, first) -> dict:
            try:
                table = np.loadtxt(lines, delimiter=",", quotechar='"',
                                   comments=None, ndmin=2)
            except ValueError:
                table = None
            if (table is None or table.shape != (rows, len(header))
                    or not np.isfinite(table[:, used]).all()):
                table = _parse_rows(path, header, used, lines, first)
            block = {"x": table[:, used[:len(xcols)]]}
            block.update((name, table[:, j])
                         for name, j in zip(named, used[len(xcols):]))
            return block

        # the line number of the block's first line: the blocks keep their
        # empty lines, so that a row's line number is its place in the file
        first = reader.line_num + 1
        lines, rows = _read_rows(fh, CSV_BLOCK_ROWS)
        if not rows:
            raise ValueError(f"{path}: no data rows")
        while rows:
            ahead, more = _read_rows(fh, CSV_BLOCK_ROWS)
            if more < _BLOCK_ALIGN:
                lines, rows, ahead, more = lines + ahead, rows + more, [], 0
            yield parse(lines, rows, first)
            first += len(lines)
            lines, rows = ahead, more


# the lines csv.reader reads as no row
_EMPTY_LINES = ("\n", "\r\n", "\r")


def _read_rows(fh, n: int) -> tuple:
    """The lines of fh up to its n-th non-empty line, or to its end, and
    the number of non-empty lines among them."""
    lines, rows = [], 0
    while rows < n and (more := list(itertools.islice(fh, n - rows))):
        lines += more
        rows += len(more) - sum(map(more.count, _EMPTY_LINES))
    return lines, rows


def _parse_rows(path, header: list, used: list, lines: list,
                first: int) -> np.ndarray:
    """A block's table read row by row, as csv.reader splits the lines and
    np.loadtxt reads a cell; the columns not in used are NaN.

    A ValueError names the file and the first fault: the line of a row
    whose width is not the header's; else, column by column in used's
    order, a cell that is not a number or a value that is not finite.
    """
    reader = csv.reader(lines)
    rows = []
    for row in reader:
        if not row:
            continue
        if len(row) != len(header):
            raise ValueError(f"{path}: line {first - 1 + reader.line_num} "
                             f"has {len(row)} fields, the header has "
                             f"{len(header)}")
        rows.append(row)
    table = np.full((len(rows), len(header)), np.nan)
    for j in used:
        cell = None
        try:
            # one pass; cell holds the value being parsed when it fails
            table[:, j] = [_cell_value(cell := r[j]) for r in rows]
        except ValueError:
            raise ValueError(f"{path}: column {header[j]!r} holds a "
                             f"non-numeric value {cell!r}") from None
        _check_finite(table[:, j], f"{path}: column {header[j]!r}")
    return table


def _cell_value(cell: str) -> float:
    # np.loadtxt's grammar: what float() takes, but for digit separators
    # and non-ASCII characters other than the whitespace around the number
    if "_" in cell or not cell.strip().isascii():
        raise ValueError(cell)
    return float(cell)


def _check_finite(values: np.ndarray, what: str) -> None:
    if not np.isfinite(values).all():
        raise ValueError(f"{what} holds a non-finite value")


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
            step_index=_json_int(cloud, "step_index"),
            lam=_json_float(cloud, "lam", lambda v: 0.0 < v <= LAMBDA_CAP,
                            f"in (0, {LAMBDA_CAP:g}]"),
            u=_json_float(cloud, "u", lambda v: v >= 0.0, ">= 0"),
            seed=_json_int(cloud, "seed"),
        )
        if type(payload["normalized"]) is not bool:
            raise ValueError("normalized must be true or false, not "
                             f"{payload['normalized']!r}")
        fm = payload["feature_map"]
        fmap = poly_feature_map(_json_int(fm, "degree"), _json_int(fm, "d_x"))
        if particles.q != fmap.dimension:
            raise ValueError("particle dimension does not match the "
                             "feature map")
        fmap = replace(fmap, means=fm.get("means"), sds=fm.get("sds"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path} holds an inconsistent rule payload: {exc}") from exc
    return particles, fmap


def _json_float(doc: dict, key: str, ok, where: str) -> float:
    """doc[key], a field the rule format types as float: a JSON number (not
    a bool or a string) that is finite as a float and for which ok holds;
    where says what ok asks."""
    value = doc[key]
    try:
        number = float(value) if type(value) in (int, float) else math.nan
    except OverflowError:  # an integer past the largest float
        number = math.inf
    if not (math.isfinite(number) and ok(number)):
        raise ValueError(f"{key} must be a finite number {where}, not "
                         f"{value!r}")
    return number


def _json_int(doc: dict, key: str) -> int:
    """doc[key], a field the rule format types as int: a JSON integer (not
    a bool, a float or a string) in [0, 2^64)."""
    value = doc[key]
    if type(value) is not int or not 0 <= value < 2**64:
        raise ValueError(f"{key} must be an integer in [0, 2^64), not "
                         f"{value!r}")
    return value
