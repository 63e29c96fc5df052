"""Tests for the data model, IPW scores, feature maps, and welfare/cost sums."""

import re

import numpy as np
import pytest

from pbpolicy import data
from pbpolicy.data import (
    _BLOCK_ALIGN,
    CSV_BLOCK_ROWS,
    Sample,
    _csv_blocks,
    ipw_transform,
    load_sample_csv,
    poly_feature_map,
)
from pbpolicy.gibbs import welfare_cost_matrix


def two_unit_sample():
    # unit 1 treated: delta_y = 2/0.5 = 4, delta_c = 1/0.5 = 2
    # unit 2 control: delta_y = -1/0.5 = -2, delta_c = -(-1)/0.5 = 2
    return Sample(
        y=np.array([2.0, 1.0]),
        c=np.array([1.0, -1.0]),
        d=np.array([1, 0]),
        x=np.array([[1.0], [-1.0]]),
        e=np.array([0.5, 0.5]),
        kappa=0.25,
    )


def test_ipw_hand_values():
    scores = ipw_transform(two_unit_sample())
    np.testing.assert_allclose(scores.delta_y, [4.0, -2.0])
    np.testing.assert_allclose(scores.delta_c, [2.0, 2.0])
    assert scores.mean_delta_y == pytest.approx(1.0)


def test_welfare_cost_hand_values():
    sample = two_unit_sample()
    scores = ipw_transform(sample)
    feats = sample.x  # treat iff x > 0 under theta = (1,)
    theta = np.array([1.0])
    w, k = welfare_cost_matrix(theta, scores, feats)
    assert w[0] == pytest.approx(2.0)
    assert k[0] == pytest.approx(1.0)


def test_ipw_matches_direct_formula():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = rng.integers(3, 40)
        y = rng.normal(size=n)
        c = rng.normal(size=n)
        d = rng.integers(0, 2, size=n)
        x = rng.normal(size=(n, 2))
        e = rng.uniform(0.3, 0.7, size=n)
        sample = Sample(y, c, d, x, e, kappa=0.3)
        scores = ipw_transform(sample)
        for i in range(n):
            want = y[i] * d[i] / e[i] - y[i] * (1 - d[i]) / (1 - e[i])
            assert scores.delta_y[i] == pytest.approx(want)
            want_c = c[i] * d[i] / e[i] - c[i] * (1 - d[i]) / (1 - e[i])
            assert scores.delta_c[i] == pytest.approx(want_c)


def test_score_bound_holds_under_declared_limits():
    rng = np.random.default_rng(11)
    kappa, m_y, m_c = 0.2, 3.0, 1.5
    for _ in range(10):
        n = 30
        y = rng.uniform(-m_y / 2, m_y / 2, size=n)
        c = rng.uniform(-m_c / 2, m_c / 2, size=n)
        d = rng.integers(0, 2, size=n)
        x = rng.normal(size=(n, 1))
        e = rng.uniform(kappa, 1 - kappa, size=n)
        sample = Sample(y, c, d, x, e, kappa, m_y=m_y, m_c=m_c)
        scores = ipw_transform(sample)
        assert np.all(np.abs(scores.delta_y) <= m_y / (2 * kappa) + 1e-9)
        assert np.all(np.abs(scores.delta_c) <= m_c / (2 * kappa) + 1e-9)


def test_welfare_scale_invariance_and_ties():
    rng = np.random.default_rng(3)
    sample = two_unit_sample()
    scores = ipw_transform(sample)
    feats = rng.normal(size=(2, 4))
    theta = rng.normal(size=4)
    w, k = welfare_cost_matrix(theta, scores, feats)
    for scale in [1e-6, 0.5, 3.0, 1e8]:
        assert welfare_cost_matrix(scale * theta, scores, feats)[0] == w
        assert welfare_cost_matrix(scale * theta, scores, feats)[1] == k
    # strict threshold: theta = 0 treats nobody
    assert welfare_cost_matrix(np.zeros(4), scores, feats)[0] == 0.0
    assert welfare_cost_matrix(np.zeros(4), scores, feats)[1] == 0.0


def test_monomial_counts():
    assert poly_feature_map(2, 3).dimension == 10
    assert poly_feature_map(1, 1).dimension == 2
    assert poly_feature_map(2, 2).dimension == 6


def test_monomial_values_and_order():
    fm = poly_feature_map(2, 2)
    row = fm.transform(np.array([[2.0, 3.0]]))[0]
    # constant, x1, x2, x1^2, x1 x2, x2^2
    np.testing.assert_allclose(row, [1.0, 2.0, 3.0, 4.0, 6.0, 9.0])


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("d_x", [1, 3])
@pytest.mark.parametrize("n", [1, 9, 5000])
def test_monomials_equal_the_broadcast_product_bit_for_bit(degree, d_x, n):
    # DGP2's covariates take both signs; the (n, q, d_x) broadcast is the
    # reference, and its power loop is the one the features must keep
    fm = poly_feature_map(degree, d_x)
    x = np.random.default_rng(degree * 10 + d_x).normal(scale=3.0,
                                                        size=(n, d_x))
    broadcast = np.prod(x[:, None, :] ** fm.exponents[None, :, :], axis=2)
    assert fm.raw(x).tobytes() == broadcast.tobytes()


def test_normalization_statistics():
    rng = np.random.default_rng(19)
    x = rng.uniform(0, 1, size=(200, 3))
    fm = poly_feature_map(2, 3).fit_normalization(x)
    z = fm.transform(x)
    # constant column untouched
    np.testing.assert_allclose(z[:, 0], 1.0)
    np.testing.assert_allclose(z[:, 1:].mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(z[:, 1:].std(axis=0, ddof=1), 1.0, rtol=1e-12)
    # fresh points use the stored statistics, not their own
    x2 = rng.uniform(0, 1, size=(50, 3))
    raw = poly_feature_map(2, 3).transform(x2)
    np.testing.assert_allclose(fm.transform(x2), (raw - fm.means) / fm.sds)


def test_normalization_rejects_degenerate_monomial():
    x = np.ones((20, 2))  # every non-constant monomial is constant too
    with pytest.raises(ValueError, match="zero sd"):
        poly_feature_map(2, 2).fit_normalization(x)
    # one row has no sample standard deviation
    with pytest.raises(ValueError, match="need at least 2 rows to normalize"):
        poly_feature_map(2, 2).fit_normalization(np.array([[0.3, 0.7]]))


def test_sample_validation():
    ok = dict(y=np.array([1.0]), c=np.array([0.0]), d=np.array([1]),
              x=np.array([[0.0]]), e=np.array([0.5]), kappa=0.25)
    Sample(**ok)
    with pytest.raises(ValueError, match="0/1"):
        Sample(**{**ok, "d": np.array([2])})
    with pytest.raises(ValueError, match="kappa"):
        Sample(**{**ok, "kappa": 0.5})
    with pytest.raises(ValueError, match="kappa"):
        Sample(**{**ok, "kappa": 0.0})
    with pytest.raises(ValueError, match="m_y"):
        Sample(**{**ok, "m_y": 1.0})  # |y| = 1 > m_y/2
    with pytest.raises(ValueError, match="mismatched"):
        Sample(**{**ok, "c": np.array([0.0, 1.0])})
    with pytest.raises(ValueError, match="mismatched"):
        Sample(**{**ok, "e": np.array([0.5, 0.5])})
    with pytest.raises(ValueError, match="empty"):
        Sample(**{**ok, "y": np.array([]), "c": np.array([]),
                 "d": np.array([]), "x": np.zeros((0, 1)),
                 "e": np.array([])})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("column", ["y", "c", "e", "x2"])
def test_sample_rejects_non_finite_values_naming_the_column(column, bad):
    cols = dict(y=np.array([1.0, 0.5]), c=np.array([0.0, 1.0]),
                d=np.array([1, 0]), x=np.array([[0.0, 1.0], [2.0, 3.0]]),
                e=np.array([0.5, 0.5]), kappa=0.25)
    if column == "x2":
        cols["x"][1, 1] = bad
    else:
        cols[column][1] = bad
    with pytest.raises(ValueError,
                       match=f"sample column '{column}' holds a non-finite"):
        Sample(**cols)


def test_propensity_overlap_enforced():
    with pytest.raises(ValueError, match="propensity"):
        Sample(np.array([1.0]), np.array([0.0]), np.array([1]),
               np.array([[0.0]]), np.array([0.05]), kappa=0.25)


def test_feature_length_mismatch():
    sample = two_unit_sample()
    scores = ipw_transform(sample)
    with pytest.raises(ValueError, match="mismatched"):
        welfare_cost_matrix(np.array([1.0]), scores, np.zeros((3, 1)))


def test_sample_subset():
    sample = two_unit_sample()
    sample.e = np.array([0.5, 0.6])
    sub = sample.subset(np.array([1]))
    assert sub.n == 1
    assert sub.y[0] == 1.0
    np.testing.assert_array_equal(sub.e, [0.6])


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "sample.csv"
    path.write_text(
        "y,c,d,x1,x2,e\n"
        "2.0,1.0,1,0.1,0.9,0.5\n"
        "1.0,-1.0,0,0.4,0.2,0.6\n"
    )
    sample = load_sample_csv(path)
    np.testing.assert_allclose(sample.y, [2.0, 1.0])
    np.testing.assert_allclose(sample.c, [1.0, -1.0])
    np.testing.assert_allclose(sample.d, [1, 0])
    np.testing.assert_allclose(sample.x, [[0.1, 0.9], [0.4, 0.2]])
    np.testing.assert_allclose(sample.e, [0.5, 0.6])
    # subsetting keeps each unit's propensity
    sub = sample.subset(np.array([0]))
    np.testing.assert_allclose(sub.e, [0.5])


def test_csv_constant_propensity_and_errors(tmp_path):
    path = tmp_path / "noprop.csv"
    path.write_text("y,c,d,x1\n1.0,0.0,1,0.3\n-1.0,2.0,0,0.7\n")
    sample = load_sample_csv(path, propensity_const=0.5, kappa=0.4)
    np.testing.assert_allclose(sample.e, [0.5, 0.5])
    with pytest.raises(ValueError, match="constant propensity"):
        load_sample_csv(path)
    bad = tmp_path / "bad.csv"
    bad.write_text("y,c,x1\n1.0,0.0,0.3\n")
    with pytest.raises(ValueError, match="missing column"):
        load_sample_csv(bad, propensity_const=0.5)
    for text, message in [("", "empty CSV"),
                          ("y,c,d,z1\n1.0,0.0,1,0.3\n", "no covariate columns"),
                          ("y,c,d,x1\n", "no data rows"),
                          ("y,c,d,x1,x1,e\n1.0,0.0,1,0.3,0.4,0.5\n",
                           "column 'x1' appears more than once")]:
        bad.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_sample_csv(bad, propensity_const=0.5)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["y", "c", "d", "x2", "e"])
def test_csv_rejects_non_finite_values_naming_the_column(tmp_path, column,
                                                         bad):
    cells = {"y": "2.0", "c": "1.0", "d": "1", "x1": "0.1", "x2": "0.9",
             "e": "0.5"}
    path = tmp_path / "sample.csv"
    path.write_text(",".join(cells) + "\n"
                    + ",".join(cells.values()) + "\n"
                    + ",".join({**cells, column: bad}.values()) + "\n")
    with pytest.raises(ValueError,
                       match=f"column '{column}' holds a non-finite value"):
        load_sample_csv(path)


@pytest.mark.parametrize("line, width", [("1.0,0.0,1,0.4,0.5,0.5,0.7", 7),
                                         ("1.0,0.0,1,0.2,0.5", 5)])
def test_csv_rejects_a_row_of_the_wrong_width(tmp_path, line, width):
    # a surplus cell must not be dropped, nor a missing one read as None
    path = tmp_path / "sample.csv"
    path.write_text("y,c,d,x1,x2,e\n2.0,1.0,1,0.1,0.9,0.5\n" + line + "\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: line 3 has {width} fields, the header has 6")):
        load_sample_csv(path)


def test_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "sample.csv"
    path.write_text("y,c,d,x1,e\n\n2.0,1.0,1,0.1,0.5\n\n"
                    "1.0,-1.0,0,0.4,0.6\n\n")
    sample = load_sample_csv(path)
    np.testing.assert_array_equal(sample.x, [[0.1], [0.4]])


@pytest.mark.parametrize("extra", [0, 1, _BLOCK_ALIGN - 1, _BLOCK_ALIGN])
def test_csv_blocks_join_a_short_remainder_to_the_block_before(tmp_path,
                                                              extra):
    n = 2 * CSV_BLOCK_ROWS + extra
    path = tmp_path / "sample.csv"
    path.write_text("y,c,d,x1,x2\n" + "".join(
        f"{i},{-i},{i % 2},{i},{0.5 * i}\n" for i in range(n)))
    blocks = list(_csv_blocks(path, required=("y", "d"), optional=("e", "c")))
    assert [len(b["y"]) for b in blocks] == (
        [CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + extra] if extra < _BLOCK_ALIGN
        else [CSV_BLOCK_ROWS, CSV_BLOCK_ROWS, extra])
    assert all(list(b) == ["x", "y", "d", "c"] for b in blocks)
    x = np.concatenate([b["x"] for b in blocks])
    np.testing.assert_array_equal(x[:, 0], np.arange(n))
    np.testing.assert_array_equal(x[:, 1], 0.5 * np.arange(n))
    np.testing.assert_array_equal(load_sample_csv(
        path, propensity_const=0.5).y, np.arange(n))


def _random_cells(rng, n: int) -> tuple:
    """n rows of three cells in the forms a CSV writer may use, each with
    the float() of its value: reprs of random doubles, subnormals and
    signed zeros, %.17g and %e forms, a leading +, spaces around the cell
    and quotes; rows end in LF or CRLF, with empty lines between."""
    bits = rng.integers(0, 2**64, size=(n, 3), dtype=np.uint64)
    values = bits.view(np.float64)
    values[~np.isfinite(values)] = 1.5
    kinds = rng.integers(0, 4, size=(n, 3))
    values[kinds == 1] = rng.integers(1, 2**52, size=(kinds == 1).sum()) \
        * 5e-324                                     # subnormals
    values[kinds == 2] = rng.choice([0.0, -0.0], size=(kinds == 2).sum())
    forms = [repr, "%.17g".__mod__, "%e".__mod__, "%.3e".__mod__,
             lambda v: ("" if repr(v)[0] == "-" else "+") + repr(v)]
    dress = [str, " {} ".format, '"{}"'.format, '" {}"'.format, "\t{}".format]
    text, want = [], []
    for row in values.tolist():
        cells = [forms[rng.integers(len(forms))](v) for v in row]
        want.append([float(c) for c in cells])
        end = "\r\n" if rng.random() < 0.5 else "\n"
        text.append(",".join(dress[rng.integers(len(dress))](c)
                             for c in cells) + end)
        if rng.random() < 0.05:
            text.append(end)
    return "".join(text), np.array(want)


@pytest.mark.parametrize("n", [2 * CSV_BLOCK_ROWS - 1, 2 * CSV_BLOCK_ROWS,
                               2 * CSV_BLOCK_ROWS + 7])
def test_csv_reads_cells_as_float_does_bit_for_bit(tmp_path, monkeypatch,
                                                   n):
    text, want = _random_cells(np.random.default_rng(n), n)
    path = tmp_path / "cov.csv"
    path.write_bytes(("x1,x2,x3\r\n" + text).encode())

    def read():
        # every n is short of a third block
        blocks = list(_csv_blocks(path))
        assert [len(b["x"]) for b in blocks] == [CSV_BLOCK_ROWS,
                                                 n - CSV_BLOCK_ROWS]
        return np.concatenate([b["x"] for b in blocks])

    def fail(*args):
        raise AssertionError("a well-formed block was read row by row")

    with monkeypatch.context() as patch:
        patch.setattr(data, "_parse_rows", fail)
        fast = read()
    np.testing.assert_array_equal(fast.view(np.int64), want.view(np.int64))

    # the row-by-row reading takes the same cells to the same bits
    def refuse(*args, **kwargs):
        raise ValueError("forced")

    monkeypatch.setattr(data.np, "loadtxt", refuse)
    np.testing.assert_array_equal(read().view(np.int64),
                                  want.view(np.int64))


def test_csv_reads_past_a_text_column_it_does_not_take(tmp_path):
    # the block np.loadtxt refuses is read row by row, and its values kept
    path = tmp_path / "cov.csv"
    path.write_text("id,x1,x2\nunit a,0.5,-1e-3\nunit b,+2, 3 \n")
    (block,) = _csv_blocks(path)
    np.testing.assert_array_equal(block["x"], [[0.5, -1e-3], [2.0, 3.0]])


@pytest.mark.parametrize("header, message", [
    ("y,c,d,x1,x2,e", "line 3 has 1 fields, the header has 6"),
    ("x1", "column 'x1' holds a non-numeric value '   '"),
])
def test_csv_line_of_spaces_is_a_row(tmp_path, header, message):
    # only a line with nothing before its end is skipped
    path = tmp_path / "sample.csv"
    width = header.count(",") + 1
    path.write_text(f"{header}\n{','.join(['0.5'] * width)}\n   \n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        list(_csv_blocks(path))
