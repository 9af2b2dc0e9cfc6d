import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tirex import data
from tirex.data import (
    Dataset,
    descending_order,
    empirical_quantile,
    load_csv,
    standardize,
    write_csv,
)
from tirex.errors import InvalidInputError, RankDeficiencyError
from tirex.estimators import PreparedFit
from tirex.synthetic import model_preset, sample

from oracles import one_shot_moments, whiten_all, write_csv_oracle


def test_load_csv_basic(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,y\n1,2\n3,4\n5,6\n")
    ds = load_csv(path)
    assert ds.n == 3 and ds.p == 1
    assert np.array_equal(ds.x[:, 0], [1.0, 3.0, 5.0])
    assert np.array_equal(ds.y, [2.0, 4.0, 6.0])
    assert ds.names == ["x1"]


def test_load_csv_skips_a_byte_order_mark(tmp_path):
    # spreadsheet "CSV UTF-8" exports start with one
    path = tmp_path / "d.csv"
    path.write_bytes(b"\xef\xbb\xbfy,x1\n2,1\n4,3\n")
    ds = load_csv(path)
    assert ds.names == ["x1"]
    assert np.array_equal(ds.y, [2.0, 4.0])


def test_load_csv_nan_cell_reports_location(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,y\n1,2\nNaN,4\n")
    with pytest.raises(InvalidInputError) as exc:
        load_csv(path)
    assert "line 3" in str(exc.value) and "column 1" in str(exc.value)


def test_load_csv_parse_error_reports_location(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,y\n1,2\n3,oops\n")
    with pytest.raises(InvalidInputError) as exc:
        load_csv(path)
    assert "line 3" in str(exc.value) and "column 2" in str(exc.value)


def test_load_csv_empty_file(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("")
    with pytest.raises(InvalidInputError):
        load_csv(path)


def test_load_csv_target_override(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("resp,a,b\n1,2,3\n4,5,6\n")
    ds = load_csv(path, target="resp")
    assert ds.names == ["a", "b"]
    assert np.array_equal(ds.y, [1.0, 4.0])


def _cell_by_cell(monkeypatch):
    monkeypatch.setattr(data, "_read_body_fast", lambda path, width: None)


@pytest.mark.parametrize("text, fast", [
    ("a,y\n1,2\n3,4\n", True),
    ("a,y\n1.5,2\n", True),  # one data row
    ("a,y,b\n1,2,3\n4,5,6\n", True),  # the target column in the middle
    ("a,y\r\n1,2\r\n\r\n3,4\r\n\r\n", True),  # CRLF with blank lines
    ("\ufeffa,y\n1,2\n", True),  # a byte-order mark
    ("a,y\n 1 , 2 \n3,4", True),  # padded cells, no final newline
    ("a,y\n-0.0,1e-320\n", True),
    ('a,y\n"1.5",2\n', False),  # a quoted cell
    ("a,y\n1_0,2\n", False),  # float() reads digit groups, numpy does not
])
def test_load_csv_both_paths_agree(tmp_path, monkeypatch, text, fast):
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    width = text.partition("\n")[0].count(",") + 1
    assert (data._read_body_fast(path, width) is not None) == fast
    got = load_csv(path)
    _cell_by_cell(monkeypatch)
    want = load_csv(path)
    assert got.x.tobytes() == want.x.tobytes() and got.x.shape == want.x.shape
    assert got.y.tobytes() == want.y.tobytes()
    assert got.names == want.names


@pytest.mark.parametrize("text, message", [
    ("a,y\n1,2\nnan,4\n", "non-finite value 'nan' at (line 3, column 1)"),
    ("a,y\n1,inf\n", "non-finite value 'inf' at (line 2, column 2)"),
    ("a,y\n1,1e400\n", "non-finite value '1e400' at (line 2, column 2)"),
    ('a,y\n"x",2\n', "cannot parse 'x' at (line 2, column 1)"),
    ("a,y\n1,2\n#3,4\n", "cannot parse '#3' at (line 3, column 1)"),
    ("a,y\n1,2\n  \n3,4\n", "line 3 has 1 fields, expected 2"),
    ("a,y\n1,2,\n3,4,\n", "line 2 has 3 fields, expected 2"),
    ("a,y\n1,2\n3\n", "line 3 has 1 fields, expected 2"),
    ("a,y\n1,2\n3,4,5\n", "line 3 has 3 fields, expected 2"),
    ("a,y\n1,2,3\n4,5,6\n", "line 2 has 3 fields, expected 2"),  # a wider body
    ("a,y,b\n1,2\n3,4\n", "line 2 has 2 fields, expected 3"),
    ("a,y\n", "no data rows"),
    ("a,y\r\n\r\n", "no data rows"),
])
def test_load_csv_messages_come_from_the_cell_by_cell_parser(tmp_path, monkeypatch, text,
                                                             message):
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    for force_slow in (False, True):
        if force_slow:
            _cell_by_cell(monkeypatch)
        with pytest.raises(InvalidInputError) as exc:
            load_csv(path)
        assert str(exc.value) == f"{path}: {message}"


def test_load_csv_reads_a_pipe_once(tmp_path):
    # the header read buffers part of the body, which a second open of the
    # pipe would miss
    path = tmp_path / "d.csv"
    write_csv(Dataset(x=np.arange(60000.0).reshape(20000, 3), y=np.arange(20000.0)), path)
    code = "from tirex.data import load_csv; print(load_csv('/dev/stdin').y.sum())"
    proc = subprocess.run([sys.executable, "-c", code], input=path.read_bytes(),
                          capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) == load_csv(path).y.sum()


def _table_csv(path, table, col):
    """Write ``table`` as CSV text with the target ``y`` in column ``col``."""
    header = [f"x{j}" for j in range(table.shape[1])]
    header[col] = "y"
    path.write_text(",".join(header) + "\n"
                    + "".join(",".join(map(repr, row)) + "\n" for row in table.tolist()))


_SMALL_TABLES = [
    (50, 4, 0), (50, 4, 2), (50, 4, 3),  # the target first, in the middle, last
    (50, 2, 0), (50, 2, 1),  # p = 1
    (1, 5, 0), (1, 5, 2), (1, 2, 1),  # n = 1
]


@pytest.mark.parametrize("n, width, col, block_rows", [
    shape + (rows,) for shape in _SMALL_TABLES for rows in (1, 3, 7, data.WHITEN_BLOCK_ROWS)
] + [(9001, 31, 30, data.WHITEN_BLOCK_ROWS)])  # a model-B shape over two blocks
@pytest.mark.parametrize("fast", [True, False])
def test_load_csv_compacts_the_covariates_into_the_table(tmp_path, monkeypatch, n, width, col,
                                                        block_rows, fast):
    # x must be np.delete of the parsed table bit for bit, C-ordered, and a
    # view of the table's own buffer rather than a second copy
    monkeypatch.setattr(data, "WHITEN_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(n * 100 + width * 10 + col)
    table = rng.standard_normal((n, width)) * 10.0 ** rng.integers(-8, 8, (n, width))
    path = tmp_path / "d.csv"
    _table_csv(path, table, col)
    parsed = []
    name = "_read_body_fast" if fast else "_read_body"
    real = getattr(data, name)

    def spy(*args):
        parsed.append(real(*args))
        return parsed[-1]

    if not fast:
        _cell_by_cell(monkeypatch)
    monkeypatch.setattr(data, name, spy)
    ds = load_csv(path)
    want = np.delete(table, col, axis=1)
    assert ds.x.shape == want.shape and ds.x.tobytes() == want.tobytes()
    assert ds.y.tobytes() == table[:, col].tobytes()
    assert ds.x.flags.c_contiguous
    assert np.shares_memory(ds.x, parsed[0])
    assert not np.shares_memory(ds.y, parsed[0])


def test_load_csv_compacts_a_pipe_input(tmp_path):
    # a pipe goes through the cell-by-cell parser
    rng = np.random.default_rng(8)
    table = rng.standard_normal((20000, 4)) * 10.0 ** rng.integers(-8, 8, (20000, 4))
    path, out = tmp_path / "d.csv", tmp_path / "x.npy"
    _table_csv(path, table, 1)
    code = ("import sys, numpy as np; from tirex.data import load_csv; "
            "ds = load_csv('/dev/stdin'); assert ds.x.flags.c_contiguous; "
            "assert ds.x.base is not None; np.save(sys.argv[1], ds.x)")
    proc = subprocess.run([sys.executable, "-c", code, str(out)], input=path.read_bytes(),
                          capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert np.load(out).tobytes() == np.delete(table, 1, axis=1).tobytes()


def test_write_csv_body_matches_the_row_writer(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    ds = Dataset(x=rng.standard_normal((7, 3)) * 10.0 ** rng.integers(-300, 300, (7, 3)),
                 y=np.array([0.0, -0.0, 1e-320, 5e-324, 1.7e308, -2.5, 1 / 3]),
                 names=["a,b", 'say "hi"', "plain"])  # the first two need quoting
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv_oracle(ds, b)
    # the body is written one row block at a time; 1 and 3 cross blocks
    for block_rows in (1, 3, 7, data.WHITEN_BLOCK_ROWS):
        monkeypatch.setattr(data, "WHITEN_BLOCK_ROWS", block_rows)
        write_csv(ds, a)
        assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().startswith(b'"a,b","say ""hi""",plain,y\r\n')


@pytest.mark.parametrize("seed", [1, 2])
def test_write_csv_model_b_file_matches_the_row_writer(tmp_path, seed):
    spec, _ = model_preset("B")
    ds = sample(spec, 40000, seed)
    assert ds.x.shape == (40000, 30)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(ds, a)
    write_csv_oracle(ds, b)
    assert a.read_bytes() == b.read_bytes()


def test_write_csv_requires_features():
    with pytest.raises(InvalidInputError):
        Dataset(x=np.empty((2, 0)), y=np.array([1.0, 2.0]))


def test_csv_roundtrip_single_row(tmp_path):
    ds = Dataset(x=np.array([[0.1, -2.5e-17]]), y=np.array([3.3]))
    path = tmp_path / "one.csv"
    write_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(back.x, ds.x)
    assert np.array_equal(back.y, ds.y)


def test_csv_roundtrip_large_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    ds = Dataset(x=rng.standard_normal((10_000, 30)) * 10.0 ** rng.integers(-12, 12, (10_000, 30)),
                 y=rng.standard_normal(10_000))
    path = tmp_path / "big.csv"
    write_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(back.x, ds.x)
    assert np.array_equal(back.y, ds.y)


def test_standardize_two_points():
    ds = Dataset(x=np.array([[0.0], [2.0]]), y=np.array([0.0, 1.0]))
    std = standardize(ds)
    assert std.mean[0] == pytest.approx(1.0)
    assert std.covariance[0, 0] == pytest.approx(1.0)
    assert np.allclose(whiten_all(std)[:, 0], [-1.0, 1.0])


def test_standardize_constant_rows_rank_deficient():
    ds = Dataset(x=np.ones((5, 2)), y=np.arange(5.0))
    with pytest.raises(RankDeficiencyError):
        standardize(ds)


def test_standardize_hand_computed_2d():
    # four points with a hand-computed covariance; whitened second moment
    # must be the identity
    x = np.array([[1.0, 0.0], [3.0, 1.0], [5.0, -1.0], [7.0, 4.0]])
    ds = Dataset(x=x, y=np.arange(4.0))
    std = standardize(ds)
    m = x.mean(axis=0)
    cov = (x - m).T @ (x - m) / 4.0
    assert np.allclose(std.covariance, cov, atol=1e-14)
    z = whiten_all(std)
    assert np.abs(z.T @ z / 4.0 - np.eye(2)).max() < 1e-10
    assert np.abs(z.mean(axis=0)).max() < 1e-8


@pytest.mark.parametrize("n", [64, 100, 8191, 8192, 8193, 16385, 40000])
@pytest.mark.parametrize("p", [1, 2, 5, 30])
def test_standardize_blocks_equal_the_one_shot_product(n, p):
    # whitening in row blocks must give the one matrix product's bits
    rng = np.random.default_rng(n * 64 + p)
    ds = Dataset(x=rng.standard_normal((n, p)) * 50.0 + rng.random(p), y=rng.random(n))
    std = standardize(ds)
    assert np.array_equal(whiten_all(std), (ds.x - std.mean) @ std.whitener)


def test_prepared_data_path_holds_two_copies_of_the_covariates(tmp_path):
    # load_csv then PreparedFit, as `fit` runs them: the table and the
    # covariates while loading, then the covariates, their whitened copy and
    # one block of rows; a third n x p copy would put the peak above 3
    spec, _ = model_preset("B")
    ds = sample(spec, 20000, 1)
    path = tmp_path / "b.csv"
    write_csv(ds, path)
    tracemalloc.start()
    try:
        loaded = load_csv(path)
        PreparedFit(loaded).fit_grid("tirex2", [], 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.6 * ds.x.nbytes


def test_prepared_fit_holds_one_copy_of_the_covariates(tmp_path):
    # load_csv leaves the covariates in the parsed table's buffer, and
    # PreparedFit whitens only the rows of the largest k: the covariates, the
    # k_max whitened rows and one block of them; a whitened copy of all n
    # rows would put the peak above 2
    spec, _ = model_preset("B")
    ds = sample(spec, 20000, 1)
    path = tmp_path / "b.csv"
    write_csv(ds, path)
    tracemalloc.start()
    try:
        loaded = load_csv(path)
        PreparedFit(loaded).fit_grid("tirex2", [500, 4000], 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * ds.x.nbytes


@pytest.mark.parametrize("method, n", [("tirex2", 20000), ("tirex1", 3000), ("cuve", 9000)])
def test_prepared_fit_whitens_the_top_rows_of_the_full_whitening(monkeypatch, method, n):
    # the rows the candidate matrices read are the full whitening's rows of
    # the k largest targets, bit for bit, and fit(k) is fit_grid([k])[0]
    import tirex.estimators as estimators

    spec, _ = model_preset("B")
    ds = sample(spec, n, 2)
    seen = []
    real = estimators._prefix_grams

    def spy(z, ks, second_order):
        seen.append(z)
        return real(z, ks, second_order)

    monkeypatch.setattr(estimators, "_prefix_grams", spy)
    z, order = whiten_all(standardize(ds)), descending_order(ds.y)
    prepared = PreparedFit(ds)
    ks = [n] if method == "cuve" else [1, 2, 500, n // 2 + 1, n]
    for k in ks:
        single, grid = prepared.fit(method, k, 3), prepared.fit_grid(method, [k], 3)[0]
        for rows in seen[-2:]:
            assert rows.tobytes() == z[order[:k]].tobytes()
        for name in ("candidate_matrix", "basis_whitened", "basis_raw"):
            assert getattr(single, name).tobytes() == getattr(grid, name).tobytes()
        assert single.eigen.eigenvalues.tobytes() == grid.eigen.eigenvalues.tobytes()
    prepared.fit_grid(method, ks, 3)
    assert seen[-1].tobytes() == z[order[:max(ks)]].tobytes()
    assert prepared.fit_grid(method, [], 3) == []


@pytest.mark.parametrize("rows", [[0], [7], [3, 3], [], [9, 0, 4, 4, 1], list(range(40))])
def test_whiten_rows_equals_the_full_whitening(rows):
    ds = Dataset(x=_moment_sample(40, 3), y=np.arange(40.0))
    std = standardize(ds)
    got = std.whiten(np.array(rows, dtype=np.intp))
    assert got.shape == (len(rows), 3)
    assert got.tobytes() == whiten_all(std)[rows].tobytes()


def _moment_sample(n, p):
    rng = np.random.default_rng(n * 64 + p)
    return rng.standard_normal((n, p)) * 50.0 + rng.random(p) * 10.0


@pytest.mark.parametrize("n", [1, 2, 64, 8191, 8192])
@pytest.mark.parametrize("p", [1, 5, 30])
@pytest.mark.parametrize("centered", [True, False])
def test_moments_in_one_block_are_the_one_shot_form(n, p, centered):
    x = _moment_sample(n, p)
    mean, moment = data.moments(x, centered=centered)
    want_mean, want = one_shot_moments(x, centered=centered)
    assert mean.tobytes() == want_mean.tobytes()
    assert moment.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [8193, 16385, 40000])
@pytest.mark.parametrize("p", [1, 5, 30])
@pytest.mark.parametrize("centered", [True, False])
def test_blocked_moments_stay_close_to_the_one_shot_form(n, p, centered):
    x = _moment_sample(n, p)
    mean, moment = data.moments(x, centered=centered)
    want_mean, want = one_shot_moments(x, centered=centered)
    assert mean.tobytes() == want_mean.tobytes()
    np.testing.assert_allclose(moment, want, rtol=1e-12, atol=0)


def _moment_error(moment, reference):
    """Largest error relative to sqrt(m_ii m_jj), the scale of entry ij."""
    scale = np.sqrt(np.outer(np.diag(reference), np.diag(reference)))
    return float(np.max(np.abs(moment - reference) / scale))


def _extended_covariance(x):
    xl = x.astype(np.longdouble)
    xc = xl - xl.sum(axis=0) / x.shape[0]
    return xc.T @ xc / x.shape[0]


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is double here")
def test_blocked_covariance_is_as_accurate_as_the_one_shot_form():
    spec, _ = model_preset("B")
    x = sample(spec, 40000, 1).x
    reference = _extended_covariance(x)
    blocked = _moment_error(data.moments(x)[1], reference)
    one_shot = _moment_error(one_shot_moments(x)[1], reference)
    assert blocked <= one_shot < 1e-15

    # a column far from zero: both forms share the mean's rounding error,
    # about 2.7e-13 of the variance here, and differ by a few ulps of it
    rng = np.random.default_rng(5)
    x = np.column_stack([1e8 + rng.standard_normal(40000), rng.standard_normal(40000)])
    reference = _extended_covariance(x)
    blocked = _moment_error(data.moments(x)[1], reference)
    one_shot = _moment_error(one_shot_moments(x)[1], reference)
    assert blocked <= one_shot + 4 * np.finfo(float).eps


def test_standardize_needs_two_rows():
    ds = Dataset(x=np.array([[1.0]]), y=np.array([1.0]))
    with pytest.raises(InvalidInputError):
        standardize(ds)


@pytest.mark.parametrize(
    "values,u,expected",
    [
        (list(range(1, 11)), 0.5, 5.0),
        (list(range(1, 11)), 1.0, 10.0),
        ((3.0, 1.0, 2.0), 0.34, 2.0),  # ceil(3 * 0.34) = 2nd order statistic
    ],
)
def test_empirical_quantile_examples(values, u, expected):
    assert empirical_quantile(np.array(values, dtype=float), u) == expected


def test_empirical_quantile_rejects_bad_levels():
    for u in (0.0, -0.1, 1.0001):
        with pytest.raises(InvalidInputError):
            empirical_quantile(np.array([1.0]), u)


def test_empirical_quantile_against_counting_oracle():
    # smallest sample value whose empirical cdf reaches u, with the index
    # computed in exact rational arithmetic
    rng = np.random.default_rng(123)
    for _ in range(100):
        n = int(rng.integers(1, 51))
        values = rng.standard_normal(n)
        u = float(rng.uniform(1e-6, 1.0))
        m = int(math.ceil(n * Fraction(u)))
        oracle = np.sort(values)[max(m, 1) - 1]
        assert empirical_quantile(values, u) == oracle


def test_empirical_quantile_against_threshold_scan():
    # brute-force scan over candidate thresholds: the left-continuous inverse
    # is the smallest sample value t with #{T_i <= t} >= n*u
    rng = np.random.default_rng(456)
    for _ in range(100):
        n = int(rng.integers(1, 51))
        values = rng.standard_normal(n)
        u = float(rng.uniform(1e-6, 1.0))
        target = n * Fraction(u)
        oracle = min(t for t in values if sum(v <= t for v in values) >= target)
        assert empirical_quantile(values, u) == oracle


def test_descending_order_examples():
    ds = Dataset(x=np.zeros((3, 1)), y=np.array([1.0, 3.0, 2.0]))
    assert descending_order(ds.y).tolist() == [1, 2, 0]

    ds = Dataset(x=np.zeros((3, 1)), y=np.array([2.0, 2.0, 1.0]))
    assert descending_order(ds.y).tolist() == [0, 1, 2]  # stable tie-break

    y = np.arange(17.0)
    ds = Dataset(x=np.zeros((17, 1)), y=y)
    assert descending_order(ds.y).tolist() == list(range(16, -1, -1))


def test_descending_order_monotone_transform_invariance():
    rng = np.random.default_rng(9)
    y = rng.standard_normal(200)
    ds = Dataset(x=np.zeros((200, 1)), y=y)
    for g in (np.exp, lambda t: t**3, lambda t: 5 * t - 2, np.arctan):
        gds = Dataset(x=ds.x, y=g(y))
        assert np.array_equal(descending_order(ds.y), descending_order(gds.y))


def test_descending_order_handles_duplicates():
    y = np.array([5.0, 5.0, 5.0, 1.0, 9.0])
    assert descending_order(y).tolist() == [4, 0, 1, 2, 3]


def _stable_order(y):
    return np.argsort(-np.asarray(y, dtype=float), kind="stable")


@pytest.mark.parametrize("y", [
    np.array([3.0, 1.0, 3.0, 2.0, 1.0, 3.0]),  # integer-valued
    np.full(9, 4.0),  # all equal
    np.array([0.0, -0.0, 1.0, -0.0, 0.0]),  # equal zeros of either sign
    np.array([7.0]),
    np.array([1.0, 2.0]),
    np.array([2.0, 2.0]),
    np.array([1.0, np.nan, 2.0, np.nan]),
    np.array([], dtype=float),
    # long enough that numpy's default argsort is not an insertion sort
    np.random.default_rng(4).integers(0, 50, 5000).astype(float),
])
def test_descending_order_equals_the_stable_sort(y):
    assert np.array_equal(descending_order(y), _stable_order(y))


@given(arrays(np.float64, st.integers(0, 300),
              elements=st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                 st.integers(-3, 3).map(float))))
@settings(max_examples=100, deadline=None)
def test_descending_order_equals_the_stable_sort_property(y):
    assert np.array_equal(descending_order(y), _stable_order(y))


@given(arrays(np.float64, st.integers(0, 300), elements=st.integers(-4, 4).map(float)),
       st.one_of(st.integers(0, 3), st.integers(0, 310)), st.sampled_from([1, 50, 301]))
@example(y=np.array([0, -1, 2, 2, 0, 1, -2, 0, -2, -2, -1, -2, 2, -1, 2, -2, 1.0]), k=1, period=1)
@settings(max_examples=200, deadline=None)
def test_descending_order_top_k_equals_the_full_order(y, k, period):
    # integer targets tie heavily; adding (i mod period) / period to row i
    # leaves fewer ties at period 50 and none at 301, where the partial
    # selection is kept.  In the example argpartition picks the second of
    # the tied maxima, which only the check against the (k+1)-th catches.
    y = y + np.arange(y.shape[0]) % period / period
    assert np.array_equal(descending_order(y, k), descending_order(y)[:k])


def test_dataset_rejects_nonfinite():
    with pytest.raises(InvalidInputError):
        Dataset(x=np.array([[np.inf]]), y=np.array([1.0]))
    with pytest.raises(InvalidInputError):
        Dataset(x=np.array([[1.0]]), y=np.array([np.nan]))
