import math
from fractions import Fraction

import numpy as np
import pytest

from tirex.data import (
    Dataset,
    descending_order,
    empirical_quantile,
    load_csv,
    standardize,
    write_csv,
)
from tirex.errors import InvalidInputError, RankDeficiencyError


def test_load_csv_basic(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,y\n1,2\n3,4\n5,6\n")
    ds = load_csv(path)
    assert ds.n == 3 and ds.p == 1
    assert np.array_equal(ds.x[:, 0], [1.0, 3.0, 5.0])
    assert np.array_equal(ds.y, [2.0, 4.0, 6.0])
    assert ds.names == ["x1"]


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
    assert np.allclose(std.z[:, 0], [-1.0, 1.0])


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
    assert np.abs(std.z.T @ std.z / 4.0 - np.eye(2)).max() < 1e-10
    assert np.abs(std.z.mean(axis=0)).max() < 1e-8


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


def test_dataset_rejects_nonfinite():
    with pytest.raises(InvalidInputError):
        Dataset(x=np.array([[np.inf]]), y=np.array([1.0]))
    with pytest.raises(InvalidInputError):
        Dataset(x=np.array([[1.0]]), y=np.array([np.nan]))
