import numpy as np
import pytest
from scipy.stats import norm

from tirex.errors import InvalidInputError
from tirex.process_verify import (
    IndependentNormalModel,
    ProcessCheckConfig,
    _process_values,
    covariance_check,
    population_Dn,
)
from tirex import rng as rngmod


def test_population_dn_zero_for_independent_model():
    gen = IndependentNormalModel(p=3)
    for u in (0.0, 0.2, 1.0):
        assert np.array_equal(population_Dn(gen, 50, 500, u, order=1), np.zeros(3))
        assert np.array_equal(population_Dn(gen, 50, 500, u, order=2), np.zeros(9))


def test_population_dn_requires_closed_form():
    class Opaque:
        pass

    with pytest.raises(InvalidInputError):
        population_Dn(Opaque(), 10, 100, 0.5)


def test_config_validation():
    gen = IndependentNormalModel()
    with pytest.raises(InvalidInputError):
        ProcessCheckConfig(gen, n=100, k=100, n_reps=200, u_grid=(0.5,))
    with pytest.raises(InvalidInputError):
        ProcessCheckConfig(gen, n=100, k=10, n_reps=50, u_grid=(0.5,))
    with pytest.raises(InvalidInputError):
        ProcessCheckConfig(gen, n=100, k=10, n_reps=200, u_grid=(0.7, 0.3))
    with pytest.raises(InvalidInputError):
        ProcessCheckConfig(gen, n=100, k=10, n_reps=200, u_grid=(0.0, 0.5))
    for k in (0, -5):
        with pytest.raises(InvalidInputError):
            ProcessCheckConfig(gen, n=100, k=k, n_reps=200, u_grid=(0.5,))
    with pytest.raises(InvalidInputError):
        IndependentNormalModel(p=0)


def test_second_order_xi_wick_pairings():
    gen = IndependentNormalModel(p=2)
    xi = gen.xi(order=2)
    # entry ((i,j),(k,l)) = d_ik d_jl + d_il d_jk; e.g. ((0,0),(0,0)) = 2
    assert xi[0, 0] == 2.0  # (0,0)x(0,0)
    assert xi[1, 1] == 1.0  # (0,1)x(0,1)
    assert xi[1, 2] == 1.0  # (0,1)x(1,0)
    assert xi[0, 3] == 0.0  # (0,0)x(1,1)
    assert np.array_equal(xi, xi.T)


def test_process_values_match_direct_definition():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((40, 2))
    y = rng.standard_normal(40)
    k = 10
    grid = [0.3, 0.7, 1.0]
    vals = _process_values(z, y, k, grid, order=1)
    from tirex.data import descending_order
    from oracles import c_process

    order = descending_order(y)
    for i, u in enumerate(grid):
        assert np.allclose(vals[i], c_process(z, order, k, u), atol=1e-15)


def test_rank_equivalence_bitwise():
    # pushing the target through its continuous cdf leaves the process values
    # bit-identical (only ranks enter)
    rng = rngmod.stream(123, 4, 0)
    gen = IndependentNormalModel(p=3)
    z, y = gen.sample(500, rng)
    u = norm.cdf(-y)  # cdf of the negated target, strictly increasing in -y
    a = _process_values(z, y, 60, [0.1, 0.5, 1.0], order=1)
    b = _process_values(z, -u, 60, [0.1, 0.5, 1.0], order=1)
    assert np.array_equal(a, b)


def test_covariance_check_passes_at_reduced_scale():
    cfg = ProcessCheckConfig(
        generator=IndependentNormalModel(p=2),
        n=1500, k=150, n_reps=400, u_grid=(0.25, 0.5, 1.0), order=1, seed=7,
    )
    report = covariance_check(cfg)
    assert report.mean_ok
    assert report.cov_ok
    # variance of each coordinate at u is close to u itself
    for e in report.cov_entries:
        if e.u_s == e.u_t and e.row == e.col:
            assert e.empirical == pytest.approx(min(e.u_s, e.u_t), abs=5 * e.se)


def test_covariance_check_cross_terms():
    cfg = ProcessCheckConfig(
        generator=IndependentNormalModel(p=2),
        n=1200, k=120, n_reps=300, u_grid=(0.3, 0.7), order=1, seed=11,
    )
    report = covariance_check(cfg)
    cross = [e for e in report.cov_entries if (e.u_s, e.u_t) == (0.3, 0.7)]
    assert cross
    for e in cross:
        want = 0.3 if e.row == e.col else 0.0
        assert e.theoretical == pytest.approx(want)
        assert e.ok


def test_covariance_check_second_order_reduced_scale():
    cfg = ProcessCheckConfig(
        generator=IndependentNormalModel(p=2),
        n=1200, k=120, n_reps=300, u_grid=(0.5, 1.0), order=2, seed=3,
    )
    report = covariance_check(cfg)
    assert report.passed


def test_report_csv_shape():
    cfg = ProcessCheckConfig(
        generator=IndependentNormalModel(p=2),
        n=400, k=40, n_reps=120, u_grid=(0.5, 1.0), order=1, seed=5,
    )
    report = covariance_check(cfg)
    lines = report.to_csv_text().strip().split("\n")
    assert lines[0] == "u_s,u_t,row,col,empirical,theoretical,deviation,se,ok"
    # 3 u-pairs x 2x2 entries
    assert len(lines) == 1 + 3 * 4
    d = report.to_json_dict()
    assert d["passed"] == report.passed
