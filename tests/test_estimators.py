import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tirex.data import Dataset, descending_order, standardize
from tirex.errors import InvalidInputError, RankDeficiencyError
from tirex.evaluation import geometric_k_grid
from tirex.estimators import (
    _BLOCK,
    _prefix_grams,
    fit,
    tail_increments,
    tirex1_matrix,
    tirex2_matrix,
)
from tirex.linalg import projector_from_basis, sym_eigen
from tirex.synthetic import model_preset, sample

from oracles import (
    b_process,
    c_process,
    cume_matrix_oracle,
    cuve_matrix_oracle,
    prefix_gram_oracle,
    whiten_all,
)


def integral_oracle_tirex1(z, order, k):
    """Direct evaluation of the exact piecewise integral:
    (1/k) * sum_j C(j/k) C(j/k)^T."""
    p = z.shape[1]
    m = np.zeros((p, p))
    for j in range(1, k + 1):
        c = c_process(z, order, k, j / k)
        m += np.outer(c, c)
    return m / k


def integral_oracle_tirex2(z, order, k):
    p = z.shape[1]
    m = np.zeros((p, p))
    for j in range(1, k + 1):
        b = b_process(z, order, k, j / k)
        m += b @ b.T
    return m / k


def random_instance(rng, n=None, p=None):
    n = n or int(rng.integers(1, 51))
    p = p or int(rng.integers(1, 6))
    z = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    return z, y


# ---------------------------------------------------------------------------
# process values


def test_c_process_u_zero_is_zero():
    z = np.ones((4, 2))
    order = descending_order(np.arange(4.0))
    assert np.array_equal(c_process(z, order, 3, 0.0), np.zeros(2))


def test_c_process_single_point():
    z = np.array([[5.0]])
    order = descending_order(np.array([1.0]))
    assert c_process(z, order, 1, 1.0) == pytest.approx(5.0)


def test_c_process_hand_enumeration():
    # top ceil(2 * 0.6) = 2 rows by descending y are z1, z2
    z = np.array([[1.0], [2.0], [3.0], [4.0]])
    y = np.array([4.0, 3.0, 2.0, 1.0])
    got = c_process(z, descending_order(y), 2, 0.6)
    assert got == pytest.approx([1.5])


def test_c_process_k_out_of_range():
    z = np.zeros((3, 1))
    order = descending_order(np.arange(3.0))
    for k in (0, 4):
        with pytest.raises(InvalidInputError):
            c_process(z, order, k, 0.5)


def test_b_process_u_zero_is_zero():
    z = np.ones((4, 2))
    order = descending_order(np.arange(4.0))
    assert np.array_equal(b_process(z, order, 2, 0.0), np.zeros((2, 2)))


def test_process_u_out_of_range():
    z = np.ones((4, 2))
    order = descending_order(np.arange(4.0))
    for u in (-0.1, 1.1):
        with pytest.raises(InvalidInputError):
            c_process(z, order, 2, u)
        with pytest.raises(InvalidInputError):
            b_process(z, order, 2, u)


def test_b_process_single_point():
    z = np.array([[2.0]])
    order = descending_order(np.array([0.0]))
    assert b_process(z, order, 1, 1.0)[0, 0] == pytest.approx(3.0)


def test_b_process_hand_enumeration():
    z = np.array([[1.0], [3.0]])
    y = np.array([2.0, 1.0])
    got = b_process(z, descending_order(y), 2, 1.0)
    assert got[0, 0] == pytest.approx(4.0)


def test_processes_at_zero_and_piecewise_constant():
    rng = np.random.default_rng(6)
    z = rng.standard_normal((12, 2))
    y = rng.standard_normal(12)
    order = descending_order(y)
    assert np.array_equal(c_process(z, order, 8, 0.0), np.zeros(2))
    assert np.array_equal(b_process(z, order, 8, 0.0), np.zeros((2, 2)))
    # piecewise constant on ((j-1)/k, j/k]: anywhere inside a piece equals
    # the right endpoint
    c_end, b_end = c_process(z, order, 8, 3.0 / 8), b_process(z, order, 8, 3.0 / 8)
    assert np.array_equal(c_process(z, order, 8, 2.4 / 8), c_end)
    assert np.array_equal(b_process(z, order, 8, 2.4 / 8), b_end)
    assert np.array_equal(c_process(z, order, 8, 2.999 / 8), c_end)
    assert not np.array_equal(c_process(z, order, 8, 2.0 / 8), c_end)


# ---------------------------------------------------------------------------
# candidate matrices vs direct-definition oracles


def test_tirex1_single_row():
    z = np.array([[3.0, -1.0]])
    order = np.array([0])
    assert np.allclose(tirex1_matrix(z[order], 1), np.outer(z[0], z[0]))


def test_tirex1_zero_covariates():
    z = np.zeros((5, 2))
    order = descending_order(np.arange(5.0))
    assert np.array_equal(tirex1_matrix(z[order], 4), np.zeros((2, 2)))


def test_tirex2_single_row_scalar():
    z = np.array([[2.0]])
    assert tirex2_matrix(z, 1)[0, 0] == pytest.approx(9.0)


def test_tirex2_unit_rows_vanish():
    # z z^T - I contributes zero whenever z = +-1 in one dimension
    z = np.array([[1.0], [-1.0], [1.0]])
    order = descending_order(np.array([3.0, 2.0, 1.0]))
    assert np.abs(tirex2_matrix(z[order], 3)).max() < 1e-15


def test_tirex1_small_instance_vs_oracle():
    rng = np.random.default_rng(0)
    z, y = random_instance(rng, n=4, p=2)
    order = descending_order(y)
    got = tirex1_matrix(z[order], 3)
    want = integral_oracle_tirex1(z, order, 3)
    assert np.abs(got - want).max() < 1e-12


def test_tirex2_small_instance_vs_oracle():
    rng = np.random.default_rng(1)
    z, y = random_instance(rng, n=5, p=2)
    order = descending_order(y)
    got = tirex2_matrix(z[order], 4)
    want = integral_oracle_tirex2(z, order, 4)
    assert np.abs(got - want).max() < 1e-12


def test_candidate_matrices_match_integral_oracle_200_instances():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        z, y = random_instance(rng)
        order = descending_order(y)
        k = int(rng.integers(1, z.shape[0] + 1))
        d1 = np.linalg.norm(tirex1_matrix(z[order], k) - integral_oracle_tirex1(z, order, k))
        d2 = np.linalg.norm(tirex2_matrix(z[order], k) - integral_oracle_tirex2(z, order, k))
        assert d1 < 1e-10
        assert d2 < 1e-10


def test_tirex2_blocked_accumulation_matches_direct():
    # k above the internal block size must agree with the one-shot cumsum
    rng = np.random.default_rng(0)
    n, p = 3000, 3
    z = rng.standard_normal((n, p))
    order = descending_order(rng.standard_normal(n))
    eye = np.eye(p)
    for k in (1024, 1025, 2500):
        zk = z[order[:k]]
        t = np.cumsum(np.einsum("ji,jl->jil", zk, zk) - eye, axis=0)
        want = np.einsum("jab,jcb->ac", t, t) / float(k) ** 3
        got = tirex2_matrix(z[order], k)
        assert np.abs(got - 0.5 * (want + want.T)).max() < 1e-15


def test_candidate_matrices_read_only_the_first_k_rows():
    # the kernels take rows already in descending target order: the matrix
    # at k reads z[:k], whatever follows it and whatever its memory layout
    rng = np.random.default_rng(8)
    ks = [1, _BLOCK, _BLOCK + 3]
    z = rng.standard_normal((ks[-1], 3))
    padded = np.vstack([z, np.full((_BLOCK, 3), np.nan)])
    for second_order in (False, True):
        want = _prefix_grams(z, ks, second_order)
        for rows in (padded, np.asfortranarray(z), z[::-1][::-1]):
            got = _prefix_grams(rows, ks, second_order)
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    for k in ks:
        assert tirex1_matrix(padded, k).tobytes() == tirex1_matrix(z[:k], k).tobytes()
        assert tirex2_matrix(padded, k).tobytes() == tirex2_matrix(z[:k], k).tobytes()


def assert_grid_matches_gram_oracle(z, order, ks):
    for second_order in (False, True):
        got = _prefix_grams(z[order], ks, second_order)
        want = prefix_gram_oracle(z, order, ks, second_order)
        for k, g, w in zip(ks, got, want):
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max(), (k, second_order)


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(1, 5),
    n=st.integers(1, 2 * _BLOCK + 3),
    seed=st.integers(0, 2**32 - 1),
    mean=st.sampled_from([0.0, 50.0]),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    picks=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
)
def test_grid_matches_gram_oracle(p, n, seed, mean, scale, picks):
    # a sorted grid with repeats, over row counts on both sides of _BLOCK
    rng = np.random.default_rng(seed)
    z = mean + scale * rng.standard_normal((n, p))
    ks = sorted(1 + int(u * (n - 1)) for u in picks)
    assert_grid_matches_gram_oracle(z, rng.permutation(n), ks)


@pytest.mark.parametrize("p", [1, 4])
@pytest.mark.parametrize("mean,scale", [(0.0, 1.0), (50.0, 1.0), (0.0, 1e-3), (0.0, 1e3)])
def test_grid_matches_gram_oracle_at_block_edges(p, mean, scale):
    rng = np.random.default_rng(5)
    n = 2 * _BLOCK + 5
    z = mean + scale * rng.standard_normal((n, p))
    ks = [1, 1, _BLOCK - 1, _BLOCK, _BLOCK, _BLOCK + 1, 2 * _BLOCK, n]
    assert_grid_matches_gram_oracle(z, rng.permutation(n), ks)


@pytest.mark.parametrize("mean", [0.0, 50.0])
def test_grid_matches_gram_oracle_at_the_benchmark_width(mean):
    # p = 30 as in model B, on both sides of a block's end and over short
    # last blocks
    rng = np.random.default_rng(9)
    n = 300
    z = mean + rng.standard_normal((n, 30))
    ks = [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 5, n]
    assert_grid_matches_gram_oracle(z, rng.permutation(n), ks)


def test_grid_memory_holds_one_block_not_k_rows():
    # O(b^2 + b p) working memory: no k x p temporary, no constants per block size
    z = np.random.default_rng(10).standard_normal((10000, 30))
    ks = geometric_k_grid(100, 10000, 30)
    for second_order in (False, True):
        tracemalloc.start()
        try:
            _prefix_grams(z, ks, second_order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, (second_order, peak)


def test_grid_matches_gram_oracle_when_second_order_sum_returns_to_zero():
    # whitened rows summed over all n give T_n = 0; taking the largest |z|
    # first makes T rise and then return to 0, so late T_j are small
    rng = np.random.default_rng(6)
    ds = Dataset(x=rng.standard_normal((3 * _BLOCK, 3)), y=np.zeros(3 * _BLOCK))
    z = whiten_all(standardize(ds))
    order = np.argsort(-np.einsum("ij,ij->i", z, z))
    n = z.shape[0]
    assert np.abs(z.T @ z - n * np.eye(3)).max() < 1e-9 * n
    assert_grid_matches_gram_oracle(z, order, [1, _BLOCK, n // 2, n - 1, n])


def test_cume_oracle_single_row():
    z = np.array([[1.0, 2.0]])
    assert np.allclose(cume_matrix_oracle(z, np.array([5.0])), np.outer(z[0], z[0]))


def test_cume_oracle_zero_covariates():
    z = np.zeros((4, 3))
    assert np.array_equal(cume_matrix_oracle(z, np.arange(4.0)), np.zeros((3, 3)))


def test_k_equals_n_identities():
    # tirex1(k=n) is the cumulative-mean double sum; tirex2(k=n) its
    # second-order analogue
    rng = np.random.default_rng(77)
    for _ in range(50):
        z, y = random_instance(rng, n=int(rng.integers(2, 41)))
        order = descending_order(y)
        n = z.shape[0]
        assert np.linalg.norm(tirex1_matrix(z[order], n) - cume_matrix_oracle(z, y)) < 1e-10
        assert np.linalg.norm(tirex2_matrix(z[order], n) - cuve_matrix_oracle(z, y)) < 1e-10


def test_candidates_are_psd_with_bounded_rank():
    rng = np.random.default_rng(31)
    for _ in range(30):
        z, y = random_instance(rng)
        order = descending_order(y)
        n, p = z.shape
        k = int(rng.integers(1, n + 1))
        for mat in (tirex1_matrix(z[order], k), tirex2_matrix(z[order], k)):
            vals = sym_eigen(mat).eigenvalues
            assert vals[-1] >= -1e-10
        m1 = tirex1_matrix(z[order], k)
        vals = sym_eigen(m1).eigenvalues
        bound = min(k, p)
        if bound < p and vals[0] > 0:
            assert np.all(vals[bound:] < 1e-8 * vals[0])


# ---------------------------------------------------------------------------
# PCA baselines


def test_pca_basis_data_on_a_line():
    t = np.linspace(-1, 1, 20)
    x = np.stack([3 * t, -4 * t], axis=1)
    ds = Dataset(x=x + np.array([1.0, 2.0]), y=t)
    b = fit(ds, "pca", d=1).basis_raw
    direction = np.array([3.0, -4.0]) / 5.0
    assert np.abs(np.abs(b[:, 0] @ direction) - 1.0) < 1e-12


def test_pca_basis_full_dimension():
    rng = np.random.default_rng(8)
    ds = Dataset(x=rng.standard_normal((50, 3)), y=rng.standard_normal(50))
    b = fit(ds, "pca", d=3).basis_raw
    assert np.abs(b.T @ b - np.eye(3)).max() < 1e-10


def test_pca_basis_hand_instance():
    x = np.array([[1.0, 0.0], [3.0, 1.0], [5.0, -1.0], [7.0, 4.0]])
    ds = Dataset(x=x, y=np.arange(4.0))
    m = x.mean(axis=0)
    cov = (x - m).T @ (x - m) / 4.0
    want = sym_eigen(cov).eigenvectors[:, :2]
    got = fit(ds, "pca", d=2).basis_raw
    assert np.allclose(got, want, atol=1e-12)


def test_pca_basis_rejects_d_above_p():
    ds = Dataset(x=np.zeros((3, 2)) + np.arange(3.0)[:, None], y=np.arange(3.0))
    with pytest.raises(InvalidInputError):
        fit(ds, "pca", d=3)


# ---------------------------------------------------------------------------
# fit


def small_dataset(seed=0, n=60, p=3):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p)) @ np.diag([1.0, 2.0, 0.5][:p]) + 1.0
    y = x[:, -1] * rng.pareto(8.0, n) + 0.1 * rng.standard_normal(n)
    return Dataset(x=x, y=y)


def test_fit_cume_equals_tirex1_at_k_n():
    ds = small_dataset()
    f1 = fit(ds, "tirex1", k=ds.n, d=2)
    f2 = fit(ds, "cume", d=2)
    assert f2.k == ds.n
    assert np.array_equal(f1.candidate_matrix, f2.candidate_matrix)
    assert np.array_equal(f1.eigen.eigenvalues, f2.eigen.eigenvalues)
    assert np.array_equal(f1.basis_whitened, f2.basis_whitened)
    assert np.array_equal(f1.projector_whitened, f2.projector_whitened)
    assert np.array_equal(f1.basis_raw, f2.basis_raw)


def test_fit_cuve_equals_tirex2_at_k_n():
    ds = small_dataset(1)
    f1 = fit(ds, "tirex2", k=ds.n, d=2)
    f2 = fit(ds, "cuve", d=2)
    assert np.array_equal(f1.candidate_matrix, f2.candidate_matrix)
    assert np.array_equal(f1.projector_whitened, f2.projector_whitened)


def test_fit_univariate_projector_is_one():
    rng = np.random.default_rng(5)
    ds = Dataset(x=rng.standard_normal((40, 1)), y=rng.standard_normal(40))
    for method, k in [("tirex1", 10), ("tirex2", 10), ("cume", None),
                      ("cuve", None), ("pca", None), ("svd_pca", None)]:
        f = fit(ds, method, k=k, d=1)
        assert np.allclose(f.projector_whitened, [[1.0]])


def test_fit_monotone_transform_invariance_bitwise():
    ds = small_dataset(2)
    f = fit(ds, "tirex1", k=20, d=1)
    for g in (np.exp, lambda t: t**3, lambda t: 10 * t + 3):
        gds = Dataset(x=ds.x, y=g(ds.y))
        fg = fit(gds, "tirex1", k=20, d=1)
        assert np.array_equal(f.candidate_matrix, fg.candidate_matrix)
        assert np.array_equal(f.basis_whitened, fg.basis_whitened)
        assert np.array_equal(f.basis_raw, fg.basis_raw)


def test_fit_affine_equivariance_of_eigenvalues():
    # X' = A X + b conjugates the whitened candidate by an orthogonal matrix,
    # leaving its spectrum unchanged
    ds = small_dataset(3)
    rng = np.random.default_rng(30)
    for method, k in [("tirex1", 15), ("tirex2", 25)]:
        base = fit(ds, method, k=k, d=1).eigen.eigenvalues
        for _ in range(3):
            a = rng.standard_normal((ds.p, ds.p)) + 3 * np.eye(ds.p)
            b = rng.standard_normal(ds.p)
            ds2 = Dataset(x=ds.x @ a.T + b, y=ds.y)
            other = fit(ds2, method, k=k, d=1).eigen.eigenvalues
            assert np.abs(base - other).max() < 1e-6


def test_fit_requires_k_for_tirex():
    ds = small_dataset(4)
    with pytest.raises(InvalidInputError):
        fit(ds, "tirex1")


def test_fit_d_defaults():
    ds = small_dataset(6)
    assert fit(ds, "tirex1", k=10).d == 1
    assert fit(ds, "cume").d == 1
    with pytest.raises(InvalidInputError):
        fit(ds, "tirex2", k=10)  # second-order method needs explicit d
    with pytest.raises(InvalidInputError):
        fit(ds, "pca")


def test_fit_unknown_method():
    with pytest.raises(InvalidInputError):
        fit(small_dataset(7), "sir")


def test_fit_basis_raw_spans_whitener_image():
    ds = small_dataset(8)
    f = fit(ds, "tirex2", k=30, d=2)
    raw = f.basis_raw
    assert np.abs(raw.T @ raw - np.eye(2)).max() < 1e-10
    target = f.whitener @ f.basis_whitened
    # same span: projecting target onto raw leaves it unchanged
    proj = raw @ (raw.T @ target)
    assert np.abs(proj - target).max() < 1e-8


def test_prepared_fit_matches_fit_at_every_k():
    from tirex.estimators import PreparedFit

    ds = small_dataset(10)
    for method, d in [("tirex1", 1), ("tirex2", 2), ("cume", 1), ("cuve", 2),
                      ("pca", 2), ("svd_pca", 1)]:
        prepared = PreparedFit(ds)
        for k in (1, 17, ds.n):
            got, want = prepared.fit(method, k, d), fit(ds, method, k=k, d=d)
            assert got.k == want.k
            assert np.array_equal(got.candidate_matrix, want.candidate_matrix)
            assert np.array_equal(got.basis_raw, want.basis_raw)
            assert np.array_equal(got.projector_whitened, want.projector_whitened)
    assert PreparedFit(ds).fit("cuve", 5, 1).k == ds.n
    assert PreparedFit(ds).fit("pca", 5, 1).k is None
    with pytest.raises(InvalidInputError):
        PreparedFit(ds).fit("tirex1", ds.n + 1)


def test_prepared_fit_whitens_only_for_the_methods_that_need_it():
    # a constant column makes the covariance singular: the PCA variants fit,
    # the whitening methods fail, and the failure leaves the PCA fits intact
    from tirex.estimators import PreparedFit

    i = np.arange(20.0)
    prepared = PreparedFit(Dataset(x=np.column_stack([np.ones(20), i]), y=i))
    first = prepared.fit("pca", d=1)
    assert prepared.fit("svd_pca", d=1).k is None
    with pytest.raises(RankDeficiencyError):
        prepared.fit("tirex1", 5)
    again = prepared.fit("pca", d=1)
    assert np.array_equal(again.eigen.eigenvalues, first.eigen.eigenvalues)
    assert np.array_equal(first.eigen.eigenvalues, [33.25, 0.0])


@pytest.mark.parametrize("method", ["tirex1", "tirex2"])
def test_fit_grid_matches_per_k_fits_and_integral_oracle(method):
    from tirex.estimators import _BLOCK, PreparedFit

    ds = small_dataset(4, n=_BLOCK + 40)
    z, order = whiten_all(standardize(ds)), descending_order(ds.y)
    oracle = integral_oracle_tirex1 if method == "tirex1" else integral_oracle_tirex2
    prepared = PreparedFit(ds)
    for grid in ([1, _BLOCK - 1, _BLOCK, _BLOCK + 1, ds.n],
                 [_BLOCK + 1, 7, ds.n, 7, 1, _BLOCK + 1, _BLOCK - 1]):
        fits = prepared.fit_grid(method, grid, 2)
        assert [f.k for f in fits] == grid
        for k, f in zip(grid, fits):
            for want in (prepared.fit(method, k, 2).candidate_matrix, oracle(z, order, k)):
                scale = np.abs(want).max()
                assert np.abs(f.candidate_matrix - want).max() <= 1e-12 * scale, k


def test_fit_grid_pins_k_for_cume_cuve_and_ignores_it_for_pca():
    from tirex.estimators import PreparedFit

    ds = small_dataset(5)
    for method, d in [("cume", 1), ("cuve", 2), ("pca", 2), ("svd_pca", 1)]:
        prepared = PreparedFit(ds)
        want = prepared.fit(method, d=d)
        for f in prepared.fit_grid(method, [3, ds.n, 3], d):
            assert f.k == want.k
            assert np.array_equal(f.candidate_matrix, want.candidate_matrix)
            assert np.array_equal(f.basis_raw, want.basis_raw)


@pytest.mark.parametrize("method", ["tirex1", "tirex2", "cume", "cuve"])
def test_whitened_fits_do_not_depend_on_the_covariates_scale(method):
    # the raw basis W B shrinks with the whitener W, so its rank test must
    # not have an absolute floor
    ds = sample(model_preset("B")[0], 3000, seed=1)
    base = fit(ds, method, k=300, d=5)
    top = base.eigen.eigenvalues[0]
    for scale in (1e-100, 1e-12, 1e12, 1e100):
        f = fit(Dataset(ds.x * scale, ds.y), method, k=300, d=5)
        np.testing.assert_allclose(f.eigen.eigenvalues, base.eigen.eigenvalues,
                                   rtol=1e-9, atol=1e-9 * top)
        np.testing.assert_allclose(projector_from_basis(f.basis_raw),
                                   projector_from_basis(base.basis_raw), rtol=0, atol=1e-9)


def test_fit_transform_matches_whitened_projection():
    ds = small_dataset(9)
    f = fit(ds, "tirex1", k=12, d=1)
    std = standardize(ds)
    want = whiten_all(std) @ f.basis_whitened
    assert np.allclose(f.transform(ds.x), want, atol=1e-12)


def test_tail_increments_are_the_process_summands():
    rng = np.random.default_rng(4)
    z = rng.standard_normal((7, 3))
    first, second = tail_increments(z, False), tail_increments(z, True)
    assert first.shape == (7, 1, 3) and second.shape == (7, 3, 3)
    assert np.array_equal(first[:, 0, :], z)
    for j in range(7):
        assert np.array_equal(second[j], np.outer(z[j], z[j]) - np.eye(3))
