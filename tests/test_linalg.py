import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import tirex.linalg
from tirex.errors import ConvergenceError, InvalidInputError, RankDeficiencyError
from tirex.linalg import (
    frobenius_dist_sq,
    inv_sqrt,
    orthonormal_columns,
    projector_from_basis,
    sym_eigen,
    symmetrize,
)

from oracles import eigen_order_oracle, sign_rule_oracle

RECON_TOL = 1e-10
ORTH_TOL = 1e-10


def test_sym_eigen_identity():
    e = sym_eigen(np.eye(2))
    assert np.allclose(e.eigenvalues, [1.0, 1.0])
    # orthonormal pair obeying the sign rule
    assert np.abs(e.eigenvectors.T @ e.eigenvectors - np.eye(2)).max() < ORTH_TOL
    for j in range(2):
        col = e.eigenvectors[:, j]
        first = col[np.abs(col) > 1e-12][0]
        assert first > 0


def test_sym_eigen_diagonal():
    e = sym_eigen(np.diag([3.0, 1.0]))
    assert np.allclose(e.eigenvalues, [3.0, 1.0])
    assert np.allclose(np.abs(e.eigenvectors), np.eye(2))


def test_sym_eigen_2x2_closed_form():
    e = sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(e.eigenvalues, [3.0, 1.0], atol=1e-12)
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(e.eigenvectors[:, 0], [s, s], atol=1e-12)
    assert np.allclose(e.eigenvectors[:, 1], [s, -s], atol=1e-12)


def test_sym_eigen_rejects_nonfinite():
    with pytest.raises(InvalidInputError):
        sym_eigen(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_sym_eigen_maps_lapack_failure_to_convergence_error(monkeypatch):
    def fail(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(tirex.linalg.np.linalg, "eigh", fail)
    with pytest.raises(ConvergenceError, match="did not converge"):
        sym_eigen(np.eye(3))


def test_sym_eigen_deterministic():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((7, 7))
    e1, e2 = sym_eigen(m), sym_eigen(m)
    assert np.array_equal(e1.eigenvalues, e2.eigenvalues)
    assert np.array_equal(e1.eigenvectors, e2.eigenvectors)


def test_sym_eigen_500_random_matrices():
    # reconstruction, orthonormality, descending order and sign rule at the
    # stated tolerances
    rng = np.random.default_rng(42)
    for _ in range(500):
        dim = int(rng.integers(1, 31))
        m = symmetrize(rng.standard_normal((dim, dim)))
        e = sym_eigen(m)
        rec = e.eigenvectors @ np.diag(e.eigenvalues) @ e.eigenvectors.T
        assert np.linalg.norm(rec - m) < RECON_TOL
        assert np.abs(e.eigenvectors.T @ e.eigenvectors - np.eye(dim)).max() < ORTH_TOL
        assert np.all(np.diff(e.eigenvalues) <= 0)
        for j in range(dim):
            col = e.eigenvectors[:, j]
            sig = col[np.abs(col) > 1e-12]
            assert sig.size == 0 or sig[0] > 0


def test_inv_sqrt_identity():
    assert np.allclose(inv_sqrt(np.eye(3)), np.eye(3), atol=1e-12)


def test_inv_sqrt_diagonal():
    assert np.allclose(inv_sqrt(np.diag([4.0, 1.0])), np.diag([0.5, 1.0]), atol=1e-12)


def test_inv_sqrt_rank_deficiency_names_eigenvalue():
    with pytest.raises(RankDeficiencyError) as exc:
        inv_sqrt(np.diag([4.0, 1e-15]), eig_floor=1e-12)
    assert exc.value.eigenvalue == pytest.approx(1e-15, rel=1e-6)
    assert "1e-15" in str(exc.value) or "e-15" in str(exc.value)


def test_inv_sqrt_default_floor_is_scale_free():
    # eigenvalue ratio 1e12 trips the default relative floor at any scale
    for scale in (1e-6, 1.0, 1e6):
        with pytest.raises(RankDeficiencyError):
            inv_sqrt(scale * np.diag([1.0, 1e-12]))


def test_inv_sqrt_ridge_rescues_singular_matrix():
    m = np.diag([1.0, 0.0])
    with pytest.raises(RankDeficiencyError):
        inv_sqrt(m)
    w = inv_sqrt(m, ridge=1e-4)
    assert np.allclose(w, np.diag([(1 + 1e-4) ** -0.5, 1e2]), rtol=1e-10)


@pytest.mark.parametrize("kwargs", [
    dict(eig_floor=0.0), dict(eig_floor=-1.0), dict(eig_floor=float("nan")),
    dict(eig_floor=float("inf")),
    dict(ridge=-1.0), dict(ridge=float("nan")), dict(ridge=float("inf")),
])
def test_inv_sqrt_rejects_bad_floor_or_ridge(kwargs):
    # checked before the matrix, so a singular one gets the same answer
    for m in (np.eye(2), np.diag([1.0, 0.0])):
        with pytest.raises(InvalidInputError):
            inv_sqrt(m, **kwargs)


def test_inv_sqrt_whitens_spd_matrices():
    rng = np.random.default_rng(7)
    for _ in range(25):
        dim = int(rng.integers(1, 13))
        a = rng.standard_normal((dim, dim))
        m = a @ a.T + 0.5 * np.eye(dim)
        w = inv_sqrt(m)
        assert np.abs(w @ m @ w - np.eye(dim)).max() < 1e-8


def test_projector_from_basis_single_axis():
    p = projector_from_basis(np.array([[0.0], [1.0]]))
    assert np.trace(p) == 1
    assert np.allclose(p, np.diag([0.0, 1.0]))


def test_projector_from_basis_full_basis():
    p = projector_from_basis(np.eye(4))
    assert np.trace(p) == 4
    assert np.allclose(p, np.eye(4))


def test_projector_from_basis_diagonal_direction():
    s = 1.0 / np.sqrt(2.0)
    p = projector_from_basis(np.array([s, s]))
    assert np.allclose(p, np.full((2, 2), 0.5), atol=1e-12)


def test_projector_rejects_non_orthonormal():
    with pytest.raises(InvalidInputError):
        projector_from_basis(np.array([[1.0], [1.0]]))


def test_projector_invariants_random():
    rng = np.random.default_rng(11)
    for _ in range(20):
        dim = int(rng.integers(2, 10))
        d = int(rng.integers(1, dim + 1))
        basis = orthonormal_columns(rng.standard_normal((dim, d)))
        p = projector_from_basis(basis)
        assert np.abs(p @ p - p).max() < 1e-10
        assert np.abs(p - p.T).max() == 0.0
        assert abs(np.trace(p) - d) < 1e-8


def test_orthonormal_columns_rejects_dependent_input():
    with pytest.raises(InvalidInputError):
        orthonormal_columns(np.array([[1.0, 2.0], [2.0, 4.0]]))


@pytest.mark.parametrize("scale", [1e-300, 1e-12, 1.0, 1e300])
def test_orthonormal_columns_rank_test_is_scale_free(scale):
    # a fit's raw basis shrinks with its whitener, and stays of full rank
    b = np.random.default_rng(3).standard_normal((6, 3))
    assert np.allclose(orthonormal_columns(b * scale), orthonormal_columns(b),
                       rtol=0, atol=1e-14)
    with pytest.raises(InvalidInputError):
        orthonormal_columns(np.array([[1.0, 2.0], [2.0, 4.0]]) * scale)


def test_frobenius_dist_identical():
    p = projector_from_basis(np.array([[1.0], [0.0]]))
    assert frobenius_dist_sq(p, p) == 0.0


def test_frobenius_dist_orthogonal_rank1():
    p1 = projector_from_basis(np.array([[1.0], [0.0]]))
    p2 = projector_from_basis(np.array([[0.0], [1.0]]))
    assert frobenius_dist_sq(p1, p2) == pytest.approx(2.0, abs=1e-12)


def test_frobenius_dist_45_degrees():
    # direct 2x2 expansion: ||P1 - P2||_F^2 = 2 rank (1 - cos^2 theta) = 1
    p1 = projector_from_basis(np.array([[1.0], [0.0]]))
    s = 1.0 / np.sqrt(2.0)
    p2 = projector_from_basis(np.array([[s], [s]]))
    assert frobenius_dist_sq(p1, p2) == pytest.approx(1.0, abs=1e-12)


def test_frobenius_dist_dim_mismatch():
    with pytest.raises(InvalidInputError):
        frobenius_dist_sq(np.eye(2), np.eye(3))


def test_frobenius_trace_identity_equal_rank():
    # ||P1 - P2||_F^2 = 2d - 2 tr(P1 P2) for rank-d projectors
    rng = np.random.default_rng(5)
    for _ in range(20):
        dim = int(rng.integers(2, 12))
        d = int(rng.integers(1, dim))
        p1 = projector_from_basis(orthonormal_columns(rng.standard_normal((dim, d))))
        p2 = projector_from_basis(orthonormal_columns(rng.standard_normal((dim, d))))
        lhs = frobenius_dist_sq(p1, p2)
        rhs = 2 * d - 2 * np.trace(p1 @ p2)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_eigen_tie_break_is_permutation_invariant():
    # a matrix with a repeated eigenvalue: output order must not depend on
    # whether we feed it as-is (it is already symmetric)
    m = np.diag([2.0, 2.0, 1.0])
    e = sym_eigen(m)
    assert np.allclose(e.eigenvalues, [2.0, 2.0, 1.0])
    # lexicographically larger sign-normalized vector first among ties
    assert e.eigenvectors[0, 0] == pytest.approx(1.0)
    assert e.eigenvectors[1, 1] == pytest.approx(1.0)


def test_symmetrize_keeps_a_finite_matrix_finite():
    # (M + M^T) / 2 overflowed near the largest float, as `fit --ridge 1e308`
    # showed; the halves are summed instead, with the same bits elsewhere
    big = np.array([[1e308, 2.0], [2.0, 1.7976931348623157e308]])
    assert np.array_equal(symmetrize(big), big)
    m = np.random.default_rng(5).standard_normal((6, 6)) * 1e3
    assert symmetrize(m).tobytes() == ((m + m.T) * 0.5).tobytes()


# entries around the sign rule's 1e-12 threshold, both zeros included, so a
# column's first large entry is often negative and preceded by small ones
_SIGN_ENTRIES = st.sampled_from([-1.0, -0.5, -1e-12, -1e-13, -0.0, 0.0, 1e-13, 1e-12, 0.5, 1.0])


@given(arrays(float, st.tuples(st.integers(1, 8), st.integers(1, 8)), elements=_SIGN_ENTRIES))
@settings(max_examples=300, deadline=None)
def test_sign_rule_matches_the_column_loop_bit_for_bit(vecs):
    got = tirex.linalg._apply_sign_rule(vecs)
    assert got.tobytes() == sign_rule_oracle(vecs).tobytes()  # sign bits of zeros too


@st.composite
def _tied_spectrum(draw):
    """A symmetric matrix with exactly repeated eigenvalues, or the
    rank-deficient product B B^T of a narrow matrix B of -1, 0 and 1."""
    p = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        vals = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=p, max_size=p)))
        return (q * vals) @ q.T
    b = rng.integers(-1, 2, (p, draw(st.integers(1, p)))).astype(float)
    return b @ b.T


def _sym_eigen_oracle(m):
    vals, vecs = np.linalg.eigh(symmetrize(m))
    vecs = sign_rule_oracle(vecs)
    order = eigen_order_oracle(vals, vecs)
    return vals[order], vecs[:, order]


@given(_tied_spectrum())
@settings(max_examples=300, deadline=None)
def test_sym_eigen_matches_the_sorted_loop_on_repeated_eigenvalues(m):
    e = sym_eigen(m)
    vals, vecs = _sym_eigen_oracle(m)
    assert e.eigenvalues.tobytes() == vals.tobytes()
    assert e.eigenvectors.tobytes() == vecs.tobytes()


@given(st.integers(1, 6).flatmap(lambda p: st.tuples(
    arrays(float, p, elements=st.sampled_from([-1.0, 0.0, 1.0])),
    arrays(float, (p, p), elements=_SIGN_ENTRIES))))
@settings(max_examples=300, deadline=None)
def test_tie_order_matches_the_sorted_loop_on_exact_ties(case):
    # eigh replaced by fixed arrays: many equal eigenvalues, and columns that
    # tie on their first entries, so every key of the order is reached
    vals, vecs = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tirex.linalg.np.linalg, "eigh", lambda m: (vals, vecs))
        e = sym_eigen(np.eye(vals.size))
    signed = sign_rule_oracle(vecs)
    order = eigen_order_oracle(vals, signed)
    assert e.eigenvalues.tobytes() == vals[order].tobytes()
    assert e.eigenvectors.tobytes() == signed[:, order].tobytes()
