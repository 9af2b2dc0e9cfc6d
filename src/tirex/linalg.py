"""Dense symmetric linear algebra: eigendecomposition, inverse square root,
orthogonal projectors (plain symmetric arrays) and Frobenius distances.

All routines are deterministic: the eigensolver is LAPACK's symmetric
driver (``numpy.linalg.eigh``), eigenvector signs follow a fixed rule and
eigenvalue ties are broken by a lexicographic rule on the sign-normalized
eigenvectors.  Everything is pure and reentrant; no global state.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InvalidInputError, RankDeficiencyError

# First eigenvector entry with magnitude above this is forced positive.
_SIGN_RULE_TOL = 1e-12


def symmetrize(m):
    """Return the symmetric average (M + M^T)/2 as a new float array.

    Averaging makes entries [i, j] and [j, i] bitwise equal, which the rest
    of the module relies on.  The halves are summed, so a finite matrix
    never overflows; above the subnormal range halving is exact, so the
    bits are those of (M + M^T) * 0.5.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {m.shape}")
    return 0.5 * m + 0.5 * m.T


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues sorted descending with matching orthonormal eigenvectors.

    ``eigenvectors[:, i]`` belongs to ``eigenvalues[i]``; each column has its
    first entry of magnitude > 1e-12 positive (sign determinism).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _check_finite(m, what):
    if not np.all(np.isfinite(m)):
        raise InvalidInputError(f"{what} contains non-finite entries")


def _apply_sign_rule(vecs):
    """Flip eigenvector columns so the first entry above 1e-12 is positive."""
    big = np.abs(vecs) > _SIGN_RULE_TOL
    first_big = big & (np.cumsum(big, axis=0) == 1)
    return np.where((first_big & (vecs < 0.0)).any(axis=0), -vecs, vecs)


def sym_eigen(m):
    """Eigendecomposition of a symmetric matrix, deterministic ordering.

    The input is symmetrized by averaging first.  Eigenvalues come out
    descending; exact ties are ordered by the lexicographically larger
    sign-normalized eigenvector first, so repeated runs and permuted inputs
    give reproducible output.  Raises ConvergenceError when LAPACK does not
    converge.
    """
    m = symmetrize(m)
    _check_finite(m, "matrix")
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolver did not converge: {exc}") from exc
    vecs = _apply_sign_rule(vecs)
    order = np.lexsort(np.vstack([-vecs[::-1], -vals]))
    return EigenDecomposition(vals[order], np.ascontiguousarray(vecs[:, order]))


def check_floor_and_ridge(eig_floor, ridge):
    """InvalidInputError unless ``eig_floor`` is None or finite and > 0 and
    ``ridge`` is finite and >= 0: the arguments ``inv_sqrt`` accepts."""
    if eig_floor is not None and not (np.isfinite(eig_floor) and eig_floor > 0):
        raise InvalidInputError(f"eig_floor must be finite and > 0, got {eig_floor}")
    if not (np.isfinite(ridge) and ridge >= 0):
        raise InvalidInputError(f"ridge must be finite and >= 0, got {ridge}")


def inv_sqrt(m, eig_floor=None, ridge=0.0):
    """Inverse square root V diag(lambda^{-1/2}) V^T of a symmetric matrix.

    Every eigenvalue must be >= ``eig_floor`` (default: 1e-10 times the
    largest); otherwise a RankDeficiencyError naming the offending eigenvalue
    is raised -- there is no silent pseudo-inverse.  An explicit floor must be
    finite and > 0.  ``ridge`` > 0 adds ridge * I before decomposition as an
    explicit opt-in regularization; it must be finite and >= 0.
    """
    check_floor_and_ridge(eig_floor, ridge)
    m = symmetrize(m)
    if ridge:
        m = m + ridge * np.eye(m.shape[0])
    eig = sym_eigen(m)
    floor = 1e-10 * float(eig.eigenvalues[0]) if eig_floor is None else float(eig_floor)
    if floor <= 0.0:
        raise RankDeficiencyError(
            f"matrix has no positive spectral scale (largest eigenvalue "
            f"{eig.eigenvalues[0]:.6g})",
            eigenvalue=float(eig.eigenvalues[-1]),
        )
    lo = float(eig.eigenvalues[-1])
    if lo < floor:
        raise RankDeficiencyError(
            f"rank-deficient matrix: eigenvalue {lo:.6g} is below the floor "
            f"{floor:.6g}; pass a ridge term to regularize explicitly",
            eigenvalue=lo,
        )
    v = eig.eigenvectors
    return symmetrize((v / np.sqrt(eig.eigenvalues)) @ v.T)


def projector_from_basis(basis):
    """Orthogonal projector B B^T onto the span of orthonormal columns, as a
    symmetric array."""
    basis = np.asarray(basis, dtype=float)
    if basis.ndim == 1:
        basis = basis[:, None]
    _check_finite(basis, "basis")
    gram = basis.T @ basis
    if np.max(np.abs(gram - np.eye(basis.shape[1]))) > 1e-8:
        raise InvalidInputError("basis columns are not orthonormal to 1e-8")
    return symmetrize(basis @ basis.T)


def frobenius_dist_sq(m1, m2):
    """Squared Frobenius distance ||M1 - M2||_F^2 between two matrices of one
    shape, such as two projectors."""
    m1, m2 = np.asarray(m1, dtype=float), np.asarray(m2, dtype=float)
    if m1.shape != m2.shape:
        raise InvalidInputError(f"dimension mismatch: {m1.shape} vs {m2.shape}")
    d = m1 - m2
    return float(np.sum(d * d))


def orthonormal_columns(b):
    """Orthonormalize columns (thin QR) with the deterministic sign rule.

    Spans the same subspace as the input; requires full column rank, judged
    scale-free: every diagonal entry of R must exceed 1e-12 times R's
    largest entry in magnitude.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim == 1:
        b = b[:, None]
    q, r = np.linalg.qr(b)
    if np.min(np.abs(np.diag(r))) <= 1e-12 * float(np.abs(r).max()):
        raise InvalidInputError("columns are numerically dependent")
    # QR returns columns up to sign; re-apply the sign rule for determinism
    return _apply_sign_rule(q)
