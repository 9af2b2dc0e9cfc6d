"""Tail inverse regression estimators and baselines.

The first-order tail process  C_n(u) = (1/k) sum_{i<=ceil(ku)} z_(i)  and its
second-order analogue  B_n(u) = (1/k) sum_{i<=ceil(ku)} (z_(i) z_(i)^T - I)
are cumulative sums over covariates ordered by descending target.  Both are
piecewise constant in u with breakpoints at j/k, so their squared integrals
over u in [0, 1] collapse to closed forms over prefix sums:

    M1 = (1/k^3) sum_{j<=k} S_j S_j^T,    S_j = sum_{i<=j} z_(i)
    M2 = (1/k^3) sum_{j<=k} T_j T_j^T,    T_j = sum_{i<=j} (z_(i) z_(i)^T - I)

computed incrementally, which costs O(n log n) for the sort plus O(k p^2)
(first order) or O(k p^3) (second order, matrix-product form).  Choosing
k = n recovers the classical cumulative slicing matrices (CUME / CUVE); both
identities are enforced here and cross-checked against brute-force double
sums in the tests.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import descending_order, standardize
from .errors import InvalidInputError
from .linalg import (
    EigenDecomposition,
    Projector,
    orthonormal_columns,
    projector_from_basis,
    sym_eigen,
    symmetrize,
)

METHODS = ("tirex1", "tirex2", "cume", "cuve", "pca", "svd_pca")
# the methods whose k is free; cume/cuve pin k to n, the PCA variants ignore it
FREE_K_METHODS = ("tirex1", "tirex2")

_K_FORCED_TO_N = ("cume", "cuve")
_PCA_METHODS = ("pca", "svd_pca")

_BLOCK = 1024


def _order_indices(order, n):
    idx = np.asarray(order)
    if idx.shape != (n,):
        raise InvalidInputError(f"order must be a permutation of {n} row indices")
    return idx


def _check_k(k, n):
    if not (1 <= k <= n):
        raise InvalidInputError(f"k must satisfy 1 <= k <= n={n}, got {k}")


def tirex1_matrix(z, order, k):
    """First-order candidate matrix (1/k^3) sum_j S_j S_j^T over prefix sums
    of target-ordered covariate rows.  Positive semi-definite, rank <= min(k, p)."""
    z = np.asarray(z, dtype=float)
    n = z.shape[0]
    _check_k(k, n)
    idx = _order_indices(order, n)
    prefixes = np.cumsum(z[idx[:k]], axis=0)
    return symmetrize(prefixes.T @ prefixes / float(k) ** 3)


def tirex2_matrix(z, order, k):
    """Second-order candidate matrix (1/k^3) sum_j T_j T_j^T with symmetric
    p x p accumulants T_j = sum_{i<=j} (z_(i) z_(i)^T - I).

    Runs in blocks so memory stays at O(block * p^2) for large k.
    """
    z = np.asarray(z, dtype=float)
    n, p = z.shape
    _check_k(k, n)
    idx = _order_indices(order, n)
    zk = z[idx[:k]]
    eye = np.eye(p)
    total = np.zeros((p, p))
    running = np.zeros((p, p))
    for start in range(0, k, _BLOCK):
        zb = zk[start : start + _BLOCK]
        grads = np.einsum("ji,jl->jil", zb, zb) - eye
        t_block = running + np.cumsum(grads, axis=0)
        total += np.einsum("jab,jcb->ac", t_block, t_block)
        running = t_block[-1]
    return symmetrize(total / float(k) ** 3)


@dataclass(frozen=True)
class SdrFit:
    """Fitted dimension-reduction subspace.

    ``basis_whitened`` holds the top-d eigenvectors of the candidate matrix in
    whitened coordinates; ``basis_raw`` maps them back through the whitener
    and re-orthonormalizes.  For the PCA variants no whitening happens and the
    two coordinate systems coincide.  ``mean``/``whitener`` are retained so
    held-out points can be projected consistently with the training fit.
    """

    method: str
    k: Optional[int]
    d: int
    candidate_matrix: np.ndarray
    eigen: EigenDecomposition
    basis_whitened: np.ndarray
    projector_whitened: Projector
    basis_raw: np.ndarray
    mean: np.ndarray
    whitener: Optional[np.ndarray]

    def transform(self, x):
        """Reduce covariate rows to d coordinates in the fit's frame."""
        x = np.asarray(x, dtype=float)
        if self.whitener is not None:
            return (x - self.mean) @ self.whitener @ self.basis_whitened
        return (x - self.mean) @ self.basis_raw

    def to_json_dict(self):
        return {
            "method": self.method,
            "k": self.k,
            "d": self.d,
            "eigenvalues": [float(v) for v in self.eigen.eigenvalues],
        }


def _validate_method(method):
    if method not in METHODS:
        raise InvalidInputError(
            f"unknown method {method!r}; expected one of {', '.join(METHODS)}"
        )


def _default_d(method, d):
    if d is not None:
        return int(d)
    if method in ("tirex1", "cume"):
        return 1  # the first-order limit is rank one
    raise InvalidInputError(f"method {method!r} requires an explicit d")


def _effective_k(method, k, n):
    """The k a method fits at: cume/cuve pin it to n, the PCA variants have
    none, and tirex1/tirex2 need an explicit 1 <= k <= n."""
    if method in _PCA_METHODS:
        return None
    if method in _K_FORCED_TO_N:
        return n
    if k is None:
        raise InvalidInputError(f"method {method!r} requires k (no default)")
    k = int(k)
    _check_k(k, n)
    return k


def _pca_fit(ds, method, d):
    """Top-d eigenvectors of the covariate covariance (pca) or raw second
    moment (svd_pca), divide-by-n convention; no whitening."""
    centered = method == "pca"
    x = ds.x - ds.x.mean(axis=0) if centered else ds.x
    candidate = symmetrize(x.T @ x / ds.n)
    eig = sym_eigen(candidate)
    basis = eig.eigenvectors[:, :d].copy()
    return SdrFit(
        method=method,
        k=None,
        d=d,
        candidate_matrix=candidate,
        eigen=eig,
        basis_whitened=basis,
        projector_whitened=projector_from_basis(basis),
        basis_raw=basis,
        mean=ds.x.mean(axis=0) if centered else np.zeros(ds.p),
        whitener=None,
    )


class PreparedFit:
    """One method on one dataset, prepared once and fitted at any k.

    The covariates are whitened and the target is sorted here, once, so each
    ``fit(k)`` costs only the O(k p^2) (first-order) or O(k p^3)
    (second-order) candidate matrix and a p x p eigensolve.  The PCA variants
    have no k and are fitted here outright.  Raises InvalidInputError for an
    unknown method or a bad d, and NumericalError when the covariance cannot
    be whitened.
    """

    def __init__(self, ds, method, d=None, eig_floor=None, ridge=0.0):
        _validate_method(method)
        d = _default_d(method, d)
        if not (1 <= d <= ds.p):
            raise InvalidInputError(f"d must satisfy 1 <= d <= p={ds.p}, got {d}")
        self.method, self.d, self.n = method, d, ds.n
        if method in _PCA_METHODS:
            self._pca = _pca_fit(ds, method, d)
        else:
            self._std = standardize(ds, eig_floor=eig_floor, ridge=ridge)
            self._order = descending_order(ds.y)

    def fit(self, k=None):
        """The fit at k: cume/cuve ignore k and use n, the PCA variants
        ignore it, tirex1/tirex2 need 1 <= k <= n."""
        k = _effective_k(self.method, k, self.n)
        if k is None:  # a PCA variant
            return self._pca
        if self.method in ("tirex1", "cume"):
            candidate = tirex1_matrix(self._std.z, self._order, k)
        else:
            candidate = tirex2_matrix(self._std.z, self._order, k)
        eig = sym_eigen(candidate)
        basis_w = eig.eigenvectors[:, :self.d].copy()
        return SdrFit(
            method=self.method,
            k=k,
            d=self.d,
            candidate_matrix=candidate,
            eigen=eig,
            basis_whitened=basis_w,
            projector_whitened=projector_from_basis(basis_w),
            basis_raw=orthonormal_columns(self._std.whitener @ basis_w),
            mean=self._std.mean,
            whitener=self._std.whitener,
        )


def fit(ds, method, k=None, d=None, eig_floor=None, ridge=0.0):
    """Estimate a dimension-reduction subspace on a dataset at one k.

    tirex1/tirex2 need 1 <= k <= n (the number of top order statistics);
    cume/cuve force k = n; the PCA variants ignore k.  d defaults to 1 for
    the first-order methods and must be given otherwise.  To fit at many k,
    prepare once with PreparedFit.
    """
    _validate_method(method)
    _effective_k(method, k, ds.n)  # a bad k is reported before whitening runs
    return PreparedFit(ds, method, d, eig_floor=eig_floor, ridge=ridge).fit(k)
