"""Tail inverse regression estimators and baselines.

The first-order tail process  C_n(u) = (1/k) sum_{i<=ceil(ku)} z_(i)  and its
second-order analogue  B_n(u) = (1/k) sum_{i<=ceil(ku)} (z_(i) z_(i)^T - I)
are cumulative sums over covariates ordered by descending target.  Both are
piecewise constant in u with breakpoints at j/k, so their squared integrals
over u in [0, 1] collapse to closed forms over prefix sums:

    M1 = (1/k^3) sum_{j<=k} S_j S_j^T,    S_j = sum_{i<=j} z_(i)
    M2 = (1/k^3) sum_{j<=k} T_j T_j^T,    T_j = sum_{i<=j} (z_(i) z_(i)^T - I)

computed incrementally in blocks of rows, each a running cumulative sum and
one matrix product (BLAS), which costs O(n log n) for the sort plus
O(k p^2) (first order) or O(k p^3) (second order).  A whole k grid is one
pass: every grid k ends a block and snapshots the running sum, so the grid
costs O(k_max p^2) or O(k_max p^3) once, not once per k.  Choosing
k = n recovers the classical cumulative slicing matrices (CUME / CUVE); both
identities are enforced here and cross-checked against brute-force double
sums in the tests.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import descending_order, second_moment, standardize
from .errors import InvalidInputError, NumericalError
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
# the methods built from first-order tail moments, whose limit is rank one
_FIRST_ORDER_METHODS = ("tirex1", "cume")

_K_FORCED_TO_N = ("cume", "cuve")
_PCA_METHODS = ("pca", "svd_pca")

_BLOCK = 256


def _order_indices(order, n):
    idx = np.asarray(order)
    if idx.shape != (n,):
        raise InvalidInputError(f"order must be a permutation of {n} row indices")
    return idx


def _check_k(k, n):
    if not (1 <= k <= n):
        raise InvalidInputError(f"k must satisfy 1 <= k <= n={n}, got {k}")


def tail_increments(rows, second_order):
    """The summands of the tail processes, shape (m, r, p): each covariate
    row z as a 1 x p block (first order, r = 1) or z z^T - I (second order,
    r = p).  The first-order result is a view of ``rows``."""
    rows = np.asarray(rows, dtype=float)
    if second_order:
        return rows[:, :, None] * rows[:, None, :] - np.eye(rows.shape[1])
    return rows[:, None, :]


def _prefix_grams(z, order, ks, second_order):
    """Candidate matrices (1/k^3) sum_{j<=k} T_j T_j^T for every k of ``ks``
    (ascending) in one pass over the target-ordered rows.

    The increments of the prefix sums T_j are ``tail_increments``.  Rows
    run in blocks of at most ``_BLOCK``: a running cumulative sum, then one
    matrix product over the block's stacked prefix rows.  Every k of the
    grid ends a block and snapshots the running Gram matrix, so the whole
    grid costs O(k_max p^2) or O(k_max p^3) once, and memory stays at
    O(_BLOCK r p).
    """
    z = np.asarray(z, dtype=float)
    n, p = z.shape
    idx = _order_indices(order, n)
    total = np.zeros((p, p))
    running = np.zeros((p if second_order else 1, p))
    out = []
    start = 0
    for k in ks:
        _check_k(k, n)
        while start < k:
            stop = min(start + _BLOCK, k)
            steps = tail_increments(z[idx[start:stop]], second_order)
            # seeding the first step keeps the running sum sequential across blocks
            steps[0] += running
            prefixes = np.cumsum(steps, axis=0)
            running = prefixes[-1]
            flat = prefixes.reshape(-1, p)
            total += flat.T @ flat
            start = stop
        out.append(symmetrize(total / float(k) ** 3))
    return out


def tirex1_matrix(z, order, k):
    """First-order candidate matrix (1/k^3) sum_j S_j S_j^T over prefix sums
    S_j of target-ordered covariate rows.  Positive semi-definite, rank <= min(k, p)."""
    return _prefix_grams(z, order, [k], second_order=False)[0]


def tirex2_matrix(z, order, k):
    """Second-order candidate matrix (1/k^3) sum_j T_j T_j^T with symmetric
    p x p accumulants T_j = sum_{i<=j} (z_(i) z_(i)^T - I)."""
    return _prefix_grams(z, order, [k], second_order=True)[0]


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
    if method in _FIRST_ORDER_METHODS:
        return 1
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
    mean = ds.x.mean(axis=0) if method == "pca" else np.zeros(ds.p)
    candidate = second_moment(ds.x - mean)
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
        mean=mean,
        whitener=None,
    )


class PreparedFit:
    """One method on one dataset, prepared once and fitted at any k.

    The covariates are whitened and the target is sorted here, once, so each
    ``fit(k)`` costs only the O(k p^2) (first-order) or O(k p^3)
    (second-order) candidate matrix and a p x p eigensolve, and ``fit_grid``
    builds the candidate matrices of a whole k grid in one pass.  The PCA
    variants have no k and are fitted here outright.  Raises
    InvalidInputError for an unknown method or a bad d, and NumericalError
    when the covariance cannot be whitened.
    """

    def __init__(self, ds, method, d=None, eig_floor=None, ridge=0.0):
        _validate_method(method)
        d = _default_d(method, d)
        if not (1 <= d <= ds.p):
            raise InvalidInputError(f"d must satisfy 1 <= d <= p={ds.p}, got {d}")
        self.method, self.d, self.n = method, d, ds.n
        self._first_order = method in _FIRST_ORDER_METHODS
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
        matrix = tirex1_matrix if self._first_order else tirex2_matrix
        return self._fit_candidate(k, matrix(self._std.z, self._order, k))

    def fit_grid(self, k_grid):
        """The fits at every k of ``k_grid`` (any order, repeats allowed), one
        entry per grid position, with the candidate matrices built in one
        pass.  An entry whose eigensolve failed holds the NumericalError it
        raised, so a failure spoils only its own k."""
        ks = [_effective_k(self.method, k, self.n) for k in k_grid]
        if self.method in _PCA_METHODS:
            return [self._pca] * len(ks)
        distinct = sorted(set(ks))
        candidates = _prefix_grams(
            self._std.z, self._order, distinct, second_order=not self._first_order
        )
        fits = {}
        for k, candidate in zip(distinct, candidates):
            try:
                fits[k] = self._fit_candidate(k, candidate)
            except NumericalError as exc:
                fits[k] = exc
        return [fits[k] for k in ks]

    def _fit_candidate(self, k, candidate):
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
