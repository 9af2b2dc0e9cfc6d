"""Tail inverse regression estimators and baselines.

The first-order tail process  C_n(u) = (1/k) sum_{i<=ceil(ku)} z_(i)  and its
second-order analogue  B_n(u) = (1/k) sum_{i<=ceil(ku)} (z_(i) z_(i)^T - I)
are cumulative sums over covariates ordered by descending target.  Both are
piecewise constant in u with breakpoints at j/k, so their squared integrals
over u in [0, 1] collapse to closed forms over prefix sums:

    M1 = (1/k^3) sum_{j<=k} S_j S_j^T,    S_j = sum_{i<=j} z_(i)
    M2 = (1/k^3) sum_{j<=k} T_j T_j^T,    T_j = sum_{i<=j} (z_(i) z_(i)^T - I)

computed incrementally in blocks of b rows.  M1 takes a running cumulative
sum and one matrix product per block: O(n log n) for the sort plus
O(k p^2).  M2 never forms the p x p prefix sums T_j: a row's change to
T_j^2 is two rank-one terms plus multiples of T_{j-1}, z z^T and I, so a
block costs a few (b x p) products and one p x p product,
O(n log n + k p (p + b)) in all, or O(k p^2) at a fixed block, with
O(b^2 + b p) memory.  That is below the paper's stated
O(k p^3) for the second order.  Each block's products are GEMMs on one
transposed copy of its rows: numpy routes ``a @ a.T`` and ``a.T @ a`` to
BLAS syrk, which at 128 x p is about 3x slower.  A whole k grid is one
pass: every grid k ends a block and snapshots the running sum, so the grid
costs its largest k once, not once per k.  Choosing k = n recovers the
classical cumulative slicing matrices (CUME / CUVE); both identities are
enforced here and cross-checked against brute-force double sums in the
tests.

Every tail kernel here takes covariate rows already in descending target
order and reads the first k; the caller that owns the targets orders them
with ``data.descending_order``.  ``PreparedFit`` (one dataset, any method)
whitens only those k rows: a fit holds them and one row block beside the
covariates, and spends O(n p^2) only on the covariance (``data.moments``).

``tail_increments`` holds the processes' summands, the kernel that
``process_verify`` checks against the Gaussian limit.  The M2 recurrence
does not call it; a property test ties the two together instead, comparing
every grid matrix with the Gram of the stacked ``tail_increments`` prefix
sums (``tests/oracles.py``).
"""

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Optional

import numpy as np

from .data import descending_order, moments, standardize
from .errors import InvalidInputError, NumericalError
from .linalg import (
    EigenDecomposition,
    check_floor_and_ridge,
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

_BLOCK = 128


def check_methods(methods):
    """The method names as a tuple; InvalidInputError unless there is at
    least one, each is one of METHODS and none is named twice."""
    methods = tuple(methods)
    if not methods:
        raise InvalidInputError("no method named")
    for i, method in enumerate(methods):
        if method not in METHODS:
            raise InvalidInputError(
                f"unknown method {method!r}; expected one of {', '.join(METHODS)}"
            )
        if method in methods[:i]:
            raise InvalidInputError(f"method {method!r} named twice")
    return methods


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


def _add_first_order_block(rows, running, total):
    """Add sum_j S_j S_j^T over the block's prefix sums S_j to ``total`` and
    return S at the block's end; ``running`` is S at its start.  ``rows`` is
    only read."""
    rows = rows.copy()
    rows[0] += running  # seeding keeps the cumulative sum sequential across blocks
    prefixes = np.cumsum(rows, axis=0)
    total += prefixes.T @ prefixes
    return prefixes[-1]


# rows of a block before row l, sliced to the block's size b: a k's short
# last block has its own
_ROWS_BEFORE = np.arange(_BLOCK, dtype=float)


@cache
def _strict_lower():
    """The strict lower triangle of a full block's Gram as a 0/1 mask, sliced
    to [:b, :b] per block.  A float mask multiplies twice as fast as a
    boolean one; it is built on first use, so runs without the second order
    do not hold its 128 KiB."""
    return np.tri(_BLOCK, k=-1)


def _add_second_order_block(rows, running, total):
    """Add sum_j T_j^2 over the block's prefix sums T_j to ``total``, and
    move ``running`` in place from T at the block's start to T at its end
    and return it.  ``rows`` is only read.

    Row l (from 0) moves T_{l-1} to T_l = T_{l-1} + z_l z_l^T - I, so

        T_l^2 - T_{l-1}^2 = u_l z_l^T + z_l u_l^T - 2 T_{l-1}
                            + (|z_l|^2 - 2) z_l z_l^T + I,   u_l = T_{l-1} z_l,

    and that step enters the w_l = b - l prefix sums from row l on.  So the
    block adds b T^2 (T = ``running``) plus the w-weighted steps.  Writing
    T_{l-1} = T + sum_{m<l} (z_m z_m^T - I) turns the -2 T_{l-1} terms into
    -2 (sum w) T and a row weight -2 c_m on z_m z_m^T, with c_m the sum of w
    over the rows after m.  Every term is a product of a (b x p) and a
    (p x b) or (b x p) operand, or p x p; no p x p matrix is formed per row.

    Every product is a GEMM against one C-contiguous transposed copy of
    ``rows``: numpy sends ``a @ a.T`` and ``a.T @ a`` on one buffer to BLAS
    syrk, about 3x slower than a GEMM at 128 x p (2.6x at p = 30, 5x at
    p = 2 on OpenBLAS).  The block's constants are slices of arrays built
    once, and the sums accumulate in place.
    """
    b, p = rows.shape
    rows_t = rows.T.copy()
    pos = _ROWS_BEFORE[:b]
    w = b - pos
    gram = rows @ rows_t
    sq = gram.diagonal().copy()  # |z_l|^2
    gram *= _strict_lower()[:b, :b]
    gram.flat[::b + 1] = -pos  # the -l I of T_{l-1}
    # u_l = T_{l-1} z_l, one row per l, then weighted by w_l
    u = rows @ running
    u += gram @ rows
    u *= w[:, None]
    cross = u.T @ rows
    total += cross
    total += cross.T
    total += running @ (b * running)
    total -= (b * (b + 1)) * running  # 2 (sum w) T
    total.flat[::p + 1] += b * (b + 1) * (2 * b + 1) / 6  # sum of w + 2 c
    running += rows_t @ rows
    running.flat[::p + 1] -= b
    sq -= 2
    sq *= w
    sq -= w * (w - 1)  # the row weights w (|z|^2 - 2) - 2 c
    rows_t *= sq
    total += rows_t @ rows
    return running


def _prefix_grams(z, ks, second_order):
    """Candidate matrices (1/k^3) sum_{j<=k} T_j T_j^T for every k of ``ks``
    (ascending) in one pass over the rows of ``z``, which must already be in
    descending target order: the matrix at k reads ``z[:k]``.

    Rows run in blocks of at most ``_BLOCK``, each adding its prefixes'
    share of the sum.  First order: a cumulative sum and one (b x p)^T
    (b x p) product.  Second order: the rank-one recurrence of
    ``_add_second_order_block``, a few (b x p) products and one p x p
    product.  Every k of the grid ends a block and snapshots the running
    sum, so the whole grid costs O(k_max p^2) or O(k_max p (p + b)) once,
    with memory O(b p) or O(b^2 + b p).
    """
    z = np.ascontiguousarray(z, dtype=float)
    n, p = z.shape
    add_block = _add_second_order_block if second_order else _add_first_order_block
    total = np.zeros((p, p))
    running = np.zeros((p, p)) if second_order else np.zeros(p)
    out = []
    start = 0
    for k in ks:
        _check_k(k, n)
        while start < k:
            stop = min(start + _BLOCK, k)
            running = add_block(z[start:stop], running, total)
            start = stop
        out.append(symmetrize(total / float(k) ** 3))
    return out


def tirex1_matrix(z, k):
    """First-order candidate matrix (1/k^3) sum_j S_j S_j^T over prefix sums S_j
    of ``z[:k]``, rows in descending target order.  PSD, rank <= min(k, p)."""
    return _prefix_grams(z, [k], second_order=False)[0]


def tirex2_matrix(z, k):
    """Second-order candidate matrix (1/k^3) sum_j T_j T_j^T, T_j = sum_{i<=j}
    (z_i z_i^T - I) over ``z[:k]``, rows in descending target order."""
    return _prefix_grams(z, [k], second_order=True)[0]


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
    projector_whitened: np.ndarray
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


def _sdr_fit(method, k, d, candidate, mean, whitener):
    """The fit spanned by the top-d eigenvectors of ``candidate``; without a
    whitener (the PCA variants) the raw basis is that basis itself."""
    eig = sym_eigen(candidate)
    basis = eig.eigenvectors[:, :d].copy()
    return SdrFit(
        method=method,
        k=k,
        d=d,
        candidate_matrix=candidate,
        eigen=eig,
        basis_whitened=basis,
        projector_whitened=projector_from_basis(basis),
        basis_raw=basis if whitener is None else orthonormal_columns(whitener @ basis),
        mean=mean,
        whitener=whitener,
    )


class PreparedFit:
    """One dataset, prepared once and fitted by any method at any k.

    The first fit that whitens (tirex1, tirex2, cume, cuve) computes the
    covariance, its whitener and the descending target order, which are
    kept; the PCA variants never whiten, so a singular covariance fails only
    the methods that do.  The covariates are held, not a whitened copy.
    ``fit(method, k, d)`` whitens only the k rows of the largest targets,
    O(k p^2), and builds from them the O(k p^2) (first-order) or
    O(k p (p + b)) (second-order, block size b) candidate matrix and a
    p x p eigensolve; ``fit_grid`` whitens the rows of its largest k once
    and builds the candidate matrices of the whole grid in one pass.
    Raises InvalidInputError for a bad eig_floor or ridge, or per fit for an
    unknown method, a bad k or a bad d (in that order, before whitening),
    and NumericalError when the covariance cannot be whitened.
    """

    def __init__(self, ds, eig_floor=None, ridge=0.0):
        check_floor_and_ridge(eig_floor, ridge)
        self._ds, self._eig_floor, self._ridge = ds, eig_floor, ridge

    @cached_property
    def _std(self):
        return standardize(self._ds, eig_floor=self._eig_floor, ridge=self._ridge)

    @cached_property
    def _order(self):
        return descending_order(self._ds.y)

    def _checked(self, method, ks, d):
        """``_effective_k`` of each of ``ks``, and d (1 by default for the
        first-order methods only), checking the method, then k, then d."""
        check_methods([method])
        ks = [_effective_k(method, k, self._ds.n) for k in ks]
        if d is None and method not in _FIRST_ORDER_METHODS:
            raise InvalidInputError(f"method {method!r} requires an explicit d")
        d = 1 if d is None else int(d)
        if not (1 <= d <= self._ds.p):
            raise InvalidInputError(f"d must satisfy 1 <= d <= p={self._ds.p}, got {d}")
        return ks, d

    def fit(self, method, k=None, d=None):
        """The fit at k: cume/cuve ignore k and use n, the PCA variants
        ignore it, tirex1/tirex2 need 1 <= k <= n."""
        (k,), d = self._checked(method, [k], d)
        if k is None:  # a PCA variant
            return self._pca_fit(method, d)
        matrix = tirex1_matrix if method in _FIRST_ORDER_METHODS else tirex2_matrix
        candidate = matrix(self._top_rows(k), k)
        return _sdr_fit(method, k, d, candidate, self._std.mean, self._std.whitener)

    def fit_grid(self, method, k_grid, d=None):
        """The fits at every k of ``k_grid`` (any order, repeats allowed), one
        entry per grid position, with the candidate matrices built in one
        pass.  An entry whose eigensolve failed holds the NumericalError it
        raised, so a failure spoils only its own k."""
        ks, d = self._checked(method, k_grid, d)
        if method in _PCA_METHODS:
            return [self._pca_fit(method, d)] * len(ks)
        distinct = sorted(set(ks))
        k_max = max(distinct, default=0)
        candidates = _prefix_grams(self._top_rows(k_max), distinct,
                                   second_order=method not in _FIRST_ORDER_METHODS)
        fits = {}
        for k, candidate in zip(distinct, candidates):
            try:
                fits[k] = _sdr_fit(method, k, d, candidate, self._std.mean, self._std.whitener)
            except NumericalError as exc:
                fits[k] = exc
        return [fits[k] for k in ks]

    def _pca_fit(self, method, d):
        # the covariance (pca) or raw second moment (svd_pca), divide by n
        mean, moment = moments(self._ds.x, centered=method == "pca")
        return _sdr_fit(method, None, d, moment, mean, None)

    def _top_rows(self, k):
        """The whitened covariates of the k largest targets, in descending
        target order: the only rows a candidate matrix at k reads."""
        return self._std.whiten(self._order[:k])


def fit(ds, method, k=None, d=None, eig_floor=None, ridge=0.0):
    """Estimate a dimension-reduction subspace on a dataset at one k.

    tirex1/tirex2 need 1 <= k <= n (the number of top order statistics);
    cume/cuve force k = n; the PCA variants ignore k.  d defaults to 1 for
    the first-order methods and must be given otherwise.  To fit several
    methods or many k on one dataset, prepare it once with PreparedFit.
    """
    return PreparedFit(ds, eig_floor, ridge).fit(method, k, d)
