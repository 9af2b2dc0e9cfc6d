"""Reference implementations that only the tests use.

The tail processes are evaluated straight from their definitions, and the
cumulative slicing matrices as O(n^2) double sums, so the closed-form
candidate matrices in ``tirex.estimators`` are checked against code that
shares none of their prefix-sum arithmetic.
"""

import numpy as np

from tirex.data import ceil_index
from tirex.errors import InvalidInputError
from tirex.linalg import symmetrize


def _order_indices(order, n):
    idx = np.asarray(order)
    if idx.shape != (n,):
        raise InvalidInputError(f"order must be a permutation of {n} row indices")
    return idx


def _check_k(k, n):
    if not (1 <= k <= n):
        raise InvalidInputError(f"k must satisfy 1 <= k <= n={n}, got {k}")


def c_process(z, order, k, u):
    """First-order tail process value: (1/k) sum of the top ceil(k*u) rows of
    z ordered by descending target."""
    z = np.asarray(z, dtype=float)
    n = z.shape[0]
    _check_k(k, n)
    if not (0.0 <= u <= 1.0):
        raise InvalidInputError(f"u must lie in [0, 1], got {u}")
    m = min(ceil_index(k * u), k)
    if m == 0:
        return np.zeros(z.shape[1])
    idx = _order_indices(order, n)
    return z[idx[:m]].sum(axis=0) / k


def b_process(z, order, k, u):
    """Second-order tail process value with summand z z^T - I."""
    z = np.asarray(z, dtype=float)
    n, p = z.shape
    _check_k(k, n)
    if not (0.0 <= u <= 1.0):
        raise InvalidInputError(f"u must lie in [0, 1], got {u}")
    m = min(ceil_index(k * u), k)
    if m == 0:
        return np.zeros((p, p))
    idx = _order_indices(order, n)
    zm = z[idx[:m]]
    return symmetrize((zm.T @ zm - m * np.eye(p)) / k)


def cume_matrix_oracle(z, y):
    """Brute-force cumulative-mean matrix for the negated target.

    (1/n) sum_a m_a m_a^T with m_a = (1/n) sum_i z_i 1{-y_i <= -y_a}.  This is
    the k = n limit of the first-order candidate matrix; kept as an
    independent O(n^2) reference implementation.
    """
    z = np.asarray(z, dtype=float)
    yt = -np.asarray(y, dtype=float)
    n = z.shape[0]
    ind = (yt[None, :] <= yt[:, None]).astype(float)
    m = ind @ z / n
    return symmetrize(m.T @ m / n)


def cuve_matrix_oracle(z, y):
    """Brute-force second-order analogue of cume_matrix_oracle, with summand
    z_i z_i^T - I; the k = n reference for the second-order candidate."""
    z = np.asarray(z, dtype=float)
    yt = -np.asarray(y, dtype=float)
    n, p = z.shape
    grads = np.einsum("ji,jl->jil", z, z) - np.eye(p)
    ind = (yt[None, :] <= yt[:, None]).astype(float)
    w = np.einsum("ai,ijk->ajk", ind, grads) / n
    return symmetrize(np.einsum("ajk,alk->jl", w, w) / n)
