"""Reference implementations that only the tests use.

The tail processes are evaluated straight from their definitions, and the
cumulative slicing matrices as O(n^2) double sums, so the closed-form
candidate matrices in ``tirex.estimators`` are checked against code that
shares none of their prefix-sum arithmetic.  ``serial_pools`` stands in for
the thread pool of ``rng.replicate`` and runs its tasks in the calling
thread.
"""

import csv

import numpy as np

from tirex import rng as rngmod
from tirex.data import Dataset, ceil_index
from tirex.errors import InvalidInputError
from tirex.estimators import tail_increments
from tirex.linalg import symmetrize
from tirex.process_verify import COV_ENTRY, MEAN_ENTRY
from tirex.synthetic import _categorical


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


def prefix_gram_oracle(z, order, ks, second_order):
    """Candidate matrices (1/k^3) sum_{j<=k} T_j T_j^T for every k of ``ks``
    as one Gram product per k: every prefix sum of the ``tail_increments``
    (1 x p, or p x p at second order) stacked into one tall matrix.  The
    reference for the blocked grid in ``tirex.estimators``, and what ties
    its second-order recurrence to the kernel ``verify-process`` checks."""
    z = np.asarray(z, dtype=float)
    n, p = z.shape
    idx = _order_indices(order, n)
    out = []
    for k in ks:
        _check_k(k, n)
        prefixes = np.cumsum(tail_increments(z[idx[:k]], second_order), axis=0)
        flat = prefixes.reshape(-1, p)
        out.append(symmetrize(flat.T @ flat / float(k) ** 3))
    return out


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


def knn_scores_oracle(train_pts, train_labels, query_pts, n_neighbors):
    """Full-sort k-NN vote: a stable sort of every distance row puts the
    nearest training points first, ties in index order.  The reference for
    the partial selection in ``tirex.evaluation.knn_scores``."""
    tp = np.asarray(train_pts, dtype=float)
    qp = np.asarray(query_pts, dtype=float)
    if tp.ndim == 1:
        tp = tp[:, None]
    if qp.ndim == 1:
        qp = qp[:, None]
    labels = np.asarray(train_labels).astype(float)
    out = np.empty(qp.shape[0])
    chunk = max(1, int(2**22 // max(1, tp.shape[0])))
    for start in range(0, qp.shape[0], chunk):
        block = qp[start : start + chunk]
        d2 = ((block[:, None, :] - tp[None, :, :]) ** 2).sum(axis=-1)
        nearest = np.argsort(d2, axis=1, kind="stable")[:, :n_neighbors]
        out[start : start + chunk] = labels[nearest].mean(axis=1)
    return out


def column_sum_sq_distances(block, train):
    """Squared distances from each row of ``block`` to each row of ``train``,
    the squared coordinate differences added one column at a time, in
    order: the sums ``tirex.evaluation._sq_distances`` makes at every d."""
    out = np.zeros((block.shape[0], train.shape[0]))
    for j in range(train.shape[1]):
        out = out + (block[:, j, None] - train[None, :, j]) ** 2
    return out


def knn_run_start_oracle(ts, q, m):
    """The lane-by-lane binary search that found each query's run start in
    ``tirex.evaluation`` before the midpoint search: the first l in
    [i - m, i] whose ts[l + m] is no nearer than ts[l] in rounded
    differences.  A lane leaves the search once lo == hi, so ts[mid + m]
    stays in range."""
    n = ts.size
    i = np.searchsorted(ts, q)
    lo, hi = np.maximum(i - m, 0), np.minimum(i, n - m)
    live = np.flatnonzero(lo < hi)
    with np.errstate(over="ignore"):  # the differences of +-1.7e308 overflow
        while live.size:
            mid, ql = (lo[live] + hi[live]) // 2, q[live]
            shift = ql - ts[mid] > ts[mid + m] - ql
            lo[live[shift]] = mid[shift] + 1
            hi[live[~shift]] = mid[~shift]
            live = live[lo[live] < hi[live]]
    return lo


def sign_rule_oracle(vecs):
    """The column loop ``tirex.linalg`` ran before its sign rule became one
    array expression: flip each column whose first entry above 1e-12 in
    magnitude is negative."""
    vecs = vecs.copy()
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        big = np.nonzero(np.abs(col) > 1e-12)[0]
        if big.size and col[big[0]] < 0.0:
            vecs[:, j] = -col
    return vecs


def eigen_order_oracle(vals, vecs):
    """The Python sort ``tirex.linalg.sym_eigen`` ran before ``np.lexsort``:
    eigenvalues descending, ties by the lexicographically larger column."""
    return sorted(range(len(vals)), key=lambda j: (-vals[j], tuple(-vecs[:, j])))


def write_csv_oracle(ds, path):
    """``tirex.data.write_csv`` as one ``csv.writer`` row per data row: the
    byte-for-byte reference for its joined body."""
    names = ds.names if ds.names is not None else [f"x{j + 1}" for j in range(ds.p)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(names) + ["y"])
        for i in range(ds.n):
            writer.writerow([repr(float(v)) for v in ds.x[i]] + [repr(float(ds.y[i]))])


def sample_oracle(spec, n, seed, stream=0):
    """``tirex.synthetic.sample`` with the exponential and Pareto transforms
    applied to the whole noise matrices before one entry per row is read."""
    rng = rngmod.stream(seed, 0, stream)
    m = spec.p - spec.d
    b = rng.random(n) < spec.theta
    idx1 = _categorical(rng, spec.pi1, n)
    idx2 = _categorical(rng, spec.pi2, n)
    eps = -np.log1p(-rng.random((n, m))) / spec.alpha1
    zeta = (1.0 - rng.random((n, spec.d))) ** (-1.0 / spec.alpha2)
    v = spec.covariate_law.sample(rng, (n, m))
    w = spec.covariate_law.sample(rng, (n, spec.d))
    rows = np.arange(n)
    y1 = v[rows, idx1] * eps[rows, idx1]
    y2 = w[rows, idx2] * zeta[rows, idx2]
    y = np.where(b, y1, y2)
    names = [f"v{i + 1}" for i in range(m)] + [f"w{j + 1}" for j in range(spec.d)]
    return Dataset(x=np.hstack([v, w]), y=y, names=names)


def one_shot_moments(x, centered=True):
    """``data.moments`` as one product over all rows, as it was computed
    before the row blocks: the column means (or zeros) and the symmetrized
    divide-by-n second moment about them."""
    mean = x.mean(axis=0) if centered else np.zeros(x.shape[1])
    xc = x - mean
    return mean, symmetrize(xc.T @ xc / x.shape[0])


def whiten_all(std):
    """Every row of a ``StandardizedDataset`` whitened, in row order."""
    return std.whiten(np.arange(std.x.shape[0]))


def covariance_entries_oracle(centered, grid, limit_cov):
    """``process_verify._covariance_entries`` as one (reps x q x q) product
    array per u-pair, as the gate was computed before it went in blocks of
    rows: the bit-for-bit reference, as ``COV_ENTRY`` records."""
    n_reps, n_u, q = centered.shape
    entries = []
    for s in range(n_u):
        for t in range(s, n_u):
            prods = np.einsum("ra,rb->rab", centered[:, s, :], centered[:, t, :])
            emp = prods.mean(axis=0)
            se = prods.std(axis=0, ddof=1) / np.sqrt(n_reps)
            theory = min(grid[s], grid[t]) * limit_cov
            dev = np.abs(emp - theory)
            ok = dev <= 4.0 * se + 1e-12
            for a in range(q):
                for b in range(q):
                    entries.append((grid[s], grid[t], a, b, emp[a, b], theory[a, b],
                                    dev[a, b], se[a, b], ok[a, b]))
    return np.array(entries, COV_ENTRY)


def mean_entries_oracle(devs, grid):
    """``process_verify._mean_entries`` as the mean gate was written inline
    in ``covariance_check`` before the verdict rule had one home: the
    bit-for-bit reference, failing entries included, as ``MEAN_ENTRY``
    records."""
    n_reps, _, q = devs.shape
    mean_entries = []
    means = devs.mean(axis=0)
    mean_se = devs.std(axis=0, ddof=1) / np.sqrt(n_reps)
    for i, u in enumerate(grid):
        for a in range(q):
            ok = abs(means[i, a]) <= 4.0 * mean_se[i, a] + 1e-12
            mean_entries.append((u, a, means[i, a], mean_se[i, a], ok))
    return np.array(mean_entries, MEAN_ENTRY)


def set_cpus(monkeypatch, cpus):
    """Let ``rng.replicate`` see ``cpus`` CPUs in this process's affinity mask."""
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def serial_pools(monkeypatch):
    """Replace the thread pool of ``rng.replicate`` by one that runs each
    task in the calling thread, so no thread starts; the returned list
    collects the ``max_workers`` of every pool made."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", SerialPool)
    return sizes
