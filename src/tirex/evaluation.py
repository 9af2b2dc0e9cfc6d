"""Benchmarking harness: subspace-recovery sweeps over k, tail-event
classification with nearest neighbours, and cross-validated choice of k.

Subspace recovery is scored by the squared Frobenius distance between the
estimated and true orthogonal projectors, decomposed per k into

    bias^2   = || P_true - mean(P_hat) ||_F^2
    variance = mean || P_hat - mean(P_hat) ||_F^2
    mse      = mean || P_hat - P_true ||_F^2  ( = bias^2 + variance )

over independent replications.  Classification follows a two-step protocol:
reduce the covariates with a fitted subspace, then classify exceedances of a
high target quantile with a k-nearest-neighbour vote, reporting the
class-imbalance-resistant AM risk (mean of false-positive and false-negative
rates) and the AUC.
"""

from dataclasses import asdict, dataclass, fields
from functools import partial
from itertools import chain
from typing import Optional

import numpy as np

from . import rng as rngmod
from .data import BLOCK_ELEMENTS, empirical_quantile, row_blocks
from .errors import InvalidInputError, NumericalError, check_size
from .estimators import FREE_K_METHODS, PreparedFit, check_methods
from .linalg import frobenius_dist_sq, projector_from_basis
from .synthetic import sample, true_projector

DEFAULT_NEIGHBORS = 5
TEST_FRACTION = 0.2


# ---------------------------------------------------------------------------
# metrics


def _truth_labels(values, what, truth, metric):
    """``truth`` as booleans and its positive count; InvalidInputError unless
    it has the shape of ``values`` and holds both classes."""
    t = np.asarray(truth).astype(bool)
    if values.shape != t.shape:
        raise InvalidInputError(f"{what} and truth must have equal length")
    n_pos = int(t.sum())
    if n_pos == 0 or n_pos == t.size:
        raise InvalidInputError(f"{metric} undefined: truth contains a single class")
    return t, n_pos


def am_risk(predictions, truth):
    """Arithmetic-mean risk 0.5 * (FPR + FNR) of binary predictions.

    Both classes must be present in the truth labels, otherwise one of the
    conditional error rates is undefined.
    """
    pred = np.asarray(predictions).astype(bool)
    t, _ = _truth_labels(pred, "predictions", truth, "AM risk")
    fpr = float(pred[~t].mean())
    fnr = float((~pred[t]).mean())
    return 0.5 * (fpr + fnr)


def auc(scores, truth):
    """Area under the ROC curve as the Mann-Whitney statistic
    P(score+ > score-) + 0.5 P(tie), via midranks (exact under ties)."""
    s = np.asarray(scores, dtype=float)
    t, n_pos = _truth_labels(s, "scores", truth, "AUC")
    n_neg = t.size - n_pos
    if np.isnan(s).any():  # NaN ties nothing, so its rank would hang on the sort
        raise InvalidInputError("scores contain NaN")
    # midranks: each run of tied scores shares the mean of its 1-based ranks,
    # so the order inside a run cannot reach the result
    order = np.argsort(s)
    ordered = s[order]
    run_start = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    run_end = np.r_[run_start[1:], s.size]
    ranks = np.empty(s.size)
    ranks[order] = np.repeat(0.5 * (run_start + run_end + 1), run_end - run_start)
    return float((ranks[t].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def knn_scores(train_pts, train_labels, query_pts, n_neighbors=DEFAULT_NEIGHBORS):
    """Fraction of positive (nonzero) labels among the ``n_neighbors``
    Euclidean-nearest training points.

    Every coordinate must be finite, else InvalidInputError; a squared
    distance past the largest float rounds to +inf, which ties every point
    that far.  Distance ties at the boundary resolve to the smaller training
    index; the hard prediction downstream is score > 0.5, so a tied 0.5 vote
    predicts negative.  The full scan, O(n_train * (d + 1)) per query, sums the
    squared coordinate differences one column at a time, in order, at every
    d, in blocks of queries of at most ``data.BLOCK_ELEMENTS`` distances (one
    query at least).  It selects rather than sorts: a partial selection finds
    the m-th smallest squared distance (m = ``n_neighbors``), every strictly
    closer point is taken, and the rest go to the points at exactly that
    distance in index order, as a stable sort would.

    In one dimension the training points are sorted once per call.  When
    a query's m nearest points are unique, they are a run
    ts[l : l + m] of the sorted values with l in [i - m, i], i being the
    query's insertion point, and a midpoint search finds l in one call
    (``_run_starts``).  The run answers the query when both points just
    outside it are strictly farther than its farther end, whatever the search
    returned; the vote is then a difference of prefix counts of positive
    labels.  Every other query takes the full scan, the one place ties are
    broken, so tie-heavy inputs (integer-valued covariates) cost O(n_train)
    per query.  The squared distances are rounded, so a tie can also join
    distinct values: from q = -1e16 the points 0, 1, ..., 5 lie at only 3
    distinct squared distances.
    """
    tp = np.asarray(train_pts, dtype=float)
    qp = np.asarray(query_pts, dtype=float)
    if tp.ndim == 1:
        tp = tp[:, None]
    if qp.ndim == 1:
        qp = qp[:, None]
    if tp.shape[0] == 0:
        raise InvalidInputError("empty training set")
    if tp.shape[1] == 0:
        raise InvalidInputError("points must have at least one coordinate")
    if qp.shape[1] != tp.shape[1]:
        raise InvalidInputError("query and training points must share a dimension")
    positive = np.asarray(train_labels).astype(bool)
    if positive.shape[0] != tp.shape[0]:
        raise InvalidInputError("one training label per training point required")
    if not (1 <= n_neighbors <= tp.shape[0]):
        raise InvalidInputError(
            f"n_neighbors must lie in [1, {tp.shape[0]}], got {n_neighbors}"
        )
    if not (np.isfinite(tp).all() and np.isfinite(qp).all()):
        raise InvalidInputError("training and query points must be finite")
    with np.errstate(over="ignore"):  # a squared distance past the largest float is +inf
        if tp.shape[1] == 1:
            return _knn_runs(tp[:, 0], positive, qp[:, 0], n_neighbors)
        return _knn_brute(tp, positive, qp, n_neighbors)


def _sq_distances(block, columns, out, term):
    """Squared Euclidean distances into ``out`` (rows x n), one row per query
    in ``block`` (rows x d), from the training points' coordinates stored
    column by column in ``columns`` (d x n): the squared differences of
    column 0, then those of each later column added in order, each held in
    ``term`` (rows x n) first.  Up to d = 7 the sums equal numpy's row sum
    ``((block[:, None, :] - columns.T[None]) ** 2).sum(axis=-1)`` bit for
    bit; from d = 8 numpy adds pairwise and may differ in the last bits."""
    np.square(np.subtract(block[:, 0, None], columns[0], out=out), out=out)
    for j in range(1, columns.shape[0]):
        out += np.square(np.subtract(block[:, j, None], columns[j], out=term), out=term)
    return out


def _knn_brute(tp, positive, qp, m):
    n = tp.shape[0]
    columns = np.ascontiguousarray(tp.T)
    out = np.empty(qp.shape[0])
    blocks = row_blocks(qp.shape[0], BLOCK_ELEMENTS // n)
    # one set of buffers per call, sized to the largest block: a fresh set
    # per block made glibc trim its heap and fault the pages in again; the
    # second holds a column's squares, then the partition copy
    rows = max((hi - lo for lo, hi in blocks), default=0)
    buffers = [np.empty((rows, n), dtype) for dtype in (float, float, bool, bool, np.int64)]
    for lo, hi in blocks:
        d2, part, taken, tied, rank = (b[: hi - lo] for b in buffers)
        _sq_distances(qp[lo:hi], columns, d2, part)
        np.copyto(part, d2)
        part.partition(m - 1, axis=1)
        kth = part[:, m - 1, None]
        np.less(d2, kth, out=taken)
        np.equal(d2, kth, out=tied)
        need = m - np.count_nonzero(taken, axis=1)
        taken |= tied & (np.cumsum(tied, axis=1, out=rank) <= need[:, None])
        out[lo:hi] = np.count_nonzero(np.logical_and(taken, positive, out=taken), axis=1) / m
    return out


def _run_starts(ts, q, m):
    """First l in [i - m, i] (i the insertion point, clipped to the data)
    whose pair midpoint (ts[l] + ts[l + m]) / 2 is >= q: the halves sum to
    s + err exactly (TwoSum), and complex numbers order as (real, imag).
    Halving rounds below 2**-1021 only, where the two distances it could
    reorder round equal or square to 0, so no start passes the certificate."""
    n = ts.size
    a, b = 0.5 * ts[: n - m], 0.5 * ts[m:]
    s = a + b
    err = (a - (s - (s - a))) + (b - (s - a))
    i = np.searchsorted(ts, q)
    return np.clip(np.searchsorted(s + 1j * err, q), np.maximum(i - m, 0), np.minimum(i, n - m))


def _knn_runs(t, positive, q, m):
    order = np.argsort(t)
    ts, n = t[order], t.size
    positives_before = np.concatenate(([0], np.cumsum(positive[order])))
    lo = _run_starts(ts, q, m)
    # certificate: both outside neighbours of ts[lo : lo + m] are farther
    kth = np.maximum((q - ts[lo]) ** 2, (q - ts[lo + m - 1]) ** 2)
    spill = (lo > 0) & ((q - ts[np.maximum(lo - 1, 0)]) ** 2 <= kth)
    spill |= (lo + m < n) & ((q - ts[np.minimum(lo + m, n - 1)]) ** 2 <= kth)
    out = (positives_before[lo + m] - positives_before[lo]) / m
    if spill.any():
        out[spill] = _knn_brute(t[:, None], positive, q[spill, None], m)
    return out


def knn_predict(scores):
    """Hard labels from vote scores; exact 0.5 predicts negative."""
    return np.asarray(scores) > 0.5


# ---------------------------------------------------------------------------
# subspace-recovery sweep


@dataclass(frozen=True)
class SweepCell:
    k: int
    bias_sq: float
    variance: float
    mse: float
    reps_ok: int
    failures: int


@dataclass(frozen=True)
class SweepReport:
    """Per-k error decomposition of projector estimates over replications."""

    method: str
    d: int
    reps: int
    cells: list

    def csv_rows(self):
        columns = ("k", "bias_sq", "variance", "mse")
        rows = ([getattr(cell, c) for c in columns] for cell in self.cells)
        return chain([columns], rows)

    def to_json_dict(self):
        return asdict(self)

    def cell(self, k):
        """First cell for a given k (grids normally hold distinct k)."""
        for c in self.cells:
            if c.k == k:
                return c
        raise KeyError(k)


def sweep_cell(k, projectors, truth):
    """Bias^2 / variance / MSE at one k of the replications' projector
    matrices against ``truth``; a None entry is a failed replication."""
    mats = [m for m in projectors if m is not None]
    failures = len(projectors) - len(mats)
    if not mats:
        return SweepCell(k, float("nan"), float("nan"), float("nan"), 0, failures)
    mean_mat = np.mean(mats, axis=0)
    bias_sq = frobenius_dist_sq(truth, mean_mat)
    variance = float(np.mean([frobenius_dist_sq(m, mean_mat) for m in mats]))
    mse = float(np.mean([frobenius_dist_sq(m, truth) for m in mats]))
    return SweepCell(k, bias_sq, variance, mse, len(mats), failures)


def _rep_bases(spec, n, method, d, k_grid, seed, rep):
    """Whitened p x d bases for one replication, one entry per grid position
    (None marks a numerical failure: of the sample or the whitening, which
    fails every k, or of one k's eigensolve)."""
    try:
        fits = PreparedFit(sample(spec, n, seed, stream=rep)).fit_grid(method, k_grid, d)
    except NumericalError:
        return [None] * len(k_grid)
    return [None if isinstance(f, NumericalError) else f.basis_whitened for f in fits]


def sweep(spec, n, method, d, k_grid, reps, seed, jobs=1):
    """Estimate bias^2 / variance / MSE of the fitted projector per k.

    Replication r draws its own sample (stream r of the seed), prepared once
    and shared across the whole k grid; numerical failures abort single
    (k, rep) cells and are counted (see ``sweep_cell``).  ``jobs`` must be
    >= 1 and caps the threads of work of ``rng.replicate``, the calling
    thread included; results reduce in replication order, so the output is
    independent of scheduling.
    """
    if reps < 2:
        raise InvalidInputError("sweep needs reps >= 2")
    if jobs < 1:
        raise InvalidInputError(f"jobs must be >= 1, got {jobs}")
    k_grid = [int(k) for k in k_grid]
    if not k_grid:
        raise InvalidInputError("k_grid must be non-empty")
    for k in k_grid:
        if not (1 <= k <= n):
            raise InvalidInputError(f"k={k} outside [1, n={n}]")
    truth = true_projector(spec)

    # bases, not projectors, are held across replications: p x d, not p x p
    per_rep = rngmod.replicate(partial(_rep_bases, spec, n, method, d, k_grid, seed),
                               reps, jobs)
    cells = [sweep_cell(k, [None if bases[pos] is None else projector_from_basis(bases[pos])
                            for bases in per_rep], truth)
             for pos, k in enumerate(k_grid)]
    return SweepReport(method=method, d=d, reps=reps, cells=cells)


def geometric_k_grid(lo, hi, count):
    """count geometrically spaced integers spanning [lo, hi] (rounded; kept
    as-is, so near-duplicates at the low end are possible).  hi may not
    exceed ``errors.MAX_SIZE``, the largest sample size."""
    if not (1 <= lo <= hi):
        raise InvalidInputError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
    check_size(hi, "hi")
    if count < 1:
        raise InvalidInputError("count must be >= 1")
    if count == 1:
        return [int(round(hi))]
    return [int(round(v)) for v in np.geomspace(lo, hi, count)]


# ---------------------------------------------------------------------------
# stratified resampling


def _split_classes(labels):
    labels = np.asarray(labels).astype(bool)
    return np.nonzero(labels)[0], np.nonzero(~labels)[0]


def stratified_folds(labels, folds, seed):
    """Fold index per row; positives and negatives dealt round-robin after a
    seeded shuffle, so every fold holds at least one of each class."""
    if folds < 2:
        raise InvalidInputError("need folds >= 2")
    pos, neg = _split_classes(labels)
    if len(pos) < folds:
        raise InvalidInputError(
            f"too few positives ({len(pos)}) to stratify into {folds} folds"
        )
    if len(neg) < folds:
        raise InvalidInputError(
            f"too few negatives ({len(neg)}) to stratify into {folds} folds"
        )
    rng = rngmod.stream(seed, 2)
    fold_of = np.empty(len(labels), dtype=int)
    fold_of[rng.permutation(pos)] = np.arange(len(pos)) % folds
    fold_of[rng.permutation(neg)] = np.arange(len(neg)) % folds
    return fold_of


def stratified_split(labels, test_fraction, seed):
    """(train_idx, test_idx) with the class ratio preserved on both sides."""
    pos, neg = _split_classes(labels)
    if len(pos) < 2 or len(neg) < 2:
        raise InvalidInputError("need at least two rows of each class to split")
    rng = rngmod.stream(seed, 1)
    pos_sh, neg_sh = rng.permutation(pos), rng.permutation(neg)
    t_pos = min(max(int(round(test_fraction * len(pos))), 1), len(pos) - 1)
    t_neg = min(max(int(round(test_fraction * len(neg))), 1), len(neg) - 1)
    test = np.sort(np.concatenate([pos_sh[:t_pos], neg_sh[:t_neg]]))
    train = np.sort(np.concatenate([pos_sh[t_pos:], neg_sh[t_neg:]]))
    return train, test


# ---------------------------------------------------------------------------
# classification protocol


def _fit_and_vote(train_ds, train_labels, held_x, method_ks, d, n_neighbors):
    """``{method: [(fit, scores), ...]}``: ``train_ds`` prepared once and fitted
    by each method at each of its ``method_ks`` (clamped to the training size;
    None keeps the method's own k rule), then the ``n_neighbors`` vote on the
    reduced ``held_x``.  A k or ``n_neighbors`` below 1 raises before any fit,
    and a failed fit before any vote."""
    low_k = [k for ks in method_ks.values() for k in ks if k is not None and k < 1]
    if low_k:
        raise InvalidInputError(f"k must be >= 1, got {min(low_k)}")
    if n_neighbors < 1:
        raise InvalidInputError(f"n_neighbors must be >= 1, got {n_neighbors}")
    prepared = PreparedFit(train_ds)
    votes = {}
    for method, ks in method_ks.items():
        fits = prepared.fit_grid(method, [k if k is None else min(k, train_ds.n) for k in ks], d)
        for f in fits:
            if isinstance(f, NumericalError):
                raise f
        votes[method] = [(f, knn_scores(f.transform(train_ds.x), train_labels,
                                        f.transform(held_x), n_neighbors)) for f in fits]
    return votes


def cross_validate_k(ds, methods, d, k_grid, folds, quantile_level, seed,
                     n_neighbors=DEFAULT_NEIGHBORS):
    """Pick, per method, the k maximizing the held-out AUC of the
    reduce-then-classify pipeline.

    Labels are exceedances of the dataset's own empirical quantile at
    ``quantile_level``; folds are stratified on that label.  Each fold is
    split and its training part prepared once, then fitted by every method
    at every k; k is clamped to the fold training size when necessary.
    Returns ``{method: (best_k, table)}`` with the mean fold AUC per k; ties
    keep the smallest k.  An empty method list, or an unknown or repeated
    name, raises InvalidInputError before any fit.
    """
    methods = check_methods(methods)
    labels = ds.y > empirical_quantile(ds.y, quantile_level)
    fold_of = stratified_folds(labels, folds, seed)
    k_values = sorted({int(k) for k in k_grid})
    if not k_values:
        raise InvalidInputError("k_grid must be non-empty")

    fold_aucs = {method: {k: [] for k in k_values} for method in methods}
    for f_idx in range(folds):
        train_idx, val_idx = np.nonzero(fold_of != f_idx)[0], np.nonzero(fold_of == f_idx)[0]
        votes = _fit_and_vote(ds.subset(train_idx), labels[train_idx], ds.x[val_idx],
                              {method: k_values for method in methods}, d, n_neighbors)
        for method, aucs in fold_aucs.items():
            for k, (_, scores) in zip(k_values, votes[method]):
                aucs[k].append(auc(scores, labels[val_idx]))
    tables = {m: {k: float(np.mean(a)) for k, a in aucs.items()} for m, aucs in fold_aucs.items()}
    return {m: (max(k_values, key=table.__getitem__), table) for m, table in tables.items()}


@dataclass(frozen=True)
class MethodScore:
    method: str
    am_risk: float
    auc: float
    chosen_k: Optional[int]


@dataclass(frozen=True)
class ClassificationReport:
    """Held-out AM risk and AUC per dimension-reduction method.

    ``baseline_am_risk`` records the always-negative classifier (0.5 by
    construction) as the sanity anchor for the AM-risk column.
    """

    quantile_level: float
    n_train: int
    n_test: int
    baseline_am_risk: float
    scores: list

    def csv_rows(self):
        columns = [f.name for f in fields(MethodScore)]
        rows = ([getattr(s, c) for c in columns] for s in self.scores)
        return chain([columns], rows)

    def to_json_dict(self):
        return asdict(self)

    def score(self, method):
        for s in self.scores:
            if s.method == method:
                return s
        raise KeyError(method)


def classify_experiment(ds, methods, d, quantile_level, folds, seed,
                        k_grid=None, n_neighbors=DEFAULT_NEIGHBORS):
    """Tail-event classification benchmark on one dataset.

    Exceedance labels come from the empirical ``quantile_level``-quantile of
    the full target; the data is split stratified 80/20.  The methods
    with a free k choose it in one stratified cross-validation of the
    training part, whose folds they share (none runs without such a method),
    clamped to the training size like the per-fold fits (``chosen_k`` is the
    k actually fitted); cume/cuve use the full training size and the PCA
    variants have no k.  The training part is prepared once for every
    method's final fit, and an ``n_neighbors`` vote on the reduced
    coordinates produces the scores.  An empty method list, or an unknown
    or repeated name, raises InvalidInputError before any fit.
    """
    methods = check_methods(methods)
    labels = ds.y > empirical_quantile(ds.y, quantile_level)
    train_idx, test_idx = stratified_split(labels, TEST_FRACTION, seed)
    train_ds, test_labels = ds.subset(train_idx), labels[test_idx]

    if k_grid is None:
        k_grid = geometric_k_grid(max(1, train_ds.n // 100), train_ds.n, 30)

    free_k = [m for m in methods if m in FREE_K_METHODS]
    chosen = cross_validate_k(train_ds, free_k, d, k_grid, folds, quantile_level, seed,
                              n_neighbors) if free_k else {}
    votes = _fit_and_vote(train_ds, labels[train_idx], ds.x[test_idx],
                          {m: [chosen[m][0] if m in chosen else None] for m in methods},
                          d, n_neighbors)
    results = [
        MethodScore(method=method, am_risk=am_risk(knn_predict(scores), test_labels),
                    auc=auc(scores, test_labels), chosen_k=f.k)
        for method, [(f, scores)] in votes.items()
    ]
    baseline = am_risk(np.zeros(len(test_idx), dtype=bool), test_labels)
    return ClassificationReport(quantile_level=quantile_level, n_train=train_ds.n,
                                n_test=len(test_idx), baseline_am_risk=baseline, scores=results)
