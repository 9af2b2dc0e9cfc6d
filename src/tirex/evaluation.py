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

from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from functools import partial
from typing import Optional

import numpy as np

from . import rng as rngmod
from .data import csv_text, empirical_quantile
from .errors import InvalidInputError, NumericalError
from .estimators import FREE_K_METHODS, PreparedFit, fit
from .linalg import frobenius_dist_sq
from .synthetic import sample, true_projector

DEFAULT_NEIGHBORS = 5
TEST_FRACTION = 0.2
# distances held at once by the k-NN full scan (2 MiB of float64)
KNN_CHUNK_ELEMENTS = 2**18


# ---------------------------------------------------------------------------
# metrics


def am_risk(predictions, truth):
    """Arithmetic-mean risk 0.5 * (FPR + FNR) of binary predictions.

    Both classes must be present in the truth labels, otherwise one of the
    conditional error rates is undefined.
    """
    pred = np.asarray(predictions).astype(bool)
    t = np.asarray(truth).astype(bool)
    if pred.shape != t.shape:
        raise InvalidInputError("predictions and truth must have equal length")
    n_pos = int(t.sum())
    if n_pos == 0 or n_pos == t.size:
        raise InvalidInputError("AM risk undefined: truth contains a single class")
    fpr = float(pred[~t].mean())
    fnr = float((~pred[t]).mean())
    return 0.5 * (fpr + fnr)


def auc(scores, truth):
    """Area under the ROC curve as the Mann-Whitney statistic
    P(score+ > score-) + 0.5 P(tie), via midranks (exact under ties)."""
    s = np.asarray(scores, dtype=float)
    t = np.asarray(truth).astype(bool)
    if s.shape != t.shape:
        raise InvalidInputError("scores and truth must have equal length")
    n_pos = int(t.sum())
    n_neg = t.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise InvalidInputError("AUC undefined: truth contains a single class")
    # midranks: each run of tied scores shares the mean of its 1-based ranks
    order = np.argsort(s, kind="stable")
    ordered = s[order]
    run_start = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    run_end = np.r_[run_start[1:], s.size]
    ranks = np.empty(s.size)
    ranks[order] = np.repeat(0.5 * (run_start + run_end + 1), run_end - run_start)
    return float((ranks[t].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def knn_scores(train_pts, train_labels, query_pts, n_neighbors=DEFAULT_NEIGHBORS):
    """Fraction of positive (nonzero) labels among the ``n_neighbors``
    Euclidean-nearest training points.

    Distance ties at the boundary resolve to the smaller training index; the
    hard prediction downstream is score > 0.5, so a tied 0.5 vote predicts
    negative.  The full scan, O(n_train * (d + 1)) per query in chunks of
    about ``KNN_CHUNK_ELEMENTS`` distances, selects rather than sorts: a
    partial selection finds the m-th smallest squared distance (m =
    ``n_neighbors``), every strictly closer point is taken, and the
    remaining places go to the points at exactly that distance in index
    order, the set a stable sort would put first.  For d <= 7 it adds the
    squared column differences one column at a time, bit-identical to
    numpy's in-order sum of such short rows; from d = 8 on numpy's sum
    groups the terms differently and is kept, so the tie sets do not move.

    In one dimension (finite coordinates) the training points are sorted once
    per call.  When a query's m nearest points are unique, they are a run
    ts[l : l + m] of the sorted values with l in [i - m, i], i being the
    query's insertion point, and a binary search finds l in O(log m) steps.
    The run answers the query when both points just outside it are strictly
    farther than its farther end, whatever the search returned; the vote is
    then a difference of prefix counts of positive labels.  Every other query
    takes the full scan, the one place ties are broken, so tie-heavy inputs
    (integer-valued covariates) cost O(n_train) per query.  The squared
    distances are rounded, so a tie can also join distinct values: from
    q = -1e16 the points 0, 1, ..., 5 lie at only 3 distinct squared
    distances.
    """
    tp = np.asarray(train_pts, dtype=float)
    qp = np.asarray(query_pts, dtype=float)
    if tp.ndim == 1:
        tp = tp[:, None]
    if qp.ndim == 1:
        qp = qp[:, None]
    if tp.shape[0] == 0:
        raise InvalidInputError("empty training set")
    if qp.shape[1] != tp.shape[1]:
        raise InvalidInputError("query and training points must share a dimension")
    positive = np.asarray(train_labels).astype(bool)
    if positive.shape[0] != tp.shape[0]:
        raise InvalidInputError("one training label per training point required")
    if not (1 <= n_neighbors <= tp.shape[0]):
        raise InvalidInputError(
            f"n_neighbors must lie in [1, {tp.shape[0]}], got {n_neighbors}"
        )
    if tp.shape[1] == 1 and np.isfinite(tp).all() and np.isfinite(qp).all():
        return _knn_runs(tp[:, 0], positive, qp[:, 0], n_neighbors)
    return _knn_brute(tp, positive, qp, n_neighbors)


def _sq_distances(block, tp):
    """Squared Euclidean distances, one row per query in ``block``, equal bit
    for bit to ``((block[:, None, :] - tp[None, :, :]) ** 2).sum(axis=-1)``:
    numpy adds rows of up to 7 terms in order, as the column loop does."""
    if tp.shape[1] > 7:
        return ((block[:, None, :] - tp[None, :, :]) ** 2).sum(axis=-1)
    d2 = (block[:, 0, None] - tp[:, 0]) ** 2
    for j in range(1, tp.shape[1]):
        d2 += (block[:, j, None] - tp[:, j]) ** 2
    return d2


def _knn_brute(tp, positive, qp, m):
    out = np.empty(qp.shape[0])
    chunk = max(1, KNN_CHUNK_ELEMENTS // tp.shape[0])
    for start in range(0, qp.shape[0], chunk):
        d2 = _sq_distances(qp[start : start + chunk], tp)
        kth = np.partition(d2, m - 1, axis=1)[:, m - 1, None].copy()
        taken, tied = d2 < kth, d2 == kth
        del d2  # before the int64 cumsum, which is as large
        need = m - np.count_nonzero(taken, axis=1)
        taken |= tied & (np.cumsum(tied, axis=1) <= need[:, None])
        out[start : start + chunk] = np.count_nonzero(taken & positive, axis=1) / m
    return out


def _knn_runs(t, positive, q, m):
    order = np.argsort(t)
    ts, n = t[order], t.size
    positives_before = np.concatenate(([0], np.cumsum(positive[order])))
    # first l in [i - m, i] whose ts[l + m] is no nearer than ts[l]; a lane
    # leaves the search once lo == hi, so ts[mid + m] stays in range
    i = np.searchsorted(ts, q)
    lo, hi = np.maximum(i - m, 0), np.minimum(i, n - m)
    live = np.flatnonzero(lo < hi)
    while live.size:
        mid, ql = (lo[live] + hi[live]) // 2, q[live]
        shift = ql - ts[mid] > ts[mid + m] - ql
        lo[live[shift]] = mid[shift] + 1
        hi[live[~shift]] = mid[~shift]
        live = live[lo[live] < hi[live]]
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

    def to_csv_text(self):
        columns = ("k", "bias_sq", "variance", "mse")
        return csv_text([columns] + [[getattr(cell, c) for c in columns] for cell in self.cells])

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


def _rep_projectors(spec, n, method, d, k_grid, seed, rep):
    """Projector matrices for one replication, one entry per grid position
    (None marks a numerical failure)."""
    ds = sample(spec, n, seed, stream=rep)
    try:
        prepared = PreparedFit(ds, method, d)
    except NumericalError:
        return [None] * len(k_grid)
    return [None if isinstance(f, NumericalError) else f.projector_whitened.matrix
            for f in prepared.fit_grid(k_grid)]


def sweep(spec, n, method, d, k_grid, reps, seed, jobs=1):
    """Estimate bias^2 / variance / MSE of the fitted projector per k.

    Replication r draws its own sample (stream r of the seed), prepared once
    and shared across the whole k grid; numerical failures abort single
    (k, rep) cells and are counted (see ``sweep_cell``).  ``jobs`` must be
    >= 1; above 1 it fans replications out to worker processes, and results
    reduce in replication order, so the output is independent of scheduling.
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
    truth = true_projector(spec).matrix

    rep_projectors = partial(_rep_projectors, spec, n, method, d, k_grid, seed)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, reps)) as pool:
            per_rep = list(pool.map(rep_projectors, range(reps)))
    else:
        per_rep = list(map(rep_projectors, range(reps)))
    cells = [sweep_cell(k, [mats[pos] for mats in per_rep], truth)
             for pos, k in enumerate(k_grid)]
    return SweepReport(method=method, d=d, reps=reps, cells=cells)


def geometric_k_grid(lo, hi, count):
    """count geometrically spaced integers spanning [lo, hi] (rounded; kept
    as-is, so near-duplicates at the low end are possible)."""
    if not (1 <= lo <= hi):
        raise InvalidInputError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
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


def cross_validate_k(ds, method, d, k_grid, folds, quantile_level, seed,
                     n_neighbors=DEFAULT_NEIGHBORS):
    """Pick k maximizing the held-out AUC of the reduce-then-classify pipeline.

    Labels are exceedances of the dataset's own empirical quantile at
    ``quantile_level``; folds are stratified on that label.  Each fold's
    training part is prepared once and fitted at every k; k is clamped to
    the fold training size when necessary.  Returns ``(best_k, table)`` with
    the mean fold AUC per k; ties keep the smallest k.
    """
    threshold = empirical_quantile(ds.y, quantile_level)
    labels = ds.y > threshold
    fold_of = stratified_folds(labels, folds, seed)
    k_values = sorted({int(k) for k in k_grid})
    if not k_values:
        raise InvalidInputError("k_grid must be non-empty")

    fold_aucs = {k: [] for k in k_values}
    for f_idx in range(folds):
        val_mask = fold_of == f_idx
        train_idx, val_idx = np.nonzero(~val_mask)[0], np.nonzero(val_mask)[0]
        train_ds, val_ds = ds.subset(train_idx), ds.subset(val_idx)
        fits = PreparedFit(train_ds, method, d).fit_grid(
            [min(k, train_ds.n) for k in k_values]
        )
        for k, f in zip(k_values, fits):
            if isinstance(f, NumericalError):
                raise f
            scores = knn_scores(
                f.transform(train_ds.x), labels[train_idx], f.transform(val_ds.x),
                n_neighbors,
            )
            fold_aucs[k].append(auc(scores, labels[val_idx]))
    table = {k: float(np.mean(aucs)) for k, aucs in fold_aucs.items()}
    return max(k_values, key=table.__getitem__), table


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

    def to_csv_text(self):
        columns = [f.name for f in fields(MethodScore)]
        return csv_text([columns] + [[getattr(s, c) for c in columns] for s in self.scores])

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
    the full target; the data is split stratified 80/20.  Methods
    with a free k choose it by stratified cross-validation on the training
    part, clamped to the training size like the per-fold fits (``chosen_k``
    is the k actually fitted); cume/cuve use the full training size and the
    PCA variants have no k.  An ``n_neighbors`` vote on the reduced
    coordinates produces the scores.
    """
    threshold = empirical_quantile(ds.y, quantile_level)
    labels = ds.y > threshold
    train_idx, test_idx = stratified_split(labels, TEST_FRACTION, seed)
    train_ds, test_ds = ds.subset(train_idx), ds.subset(test_idx)
    train_labels, test_labels = labels[train_idx], labels[test_idx]

    if k_grid is None:
        k_grid = sorted(set(geometric_k_grid(max(1, train_ds.n // 100), train_ds.n, 30)))

    results = []
    for method in methods:
        k = None
        if method in FREE_K_METHODS:
            k, _ = cross_validate_k(
                train_ds, method, d, k_grid, folds, quantile_level, seed,
                n_neighbors=n_neighbors,
            )
            k = min(k, train_ds.n)
        f = fit(train_ds, method, k=k, d=d)
        scores = knn_scores(
            f.transform(train_ds.x), train_labels, f.transform(test_ds.x), n_neighbors
        )
        results.append(
            MethodScore(
                method=method,
                am_risk=am_risk(knn_predict(scores), test_labels),
                auc=auc(scores, test_labels),
                chosen_k=f.k,
            )
        )
    baseline = am_risk(np.zeros(test_ds.n, dtype=bool), test_labels)
    return ClassificationReport(
        quantile_level=quantile_level,
        n_train=train_ds.n,
        n_test=test_ds.n,
        baseline_am_risk=baseline,
        scores=results,
    )
