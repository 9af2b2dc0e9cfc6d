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
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.stats import rankdata

from . import rng as rngmod
from .data import empirical_quantile
from .errors import InvalidInputError, NumericalError
from .estimators import FREE_K_METHODS, PreparedFit, fit
from .linalg import frobenius_dist_sq
from .synthetic import sample, true_projector

DEFAULT_NEIGHBORS = 5
TEST_FRACTION = 0.2


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
    ranks = rankdata(s)
    return float((ranks[t].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def knn_scores(train_pts, train_labels, query_pts, n_neighbors=DEFAULT_NEIGHBORS):
    """Fraction of positive labels among the Euclidean-nearest training points.

    Distance ties resolve to the smaller training index (stable sort); the
    hard prediction downstream is score > 0.5, so a tied 0.5 vote predicts
    negative.
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
    labels = np.asarray(train_labels).astype(float)
    if labels.shape[0] != tp.shape[0]:
        raise InvalidInputError("one training label per training point required")
    if not (1 <= n_neighbors <= tp.shape[0]):
        raise InvalidInputError(
            f"n_neighbors must lie in [1, {tp.shape[0]}], got {n_neighbors}"
        )
    out = np.empty(qp.shape[0])
    chunk = max(1, int(2**22 // max(1, tp.shape[0])))
    for start in range(0, qp.shape[0], chunk):
        block = qp[start : start + chunk]
        d2 = ((block[:, None, :] - tp[None, :, :]) ** 2).sum(axis=-1)
        nearest = np.argsort(d2, axis=1, kind="stable")[:, :n_neighbors]
        out[start : start + chunk] = labels[nearest].mean(axis=1)
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
        lines = ["k,bias_sq,variance,mse"]
        for c in self.cells:
            lines.append(f"{c.k},{c.bias_sq!r},{c.variance!r},{c.mse!r}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self):
        return {
            "method": self.method,
            "d": self.d,
            "reps": self.reps,
            "cells": [
                {
                    "k": c.k,
                    "bias_sq": c.bias_sq,
                    "variance": c.variance,
                    "mse": c.mse,
                    "reps_ok": c.reps_ok,
                    "failures": c.failures,
                }
                for c in self.cells
            ],
        }

    def cell(self, k):
        """First cell for a given k (grids normally hold distinct k)."""
        for c in self.cells:
            if c.k == k:
                return c
        raise KeyError(k)


def _rep_projectors(spec, n, method, d, k_grid, seed, rep):
    """Projector matrices for one replication, one entry per grid position
    (None marks a numerical failure)."""
    ds = sample(spec, n, seed, stream=rep)
    try:
        prepared = PreparedFit(ds, method, d)
    except NumericalError:
        return [None] * len(k_grid)
    out = []
    for k in k_grid:
        try:
            out.append(prepared.fit(k).projector_whitened.matrix)
        except NumericalError:
            out.append(None)
    return out


def sweep(spec, n, method, d, k_grid, reps, seed, jobs=1, fitter=None):
    """Estimate bias^2 / variance / MSE of the fitted projector per k.

    Replication r draws its own sample (stream r of the seed), prepared once
    and shared across the whole k grid; numerical failures abort single
    (k, rep) cells and are counted.  ``fitter`` is a test hook mapping
    (dataset, k) to a projector matrix in place of the real pipeline
    (single-process only).
    ``jobs`` > 1 fans replications out to worker processes; results reduce in
    replication order, so the output is independent of scheduling.
    """
    if reps < 2:
        raise InvalidInputError("sweep needs reps >= 2")
    k_grid = [int(k) for k in k_grid]
    if not k_grid:
        raise InvalidInputError("k_grid must be non-empty")
    for k in k_grid:
        if not (1 <= k <= n):
            raise InvalidInputError(f"k={k} outside [1, n={n}]")
    truth = true_projector(spec).matrix

    per_rep = []
    if fitter is not None:
        for r in range(reps):
            ds = sample(spec, n, seed, stream=r)
            per_rep.append([np.asarray(fitter(ds, k), dtype=float) for k in k_grid])
    elif jobs > 1:
        args = [(spec, n, method, d, k_grid, seed, r) for r in range(reps)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_rep = list(pool.map(_rep_projectors_star, args))
    else:
        for r in range(reps):
            per_rep.append(_rep_projectors(spec, n, method, d, k_grid, seed, r))

    cells = []
    for pos, k in enumerate(k_grid):
        mats = [per_rep[r][pos] for r in range(reps) if per_rep[r][pos] is not None]
        failures = reps - len(mats)
        if not mats:
            cells.append(SweepCell(k, float("nan"), float("nan"), float("nan"), 0, failures))
            continue
        mean_mat = np.mean(mats, axis=0)
        bias_sq = frobenius_dist_sq(truth, mean_mat)
        variance = float(np.mean([frobenius_dist_sq(m, mean_mat) for m in mats]))
        mse = float(np.mean([frobenius_dist_sq(m, truth) for m in mats]))
        cells.append(SweepCell(k, bias_sq, variance, mse, len(mats), failures))
    return SweepReport(method=method, d=d, reps=reps, cells=cells)


def _rep_projectors_star(args):
    return _rep_projectors(*args)


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
        prepared = PreparedFit(train_ds, method, d)
        for k in k_values:
            f = prepared.fit(min(k, train_ds.n))
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
        lines = ["method,am_risk,auc,chosen_k"]
        for s in self.scores:
            k = "" if s.chosen_k is None else str(s.chosen_k)
            lines.append(f"{s.method},{s.am_risk!r},{s.auc!r},{k}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self):
        return {
            "quantile_level": self.quantile_level,
            "n_train": self.n_train,
            "n_test": self.n_test,
            "baseline_am_risk": self.baseline_am_risk,
            "scores": [
                {
                    "method": s.method,
                    "am_risk": s.am_risk,
                    "auc": s.auc,
                    "chosen_k": s.chosen_k,
                }
                for s in self.scores
            ],
        }

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
    part; cume/cuve use the full training size and the PCA variants have no
    k.  A 5-neighbour vote on the reduced coordinates produces the scores.
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
