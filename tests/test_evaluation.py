import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tirex import evaluation
from tirex.errors import InvalidInputError
from tirex.evaluation import (
    am_risk,
    auc,
    classify_experiment,
    cross_validate_k,
    geometric_k_grid,
    knn_predict,
    knn_scores,
    stratified_folds,
    stratified_split,
    sweep,
    sweep_cell,
)
from tirex.synthetic import model_preset, true_projector

from oracles import knn_scores_oracle

# ---------------------------------------------------------------------------
# AM risk


def test_am_risk_constant_zero_classifier():
    truth = np.array([0, 0, 0, 1, 1, 0, 1], dtype=bool)
    assert am_risk(np.zeros_like(truth), truth) == 0.5


def test_am_risk_perfect():
    truth = np.array([0, 1, 0, 1], dtype=bool)
    assert am_risk(truth, truth) == 0.0


def test_am_risk_hand_example():
    truth = np.array([1, 0, 0, 1], dtype=bool)
    preds = np.array([1, 0, 1, 1], dtype=bool)
    assert am_risk(preds, truth) == pytest.approx(0.25)


def test_am_risk_single_class_error():
    with pytest.raises(InvalidInputError):
        am_risk(np.array([1, 0]), np.array([1, 1]))


@given(st.integers(2, 60), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_am_risk_flip_property(n, seed):
    rng = np.random.default_rng(seed)
    truth = np.zeros(n, dtype=bool)
    truth[: int(rng.integers(1, n))] = True
    rng.shuffle(truth)
    preds = rng.random(n) < 0.5
    risk = am_risk(preds, truth)
    assert 0.0 <= risk <= 1.0
    assert am_risk(~preds, truth) == pytest.approx(1.0 - risk, abs=1e-12)


# ---------------------------------------------------------------------------
# AUC


def auc_pair_counting(scores, truth):
    """Exhaustive O(n^2) oracle: wins + half ties over all (pos, neg) pairs."""
    pos = scores[truth]
    neg = scores[~truth]
    wins = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


def test_auc_perfectly_separating():
    truth = np.array([0, 0, 1, 1], dtype=bool)
    assert auc(np.array([0.1, 0.2, 0.8, 0.9]), truth) == 1.0


def test_auc_perfectly_reversed():
    truth = np.array([0, 0, 1, 1], dtype=bool)
    assert auc(np.array([0.9, 0.8, 0.2, 0.1]), truth) == 0.0


def test_auc_hand_example():
    scores = np.array([0.1, 0.4, 0.35, 0.8])
    truth = np.array([0, 0, 1, 1], dtype=bool)
    assert auc(scores, truth) == pytest.approx(0.75)


def test_auc_single_class_error():
    with pytest.raises(InvalidInputError):
        auc(np.array([0.3, 0.4]), np.array([0, 0]))


@given(st.integers(2, 40), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_auc_matches_pair_counting_with_ties(n, seed):
    rng = np.random.default_rng(seed)
    truth = np.zeros(n, dtype=bool)
    truth[: int(rng.integers(1, n))] = True
    rng.shuffle(truth)
    scores = rng.integers(0, 5, n).astype(float)  # coarse grid forces ties
    assert auc(scores, truth) == pytest.approx(auc_pair_counting(scores, truth), abs=1e-12)


def test_auc_equals_scipy_rankdata_formula_exactly():
    from scipy.stats import rankdata

    rng = np.random.default_rng(8)
    for n in [2, 3, 17, 51, 400, 2000]:
        for scores in (rng.integers(0, 6, n) / 5.0, np.full(n, 0.4), rng.standard_normal(n)):
            truth = rng.random(n) < 0.3
            truth[0], truth[1] = True, False
            n_pos = int(truth.sum())
            ranks = rankdata(scores)
            want = float((ranks[truth].sum() - n_pos * (n_pos + 1) / 2.0)
                         / (n_pos * (n - n_pos)))
            assert auc(scores, truth) == want


def test_auc_negation_and_monotone_invariance():
    rng = np.random.default_rng(2)
    scores = rng.standard_normal(60)  # continuous, tie-free
    truth = rng.random(60) < 0.3
    truth[0], truth[1] = True, False
    a = auc(scores, truth)
    assert auc(-scores, truth) == pytest.approx(1.0 - a, abs=1e-12)
    for g in (np.exp, np.arctan, lambda t: 3 * t + 1):
        assert auc(g(scores), truth) == pytest.approx(a, abs=1e-12)


# ---------------------------------------------------------------------------
# k-NN scoring


def test_knn_query_equals_training_point():
    train = np.array([[0.0], [5.0]])
    labels = np.array([1, 0])
    assert knn_scores(train, labels, np.array([[0.0]]), 1)[0] == 1.0


def test_knn_all_negative_labels():
    rng = np.random.default_rng(0)
    train = rng.standard_normal((20, 2))
    scores = knn_scores(train, np.zeros(20), rng.standard_normal((7, 2)), 5)
    assert np.array_equal(scores, np.zeros(7))


def test_knn_hand_distances():
    train = np.array([0.0, 1.0, 2.0, 10.0])
    labels = np.array([0, 0, 1, 1])
    score = knn_scores(train, labels, np.array([1.5]), 3)
    assert score[0] == pytest.approx(1.0 / 3.0)


def test_knn_distance_tie_prefers_smaller_index():
    train = np.array([[1.0], [-1.0], [1.0]])
    labels = np.array([0, 1, 1])
    # query at 0 is equidistant from all three; k=2 takes indices 0, 1
    score = knn_scores(train, labels, np.array([[0.0]]), 2)
    assert score[0] == pytest.approx(0.5)


def test_knn_empty_training_set():
    with pytest.raises(InvalidInputError):
        knn_scores(np.empty((0, 2)), np.empty(0), np.zeros((1, 2)), 1)


def test_knn_neighbors_bound():
    with pytest.raises(InvalidInputError):
        knn_scores(np.zeros((3, 1)), np.zeros(3), np.zeros((1, 1)), 4)


def test_knn_predictions_invariant_under_rotation():
    rng = np.random.default_rng(4)
    train = rng.standard_normal((80, 2))
    labels = rng.random(80) < 0.4
    queries = rng.standard_normal((40, 2))
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    base = knn_predict(knn_scores(train, labels, queries, 5))
    rotated = knn_predict(knn_scores(train @ q.T, labels, queries @ q.T, 5))
    assert np.array_equal(base, rotated)


def test_knn_score_half_predicts_negative():
    assert not knn_predict(np.array([0.5]))[0]


@pytest.mark.parametrize("d", [1, 2, 3, 5, 7, 8])
@pytest.mark.parametrize("n_neighbors", [1, 37, 600])
def test_knn_selection_matches_full_sort_oracle(d, n_neighbors):
    # integer grids make ties at the boundary distance the common case;
    # 600 x 1560 distances span several query chunks
    rng = np.random.default_rng(10 * d + n_neighbors)
    train = rng.integers(-3, 4, size=(600, d)).astype(float)
    labels = rng.random(600) < 0.3
    queries = np.concatenate([
        rng.integers(-4, 5, size=(500, d)).astype(float),
        train[::2],
        rng.integers(-4, 4, size=(500, d)) + 0.5,
        rng.standard_normal((260, d)),
    ])
    got = knn_scores(train, labels, queries, n_neighbors)
    assert np.array_equal(got, knn_scores_oracle(train, labels, queries, n_neighbors))


@pytest.mark.parametrize("d", range(1, 10))
def test_knn_distances_equal_the_row_sum_bit_for_bit(d):
    # the tie sets depend on every bit of the squared distances
    rng = np.random.default_rng(d)
    scale = rng.choice([1e-3, 1.0, 1e5], size=(50, d))
    block, train = rng.standard_normal((50, d)) * scale, rng.standard_normal((700, d))
    want = ((block[:, None, :] - train[None, :, :]) ** 2).sum(axis=-1)
    assert np.array_equal(evaluation._sq_distances(block, train), want)


def _shuffled(values, seed):
    # training index order differs from sorted order, so a tie rule that
    # went by sorted position would show
    return np.random.default_rng(seed).permutation(np.asarray(values, dtype=float))


# one-dimensional cases where the m nearest meet the data's ends or a tie
# run: (train, queries, m)
WINDOW_CASES = {
    "clipped at both ends": (
        _shuffled(np.linspace(-2.0, 3.0, 25) ** 3, 1), [-100.0, -8.0, 27.0, 100.0], 4,
    ),
    "tie run past one edge": (
        _shuffled([0.0] + [2.0] * 6 + [7.0, 9.0, 11.0], 2), [0.0, -1.0, 12.0], 2,
    ),
    "tie run past both edges": (
        _shuffled([-2.0] * 5 + [2.0] * 5 + [-9.0, 9.0], 3), [0.0, 0.5], 3,
    ),
    "equidistant on opposite sides": (
        np.array([1.0, -1.0, 3.0, -3.0, 5.0]), [0.0, 2.0, -2.0, 4.0], 1,
    ),
    "window covers the training set": (
        _shuffled([0.0, 1.0, 1.0, 2.0, 3.5, 3.5, 8.0], 4), [-1.0, 1.0, 2.75, 20.0], 4,
    ),
    # (q - t) ** 2 rounds distinct t to one distance when |q| ~ 1e16, so the
    # tie at the m-th distance crosses the run's inner end: the right end
    # for queries below the data, the left end for queries above it
    "far queries below the data": (
        _shuffled(np.arange(40.0), 3), [-1e16, -3e16, -5e16, -7e16], 1,
    ),
    "far queries above the data": (
        _shuffled(np.arange(40.0), 1), [1e16, 3e16, 5e16, 7e16], 4,
    ),
}


@pytest.mark.parametrize("case", list(WINDOW_CASES))
def test_knn_selection_matches_full_sort_oracle_at_window_edges(case):
    train, queries, m = WINDOW_CASES[case]
    queries = np.asarray(queries)
    for labels in (np.arange(train.size) % 2 == 0, np.arange(train.size) % 2 == 1):
        got = knn_scores(train, labels, queries, m)
        assert np.array_equal(got, knn_scores_oracle(train, labels, queries, m))


def _half_grid(lo, hi):
    return st.integers(2 * lo, 2 * hi).map(lambda v: v / 2.0)


@st.composite
def _knn_case(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 60))
    m = draw(st.integers(1, n))
    train = draw(arrays(float, (n, d), elements=_half_grid(-3, 3)))
    labels = draw(arrays(bool, n))
    # queries reach past the training range on both sides
    queries = draw(arrays(float, (draw(st.integers(1, 20)), d), elements=_half_grid(-5, 5)))
    return train, labels, queries, m


@given(_knn_case())
@settings(max_examples=200, deadline=None)
def test_knn_matches_full_sort_oracle_on_tie_heavy_grids(case):
    train, labels, queries, m = case
    got = knn_scores(train, labels, queries, m)
    assert np.array_equal(got, knn_scores_oracle(train, labels, queries, m))


def test_knn_window_falls_back_only_on_open_tie_runs(monkeypatch):
    scanned = []
    brute = evaluation._knn_brute
    monkeypatch.setattr(evaluation, "_knn_brute",
                        lambda tp, pos, qp, m: scanned.append(len(qp)) or brute(tp, pos, qp, m))
    rng = np.random.default_rng(5)
    train, queries = rng.standard_normal(2000), rng.standard_normal(500)
    labels = rng.random(2000) < 0.2
    for m in (1, 51):
        knn_scores(train, labels, queries, m)
    assert scanned == []  # continuous data: the m nearest are unique
    # integer data, about 290 copies of each value: every query takes the
    # full scan
    grid = rng.integers(-3, 4, size=2000).astype(float)
    knn_scores(grid, labels, rng.integers(-3, 4, size=500).astype(float), 51)
    assert scanned == [500]
    # two points lie at the m-th distance, one on each side of the query:
    # the full scan breaks the tie
    train, queries, m = WINDOW_CASES["equidistant on opposite sides"]
    knn_scores(train, np.arange(train.size) % 2 == 0, np.asarray(queries), m)
    assert scanned == [500, 4]


@st.composite
def _line_case(draw):
    n = draw(st.integers(1, 60))
    m = draw(st.integers(1, n))
    train = draw(arrays(float, n, elements=_half_grid(-3, 3)))
    queries = draw(arrays(float, draw(st.integers(1, 20)), elements=_half_grid(-5, 5)))
    return train, queries, m


@given(_line_case())
@example(WINDOW_CASES["far queries below the data"])
@example(WINDOW_CASES["far queries above the data"])
@settings(max_examples=300, deadline=None)
def test_knn_full_scan_takes_exactly_the_queries_with_tied_neighbours(case):
    train, queries, m = case
    queries = np.asarray(queries)
    scanned = []
    brute = evaluation._knn_brute
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluation, "_knn_brute",
                   lambda tp, pos, qp, m: scanned.append(qp[:, 0]) or brute(tp, pos, qp, m))
        knn_scores(train, np.arange(train.size) % 2 == 0, queries, m)
    # the m nearest are not unique when more than m points lie within the
    # m-th smallest squared distance, computed as the full scan does
    d2 = (queries[:, None] - train[None, :]) ** 2
    kth = np.sort(d2, axis=1)[:, m - 1, None]
    tied = np.count_nonzero(d2 <= kth, axis=1) > m
    assert np.array_equal(np.concatenate(scanned or [np.empty(0)]), queries[tied])


def _knn_peak_bytes(train, labels, queries):
    tracemalloc.start()
    try:
        knn_scores(train, labels, queries, 51)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# five float64 arrays of 2**18 elements (10 MiB), about half of the 19.5 MiB
# full 800 x 3200 distance matrix
KNN_PEAK_BOUND = 5 * 8 * 2**18


def test_knn_working_set_is_a_few_chunks():
    # the classify-A final-fit shape: 3200 training points, 800 queries
    rng = np.random.default_rng(0)
    train, queries = rng.standard_normal((3200, 1)), rng.standard_normal((800, 1))
    labels = rng.random(3200) < 0.1
    assert _knn_peak_bytes(train, labels, queries) < KNN_PEAK_BOUND


def test_knn_working_set_is_a_few_chunks_on_the_full_scan():
    # d = 3 always scans every training point
    rng = np.random.default_rng(0)
    train, queries = rng.standard_normal((3200, 3)), rng.standard_normal((800, 3))
    labels = rng.random(3200) < 0.1
    assert _knn_peak_bytes(train, labels, queries) < KNN_PEAK_BOUND


def test_knn_working_set_is_a_few_chunks_when_every_query_falls_back():
    # integer values: no query's m nearest are unique, so all 800 queries
    # take the full scan
    rng = np.random.default_rng(0)
    train = rng.integers(-3, 4, size=(3200, 1)).astype(float)
    queries = rng.integers(-3, 4, size=(800, 1)).astype(float)
    labels = rng.random(3200) < 0.1
    assert _knn_peak_bytes(train, labels, queries) < KNN_PEAK_BOUND


# ---------------------------------------------------------------------------
# sweep


def test_sweep_oracle_fitter_zero_error():
    spec, _ = model_preset("A")
    truth = true_projector(spec).matrix
    for k in (5, 10):
        cell = sweep_cell(k, [truth] * 4, truth)
        assert cell.bias_sq == 0.0
        assert cell.variance == 0.0
        assert cell.mse == 0.0
        assert cell.reps_ok == 4 and cell.failures == 0


def test_sweep_fixed_wrong_projector():
    spec, _ = model_preset("A")
    wrong = np.diag([1.0, 0.0])  # orthogonal to the true e2 e2^T
    cell = sweep_cell(5, [wrong] * 3, true_projector(spec).matrix)
    assert cell.variance == 0.0
    assert cell.bias_sq == pytest.approx(2.0)
    assert cell.mse == pytest.approx(2.0)


def test_sweep_decomposition_identity():
    spec, _ = model_preset("A")
    report = sweep(spec, 400, "tirex1", 1, [40, 120, 400], reps=8, seed=7)
    for cell in report.cells:
        assert cell.mse == pytest.approx(cell.bias_sq + cell.variance, abs=1e-10)
        assert cell.bias_sq >= 0 and cell.variance >= 0 and cell.mse >= 0


def test_sweep_counts_numerical_failures():
    # three-point Bernoulli samples frequently produce a constant covariate
    # column, which standardization rejects; the cell must record it
    spec, _ = model_preset("C")
    report = sweep(spec, 3, "tirex1", 1, [2], reps=30, seed=1)
    cell = report.cells[0]
    assert cell.failures > 0
    assert cell.reps_ok + cell.failures == 30


def test_sweep_eigensolver_failure_spoils_only_its_cell(monkeypatch):
    import tirex.linalg

    # per replication the eigensolves run in this order: the whitening, then
    # the candidate matrices in ascending k; call 2 is k = 60 of replication 0
    real, calls = np.linalg.eigh, []

    def fail_once(m):
        calls.append(m.shape)
        if len(calls) == 3:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(m)

    spec, _ = model_preset("A")
    want = sweep(spec, 200, "tirex1", 1, [60, 20], reps=3, seed=3)
    monkeypatch.setattr(tirex.linalg.np.linalg, "eigh", fail_once)
    got = sweep(spec, 200, "tirex1", 1, [60, 20], reps=3, seed=3)
    assert len(calls) == 9
    assert got.cell(20) == want.cell(20)
    assert (got.cell(60).reps_ok, got.cell(60).failures) == (2, 1)
    assert np.isfinite(got.cell(60).mse)


def test_sweep_parallel_matches_serial():
    spec, _ = model_preset("A")
    serial = sweep(spec, 200, "tirex1", 1, [20, 60], reps=4, seed=3, jobs=1)
    parallel = sweep(spec, 200, "tirex1", 1, [20, 60], reps=4, seed=3, jobs=2)
    for a, b in zip(serial.cells, parallel.cells):
        assert a == b


def test_sweep_starts_no_more_workers_than_replications(monkeypatch):
    # the fork start method launches every worker at the first submit
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(evaluation, "ProcessPoolExecutor", SerialPool)
    spec, _ = model_preset("A")
    want = sweep(spec, 200, "tirex1", 1, [20], reps=3, seed=3)
    for jobs in (2, 64):
        assert sweep(spec, 200, "tirex1", 1, [20], reps=3, seed=3, jobs=jobs) == want
    assert started == [2, 3]


def test_sweep_rejects_bad_args():
    spec, _ = model_preset("A")
    with pytest.raises(InvalidInputError):
        sweep(spec, 50, "tirex1", 1, [5], reps=1, seed=0)
    with pytest.raises(InvalidInputError):
        sweep(spec, 50, "tirex1", 1, [0], reps=2, seed=0)
    with pytest.raises(InvalidInputError):
        sweep(spec, 50, "tirex1", 1, [], reps=2, seed=0)


def test_sweep_csv_columns():
    spec, _ = model_preset("A")
    report = sweep(spec, 60, "tirex1", 1, [6, 12], reps=2, seed=0)
    text = report.to_csv_text()
    lines = text.strip().split("\n")
    assert lines[0] == "k,bias_sq,variance,mse"
    assert len(lines) == 3


def test_geometric_k_grid():
    grid = geometric_k_grid(100, 10_000, 30)
    assert len(grid) == 30
    assert grid[0] == 100 and grid[-1] == 10_000
    assert all(a <= b for a, b in zip(grid, grid[1:]))
    assert geometric_k_grid(7, 7, 1) == [7]


# ---------------------------------------------------------------------------
# stratified helpers


def test_stratified_folds_every_fold_has_both_classes():
    labels = np.zeros(40, dtype=bool)
    labels[:6] = True
    fold_of = stratified_folds(labels, 5, seed=0)
    for f in range(5):
        in_fold = fold_of == f
        assert labels[in_fold].sum() >= 1
        assert (~labels[in_fold]).sum() >= 1


def test_stratified_folds_too_few_positives():
    labels = np.zeros(40, dtype=bool)
    labels[:3] = True
    with pytest.raises(InvalidInputError):
        stratified_folds(labels, 5, seed=0)


def test_stratified_split_preserves_classes():
    labels = np.zeros(100, dtype=bool)
    labels[:10] = True
    train, test = stratified_split(labels, 0.2, seed=1)
    assert len(train) + len(test) == 100
    assert labels[test].sum() == 2
    assert labels[train].sum() == 8
    assert np.intersect1d(train, test).size == 0


# ---------------------------------------------------------------------------
# cross-validated k and the classification experiment


def labeled_dataset(seed=0, n=600):
    from tirex.synthetic import sample

    spec, _ = model_preset("A")
    return sample(spec, n, seed=seed), spec


def test_cross_validate_single_k():
    ds, _ = labeled_dataset()
    k, _ = cross_validate_k(ds, "tirex1", 1, [40], folds=3, quantile_level=0.9, seed=0)
    assert k == 40


def test_cross_validate_k_independent_pipeline_takes_smallest():
    ds, _ = labeled_dataset(1)
    k, table = cross_validate_k(ds, "pca", 1, [30, 90, 200], folds=3,
                                quantile_level=0.9, seed=0)
    assert k == 30
    assert len(set(table.values())) == 1  # k never entered the pipeline


def test_cross_validate_k_prepares_each_fold_once(monkeypatch):
    import tirex.estimators

    calls = []
    real = tirex.estimators.standardize

    def counting(ds, **kwargs):
        calls.append(ds.n)
        return real(ds, **kwargs)

    monkeypatch.setattr(tirex.estimators, "standardize", counting)
    ds, _ = labeled_dataset(2)
    cross_validate_k(ds, "tirex1", 1, [30, 90, 300], folds=3, quantile_level=0.9, seed=5)
    assert len(calls) == 3


def test_cross_validate_k_deterministic():
    ds, _ = labeled_dataset(2)
    args = (ds, "tirex1", 1, [30, 90, 300], 3, 0.9, 5)
    assert cross_validate_k(*args) == cross_validate_k(*args)


def test_cross_validate_k_golden_regression():
    # frozen pick and CV scores on a model-A sample with the {464, 2000} grid;
    # nothing is asserted about ground truth, only that the pipeline's own
    # recorded choice stays put
    from tirex.synthetic import sample

    spec, _ = model_preset("A")
    ds = sample(spec, 3000, seed=21)
    k, table = cross_validate_k(ds, "tirex1", 1, [464, 2000], folds=5,
                                quantile_level=0.95, seed=21)
    assert k == 464
    assert table[464] == pytest.approx(0.8107777777777777, abs=1e-12)
    assert table[2000] == pytest.approx(0.7691754385964913, abs=1e-12)


def test_classify_experiment_report_shape():
    ds, _ = labeled_dataset(3, n=800)
    report = classify_experiment(
        ds, ["tirex1", "pca"], d=1, quantile_level=0.9, folds=3, seed=0,
        k_grid=[40, 160],
    )
    assert report.baseline_am_risk == 0.5
    assert report.n_train + report.n_test == 800
    text = report.to_csv_text()
    header = text.strip().split("\n")[0].split(",")
    for col in ("method", "am_risk", "auc", "chosen_k"):
        assert col in header
    t = report.score("tirex1")
    assert 0.0 <= t.am_risk <= 1.0 and 0.0 <= t.auc <= 1.0
    assert t.chosen_k in (40, 160)
    assert report.score("pca").chosen_k is None


def test_classify_experiment_positive_rate_matches_quantile():
    ds, _ = labeled_dataset(5, n=2000)
    from tirex.data import empirical_quantile

    labels = ds.y > empirical_quantile(ds.y, 0.98)
    assert labels.mean() == pytest.approx(0.02, abs=0.005)
