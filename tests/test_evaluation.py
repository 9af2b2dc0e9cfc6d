import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tirex import evaluation
from tirex.data import csv_lines
from tirex.errors import InvalidInputError
from tirex.evaluation import (
    SweepReport,
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
from tirex.synthetic import MixtureSpec, UniformLaw, model_preset, true_projector

from oracles import (
    column_sum_sq_distances,
    knn_run_start_oracle,
    knn_scores_oracle,
    set_cpus,
    threads_of_work,
)

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


def test_auc_refuses_nan_scores():
    # a NaN equals nothing, so its rank would depend on the sort's tie order
    with pytest.raises(InvalidInputError, match="NaN"):
        auc(np.array([0.3, np.nan, np.nan]), np.array([1, 0, 1]))


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


def test_knn_zero_dimensional_points():
    with pytest.raises(InvalidInputError):
        knn_scores(np.empty((5, 0)), np.ones(5), np.empty((3, 0)), 2)


def test_knn_neighbors_bound():
    with pytest.raises(InvalidInputError):
        knn_scores(np.zeros((3, 1)), np.zeros(3), np.zeros((1, 1)), 4)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_knn_refuses_non_finite_points(d, bad):
    # a NaN query used to score 0.0 and an infinite one an index-order vote
    train, labels = np.arange(10.0 * d).reshape(10, d), np.arange(10) % 2
    spoilt = train.copy()
    spoilt[3, d - 1] = bad
    for tp, qp in ((train, spoilt), (spoilt, train)):
        with pytest.raises(InvalidInputError, match="points must be finite"):
            knn_scores(tp, labels, qp, 3)


@pytest.mark.parametrize("d", [1, 2])
def test_knn_squared_distances_past_the_largest_float_tie_at_inf(d):
    # the differences and their squares overflow to +inf, which used to warn;
    # warnings are errors here
    line = np.array([-1e308, 1e308, 0.0, 1.0])
    queries = np.array([1e308, -1e308, 0.5, _BIG])
    train = np.stack([line, line[::-1]][:d], axis=1)
    queries = np.stack([queries, queries][:d], axis=1)
    labels = np.array([1, 0, 1, 0])
    for m in range(1, 5):
        got = knn_scores(train, labels, queries, m)
        with np.errstate(over="ignore"):
            want = knn_scores_oracle(train, labels, queries, m)
        assert np.array_equal(got, want)


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


@pytest.mark.parametrize("d", [1, 2, 3, 5, 7, 8, 10, 30])
@pytest.mark.parametrize("n_neighbors", [1, 37, 600])
def test_knn_selection_matches_full_sort_oracle(d, n_neighbors):
    # integer grids make ties at the boundary distance the common case, and
    # every sum of their squared differences exact, so the oracle's row sum
    # and the full scan's column sums agree at any d; 600 x 1560 distances
    # span several query blocks
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


@pytest.mark.parametrize("d", [*range(1, 10), 16, 30])
def test_knn_distances_equal_the_row_sum_bit_for_bit(d):
    # the tie sets depend on every bit of the squared distances: the columns
    # are added in order, which up to d = 7 is numpy's row sum; from d = 8
    # numpy adds pairwise
    rng = np.random.default_rng(d)
    scale = rng.choice([1e-3, 1.0, 1e5], size=(50, d))
    block, train = rng.standard_normal((50, d)) * scale, rng.standard_normal((700, d))
    want = (((block[:, None, :] - train[None, :, :]) ** 2).sum(axis=-1) if d <= 7
            else column_sum_sq_distances(block, train))
    got = evaluation._sq_distances(block, np.ascontiguousarray(train.T),
                                   np.empty((50, 700)), np.empty((50, 700)))
    assert np.array_equal(got, want)


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



_BIG = np.finfo(float).max
_TINY = 2.0**-1074  # the smallest subnormal
# increasing maps from small integers to one scale of training values and
# queries: adjacent floats (2 apart) around 1e16, the largest floats of
# either sign (their differences overflow), subnormals, and subnormals
# beside the largest floats
_RUN_SCALES = {
    "half-integer": lambda v: v / 2.0,
    "1e16": lambda v: 1e16 + 2.0 * v,
    "-1e16": lambda v: -1e16 + 2.0 * v,
    "near overflow": lambda v: np.sign(v) * (_BIG - 2.0**971 * (13 - abs(v))),
    "subnormal": lambda v: v * _TINY,
    "mixed": lambda v: v * _TINY if abs(v) < 7 else np.sign(v) * (_BIG - 2.0**971 * (13 - abs(v))),
}


@st.composite
def _run_start_case(draw):
    scale = _RUN_SCALES[draw(st.sampled_from(sorted(_RUN_SCALES)))]
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, n))
    ts = np.sort([scale(v) for v in draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n))])
    # queries reach past the training range on both sides
    queries = np.array([scale(v) for v in draw(st.lists(st.integers(-12, 12), min_size=1, max_size=20))])
    return ts, queries, m


def _certified(ts, q, l, m):
    """The certificate of ``evaluation._knn_runs``: both points just outside
    ts[l : l + m] are strictly farther from q than its farther end."""
    n = ts.size
    with np.errstate(over="ignore"):  # squares of +-1.7e308 differences
        kth = np.maximum((q - ts[l]) ** 2, (q - ts[l + m - 1]) ** 2)
        spill = (l > 0) & ((q - ts[np.maximum(l - 1, 0)]) ** 2 <= kth)
        spill |= (l + m < n) & ((q - ts[np.minimum(l + m, n - 1)]) ** 2 <= kth)
    return ~spill


@given(_run_start_case())
# adjacent floats: the rounded midpoint of 1 + 2^-52 and 1 + 2^-51 is the
# query itself, whose nearest point is 1 + 2^-51 alone
@example((np.array([1.0 + 2.0**-52, 1.0 + 2.0**-51]), np.array([1.0 + 2.0**-51]), 1))
# halving 3 and 7 subnormals rounds both up, to the query 6; distances this
# small square to 0, so no start is certified
@example((np.array([3 * _TINY, 7 * _TINY, 2.0**1023]), np.array([6 * _TINY]), 1))
@settings(max_examples=500, deadline=None)
def test_run_starts_take_the_binary_search_run_wherever_it_is_certified(case):
    # the midpoint search compares exact midpoints, the binary search rounded
    # differences; they can part only where rounding ties the two distances,
    # and there no start is certified, so such a query takes the full scan
    # under both, and the run start reaches no output
    ts, queries, m = case
    got, want = evaluation._run_starts(ts, queries, m), knn_run_start_oracle(ts, queries, m)
    certified = _certified(ts, queries, want, m)
    assert np.array_equal(_certified(ts, queries, got, m), certified)
    assert np.array_equal(got[certified], want[certified])

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


@pytest.mark.parametrize("d", [8, 30])
def test_knn_full_scan_holds_one_element_budget_at_any_dimension(d):
    # a block holds at most data.BLOCK_ELEMENTS (2**16) distances, one query
    # at least: 10 queries here, whose five 10 x 6400 buffers take 1.7 MiB
    # beside the training points' 0.4 or 1.5 MiB column copy (peaks 2.5 and
    # 3.6 MiB)
    rng = np.random.default_rng(0)
    train, queries = rng.standard_normal((6400, d)), rng.standard_normal((1600, d))
    labels = rng.random(6400) < 0.1
    assert _knn_peak_bytes(train, labels, queries) < 4 * 2**20


# ---------------------------------------------------------------------------
# sweep


def test_sweep_oracle_fitter_zero_error():
    spec, _ = model_preset("A")
    truth = true_projector(spec)
    for k in (5, 10):
        cell = sweep_cell(k, [truth] * 4, truth)
        assert cell.bias_sq == 0.0
        assert cell.variance == 0.0
        assert cell.mse == 0.0
        assert cell.reps_ok == 4 and cell.failures == 0


def test_sweep_fixed_wrong_projector():
    spec, _ = model_preset("A")
    wrong = np.diag([1.0, 0.0])  # orthogonal to the true e2 e2^T
    cell = sweep_cell(5, [wrong] * 3, true_projector(spec))
    assert cell.variance == 0.0
    assert cell.bias_sq == pytest.approx(2.0)
    assert cell.mse == pytest.approx(2.0)


def test_sweep_cell_with_every_replication_failed_is_nan():
    spec, _ = model_preset("A")
    cell = sweep_cell(5, [None] * 3, true_projector(spec))
    assert np.isnan(cell.bias_sq) and np.isnan(cell.variance) and np.isnan(cell.mse)
    assert cell.reps_ok == 0 and cell.failures == 3
    report = SweepReport(method="tirex1", d=1, reps=3, cells=[cell])
    assert "".join(csv_lines(report.csv_rows())) == "k,bias_sq,variance,mse\n5,nan,nan,nan\n"


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


def test_sweep_counts_an_overflowing_sample_as_failed():
    spec = MixtureSpec(p=2, d=1, theta=0.0, alpha1=10.0, alpha2=2.0**-7,
                       covariate_law=UniformLaw(1.0, 10.0))
    cell = sweep(spec, 2000, "tirex1", 1, [40], reps=3, seed=0).cells[0]
    assert (cell.reps_ok, cell.failures) == (0, 3)


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


def test_sweep_holds_bases_not_projectors_across_replications():
    # each replication keeps a 30 x 5 basis per grid k, not a 30 x 30
    # projector: 64 reps x 8 k of projectors alone are 3.5 MiB
    spec, _ = model_preset("B")
    grid = geometric_k_grid(30, 300, 8)
    sweep(spec, 300, "tirex2", 5, grid, reps=2, seed=1)  # warm-up
    tracemalloc.start()
    try:
        sweep(spec, 300, "tirex2", 5, grid, reps=64, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_sweep_parallel_matches_serial(monkeypatch):
    set_cpus(monkeypatch, 2)  # two threads, however many CPUs the host has
    spec, _ = model_preset("A")
    serial = sweep(spec, 200, "tirex1", 1, [20, 60], reps=4, seed=3, jobs=1)
    parallel = sweep(spec, 200, "tirex1", 1, [20, 60], reps=4, seed=3, jobs=2)
    for a, b in zip(serial.cells, parallel.cells):
        assert a == b


def test_sweep_starts_no_more_workers_than_replications(monkeypatch):
    # nor more than the CPUs: --jobs 100000 on two CPUs asks for two
    # threads, and on one CPU the replications run in the calling thread
    started = threads_of_work(monkeypatch)
    spec, _ = model_preset("A")
    want = sweep(spec, 200, "tirex1", 1, [20], reps=3, seed=3)
    for cpus, jobs in ((64, 2), (64, 64), (2, 100000), (1, 100000)):
        set_cpus(monkeypatch, cpus)
        assert sweep(spec, 200, "tirex1", 1, [20], reps=3, seed=3, jobs=jobs) == want
    assert started == [2, 3, 2]


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
    text = "".join(csv_lines(report.csv_rows()))
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
    k, _ = cross_validate_k(ds, ["tirex1"], 1, [40], folds=3, quantile_level=0.9,
                            seed=0)["tirex1"]
    assert k == 40


def test_cross_validate_k_independent_pipeline_takes_smallest():
    ds, _ = labeled_dataset(1)
    k, table = cross_validate_k(ds, ["pca"], 1, [30, 90, 200], folds=3,
                                quantile_level=0.9, seed=0)["pca"]
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
    # one standardization per fold, shared by both methods
    cross_validate_k(ds, ["tirex1", "tirex2"], 1, [30, 90, 300], folds=3,
                     quantile_level=0.9, seed=5)
    assert len(calls) == 3


def test_classify_experiment_prepares_its_training_part_once(monkeypatch):
    # one standardization per CV fold, shared by the free-k methods (3), and
    # one of the training part for every method's final fit
    import tirex.estimators

    calls = []
    real = tirex.estimators.standardize

    def counting(ds, **kwargs):
        calls.append(ds.n)
        return real(ds, **kwargs)

    monkeypatch.setattr(tirex.estimators, "standardize", counting)
    ds, _ = labeled_dataset(3, n=800)
    classify_experiment(ds, ["tirex1", "tirex2", "cume", "cuve", "pca", "svd_pca"], d=1,
                        quantile_level=0.9, folds=3, seed=0, k_grid=[40, 160])
    assert len(calls) == 4


@pytest.mark.parametrize("methods, message", [
    ([], "no method named"),
    (["tirex1", "tirex2", "nope"], "unknown method 'nope'"),
    (["tirex1", "tirex1"], "method 'tirex1' named twice"),
])
def test_method_lists_are_checked_before_any_fit(monkeypatch, methods, message):
    # the list is checked before the split: no fold is prepared and no
    # method fitted, so a bad name cannot cost a whole cross-validation
    import tirex.estimators

    calls = []
    real = tirex.estimators.standardize
    monkeypatch.setattr(tirex.estimators, "standardize",
                        lambda ds, **kwargs: calls.append(ds.n) or real(ds, **kwargs))
    ds, _ = labeled_dataset(3, n=800)
    with pytest.raises(InvalidInputError, match=message):
        classify_experiment(ds, methods, d=1, quantile_level=0.9, folds=5, seed=0,
                            k_grid=[40, 160])
    with pytest.raises(InvalidInputError, match=message):
        cross_validate_k(ds, methods, 1, [40, 160], folds=5, quantile_level=0.9, seed=0)
    assert calls == []


def test_classify_experiment_without_a_free_k_method_never_cross_validates():
    # 64 training positives cannot fill 100 stratified folds, and no method
    # here needs them
    ds, _ = labeled_dataset(3, n=800)
    args = dict(d=1, quantile_level=0.9, folds=100, seed=0, k_grid=[40, 160])
    report = classify_experiment(ds, ["pca", "cume"], **args)
    assert [s.chosen_k for s in report.scores] == [None, report.n_train]
    with pytest.raises(InvalidInputError, match="too few positives"):
        classify_experiment(ds, ["pca", "tirex1"], **args)


def test_cross_validate_k_deterministic():
    ds, _ = labeled_dataset(2)
    args = (ds, ["tirex1"], 1, [30, 90, 300], 3, 0.9, 5)
    assert cross_validate_k(*args) == cross_validate_k(*args)


def test_cross_validate_k_golden_regression():
    # frozen pick and CV scores on a model-A sample with the {464, 2000} grid;
    # nothing is asserted about ground truth, only that the pipeline's own
    # recorded choice stays put
    from tirex.synthetic import sample

    spec, _ = model_preset("A")
    ds = sample(spec, 3000, seed=21)
    alone = cross_validate_k(ds, ["tirex1"], 1, [464, 2000], folds=5,
                             quantile_level=0.95, seed=21)["tirex1"]
    # the same folds shared with a second method give the same values
    shared = cross_validate_k(ds, ["tirex2", "tirex1"], 1, [464, 2000], folds=5,
                              quantile_level=0.95, seed=21)["tirex1"]
    for k, table in (alone, shared):
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
    text = "".join(csv_lines(report.csv_rows()))
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
