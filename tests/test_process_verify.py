import json
import sys
import threading
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import norm

from tirex import process_verify
from tirex.data import csv_lines
from tirex.errors import InvalidInputError
from tirex.process_verify import (
    COV_ENTRY,
    MEAN_ENTRY,
    IndependentNormalModel,
    ProcessCheckConfig,
    ProcessCheckReport,
    _covariance_entries,
    _gate,
    _grid_rows,
    _mean_entries,
    _process_values,
    covariance_check,
)
from tirex import rng as rngmod

from oracles import covariance_entries_oracle, mean_entries_oracle, serial_pools, set_cpus


def test_config_validation():
    gen = IndependentNormalModel()
    with pytest.raises(InvalidInputError):
        ProcessCheckConfig(gen, n=100, k=100, n_reps=200, u_grid=(0.5,))
    with pytest.raises(InvalidInputError):
        ProcessCheckConfig(gen, n=100, k=10, n_reps=50, u_grid=(0.5,))
    with pytest.raises(InvalidInputError):
        ProcessCheckConfig(gen, n=100, k=10, n_reps=200, u_grid=(0.7, 0.3))
    with pytest.raises(InvalidInputError):
        ProcessCheckConfig(gen, n=100, k=10, n_reps=200, u_grid=(0.0, 0.5))
    for k in (0, -5):
        with pytest.raises(InvalidInputError):
            ProcessCheckConfig(gen, n=100, k=k, n_reps=200, u_grid=(0.5,))
    # k * u rounds to 0: the grid point lies before the first breakpoint 1/k
    with pytest.raises(InvalidInputError):
        ProcessCheckConfig(gen, n=100, k=10, n_reps=200, u_grid=(1e-12, 0.5))
    with pytest.raises(InvalidInputError):
        IndependentNormalModel(p=0)


def test_second_order_xi_wick_pairings():
    gen = IndependentNormalModel(p=2)
    xi = gen.xi(order=2)
    # entry ((i,j),(k,l)) = d_ik d_jl + d_il d_jk; e.g. ((0,0),(0,0)) = 2
    assert xi[0, 0] == 2.0  # (0,0)x(0,0)
    assert xi[1, 1] == 1.0  # (0,1)x(0,1)
    assert xi[1, 2] == 1.0  # (0,1)x(1,0)
    assert xi[0, 3] == 0.0  # (0,0)x(1,1)
    assert np.array_equal(xi, xi.T)


def test_process_values_match_direct_definition():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((40, 2))
    y = rng.standard_normal(40)
    k = 10
    grid = [0.3, 0.7, 1.0]
    vals = _process_values(z, y, k, _grid_rows(k, grid), order=1)
    vals2 = _process_values(z, y, k, _grid_rows(k, grid), order=2)
    from tirex.data import descending_order
    from oracles import b_process, c_process

    order = descending_order(y)
    assert vals2.shape == (len(grid), 4)
    for i, u in enumerate(grid):
        assert np.allclose(vals[i], c_process(z, order, k, u), atol=1e-15)
        assert np.allclose(vals2[i], b_process(z, order, k, u).reshape(4),
                           rtol=1e-12, atol=1e-15)


def test_rank_equivalence_bitwise():
    # pushing the target through its continuous cdf leaves the process values
    # bit-identical (only ranks enter)
    rng = rngmod.stream(123, 4, 0)
    gen = IndependentNormalModel(p=3)
    z, y = gen.sample(500, rng)
    u = norm.cdf(-y)  # cdf of the negated target, strictly increasing in -y
    grid_rows = _grid_rows(60, [0.1, 0.5, 1.0])
    a = _process_values(z, y, 60, grid_rows, order=1)
    b = _process_values(z, -u, 60, grid_rows, order=1)
    assert np.array_equal(a, b)


def test_covariance_check_passes_at_reduced_scale():
    cfg = ProcessCheckConfig(
        generator=IndependentNormalModel(p=2),
        n=1500, k=150, n_reps=400, u_grid=(0.25, 0.5, 1.0), order=1, seed=7,
    )
    report = covariance_check(cfg)
    assert report.mean_ok
    assert report.cov_ok
    # variance of each coordinate at u is close to u itself
    for e in report.cov_entries:
        if e["u_s"] == e["u_t"] and e["row"] == e["col"]:
            assert e["empirical"] == pytest.approx(min(e["u_s"], e["u_t"]), abs=5 * e["se"])


def test_covariance_check_cross_terms():
    cfg = ProcessCheckConfig(
        generator=IndependentNormalModel(p=2),
        n=1200, k=120, n_reps=300, u_grid=(0.3, 0.7), order=1, seed=11,
    )
    report = covariance_check(cfg)
    cross = [e for e in report.cov_entries if (e["u_s"], e["u_t"]) == (0.3, 0.7)]
    assert cross
    for e in cross:
        want = 0.3 if e["row"] == e["col"] else 0.0
        assert e["theoretical"] == pytest.approx(want)
        assert e["ok"]


def test_covariance_check_second_order_reduced_scale():
    cfg = ProcessCheckConfig(
        generator=IndependentNormalModel(p=2),
        n=1200, k=120, n_reps=300, u_grid=(0.5, 1.0), order=2, seed=3,
    )
    report = covariance_check(cfg)
    assert report.passed


def test_report_csv_shape():
    cfg = ProcessCheckConfig(
        generator=IndependentNormalModel(p=2),
        n=400, k=40, n_reps=120, u_grid=(0.5, 1.0), order=1, seed=5,
    )
    report = covariance_check(cfg)
    lines = _csv_text(report).strip().split("\n")
    assert lines[0] == "u_s,u_t,row,col,empirical,theoretical,deviation,se,ok"
    # 3 u-pairs x 2x2 entries
    assert len(lines) == 1 + 3 * 4
    d = report.to_json_dict()
    assert d["passed"] == report.passed


def _csv_text(report):
    return "".join(csv_lines(report.csv_rows()))


def _small_config(**kw):
    base = dict(generator=IndependentNormalModel(p=2), n=300, k=30, n_reps=101,
                u_grid=(0.5, 1.0), order=2, seed=9)
    return ProcessCheckConfig(**{**base, **kw})


def test_results_do_not_depend_on_the_worker_count(monkeypatch):
    # 7 workers outnumber the cores; a short switch interval makes the
    # threads interleave often, so a lost or misplaced row would show
    outputs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3, 7):
            set_cpus(monkeypatch, workers)
            report = covariance_check(_small_config())
            outputs.append((_csv_text(report), report.to_json_dict()))
    finally:
        sys.setswitchinterval(interval)
    assert all(out == outputs[0] for out in outputs[1:])


def test_replication_workers_bounded_by_reps_and_cpus(monkeypatch):
    # one thread per CPU, never more than the 101 replications; one CPU
    # runs the loop in the calling thread, with no pool
    for cpus, want in ((500, [101]), (3, [3]), (1, [])):
        set_cpus(monkeypatch, cpus)
        sizes = serial_pools(monkeypatch)
        covariance_check(_small_config())
        assert sizes == want


@dataclass(frozen=True)
class _FailingModel(IndependentNormalModel):
    """Raises ``error`` on the draw of replication 5, read off its stream key."""

    error: Exception = None

    def sample(self, n, rng):
        if rng.bit_generator.seed_seq.spawn_key == (4, 5):
            raise self.error
        return super().sample(n, rng)


@pytest.mark.parametrize("workers", [1, 3])
def test_failing_replication_surfaces(monkeypatch, workers):
    set_cpus(monkeypatch, workers)
    error = InvalidInputError("replication 5 failed")
    raised = []

    def check():
        try:
            covariance_check(_small_config(generator=_FailingModel(p=2, error=error)))
        except InvalidInputError as exc:
            raised.append(exc)

    thread = threading.Thread(target=check, daemon=True)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert len(raised) == 1 and raised[0] is error


def _cov_report(*entries):
    """A report with no mean entries and one covariance entry per
    (deviation, se)."""
    cov = np.array([(1.0, 1.0, 0, 0, dev, 0.0, dev, se, dev == 0) for dev, se in entries],
                   COV_ENTRY)
    return ProcessCheckReport({}, np.empty(0, MEAN_ENTRY), cov)


def test_worst_deviation_in_se_units():
    report = _cov_report((0.0, 0.0), (0.3, 0.2))
    assert report.max_cov_deviation_in_se() == pytest.approx(1.5)
    # an entry with no spread that matches exactly is no deviation at all
    exact = _cov_report((0.0, 0.0))
    assert exact.max_cov_deviation_in_se() == 0.0
    assert exact.to_json_dict()["max_cov_deviation_se"] == 0.0
    # one that misses has an unbounded one, written as JSON null
    off = _cov_report((0.0, 0.0), (0.1, 0.0))
    assert off.max_cov_deviation_in_se() == np.inf
    payload = off.to_json_dict()
    assert payload["max_cov_deviation_se"] is None
    json.dumps(payload, allow_nan=False)


@st.composite
def _centered_replications(draw, center=True):
    reps, n_u, q = draw(st.integers(2, 300)), draw(st.integers(1, 4)), draw(st.integers(1, 16))
    devs = draw(arrays(np.float64, (reps, n_u, q),
                       elements=st.floats(-1e6, 1e6, allow_subnormal=False)))
    if center:
        devs -= devs.mean(axis=0)
    grid = sorted(draw(st.lists(st.floats(1e-3, 1.0), min_size=n_u, max_size=n_u)))
    limit_cov = draw(arrays(np.float64, (q, q), elements=st.floats(-10.0, 10.0)))
    return devs, grid, limit_cov


def _bits(entries):
    return entries.dtype, entries.tobytes()


def _mixed_verdicts_case(center):
    """Replications whose mean and covariance gates each pass some entries
    and fail others: component 0 is shifted far off its limit 0, component 1
    to between 3 and 4 SE of it, and the limit covariance doubles the first
    diagonal entry."""
    devs = np.random.default_rng(5).standard_normal((300, 2, 3))
    devs[:, :, 0] += 0.5
    devs[:, :, 1] += 0.2
    if center:
        devs -= devs.mean(axis=0)
    return devs, [0.5, 1.0], np.diag([2.0, 1.0, 1.0])


@pytest.mark.parametrize("center", [False, True])
def test_gates_equal_their_oracles_on_mixed_verdicts(center):
    replications, grid, limit_cov = _mixed_verdicts_case(center)
    means = _mean_entries(replications, grid)[0]
    covs = _covariance_entries(replications, grid, limit_cov)
    assert _bits(means) == _bits(mean_entries_oracle(replications, grid))
    assert _bits(covs) == _bits(covariance_entries_oracle(replications, grid, limit_cov))
    assert set(covs["ok"].tolist()) == {True, False}
    assert set(means["ok"].tolist()) == ({True} if center else {True, False})


def test_failures_in_the_json_are_python_scalars():
    # numpy integers in the payload would make json.dumps raise
    replications, grid, limit_cov = _mixed_verdicts_case(center=False)
    report = ProcessCheckReport({}, _mean_entries(replications, grid)[0],
                                _covariance_entries(replications, grid, limit_cov))
    payload = report.to_json_dict()
    json.dumps(payload, allow_nan=False)
    assert payload["mean_failures"] and payload["cov_failures"]
    for failure in payload["mean_failures"]:
        assert type(failure["component"]) is int and type(failure["mean"]) is float
    for failure in payload["cov_failures"]:
        assert type(failure["row"]) is int and type(failure["col"]) is int
        assert type(failure["se"]) is float
    assert type(payload["mean_ok"]) is bool and type(payload["passed"]) is bool


@given(_centered_replications(center=False))
@settings(max_examples=100, deadline=None)
def test_mean_entries_equal_the_inline_gate_oracle(case):
    replications, grid, _ = case
    entries, means = _mean_entries(replications, grid)
    assert _bits(entries) == _bits(mean_entries_oracle(replications, grid))
    assert means.tobytes() == replications.mean(axis=0).tobytes()


@given(st.one_of(_centered_replications(), _centered_replications(center=False)))
@settings(max_examples=100, deadline=None)
def test_covariance_entries_equal_the_product_array_oracle(case):
    # cross products gated one row at a time, two rows at a time (one block
    # of one row when q is odd), all at once and at the module's budget give
    # the bits of the whole (reps x q x q) product array
    centered, grid, limit_cov = case
    n_reps, _, q = centered.shape
    want = covariance_entries_oracle(centered, grid, limit_cov)
    for budget in (1, 2 * n_reps * q, n_reps * q * q + 1, process_verify.BLOCK_ELEMENTS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(process_verify, "BLOCK_ELEMENTS", budget)
            got = _covariance_entries(centered, grid, limit_cov)
        assert len(got) == len(want)
        assert _bits(got) == _bits(want)


def test_gate_passes_up_to_four_standard_errors():
    # two replications 0 and 2: mean 1, SE std(ddof=1) / sqrt(2) = 1 exactly
    samples = np.array([[0.0] * 4, [2.0] * 4])
    mean, dev, se, ok = _gate(samples, np.array([1.0, -2.5, -3.0, 5.5]))
    assert mean.tolist() == [1.0] * 4 and se.tolist() == [1.0] * 4
    assert dev.tolist() == [0.0, 3.5, 4.0, 4.5]
    assert ok.tolist() == [True, True, True, False]


def test_gate_with_no_spread_passes_only_a_match():
    # se == 0: an exact match passes, and so does a miss within the 1e-12
    # slack (2**-42 ~ 2.3e-13); any larger miss fails
    samples = np.full((4, 4), 2.0)
    mean, dev, se, ok = _gate(samples, np.array([2.0, 2.0 + 2.0**-42, 2.0 + 1e-11, 2.5]))
    assert se.tolist() == [0.0] * 4 and mean.tolist() == [2.0] * 4
    assert ok.tolist() == [True, True, False, False]
    # the mean gate's limit is 0: constant replications 0 pass, 0.5 fail
    replications = np.zeros((4, 2, 1))
    replications[:, 1] = 0.5
    entries, _ = _mean_entries(replications, [0.5, 1.0])
    assert entries[["mean", "se", "ok"]].tolist() == [(0.0, 0.0, True), (0.5, 0.0, False)]


def test_covariance_check_holds_no_product_array(monkeypatch):
    # the benchmark's verify-process-2 check on one worker: the replications
    # (0.72 MB), the report and one block of at most 2^16 products with
    # _gate's temporaries, 1.9 MB; the (reps x q x q) product array and a
    # centered copy of the replications put the peak at 4.5 MB
    set_cpus(monkeypatch, 1)
    covariance_check(_small_config())  # leave the first call's imports out of the peak
    cfg = ProcessCheckConfig(generator=IndependentNormalModel(p=3), n=5000, k=500,
                             n_reps=2000, u_grid=(0.1, 0.3, 0.5, 0.7, 1.0), order=2, seed=1)
    tracemalloc.start()
    try:
        covariance_check(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6
