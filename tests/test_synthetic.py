import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tirex import data
from tirex.errors import InvalidInputError, NumericalError
from tirex.synthetic import (
    BernoulliLaw,
    MixtureSpec,
    UniformLaw,
    expected_abs_R,
    model_preset,
    s1_marginal,
    s2_marginal,
    sample,
    survival_components,
    tci_ratios,
    true_projector,
)

from oracles import sample_oracle

# Frozen output of sample(model A, n=5, seed=20240, stream=0); regenerating
# with the same key must reproduce these values.
GOLDEN_A_X = np.array([
    [2.695675511597165, 9.86253281881373],
    [7.752494970950695, 2.5522755277305604],
    [9.875989051277482, 5.335694064520685],
    [9.954937924212361, 5.94478466749908],
    [2.9415949708710327, 4.699662646668568],
])
GOLDEN_A_Y = np.array([
    0.12224963454315362, 0.6314399424832434, 5.996420995217321,
    0.9379693137508512, 0.01426798738249456,
])


def bernoulli_spec(tau=0.5, theta=0.5):
    return MixtureSpec(p=2, d=1, theta=theta, alpha1=10.0, alpha2=10.0,
                       covariate_law=BernoulliLaw(tau))


def test_golden_fixture_model_a():
    spec, _ = model_preset("A")
    ds = sample(spec, 5, seed=20240, stream=0)
    assert ds.names == ["v1", "w1"]
    assert np.allclose(ds.x, GOLDEN_A_X, rtol=1e-13, atol=0)
    assert np.allclose(ds.y, GOLDEN_A_Y, rtol=1e-13, atol=0)


def test_sample_seed_determinism():
    spec, _ = model_preset("B")
    a = sample(spec, 200, seed=1, stream=4)
    b = sample(spec, 200, seed=1, stream=4)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    c = sample(spec, 200, seed=2, stream=4)
    d = sample(spec, 200, seed=1, stream=5)
    assert not np.array_equal(a.y, c.y)
    assert not np.array_equal(a.y, d.y)


def test_theta_one_kills_heavy_tail():
    base = dict(p=2, d=1, alpha1=10.0, alpha2=10.0, covariate_law=UniformLaw(1.0, 10.0))
    light = sample(MixtureSpec(theta=1.0, **base), 50_000, seed=3)
    heavy = sample(MixtureSpec(theta=0.0, **base), 50_000, seed=3)
    # no exceedances of 10*b at all in the pure-light sample, never more than
    # in the pure-heavy one
    y0 = 10.0 * 10.0
    assert (light.y > y0).mean() <= (heavy.y > y0).mean()
    # at a threshold with observable mass the gap is dramatic
    y1 = 5.0
    assert (light.y > y1).mean() < 0.02 * (heavy.y > y1).mean()


def test_model_c_tau_one_constant_covariates():
    spec = MixtureSpec(p=2, d=1, theta=0.5, alpha1=10.0, alpha2=10.0,
                       covariate_law=BernoulliLaw(1.0))
    ds = sample(spec, 100, seed=9)
    assert np.all(ds.x == 1.0)


def test_sample_overflow_raises_only_when_a_response_overflows():
    # zeta = U^(-128) overflows for about one row in 250
    base = dict(p=2, d=1, alpha1=10.0, alpha2=2.0**-7, covariate_law=UniformLaw(1.0, 10.0))
    with pytest.raises(NumericalError, match="overflows"):
        sample(MixtureSpec(theta=0.0, **base), 2000, seed=0)
    # with theta = 1 no row reads zeta: its overflow neither warns nor raises
    ds = sample(MixtureSpec(theta=1.0, **base), 2000, seed=0)
    assert np.isfinite(ds.y).all()


def test_true_projector_model_a():
    spec, _ = model_preset("A")
    p = true_projector(spec)
    assert np.array_equal(p, np.diag([0.0, 1.0]))
    assert np.trace(p) == 1


def test_true_projector_model_b_block():
    spec, _ = model_preset("B")
    p = true_projector(spec)
    want = np.diag([0.0] * 25 + [1.0] * 5)
    assert np.array_equal(p, want)


def test_mixture_spec_validation():
    law = UniformLaw(1.0, 10.0)
    with pytest.raises(InvalidInputError):
        MixtureSpec(p=2, d=2, theta=0.5, alpha1=1.0, alpha2=1.0, covariate_law=law)
    with pytest.raises(InvalidInputError):
        MixtureSpec(p=2, d=1, theta=1.5, alpha1=1.0, alpha2=1.0, covariate_law=law)
    with pytest.raises(InvalidInputError):
        MixtureSpec(p=2, d=1, theta=0.5, alpha1=-1.0, alpha2=1.0, covariate_law=law)
    for bad in (float("nan"), float("inf"), 0.0):
        with pytest.raises(InvalidInputError, match="alpha2"):
            MixtureSpec(p=2, d=1, theta=0.5, alpha1=1.0, alpha2=bad, covariate_law=law)
    with pytest.raises(InvalidInputError):
        MixtureSpec(p=3, d=1, theta=0.5, alpha1=1.0, alpha2=1.0, covariate_law=law,
                    pi1=np.array([0.5, 0.6]))
    with pytest.raises(InvalidInputError):
        UniformLaw(5.0, 2.0)
    with pytest.raises(InvalidInputError):
        UniformLaw(0.0, float("inf"))
    with pytest.raises(InvalidInputError):
        BernoulliLaw(1.2)


def test_spec_dict_roundtrip():
    spec, _ = model_preset("C")
    back = MixtureSpec.from_dict(spec.to_dict())
    assert back == spec


# ---------------------------------------------------------------------------
# analytic survival components


def test_survival_components_bernoulli_all_ones():
    spec = bernoulli_spec(tau=0.5)
    y = 3.0
    s1v, s2w, s1, s2 = survival_components(spec, y, np.array([1.0]), np.array([1.0]))
    assert s1v == pytest.approx(math.exp(-spec.alpha1 * y), rel=1e-14)
    assert s1 == pytest.approx(0.5 * math.exp(-spec.alpha1 * y), rel=1e-14)
    assert s2w == pytest.approx(y ** -spec.alpha2, rel=1e-14)
    assert s2 == pytest.approx(0.5 * y ** -spec.alpha2, rel=1e-14)


def test_survival_components_zero_covariates_vanish():
    spec = bernoulli_spec()
    s1v, s2w, _, _ = survival_components(spec, 2.0, np.array([0.0]), np.array([0.0]))
    assert s1v == 0.0 and s2w == 0.0


def test_survival_validity_threshold():
    spec_u, _ = model_preset("A")
    with pytest.raises(InvalidInputError):
        survival_components(spec_u, 10.0, np.array([1.0]), np.array([1.0]))
    spec_b = bernoulli_spec()
    with pytest.raises(InvalidInputError):
        survival_components(spec_b, 1.0, np.array([1.0]), np.array([1.0]))


def exact_s1_uniform(spec, y):
    """Closed form of the uniform-law marginal via exponential integrals, in
    80-digit arithmetic: integral of exp(-alpha1 y / v) over [a, b] equals
    [v e^{-c/v} - c E1(c/v)] evaluated at the endpoints, c = alpha1 y."""
    mpmath.mp.dps = 80
    law = spec.covariate_law
    c = mpmath.mpf(spec.alpha1) * y
    f = lambda v: v * mpmath.e ** (-c / v) - c * mpmath.expint(1, c / v)
    return float((f(law.b) - f(law.a)) / (law.b - law.a))


def test_s1_marginal_uniform_vs_quadrature_oracle():
    spec, _ = model_preset("A")
    for y in (10.5, 12.0, 20.0, 50.0, 100.0, 200.0):
        assert s1_marginal(spec, y) == pytest.approx(exact_s1_uniform(spec, y), rel=1e-8)


def test_s2_marginal_uniform_vs_quadrature_oracle():
    spec, _ = model_preset("A")
    mpmath.mp.dps = 40
    for y in (10.5, 20.0, 100.0):
        oracle = float(mpmath.quad(lambda v: (y / v) ** (-mpmath.mpf(spec.alpha2)), [1, 10]) / 9)
        assert s2_marginal(spec, y) == pytest.approx(oracle, rel=1e-10)


def test_s1_marginal_bernoulli_closed_form():
    spec = bernoulli_spec(tau=0.3)
    y = 4.0
    assert s1_marginal(spec, y) == pytest.approx(0.3 * math.exp(-spec.alpha1 * y), rel=1e-14)


# ---------------------------------------------------------------------------
# dependence ratios


def test_r_tilde_bernoulli_divergent_case():
    # v all ones, w all zeros: the ratio settles at (1 - tau) / tau for y > 1
    for tau in (0.5, 0.25):
        spec = bernoulli_spec(tau=tau)
        for y in (1.5, 2.0, 5.0, 20.0, 50.0):
            r = tci_ratios(spec, y, np.array([1.0]), np.array([0.0]))
            if tau == 0.5:
                assert r.r_tilde == 1.0  # exact binary arithmetic
            else:
                assert r.r_tilde == pytest.approx((1 - tau) / tau, rel=1e-12)


def test_r_zero_when_conditional_matches_marginal():
    # tau = 1 makes V degenerate at 1, so S1(y, v) == S1(y)
    spec = bernoulli_spec(tau=1.0)
    r = tci_ratios(spec, 2.0, np.array([1.0]), np.array([1.0]))
    assert r.r == 0.0


def test_diverging_ratio_reported_as_infinity():
    # tau = 0 makes both marginals vanish exactly; evaluating the formulas at
    # the off-support point v = 1 leaves a positive numerator over a zero
    # denominator, which must come back as a +inf marker, not a crash
    spec = bernoulli_spec(tau=0.0, theta=0.5)
    ratios = tci_ratios(spec, 2.0, np.array([1.0]), np.array([0.0]))
    assert math.isinf(ratios.r) and ratios.r > 0
    assert math.isinf(ratios.r_tilde) and ratios.r_tilde > 0
    # 0/0 carries no divergence evidence and stays finite
    zero = tci_ratios(spec, 2.0, np.array([0.0]), np.array([0.0]))
    assert zero.r == 0.0 and zero.r_tilde == 0.0


def test_r_bound_on_y_grid():
    # |R| <= theta/(1-theta) (S1(y,v) + S1(y)) / S2(y), checked numerically
    spec, _ = model_preset("A")
    rng = np.random.default_rng(17)
    for y in (11.0, 15.0, 25.0, 60.0, 120.0):
        s1 = s1_marginal(spec, y)
        s2 = s2_marginal(spec, y)
        for _ in range(10):
            v = spec.covariate_law.sample(rng, (1,))
            w = spec.covariate_law.sample(rng, (1,))
            r = tci_ratios(spec, y, v, w).r
            bound = spec.theta / (1 - spec.theta) * (
                survival_components(spec, y, v, w)[0] + s1) / s2
            assert abs(r) <= bound + 1e-18


def test_expected_abs_r_theta_zero_is_zero():
    spec = MixtureSpec(p=2, d=1, theta=0.0, alpha1=10.0, alpha2=10.0,
                       covariate_law=UniformLaw(1.0, 10.0))
    assert expected_abs_R(spec, 20.0, 500, seed=1) == 0.0


def test_tail_ratios_are_zero_where_the_survival_peak_underflows():
    # S1's integrand exp(-alpha1 y / v) peaks at v = b; on model A
    # (alpha1 = b = 10) that is exp(-800) at y = 800, which underflows to 0,
    # so every ratio over S1 is 0, not NaN
    spec, _ = model_preset("A")
    assert 0.0 < s1_marginal(spec, 700.0) < 1e-300
    assert s1_marginal(spec, 800.0) == 0.0
    ratios = tci_ratios(spec, 800.0, np.array([1.0]), np.array([0.0]))
    assert ratios.r == 0.0 and ratios.r_tilde == 0.0
    assert expected_abs_R(spec, 800.0, 1000, seed=1) == 0.0


def test_model_preset_builds_a_new_spec_per_call():
    first, n = model_preset("B")
    first.pi2[:] = 0.0  # the weight arrays are mutable
    second, _ = model_preset("b")
    assert n == 100_000 and second.p == 30 and second.d == 5
    assert np.array_equal(second.pi2, np.full(5, 0.2))


@pytest.mark.parametrize("name", ["A", "C"])
def test_expected_abs_r_decreases_to_zero(name):
    spec, _ = model_preset(name)
    values = [expected_abs_R(spec, y, 100_000, seed=11) for y in (20.0, 50.0, 100.0, 200.0)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[-1] < 0.05


def test_signed_r_mean_is_zero_within_mc_error():
    # tower property: E[R(y, V, W)] = 0
    spec, _ = model_preset("A")
    rng = np.random.default_rng(5)
    y = 12.0
    v = spec.covariate_law.sample(rng, (200_000, 1))
    from tirex.synthetic import _conditional_survival

    s1, s2 = s1_marginal(spec, y), s2_marginal(spec, y)
    s1v = _conditional_survival(lambda t: np.exp(-spec.alpha1 * t), spec.pi1, y, v)
    r = spec.theta * (s1v - s1) / (
        spec.theta * s1 + (1 - spec.theta) * s2)
    assert abs(r.mean()) < 3 * r.std() / math.sqrt(r.size)


def test_empirical_survival_matches_mixture_marginal():
    spec, _ = model_preset("A")
    n = 100_000
    ds = sample(spec, n, seed=5, stream=0)
    y0 = 12.0
    s = spec.theta * s1_marginal(spec, y0) + (1 - spec.theta) * s2_marginal(spec, y0)
    emp = float((ds.y > y0).mean())
    se = math.sqrt(s * (1 - s) / n)
    assert abs(emp - s) <= 3 * se


def _weights(draw, size):
    raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size)))
    raw[draw(st.integers(0, size - 1))] += 0.5  # one positive weight at least
    return raw / raw.sum()


@st.composite
def _mixture_case(draw):
    p = draw(st.integers(2, 8))
    d = draw(st.integers(1, p - 1))
    if draw(st.booleans()):
        a = draw(st.floats(0.0, 5.0))
        law = UniformLaw(a, a + draw(st.floats(0.5, 10.0)))
    else:
        law = BernoulliLaw(draw(st.floats(0.0, 1.0)))
    spec = MixtureSpec(p=p, d=d, theta=draw(st.sampled_from([0.0, 0.5, 1.0])),
                       alpha1=draw(st.sampled_from([0.5, 2.0, 10.0])),
                       alpha2=draw(st.sampled_from([1.0, 3.0, 10.0])),
                       covariate_law=law, pi1=_weights(draw, p - d), pi2=_weights(draw, d))
    return spec, draw(st.integers(1, 300)), draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 3))


@given(_mixture_case())
@example((model_preset("B")[0], 20000, 2**32 - 1, 3))  # three blocks at the default size
@settings(max_examples=150, deadline=None)
def test_sample_equals_the_full_matrix_oracle(case):
    # sample draws in row blocks and transforms only the noise entries y
    # reads; the values must not move, whichever blocks the rows fall in
    spec, n, seed, stream = case
    want = sample_oracle(spec, n, seed, stream)
    for block_rows in (1, 3, 7, data.WHITEN_BLOCK_ROWS):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(data, "WHITEN_BLOCK_ROWS", block_rows)
            got = sample(spec, n, seed, stream)
        assert got.x.tobytes() == want.x.tobytes()
        assert got.y.tobytes() == want.y.tobytes()
        assert got.names == want.names


def test_sample_holds_one_copy_of_the_covariates():
    # x is filled in place one block at a time, and of the noise only the
    # entries y reads are kept; V, W and their hstack held at once, with
    # the full noise matrices, peaked at 2.33 times x
    spec, _ = model_preset("B")
    sample(spec, 100, 1)  # leave first-call allocations out of the peak
    tracemalloc.start()
    try:
        ds = sample(spec, 20000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * ds.x.nbytes
