"""Synthetic mixture models with known extreme dimension-reduction subspaces.

The target is a two-component mixture Y = B*Y1 + (1-B)*Y2 with B Bernoulli:
a light-tailed component driven by the first p-d covariates and a heavy-tailed
one driven by the last d,

    Y1 = sum_i M1_i V_i eps_i,      Y2 = sum_j M2_j W_j zeta_j,

where M1, M2 are one-hot multinomial selectors, eps is exponential with rate
alpha1, zeta is Pareto with index alpha2, and the covariates V, W are iid
uniform on [a, b] or Bernoulli(tau).  Exceedances of high thresholds are
asymptotically explained by W alone, so span(e_{p-d+1}, ..., e_p) is the true
extreme subspace against which estimators are scored.

The module also evaluates the analytic tail-dependence ratios

    R      = theta (S1(y, v) - S1(y)) / (theta S1(y) + (1 - theta) S2(y))
    Rtilde = theta (S1(y, v) - S1(y)) / (theta S1(y) + (1 - theta) S2(y, w))

built from the component survival functions; the expectation of |R| over
covariate draws vanishing for large y is the diagnostic that the last d
coordinates suffice in the tail.
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Optional, Union

import numpy as np

from . import rng as rngmod
from .data import Dataset
from .errors import InvalidInputError
from .linalg import Projector

_QUAD_OPTS = dict(epsabs=0.0, epsrel=1e-10, limit=200)


@dataclass(frozen=True)
class UniformLaw:
    """Covariate components iid uniform on [a, b], 0 <= a < b."""

    a: float
    b: float

    def __post_init__(self):
        if not (0.0 <= self.a < self.b):
            raise InvalidInputError(f"uniform law requires 0 <= a < b, got [{self.a}, {self.b}]")

    def sample(self, rng, shape):
        return self.a + (self.b - self.a) * rng.random(shape)

    def upper(self):
        return self.b

    def survival_mean(self, sf):
        """E[1{V > 0} sf(y/V)] for a scalar y baked into sf(v) = S(y/v).

        No elementary closed form for the exponential component, so adaptive
        Gauss-Kronrod quadrature at 1e-10 relative tolerance.  The integrand
        peaks at v = b and can sit hundreds of orders of magnitude below 1;
        dividing the peak out first keeps the quadrature well-scaled, the
        factor is re-applied exactly afterwards.
        """
        from scipy.integrate import quad  # here, so importing tirex loads no scipy

        peak = sf(self.b)
        if peak == 0.0 or not math.isfinite(peak):
            return 0.0
        # breakpoints bracketing the peak at several scales, so the adaptive
        # rule refines there even when the effective width is tiny
        width = self.b - self.a
        pts = [self.b - width * f for f in (1e-6, 1e-4, 1e-2, 1e-1)]
        val, _err = quad(lambda v: sf(v) / peak, self.a, self.b, points=pts, **_QUAD_OPTS)
        return peak * val / (self.b - self.a)

    def to_dict(self):
        return {"kind": "uniform", "a": self.a, "b": self.b}


@dataclass(frozen=True)
class BernoulliLaw:
    """Covariate components iid Bernoulli(tau) on {0, 1}."""

    tau: float

    def __post_init__(self):
        if not (0.0 <= self.tau <= 1.0):
            raise InvalidInputError(f"bernoulli parameter must lie in [0, 1], got {self.tau}")

    def sample(self, rng, shape):
        return (rng.random(shape) < self.tau).astype(float)

    def upper(self):
        return 1.0

    def survival_mean(self, sf):
        # only the V = 1 atom contributes: tau * sf(1)
        return self.tau * sf(1.0)

    def to_dict(self):
        return {"kind": "bernoulli", "tau": self.tau}


CovariateLaw = Union[UniformLaw, BernoulliLaw]


def _check_mapping(d, what):
    if not isinstance(d, dict):
        raise InvalidInputError(f"{what} must be a JSON object, got {type(d).__name__}")


def _field(d, key, convert):
    """d[key] through ``convert``; a value of the wrong type or form raises
    InvalidInputError (a missing key stays a KeyError)."""
    try:
        return convert(d[key])
    except (TypeError, ValueError, OverflowError):
        raise InvalidInputError(f"invalid value {d[key]!r} for {key!r}") from None


def _integral(value):
    """int(value), refusing a fractional float instead of truncating it."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(value)
    return int(value)


def law_from_dict(d):
    """Inverse of the laws' to_dict()."""
    _check_mapping(d, "covariate law")
    kind = d.get("kind")
    if kind == "uniform":
        return UniformLaw(a=_field(d, "a", float), b=_field(d, "b", float))
    if kind == "bernoulli":
        return BernoulliLaw(tau=_field(d, "tau", float))
    raise InvalidInputError(f"unknown covariate law kind {kind!r}")


def _check_weights(pi, size, what):
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (size,):
        raise InvalidInputError(f"{what} must have length {size}, got shape {pi.shape}")
    if np.any(pi < 0.0):
        raise InvalidInputError(f"{what} must be nonnegative")
    if abs(float(pi.sum()) - 1.0) > 1e-12:
        raise InvalidInputError(f"{what} must sum to 1 (got {pi.sum()!r})")
    return pi


@dataclass(frozen=True)
class MixtureSpec:
    """Full parameterization of the generative mixture model.

    theta may sit at the endpoints 0 or 1 (pure heavy / pure light target),
    which is useful for diagnostics even though the interesting regime is
    strictly in between.
    """

    p: int
    d: int
    theta: float
    alpha1: float
    alpha2: float
    covariate_law: CovariateLaw
    pi1: Optional[np.ndarray] = None
    pi2: Optional[np.ndarray] = None

    def __post_init__(self):
        if not (1 <= self.d < self.p):
            raise InvalidInputError(f"need 1 <= d < p, got d={self.d}, p={self.p}")
        if not (0.0 <= self.theta <= 1.0):
            raise InvalidInputError(f"theta must lie in [0, 1], got {self.theta}")
        for name in ("alpha1", "alpha2"):
            alpha = getattr(self, name)
            if not (math.isfinite(alpha) and alpha > 0):
                raise InvalidInputError(f"{name} must be finite and positive, got {alpha!r}")
        # selector weights default to uniform; the mixture literature rarely
        # states them so this is the documented neutral choice
        pi1 = self.pi1 if self.pi1 is not None else np.full(self.p - self.d, 1.0 / (self.p - self.d))
        pi2 = self.pi2 if self.pi2 is not None else np.full(self.d, 1.0 / self.d)
        object.__setattr__(self, "pi1", _check_weights(pi1, self.p - self.d, "pi1"))
        object.__setattr__(self, "pi2", _check_weights(pi2, self.d, "pi2"))

    def to_dict(self):
        return {
            "p": self.p,
            "d": self.d,
            "theta": self.theta,
            "alpha1": self.alpha1,
            "alpha2": self.alpha2,
            "pi1": [float(v) for v in self.pi1],
            "pi2": [float(v) for v in self.pi2],
            "covariate_law": self.covariate_law.to_dict(),
        }

    @staticmethod
    def from_dict(d):
        """Inverse of to_dict(); a value of the wrong type or form raises
        InvalidInputError, a missing key KeyError."""
        _check_mapping(d, "spec")
        weights = partial(np.asarray, dtype=float)
        return MixtureSpec(
            p=_field(d, "p", _integral),
            d=_field(d, "d", _integral),
            theta=_field(d, "theta", float),
            alpha1=_field(d, "alpha1", float),
            alpha2=_field(d, "alpha2", float),
            covariate_law=law_from_dict(d["covariate_law"]),
            pi1=_field(d, "pi1", weights) if "pi1" in d else None,
            pi2=_field(d, "pi2", weights) if "pi2" in d else None,
        )


#: Benchmark presets: (MixtureSpec keywords, default sample size).
#: A -- bivariate uniform covariates; B -- p=30 with a 5-dimensional heavy
#: block; C -- bivariate Bernoulli covariates.
PRESETS = {
    "A": (dict(p=2, d=1, theta=0.5, alpha1=10.0, alpha2=10.0,
               covariate_law=UniformLaw(1.0, 10.0)), 10_000),
    "B": (dict(p=30, d=5, theta=0.5, alpha1=10.0, alpha2=10.0,
               covariate_law=UniformLaw(1.0, 10.0)), 100_000),
    "C": (dict(p=2, d=1, theta=0.5, alpha1=10.0, alpha2=10.0,
               covariate_law=BernoulliLaw(0.5)), 10_000),
}


def model_preset(name):
    """Return (MixtureSpec, default n) for preset 'A', 'B' or 'C'; each call
    builds a new spec, whose weight arrays the caller may change."""
    key = str(name).upper()
    if key not in PRESETS:
        raise InvalidInputError(f"unknown model preset {name!r}; expected one of A, B, C")
    params, n = PRESETS[key]
    return MixtureSpec(**params), n


def _categorical(rng, weights, n):
    cum = np.cumsum(weights)
    idx = np.searchsorted(cum, rng.random(n), side="right")
    return np.minimum(idx, len(weights) - 1)


def sample(spec, n, seed, stream=0):
    """Draw n rows from the mixture model, deterministically for (seed, stream).

    Per row the draws are, in order: the mixture flag B, the two selector
    indices, the exponential and Pareto noise matrices (inverse-cdf from
    uniforms, so the stream is stable across library versions), then V and W.
    Replication r of an experiment passes stream=r, making replications
    order-independent.
    """
    if n < 1:
        raise InvalidInputError("n must be >= 1")
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


def true_projector(spec):
    """Orthogonal projector onto the heavy-tailed block span(e_{p-d+1..p})."""
    diag = np.zeros(spec.p)
    diag[spec.p - spec.d :] = 1.0
    return Projector(matrix=np.diag(diag), rank=spec.d)


def _sf_eps(spec, t):
    return math.exp(-spec.alpha1 * t)


def _sf_zeta(spec, t):
    return t ** (-spec.alpha2)


def _check_tail_validity(spec, y):
    bound = spec.covariate_law.upper()
    if not y > bound:
        raise InvalidInputError(
            f"analytic survival formulas require y > {bound} for this covariate law, got y={y}"
        )
    if not math.isfinite(y):
        raise InvalidInputError(f"the threshold y must be finite, got y={y}")


def _s1_conditional(spec, y, v):
    """S1(y, v) = sum_i 1{v_i > 0} pi1_i exp(-alpha1 y / v_i), vectorized over
    rows of v."""
    v = np.asarray(v, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        ratio = np.where(v > 0.0, y / np.where(v > 0.0, v, 1.0), np.inf)
        terms = np.where(v > 0.0, np.exp(-spec.alpha1 * ratio), 0.0)
    return terms @ spec.pi1


def _s2_conditional(spec, y, w):
    """S2(y, w) = sum_j 1{w_j > 0} pi2_j (y / w_j)^{-alpha2}."""
    w = np.asarray(w, dtype=float)
    with np.errstate(divide="ignore"):
        ratio = np.where(w > 0.0, y / np.where(w > 0.0, w, 1.0), np.inf)
        terms = np.where(w > 0.0, ratio ** (-spec.alpha2), 0.0)
    return terms @ spec.pi2


def s1_marginal(spec, y):
    """S1(y) = E_V[S1(y, V)]; component weights sum to one so this reduces to
    the per-component survival mean."""
    _check_tail_validity(spec, y)
    return spec.covariate_law.survival_mean(lambda v: _sf_eps(spec, y / v))


def s2_marginal(spec, y):
    """S2(y) = E_W[S2(y, W)]; closed form in both covariate laws."""
    _check_tail_validity(spec, y)
    law = spec.covariate_law
    if isinstance(law, BernoulliLaw):
        return law.tau * _sf_zeta(spec, y)
    # integral of (y/v)^{-a} over [a, b] is elementary
    a2 = spec.alpha2
    num = law.b ** (a2 + 1.0) - law.a ** (a2 + 1.0)
    return y ** (-a2) * num / ((law.b - law.a) * (a2 + 1.0))


def survival_components(spec, y, v, w):
    """Return (S1(y, v), S2(y, w), S1(y), S2(y)) for scalar y above the
    validity bound of the closed forms."""
    _check_tail_validity(spec, y)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    for name, vec, size in (("v", v, spec.p - spec.d), ("w", w, spec.d)):
        if vec.shape != (size,):
            raise InvalidInputError(f"{name} must have length {size}")
        if not np.isfinite(vec).all():
            raise InvalidInputError(f"{name} contains non-finite entries")
    return (
        float(_s1_conditional(spec, y, v)),
        float(_s2_conditional(spec, y, w)),
        float(s1_marginal(spec, y)),
        float(s2_marginal(spec, y)),
    )


class TciRatios(NamedTuple):
    r: float
    r_tilde: float


def _safe_ratio(num, den):
    if den > 0.0:
        return num / den
    if num == 0.0:
        return 0.0
    # diverging ratio: flagged as a signed infinity rather than raising
    return math.copysign(math.inf, num)


def tci_ratios(spec, y, v, w):
    """Analytic dependence ratios R and Rtilde at a point (y, v, w).

    R scales the conditional-survival gap by the marginal exceedance
    probability; Rtilde scales by the exceedance probability conditional on
    w, which can vanish (e.g. w = 0 under a Bernoulli law) -- that case is
    reported as a signed infinity marker.
    """
    s1v, s2w, s1, s2 = survival_components(spec, y, v, w)
    num = spec.theta * (s1v - s1)
    return TciRatios(
        r=_safe_ratio(num, spec.theta * s1 + (1.0 - spec.theta) * s2),
        r_tilde=_safe_ratio(num, spec.theta * s1 + (1.0 - spec.theta) * s2w),
    )


def expected_abs_R(spec, y, n_mc, seed):
    """Monte-Carlo estimate of E|R(y, V, W)| over covariate draws.

    R does not involve W pointwise, so only V is drawn.
    """
    if n_mc < 1:
        raise InvalidInputError("n_mc must be >= 1")
    _check_tail_validity(spec, y)
    rng = rngmod.stream(seed, 3)
    v = spec.covariate_law.sample(rng, (n_mc, spec.p - spec.d))
    s1 = s1_marginal(spec, y)
    s2 = s2_marginal(spec, y)
    den = spec.theta * s1 + (1.0 - spec.theta) * s2
    num_mean = spec.theta * float(np.mean(np.abs(_s1_conditional(spec, y, v) - s1)))
    return _safe_ratio(num_mean, den)
