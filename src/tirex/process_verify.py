"""Monte-Carlo verification of the tail empirical process limit.

For a covariate map h with q components, the centered, scaled process
sqrt(k) * (D_hat_n(u) - D_n(u)) converges to a mean-zero Gaussian process
with covariance (s ^ t) * (Xi - nu nu^T), where nu and Xi are the limits of
the first and second conditional moments of h given the target's rank falling
in the extreme fraction.  This module simulates replications of the process
on a u-grid and compares empirical means and cross-covariances entrywise
against the limit, gating each entry at four Monte-Carlo standard errors.
Four SEs per entry without multiplicity correction makes this a diagnostic
gate, not a formal hypothesis test; with a few hundred entries occasional
borderline excursions are expected under a wrong implementation much more
than under a correct one.

The stock verification model draws the target independent of standard normal
covariates, for which every limit quantity is exact: nu = 0, Xi = I for the
first-order process, and Xi given by Wick pairings for the second-order one.
That isolates implementation error from model error.
"""

from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .data import ceil_index, descending_order
from .errors import InvalidInputError


@dataclass(frozen=True)
class IndependentNormalModel:
    """Target independent of N(0, I_p) covariates; all limits closed-form."""

    p: int = 3

    def __post_init__(self):
        if self.p < 1:
            raise InvalidInputError(f"need p >= 1 covariates, got p={self.p}")

    def sample(self, n, rng):
        z = rng.standard_normal((n, self.p))
        y = rng.standard_normal(n)
        return z, y

    def population_dn(self, u, k, n, order):
        """Exact D_n(u): zero for both process orders, for every u, by
        independence and the moment identities E[Z] = 0, E[ZZ^T] = I."""
        q = self.p if order == 1 else self.p * self.p
        return np.zeros(q)

    def nu(self, order):
        q = self.p if order == 1 else self.p * self.p
        return np.zeros(q)

    def xi(self, order):
        if order == 1:
            return np.eye(self.p)
        # E[(Z_i Z_j - d_ij)(Z_k Z_l - d_kl)] = d_ik d_jl + d_il d_jk
        p = self.p
        eye = np.eye(p)
        xi = np.einsum("ik,jl->ijkl", eye, eye) + np.einsum("il,jk->ijkl", eye, eye)
        return xi.reshape(p * p, p * p)


def population_Dn(generator, k, n, u, order=1):
    """Population process value D_n(u) for generators with a closed form."""
    if not hasattr(generator, "population_dn"):
        raise InvalidInputError(
            f"{type(generator).__name__} has no closed-form population process"
        )
    if order not in (1, 2):
        raise InvalidInputError("order must be 1 or 2")
    return generator.population_dn(u, k, n, order)


@dataclass(frozen=True)
class ProcessCheckConfig:
    """Settings for one covariance check run.

    nu and xi are the generator's closed forms; u_grid must be ascending
    within (0, 1] and 1 <= k < n so the extreme fraction is proper.
    """

    generator: IndependentNormalModel
    n: int
    k: int
    n_reps: int
    u_grid: tuple
    order: int = 1
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.k < self.n:
            raise InvalidInputError(f"need 1 <= k < n, got k={self.k}, n={self.n}")
        if self.n_reps < 100:
            raise InvalidInputError("covariance check needs n_reps >= 100")
        if self.order not in (1, 2):
            raise InvalidInputError("order must be 1 or 2")
        grid = tuple(float(u) for u in self.u_grid)
        if not grid or any(not (0.0 < u <= 1.0) for u in grid):
            raise InvalidInputError("u_grid values must lie in (0, 1]")
        if list(grid) != sorted(grid):
            raise InvalidInputError("u_grid must be sorted ascending")
        object.__setattr__(self, "u_grid", grid)


@dataclass(frozen=True)
class MeanCheckEntry:
    u: float
    component: int
    mean: float
    se: float
    ok: bool


@dataclass(frozen=True)
class CovCheckEntry:
    u_s: float
    u_t: float
    row: int
    col: int
    empirical: float
    theoretical: float
    deviation: float
    se: float
    ok: bool


@dataclass(frozen=True)
class ProcessCheckReport:
    config_summary: dict
    mean_entries: list
    cov_entries: list

    @property
    def mean_ok(self):
        return all(e.ok for e in self.mean_entries)

    @property
    def cov_ok(self):
        return all(e.ok for e in self.cov_entries)

    @property
    def passed(self):
        return self.mean_ok and self.cov_ok

    def max_cov_deviation_in_se(self):
        return max((e.deviation / e.se if e.se > 0 else np.inf) for e in self.cov_entries)

    def to_csv_text(self):
        lines = ["u_s,u_t,row,col,empirical,theoretical,deviation,se,ok"]
        for e in self.cov_entries:
            lines.append(
                f"{e.u_s!r},{e.u_t!r},{e.row},{e.col},{e.empirical!r},"
                f"{e.theoretical!r},{e.deviation!r},{e.se!r},{int(e.ok)}"
            )
        return "\n".join(lines) + "\n"

    def to_json_dict(self):
        return {
            "config": self.config_summary,
            "gate": "4 * MC standard error per entry, no multiplicity "
                    "correction (diagnostic, not a formal test; with hundreds "
                    "of entries rare borderline excursions are expected)",
            "passed": self.passed,
            "mean_ok": self.mean_ok,
            "cov_ok": self.cov_ok,
            "n_mean_entries": len(self.mean_entries),
            "n_cov_entries": len(self.cov_entries),
            "mean_failures": [
                {"u": e.u, "component": e.component, "mean": e.mean, "se": e.se}
                for e in self.mean_entries
                if not e.ok
            ],
            "cov_failures": [
                {
                    "u_s": e.u_s, "u_t": e.u_t, "row": e.row, "col": e.col,
                    "empirical": e.empirical, "theoretical": e.theoretical,
                    "deviation": e.deviation, "se": e.se,
                }
                for e in self.cov_entries
                if not e.ok
            ],
        }


def _process_values(z, y, k, u_grid, order):
    """D_hat_n(u) on the grid from one sample: prefix sums of h over rows
    ordered by descending target, divided by k."""
    idx = descending_order(y)[:k]
    zk = z[idx]
    if order == 1:
        h = zk
    else:
        p = z.shape[1]
        h = (np.einsum("ji,jl->jil", zk, zk) - np.eye(p)).reshape(k, p * p)
    prefixes = np.cumsum(h, axis=0)
    out = np.empty((len(u_grid), h.shape[1]))
    for i, u in enumerate(u_grid):
        m = min(ceil_index(k * u), k)
        out[i] = prefixes[m - 1] / k if m >= 1 else 0.0
    return out


def covariance_check(cfg):
    """Simulate the scaled process and gate mean and covariance entrywise.

    Replication r uses stream (seed, 4, r).  Empirical cross-covariances over
    the u-grid are compared to (u_s ^ u_t)(Xi - nu nu^T); the per-entry
    standard error is estimated from the spread of the centered cross
    products across replications.
    """
    grid = list(cfg.u_grid)
    n_u = len(grid)
    dn = [population_Dn(cfg.generator, cfg.k, cfg.n, u, cfg.order) for u in grid]
    q = dn[0].shape[0]
    scale = np.sqrt(cfg.k)

    devs = np.empty((cfg.n_reps, n_u, q))
    for r in range(cfg.n_reps):
        rng = rngmod.stream(cfg.seed, 4, r)
        z, y = cfg.generator.sample(cfg.n, rng)
        hat = _process_values(z, y, cfg.k, grid, cfg.order)
        devs[r] = scale * (hat - np.asarray(dn))

    mean_entries = []
    means = devs.mean(axis=0)
    mean_se = devs.std(axis=0, ddof=1) / np.sqrt(cfg.n_reps)
    for i, u in enumerate(grid):
        for a in range(q):
            ok = abs(means[i, a]) <= 4.0 * mean_se[i, a] + 1e-12
            mean_entries.append(MeanCheckEntry(u, a, float(means[i, a]),
                                               float(mean_se[i, a]), bool(ok)))

    nu = cfg.generator.nu(cfg.order)
    limit_cov = cfg.generator.xi(cfg.order) - np.outer(nu, nu)
    centered = devs - means
    cov_entries = []
    for s in range(n_u):
        for t in range(s, n_u):
            prods = np.einsum("ra,rb->rab", centered[:, s, :], centered[:, t, :])
            emp = prods.mean(axis=0)
            se = prods.std(axis=0, ddof=1) / np.sqrt(cfg.n_reps)
            theory = min(grid[s], grid[t]) * limit_cov
            dev = np.abs(emp - theory)
            ok = dev <= 4.0 * se + 1e-12
            for a in range(q):
                for b in range(q):
                    cov_entries.append(
                        CovCheckEntry(
                            u_s=grid[s], u_t=grid[t], row=a, col=b,
                            empirical=float(emp[a, b]),
                            theoretical=float(theory[a, b]),
                            deviation=float(dev[a, b]),
                            se=float(se[a, b]),
                            ok=bool(ok[a, b]),
                        )
                    )
    summary = {
        "n": cfg.n, "k": cfg.k, "n_reps": cfg.n_reps,
        "u_grid": grid, "order": cfg.order, "seed": cfg.seed,
        "p": cfg.generator.p,
    }
    return ProcessCheckReport(
        config_summary=summary, mean_entries=mean_entries, cov_entries=cov_entries
    )
