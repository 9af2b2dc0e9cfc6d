"""Monte-Carlo verification of the tail empirical process limit.

For a covariate map h with q components, the centered, scaled process
sqrt(k) * (D_hat_n(u) - D_n(u)) converges to a mean-zero Gaussian process
with covariance (s ^ t) * (Xi - nu nu^T), where nu and Xi are the limits of
the first and second conditional moments of h given the target's rank falling
in the extreme fraction.  D_hat_n sums ``estimators.tail_increments``,
which the estimators' block kernels do not call; the tests tie the two by
comparing every grid candidate matrix with the Gram of the stacked
``tail_increments`` prefix sums (``tests/oracles.py::prefix_gram_oracle``).
This module simulates replications of the process on a u-grid and
compares empirical means and cross-covariances entrywise against the
limit, gating each entry at four Monte-Carlo standard errors;
``_gate`` is the one place that rule is computed, for both, and each
gate's entries are one numpy record array.  Four SEs per entry without
multiplicity correction makes this a diagnostic gate, not a formal
hypothesis test; with a few hundred entries occasional borderline
excursions are expected under a wrong implementation much more than under
a correct one.

The verification model draws the target independent of standard normal
covariates, for which every limit quantity is exact: D_n = 0 and nu = 0, so
the centered process is sqrt(k) * D_hat_n itself; Xi = I for the first-order
process, and Xi is given by Wick pairings for the second-order one.  That
isolates implementation error from model error.

Replications run on ``rng.replicate`` with one thread per CPU this process
may use (``taskset -c 0 tirex verify-process ...`` pins the check to one
core).  Replication r draws from its own stream and writes its own row, so
every output is identical for any thread count.
"""

from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .data import BLOCK_ELEMENTS, ceil_index, descending_order, row_blocks
from .errors import InvalidInputError, check_size
from .estimators import tail_increments


@dataclass(frozen=True)
class IndependentNormalModel:
    """Target independent of N(0, I_p) covariates: D_n = 0 and nu = 0
    exactly, and Xi has a closed form."""

    p: int = 3

    def __post_init__(self):
        if self.p < 1:
            raise InvalidInputError(f"need p >= 1 covariates, got p={self.p}")

    def sample(self, n, rng):
        z = rng.standard_normal((n, self.p))
        y = rng.standard_normal(n)
        return z, y

    def xi(self, order):
        if order == 1:
            return np.eye(self.p)
        # E[(Z_i Z_j - d_ij)(Z_k Z_l - d_kl)] = d_ik d_jl + d_il d_jk
        p = self.p
        eye = np.eye(p)
        xi = np.einsum("ik,jl->ijkl", eye, eye) + np.einsum("il,jk->ijkl", eye, eye)
        return xi.reshape(p * p, p * p)


@dataclass(frozen=True)
class ProcessCheckConfig:
    """Settings for one covariance check run.

    The generator is exact with nu = 0 and D_n = 0, and supplies Xi.
    u_grid must be ascending within (0, 1], each u at or past the first
    breakpoint 1/k, and 1 <= k < n so the extreme fraction is proper.
    With q = p process components (p^2 at order 2), neither q^2 nor
    n_reps * len(u_grid) * q may exceed ``errors.MAX_SIZE``.
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
        if ceil_index(self.k * grid[0]) < 1:
            raise InvalidInputError(f"u_grid values must be >= 1/k = {1 / self.k!r}")
        q = self.generator.p ** self.order
        check_size(q * q, f"q^2 (q = {q} process components)")
        check_size(self.n_reps * len(grid) * q, "reps x u-grid length x q")
        object.__setattr__(self, "u_grid", grid)


#: The record of one mean-gate and of one covariance-gate entry.
MEAN_ENTRY = np.dtype([("u", float), ("component", np.int64), ("mean", float),
                       ("se", float), ("ok", bool)])
COV_ENTRY = np.dtype([("u_s", float), ("u_t", float), ("row", np.int64), ("col", np.int64),
                      ("empirical", float), ("theoretical", float), ("deviation", float),
                      ("se", float), ("ok", bool)])


@dataclass(frozen=True)
class ProcessCheckReport:
    config_summary: dict
    mean_entries: np.ndarray  # MEAN_ENTRY records
    cov_entries: np.ndarray  # COV_ENTRY records

    @property
    def mean_ok(self):
        return bool(self.mean_entries["ok"].all())

    @property
    def cov_ok(self):
        return bool(self.cov_entries["ok"].all())

    @property
    def passed(self):
        return self.mean_ok and self.cov_ok

    def max_cov_deviation_in_se(self):
        """The largest covariance deviation in standard errors.  An entry
        with se == 0 counts as 0 when it matches exactly and as inf if not."""
        dev, se = self.cov_entries["deviation"], self.cov_entries["se"]
        return float(np.divide(dev, se, out=np.where(dev != 0, np.inf, 0.0), where=se > 0).max())

    def csv_rows(self):
        """The header, then one ``row_blocks`` block of entries at a time,
        as columns: lists of columns take less memory than record tuples."""
        yield COV_ENTRY.names
        for lo, hi in row_blocks(len(self.cov_entries)):
            block = self.cov_entries[lo:hi]
            yield from zip(*(block[name].tolist() for name in COV_ENTRY.names))

    def to_json_dict(self):
        worst = self.max_cov_deviation_in_se()
        return {
            "config": self.config_summary,
            "gate": "4 * MC standard error per entry, no multiplicity "
                    "correction (diagnostic, not a formal test; with hundreds "
                    "of entries rare borderline excursions are expected)",
            "passed": self.passed,
            "mean_ok": self.mean_ok,
            "cov_ok": self.cov_ok,
            "max_cov_deviation_se": worst if np.isfinite(worst) else None,
            "n_mean_entries": len(self.mean_entries),
            "n_cov_entries": len(self.cov_entries),
            "mean_failures": _failures(self.mean_entries),
            "cov_failures": _failures(self.cov_entries),
        }


def _failures(entries):
    """The failed entries as JSON objects (Python scalars), without ok."""
    names = [name for name in entries.dtype.names if name != "ok"]
    return [dict(zip(names, row)) for row in entries[~entries["ok"]][names].tolist()]


def _grid_rows(k, u_grid):
    """For each u, the prefix (0-based, of k) that D_hat_n(u) reads."""
    return [min(ceil_index(k * u), k) - 1 for u in u_grid]


def _process_values(z, y, k, grid_rows, order):
    """D_hat_n(u) on the grid from one sample: prefix sums of the tail
    increments over the k rows of largest target, in descending order,
    divided by k, one row per u (``grid_rows``; the second-order p x p
    values flattened)."""
    rows = z[descending_order(y, k)]
    prefixes = np.cumsum(tail_increments(rows, order == 2).reshape(k, -1), axis=0)
    return prefixes[grid_rows] / k


def _gate(samples, theory):
    """The verdict rule of the process check: the mean of ``samples`` over
    the replications (axis 0), its absolute deviation from ``theory``, the
    standard error (the sample standard deviation, divisor reps - 1, over
    sqrt(reps)), and whether the deviation is at most 4 SE + 1e-12 (the
    1e-12 passes an exact match of zero spread)."""
    mean = samples.mean(axis=0)
    dev = np.abs(mean - theory)
    se = samples.std(axis=0, ddof=1) / np.sqrt(samples.shape[0])
    return mean, dev, se, dev <= 4.0 * se + 1e-12


def _mean_entries(replications, grid):
    """The mean gate's records, for u and then component a, each against
    the limit 0, and the means of the replications (reps x u-grid x q)."""
    means, _, se, ok = _gate(replications, 0.0)
    entries = np.empty(means.shape, MEAN_ENTRY)
    entries["u"] = np.asarray(grid)[:, None]
    entries["component"] = np.arange(means.shape[1])
    entries["mean"], entries["se"], entries["ok"] = means, se, ok
    return entries.ravel(), means


def _covariance_entries(centered, grid, limit_cov):
    """The covariance gate's records, for u-pairs s <= t and then row a and
    column b, from the centered replications (reps x u-grid x q).

    The cross products of one (s, t) go to ``_gate`` in ``row_blocks`` of
    rows a, at most ``data.BLOCK_ELEMENTS`` products (one row at least): per
    entry the same sequential sums over the replications as over the whole
    (reps x q x q) product array, so the bits do not depend on the block.
    """
    n_reps, n_u, q = centered.shape
    us, ut = np.triu_indices(n_u)
    grid = np.asarray(grid)
    entries = np.empty((len(us), q, q), COV_ENTRY)
    entries["u_s"], entries["u_t"] = grid[us, None, None], grid[ut, None, None]
    entries["row"], entries["col"] = np.arange(q)[:, None], np.arange(q)
    entries["theoretical"] = np.minimum(grid[us], grid[ut])[:, None, None] * limit_cov
    blocks = row_blocks(q, BLOCK_ELEMENTS // (n_reps * q))
    for pair, s, t in zip(entries, us, ut):
        for lo, hi in blocks:
            block = pair[lo:hi]
            block["empirical"], block["deviation"], block["se"], block["ok"] = _gate(
                centered[:, s, lo:hi, None] * centered[:, t, None, :], block["theoretical"])
    return entries.ravel()


def covariance_check(cfg):
    """Simulate the scaled process and gate mean and covariance entrywise.

    Replication r uses stream (seed, 4, r).  The model has D_n = 0 and
    nu = 0, so the replications are sqrt(k) * D_hat_n and their empirical
    cross-covariances over the u-grid are compared to (u_s ^ u_t) Xi; the
    per-entry standard error is estimated from the spread of the centered
    cross products across replications (``_covariance_entries``).  Both
    verdicts, the means against 0 and the covariances against the limit,
    come from the one rule in ``_gate``.  ``rng.replicate`` runs the
    replications on one thread per CPU; the draws and the arithmetic release
    the GIL for most of each.  Beside the (reps x u-grid x q) replications
    and the report, the gate holds one block of at most
    ``data.BLOCK_ELEMENTS`` cross products at a time (one row at least),
    and the replications are centered in place.
    """
    grid = list(cfg.u_grid)
    limit_cov = cfg.generator.xi(cfg.order)
    scale = np.sqrt(cfg.k)

    grid_rows = _grid_rows(cfg.k, grid)
    devs = np.empty((cfg.n_reps, len(grid), limit_cov.shape[0]))

    def run_one(r):
        z, y = cfg.generator.sample(cfg.n, rngmod.stream(cfg.seed, 4, r))
        devs[r] = scale * _process_values(z, y, cfg.k, grid_rows, cfg.order)

    rngmod.replicate(run_one, cfg.n_reps, cfg.n_reps)

    mean_entries, means = _mean_entries(devs, grid)
    devs -= means  # centered in place: nothing reads the raw values again
    cov_entries = _covariance_entries(devs, grid, limit_cov)
    summary = {"n": cfg.n, "k": cfg.k, "n_reps": cfg.n_reps, "u_grid": grid,
               "order": cfg.order, "seed": cfg.seed, "p": cfg.generator.p}
    return ProcessCheckReport(summary, mean_entries, cov_entries)
