"""Datasets, CSV input/output, empirical standardization, quantiles and ranks.

A dataset is an n x p covariate matrix plus a length-n target vector.  All
downstream estimators consume the target only through its descending rank
order, so any strictly increasing transform of y leaves results bit-identical.
"""

import csv
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidInputError
from .linalg import inv_sqrt, symmetrize


@dataclass(frozen=True)
class Dataset:
    """Covariate matrix ``x`` (n x p), target ``y`` (n,), optional labels."""

    x: np.ndarray
    y: np.ndarray
    names: Optional[list] = None

    def __post_init__(self):
        x = np.ascontiguousarray(np.asarray(self.x, dtype=float))
        y = np.ascontiguousarray(np.asarray(self.y, dtype=float))
        if x.ndim != 2:
            raise InvalidInputError(f"x must be 2-dimensional, got shape {x.shape}")
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise InvalidInputError(
                f"y must be a vector aligned with x rows ({x.shape[0]}), got shape {y.shape}"
            )
        if x.shape[0] < 1:
            raise InvalidInputError("dataset needs at least one row")
        if x.shape[1] < 1:
            raise InvalidInputError("dataset needs at least one covariate column")
        if not np.all(np.isfinite(x)):
            raise InvalidInputError("x contains non-finite entries")
        if not np.all(np.isfinite(y)):
            raise InvalidInputError("y contains non-finite entries")
        if self.names is not None and len(self.names) != x.shape[1]:
            raise InvalidInputError("names must have one label per covariate column")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self):
        return self.x.shape[0]

    @property
    def p(self):
        return self.x.shape[1]

    def subset(self, rows):
        """Row-subset view as a new Dataset (rows is an index array)."""
        rows = np.asarray(rows)
        return Dataset(self.x[rows], self.y[rows], self.names)


@dataclass(frozen=True)
class StandardizedDataset:
    """Whitened covariates z_i = W (x_i - mean) with W the inverse square root
    of the divide-by-n empirical covariance."""

    z: np.ndarray
    mean: np.ndarray
    covariance: np.ndarray
    whitener: np.ndarray


def descending_order(y):
    """Indices sorting ``y`` descending; ties keep original order (stable)."""
    y = np.asarray(y, dtype=float)
    return np.argsort(-y, kind="stable")


def load_csv(path, target="y"):
    """Load a dataset from a CSV file with a header row.

    The column named ``target`` (default ``y``) becomes the response; every
    other column is a covariate, in file order.  Parse failures and
    non-finite cells raise InvalidInputError with 1-based (line, column)
    location, the header being line 1.
    """
    # utf-8-sig drops the byte-order mark that spreadsheet exports may write
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InvalidInputError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if target not in header:
            raise InvalidInputError(f"{path}: no column named {target!r} in header")
        y_col = header.index(target)
        feat_cols = [j for j in range(len(header)) if j != y_col]
        if not feat_cols:
            raise InvalidInputError(f"{path}: no covariate columns besides {target!r}")
        xs, ys = [], []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise InvalidInputError(
                    f"{path}: line {line_no} has {len(row)} fields, expected {len(header)}"
                )
            vals = []
            for j, cell in enumerate(row):
                try:
                    v = float(cell)
                except ValueError:
                    raise InvalidInputError(
                        f"{path}: cannot parse {cell!r} at (line {line_no}, column {j + 1})"
                    ) from None
                if not math.isfinite(v):
                    raise InvalidInputError(
                        f"{path}: non-finite value {cell!r} at (line {line_no}, column {j + 1})"
                    )
                vals.append(v)
            xs.append([vals[j] for j in feat_cols])
            ys.append(vals[y_col])
    if not ys:
        raise InvalidInputError(f"{path}: no data rows")
    return Dataset(
        x=np.array(xs, dtype=float),
        y=np.array(ys, dtype=float),
        names=[header[j] for j in feat_cols],
    )


def write_csv(ds, path):
    """Write a dataset as CSV: header (target column ``y`` last), then
    shortest round-trip decimals."""
    names = ds.names if ds.names is not None else [f"x{j + 1}" for j in range(ds.p)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(names) + ["y"])
        for i in range(ds.n):
            writer.writerow([repr(float(v)) for v in ds.x[i]] + [repr(float(ds.y[i]))])


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, bool):  # before the numbers: bool is an int subclass
        return str(int(v))
    if isinstance(v, float):  # np.float64 too, whose numpy 2 repr names the type
        return repr(float(v))
    return str(v)


def csv_text(rows):
    """Report CSV text, one line per row, the header being the first row.

    Floats are written as shortest round-trip decimals, bools as 0/1 and
    None as an empty cell; nothing is quoted.
    """
    return "".join(",".join(map(_csv_cell, row)) + "\n" for row in rows)


def second_moment(x):
    """Symmetrized x^T x / n; InvalidInputError when it overflows, as rows
    with entries beyond about 1e154 in magnitude make it do."""
    with np.errstate(over="ignore", invalid="ignore"):
        moment = symmetrize(x.T @ x / x.shape[0])
    if not np.isfinite(moment).all():
        raise InvalidInputError("covariates too large: their second moment overflows")
    return moment


def standardize(ds, eig_floor=None, ridge=0.0):
    """Empirically standardize covariates.

    mean = row average, covariance = (1/n) sum (x_i - mean)(x_i - mean)^T
    (divide by n, not n-1), z_i = covariance^{-1/2} (x_i - mean).  Raises
    RankDeficiencyError through inv_sqrt when the covariance is singular.
    """
    if ds.n < 2:
        raise InvalidInputError("standardization needs at least two rows")
    mean = ds.x.mean(axis=0)
    xc = ds.x - mean
    cov = second_moment(xc)
    whitener = inv_sqrt(cov, eig_floor=eig_floor, ridge=ridge)
    z = xc @ whitener
    return StandardizedDataset(z=z, mean=mean, covariance=cov, whitener=whitener)


def ceil_index(x):
    """Ceiling of a float that is mathematically a clean product like k*u.

    Values within 1e-9 of an integer snap to it, so u = j/k lands exactly on
    the j-th breakpoint despite floating-point products overshooting
    (k * (j/k) can evaluate to j + 1 ulp).
    """
    r = round(x)
    if abs(x - r) < 1e-9:
        return int(r)
    return int(math.ceil(x))


def empirical_quantile(values, u):
    """Left-continuous inverse of the empirical cdf: the ceil(n*u)-th
    ascending order statistic, for u in (0, 1]."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    if n < 1:
        raise InvalidInputError("empirical_quantile needs at least one value")
    if not (0.0 < u <= 1.0):
        raise InvalidInputError(f"quantile level must lie in (0, 1], got {u}")
    m = min(max(ceil_index(n * u), 1), n)
    return float(np.sort(values, kind="stable")[m - 1])
