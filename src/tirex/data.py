"""Datasets, CSV input/output, empirical standardization, quantiles and ranks.

A dataset is an n x p covariate matrix plus a length-n target vector.  All
downstream estimators consume the target only through its descending rank
order, so any strictly increasing transform of y leaves results bit-identical.

Work over all n rows runs in row blocks (``row_blocks``): ceil(n /
WHITEN_BLOCK_ROWS) blocks of equal size within one row.  The covariance
sums one block Gram per block, whitening multiplies one block at a time,
``load_csv`` compacts the covariates into the parsed table's buffer one
block at a time, and ``write_csv`` writes one block of lines at a time, so
no step holds a second n x p array.
"""

import csv
import math
import os
import warnings
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
        """The given rows (an index array) copied into a new Dataset."""
        rows = np.asarray(rows)
        return Dataset(self.x[rows], self.y[rows], self.names)


@dataclass(frozen=True)
class StandardizedDataset:
    """The standardization of covariates ``x``: their mean, the divide-by-n
    covariance and its inverse square root W, the whitener.

    Only ``x`` itself is held, not its whitened copy: ``whiten(rows)`` gives
    z_i = W (x_i - mean) for the rows an estimator reads.
    """

    x: np.ndarray
    mean: np.ndarray
    covariance: np.ndarray
    whitener: np.ndarray

    def whiten(self, rows):
        """Whitened covariates of ``rows`` (an index array, in its order), as
        a new (len(rows), p) array.

        The rows are gathered, centered and multiplied by the whitener one
        block at a time; a row's bits do not depend on which rows share its
        block, so ``whiten(rows)`` equals those rows of
        ``whiten(np.arange(n))``.  A single row is whitened twice over:
        numpy sends a one-row product to a matrix-vector kernel, whose sums
        round differently.
        """
        rows = np.asarray(rows)
        m = rows.shape[0]
        if m == 1:
            return self.whiten(np.repeat(rows, 2))[:1]
        z = np.empty((m, self.x.shape[1]))
        for lo, hi in row_blocks(m):
            block = self.x[rows[lo:hi]]
            block -= self.mean
            np.matmul(block, self.whitener, out=z[lo:hi])
            del block  # else it lives on beside the next block
        return z


def descending_order(y, k=None):
    """Indices sorting ``y`` descending; ties keep original order (stable).
    With ``k``, only the first k of them: ``descending_order(y)[:k]``.

    Without ties the descending order is unique, so numpy's default (SIMD)
    argsort already gives it; a tie or a NaN among the sorted values sends
    the call to the stable sort.  For 0 < k < n, argpartition selects the k
    largest values and only they are sorted; that is the answer when they
    strictly descend and the last lies above the (k+1)-th largest value,
    and any tie among those k + 1 values sends the call to the stable sort.
    """
    neg = -np.asarray(y, dtype=float)
    if k is not None and 0 < k < neg.shape[0]:
        part = np.argpartition(neg, k)
        order = part[:k][np.argsort(neg[part[:k]])]
        ranked = np.append(neg[order], neg[part[k]])
    else:
        order = np.argsort(neg)
        ranked = neg[order]
    if (ranked[1:] > ranked[:-1]).all():  # False for equal neighbours and NaN
        return order[:k]
    return np.argsort(neg, kind="stable")[:k]


def load_csv(path, target="y"):
    """Load a dataset from a CSV file with a header row.

    The column named ``target`` (default ``y``), which the header must name
    exactly once, becomes the response; every other column is a covariate,
    in file order.  Parse failures and non-finite cells raise
    InvalidInputError with 1-based (line, column) location, the header
    being line 1.

    numpy's C reader parses the body of a regular file when it can: plain
    unquoted decimals, one per header column on every line, all finite.
    Any other input, and every malformed file, goes through the cell-by-cell
    parser, which alone writes the error messages; both parse a cell to the
    same float.

    The target column is copied out; then the covariates are compacted to
    the front of the parsed table's own buffer (``_drop_column``), so the
    dataset's ``x`` is a C-ordered view of that buffer, not a second copy.
    """
    try:
        # utf-8-sig drops the byte-order mark that spreadsheet exports may write
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = _records(path, csv.reader(fh))
            try:
                header = next(reader)
            except StopIteration:
                raise InvalidInputError(f"{path}: empty file") from None
            header = [h.strip() for h in header]
            if target not in header:
                raise InvalidInputError(f"{path}: no column named {target!r} in header")
            if header.count(target) > 1:
                raise InvalidInputError(f"{path}: column {target!r} appears "
                                        f"{header.count(target)} times in the header")
            y_col = header.index(target)
            feat_cols = [j for j in range(len(header)) if j != y_col]
            if not feat_cols:
                raise InvalidInputError(f"{path}: no covariate columns besides {target!r}")
            # a pipe cannot be opened again from its start
            table = _read_body_fast(path, len(header)) if os.path.isfile(path) else None
            if table is None:
                table = _read_body(path, reader, len(header))
    except UnicodeDecodeError:
        raise InvalidInputError(f"{path}: not UTF-8 text") from None
    y = table[:, y_col].copy()
    return Dataset(x=_drop_column(table, y_col), y=y, names=[header[j] for j in feat_cols])


def _drop_column(table, col):
    """``np.delete(table, col, axis=1)`` written over the C-ordered
    ``table``'s own buffer, and returned as a view of it; the table is
    spoiled.

    Block by block, the rows without the column go to the buffer's front.
    A block's rows land before the rows of the blocks after it, which are
    still intact, so each block needs only its own scratch copy.
    """
    n, w = table.shape
    flat = table.reshape(-1)  # a view: both parsers return C order
    for lo, hi in row_blocks(n):
        flat[lo * (w - 1):hi * (w - 1)] = np.delete(table[lo:hi], col, axis=1).reshape(-1)
    return flat[:n * (w - 1)].reshape(n, w - 1)


def _records(path, reader):
    """The records of a ``csv.reader``; a csv.Error, such as a cell over the
    csv module's field size limit, becomes an InvalidInputError naming the
    line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise InvalidInputError(f"{path}: line {reader.line_num}: {exc}") from None


def _read_body_fast(path, width):
    """The rows after the header as an (n, width) array by numpy's C reader,
    or None unless there is at least one row and every cell is finite."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # "input contained no data"
            table = np.loadtxt(path, delimiter=",", skiprows=1, comments=None,
                               encoding="utf-8-sig", ndmin=2)
    except ValueError:  # the cell-by-cell parser reports the file's fault
        return None
    if table.shape[0] < 1 or table.shape[1] != width or not np.isfinite(table).all():
        return None
    return table


def _read_body(path, reader, width):
    """The rows left in ``reader`` as an (n, width) array, cell by cell."""
    rows = []
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != width:
            raise InvalidInputError(
                f"{path}: line {line_no} has {len(row)} fields, expected {width}"
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
        rows.append(vals)
    if not rows:
        raise InvalidInputError(f"{path}: no data rows")
    return np.array(rows, dtype=float)


def write_csv(ds, path):
    """Write a dataset as CSV: header (target column ``y`` last), then
    shortest round-trip decimals.

    The header goes through ``csv.writer`` for its quoting; a number's
    ``repr`` never needs quoting, so the body is joined directly, with
    csv's ``\\r\\n`` line ends, one ``row_blocks`` block of rows at a
    time.
    """
    names = ds.names if ds.names is not None else [f"x{j + 1}" for j in range(ds.p)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(list(names) + ["y"])
        for lo, hi in row_blocks(ds.n):
            block = np.column_stack([ds.x[lo:hi], ds.y[lo:hi]]).tolist()
            fh.writelines(",".join(map(repr, row)) + "\r\n" for row in block)
            del block  # else it lives on beside the next block


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, bool):  # before the numbers: bool is an int subclass
        return str(int(v))
    if isinstance(v, float):  # np.float64 too, whose numpy 2 repr names the type
        return repr(float(v))
    return str(v)


def csv_lines(rows):
    """Report CSV lines, one per row, the header being the first row.

    Floats are written as shortest round-trip decimals, bools as 0/1 and
    None as an empty cell; nothing is quoted.
    """
    return (",".join(map(_csv_cell, row)) + "\n" for row in rows)


_TOO_LARGE = "covariates too large: their second moment overflows"

#: Most rows in one block of the covariance, of whitening, of the CSV
#: compaction, of sampling and of CSV writing (see ``row_blocks``).
WHITEN_BLOCK_ROWS = 8192
#: Most numbers in one block of the k-NN full scan and of the process check's
#: covariance gate, whose std holds two more (2^18 raised the latter's peak).
BLOCK_ELEMENTS = 2**16


def row_blocks(n, rows=None):
    """(lo, hi) bounds of ceil(n / max(rows, 1)) row blocks of equal size
    within one row, cut at ``n * i // blocks``; None reads WHITEN_BLOCK_ROWS.

    Cut so, the blocked whitening equals the one-shot product bit for bit
    with OpenBLAS, which fixed-size blocks with a short last block did not
    (tests/test_data.py checks it).
    """
    blocks = -(-n // max(1, WHITEN_BLOCK_ROWS if rows is None else rows))
    return [(n * i // blocks, n * (i + 1) // blocks) for i in range(blocks)]


def moments(x, centered=True):
    """Column means of x (zeros when not ``centered``) and the symmetrized
    divide-by-n second moment about them, summed one ``row_blocks`` Gram at
    a time, so only one centered block is held.

    Up to WHITEN_BLOCK_ROWS rows it is the one-shot ``symmetrize(xc.T @ xc
    / n)`` bit for bit; above, it differs in the last bits, as partial sums
    do.  InvalidInputError when a mean or the moment overflows, as columns
    summing past about 1.8e308 or entries beyond about 1e154 in magnitude
    make them do.
    """
    n, p = x.shape
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=0) if centered else np.zeros(p)
        if not np.isfinite(mean).all():
            raise InvalidInputError(_TOO_LARGE)
        moment = None
        for lo, hi in row_blocks(n):
            block = x[lo:hi] - mean if centered else x[lo:hi]
            gram = block.T @ block
            del block  # else it lives on beside the next block
            if moment is None:
                moment = gram
            else:
                moment += gram
        moment = symmetrize(moment / n)
    if not np.isfinite(moment).all():
        raise InvalidInputError(_TOO_LARGE)
    return mean, moment


def standardize(ds, eig_floor=None, ridge=0.0):
    """Empirically standardize covariates.

    mean = row average, covariance = (1/n) sum (x_i - mean)(x_i - mean)^T
    (divide by n, not n-1), z_i = covariance^{-1/2} (x_i - mean).  Raises
    RankDeficiencyError through inv_sqrt when the covariance is singular.

    The covariance is summed over row blocks (``moments``) and nothing is
    whitened here: the result holds ``ds.x``, the mean, the covariance and
    the whitener, and whitens rows on request.  So standardizing holds no
    n x p array beside ``ds.x``, only one block of rows.
    """
    if ds.n < 2:
        raise InvalidInputError("standardization needs at least two rows")
    mean, cov = moments(ds.x)
    whitener = inv_sqrt(cov, eig_floor=eig_floor, ridge=ridge)
    return StandardizedDataset(x=ds.x, mean=mean, covariance=cov, whitener=whitener)


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
    return float(np.sort(values)[m - 1])
