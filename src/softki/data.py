"""Dataset loading, splitting, standardization, and the synthetic wavelet task,
and the package's four input rules: ``integer``, ``real``, ``stream`` and
``points``.

Standardization always uses training-split statistics, for features and
targets alike. Metrics are reported on the standardized scale unless a caller
de-standardizes explicitly.
"""

import csv
import math
import numbers
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateColumnWarning, DimensionMismatch, EmptyFile, InvalidConfig,
                     NonFiniteInput, ParseError)


def integer(value, name: str, low: int) -> int:
    """value as an int; raises InvalidConfig naming name unless it is an
    integer (bool is not) >= low."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise InvalidConfig(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise InvalidConfig(f"{name} must be >= {low}, got {value!r}")
    return int(value)


def _array(value, name: str) -> np.ndarray:
    try:
        return np.asarray(value)
    except ValueError:  # nested sequences of unequal lengths have no shape
        raise DimensionMismatch(f"{name} is a ragged sequence, not an array") from None


_ABOVE = {"(": operator.gt, "[": operator.ge}
_BELOW = {")": operator.lt, "]": operator.le}


def real(value, name: str, low=-math.inf, high=math.inf, ends="()", vector=False):
    """value as a float, or with vector as a 1-D array, each entry in the
    interval from low to high; ends holds its brackets, "(" or "[" then ")"
    or "]". vector is False for a scalar (a 0-d array is read as its
    scalar), True for a vector of any length, or the tuple of lengths it may
    have; a scalar is a vector of one. A float vector keeps its dtype and an
    integer one becomes float64.

    Raises InvalidConfig naming name for a bool, string, None, complex or
    any other value that is not a real number, and for the first entry
    outside the interval (nan always is); DimensionMismatch naming name for a
    vector of another ndim or length.
    """
    if vector is False:
        if isinstance(value, np.ndarray) and value.ndim == 0:
            value = value[()]  # a 0-d array is read as its scalar
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise InvalidConfig(f"{name} must be a number, got {value!r}")
        try:
            a = float(value)
        except OverflowError:  # an int beyond float64's range
            a = math.inf if value > 0 else -math.inf
        bad = None if _ABOVE[ends[0]](a, low) and _BELOW[ends[1]](a, high) else a
    else:
        a = _array(value, name)
        if a.dtype.kind not in "fiu":
            raise InvalidConfig(f"{name} must be a number, got {value!r}")
        a = np.atleast_1d(a)
        if a.ndim != 1 or (vector is not True and a.shape[0] not in vector):
            lengths = "" if vector is True else " of length " + " or ".join(map(str, vector))
            raise DimensionMismatch(f"{name} must be a 1-D array{lengths}, got shape {a.shape}")
        if a.dtype.kind != "f":
            a = a.astype(float)
        fits = _ABOVE[ends[0]](a, low) & _BELOW[ends[1]](a, high)
        bad = None if fits.all() else float(a[np.argmin(fits)])
    if bad is not None:
        raise InvalidConfig(f"{name} must be in {ends[0]}{low:g}, {high:g}{ends[1]}, got {bad}")
    return a


def stream(seed, *tags: int) -> np.random.Generator:
    """The random stream of an integer seed >= 0 and fixed tags; with no tags
    it is ``default_rng(seed)``'s."""
    return np.random.default_rng(np.random.SeedSequence([integer(seed, "seed", 0), *tags]))


def points(a, name: str) -> np.ndarray:
    """a as (n, d) rows, a 1-D array as one row; integer and bool arrays become
    float64, other float arrays keep their dtype. Raises DimensionMismatch for
    any other shape or dtype and NonFiniteInput naming the first nan or inf
    by row and column, each naming name."""
    a = _array(a, name)
    if a.ndim not in (1, 2) or a.dtype.kind not in "fiub":
        raise DimensionMismatch(f"{name} must be a 1-D or (n, d) array of numbers, "
                                f"got shape {a.shape} of {a.dtype}")
    a = np.atleast_2d(a)
    if a.dtype.kind != "f":
        a = a.astype(float)
    if not np.isfinite(a).all():  # the flat test is the cheap one
        row, col = np.argwhere(~np.isfinite(a))[0]
        raise NonFiniteInput(f"{name} row {row}, column {col} (0-based) holds {a[row, col]}")
    return a


@dataclass
class Standardization:
    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: float
    y_std: float

    def __post_init__(self):
        self.x_mean = real(self.x_mean, "x_mean", vector=True)
        self.x_std = real(self.x_std, "x_std", 0.0, vector=True)
        if self.x_std.shape != self.x_mean.shape:
            raise DimensionMismatch(f"x_mean has {self.x_mean.shape[0]} entries but "
                                    f"x_std has {self.x_std.shape[0]}")
        self.y_mean = real(self.y_mean, "y_mean")
        self.y_std = real(self.y_std, "y_std", 0.0)


@dataclass
class Dataset:
    x: np.ndarray
    y: np.ndarray
    stats: Standardization | None = None
    split: str = "raw"

    def __post_init__(self):
        self.x = points(self.x, "x")
        self.y = points(np.ravel(self.y)[:, None], "y").ravel()
        if self.x.shape[0] != self.y.shape[0]:
            raise DimensionMismatch(
                f"{self.x.shape[0]} feature rows but {self.y.shape[0]} targets"
            )

    def __len__(self):
        return self.y.shape[0]


def load_csv(path, header: bool = False, target_column: int = -1) -> Dataset:
    """Read a numeric CSV into a raw (unstandardized) Dataset.

    target_column: -1 takes the last column as the target, otherwise a
    0-based column index. Raises ParseError with the 1-based physical row and
    column of the first cell that is not a finite number, EmptyFile when no
    data rows exist.

    ``np.loadtxt`` reads the file first. A file it rejects, or one that holds
    a cell that is not finite, is read again row by row; that parser decides
    every error and names the cell.
    """
    table = _parse_fast(path, header)
    if table is None:
        table = _parse_rows(path, header)
    tcol = table.shape[1] - 1 if target_column == -1 else target_column
    if not 0 <= tcol < table.shape[1]:
        raise DimensionMismatch(f"target column {target_column} out of range")
    y = table[:, tcol]
    x = np.delete(table, tcol, axis=1)
    if x.shape[1] == 0:
        raise DimensionMismatch("csv needs at least one feature column")
    return Dataset(x=x, y=y, stats=None, split="raw")


def _parse_fast(path, header: bool):
    """The table as np.loadtxt reads it, or None where _parse_rows must decide.

    loadtxt gets the open text file, not the path, so a name ending in .gz is
    not decompressed and the text decodes as it does for _parse_rows.
    """
    with open(path) as fh:
        lines = iter(fh)
        if header:
            next(lines, None)
        if not any(line.strip() for line in lines):
            return None  # no data line: loadtxt would only warn
        fh.seek(0)
        try:
            table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2,
                               skiprows=1 if header else 0)
        except ValueError:
            return None
    return table if np.isfinite(table).all() else None


def _parse_rows(path, header: bool) -> np.ndarray:
    """The table read row by row with the csv module, naming the first bad cell."""
    rows = []
    width = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, cells in enumerate(reader, start=1):
            if header and lineno == 1:
                continue
            if not cells or (len(cells) == 1 and cells[0].strip() == ""):
                continue  # blank line
            if width is None:
                width = len(cells)
            if len(cells) != width:
                raise ParseError(lineno, min(len(cells), width) + 1,
                                 f"expected {width} fields, got {len(cells)}")
            parsed = np.empty(width)
            for col, cell in enumerate(cells):
                try:
                    value = float(cell)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    raise ParseError(lineno, col + 1, cell)
                parsed[col] = value
            rows.append(parsed)
    if not rows:
        raise EmptyFile(f"{path} has no data rows")
    return np.vstack(rows)


def _train_stats(x: np.ndarray, y: np.ndarray) -> Standardization:
    """Training-split statistics; NonFiniteInput names the first column, or
    the targets, whose mean or variance overflows float64."""
    with np.errstate(over="ignore", invalid="ignore"):
        x_mean, x_std = x.mean(axis=0), x.std(axis=0)
        y_mean, y_std = float(y.mean()), float(y.std())
    bad = np.flatnonzero(~np.isfinite(x_std))
    if bad.size or not np.isfinite(y_std):
        name = f"column {bad[0]}" if bad.size else "targets"
        raise NonFiniteInput(f"the mean or variance of training {name} overflows float64")
    zero = x_std == 0
    if np.any(zero):
        warnings.warn(
            f"{int(zero.sum())} training column(s) have zero variance; std forced to 1",
            DegenerateColumnWarning,
        )
        x_std = np.where(zero, 1.0, x_std)
    if y_std == 0:
        warnings.warn("training targets have zero variance; std forced to 1",
                      DegenerateColumnWarning)
        y_std = 1.0
    return Standardization(x_mean=x_mean, x_std=x_std, y_mean=y_mean, y_std=y_std)


def apply_stats(x: np.ndarray, y: np.ndarray, stats: Standardization):
    xs = (x - stats.x_mean) / stats.x_std
    ys = (y - stats.y_mean) / stats.y_std
    return xs, ys


def identity_stats(d: int) -> Standardization:
    """Statistics under which apply_stats is the identity map."""
    return Standardization(x_mean=np.zeros(d), x_std=np.ones(d),
                           y_mean=0.0, y_std=1.0)


def split_raw(data: Dataset, train_fraction: float = 0.9, seed: int = 0):
    """Shuffle and split without standardizing; the permutation is seeded (seed >= 0)."""
    train_fraction = real(train_fraction, "train_fraction", 0.0, 1.0, "(]")
    n = len(data)
    perm = stream(seed).permutation(n)
    n_train = max(1, min(n, int(round(train_fraction * n))))
    tr, te = perm[:n_train], perm[n_train:]
    return (
        Dataset(x=data.x[tr], y=data.y[tr], stats=None, split="train"),
        Dataset(x=data.x[te], y=data.y[te], stats=None, split="test"),
    )


def standardize(raw_tr: Dataset, raw_te: Dataset):
    """Standardize a raw (train, test) pair with training-split statistics."""
    stats = _train_stats(raw_tr.x, raw_tr.y)
    xs_tr, ys_tr = apply_stats(raw_tr.x, raw_tr.y, stats)
    xs_te, ys_te = apply_stats(raw_te.x, raw_te.y, stats)
    return (
        Dataset(x=xs_tr, y=ys_tr, stats=stats, split="train"),
        Dataset(x=xs_te, y=ys_te, stats=stats, split="test"),
    )


def split_standardize(data: Dataset, train_fraction: float = 0.9, seed: int = 0):
    """Shuffle, split, and standardize with training-split statistics only."""
    return standardize(*split_raw(data, train_fraction, seed))


# beyond it the squared radius of a point, or of a noise draw, or the
# variance standardization takes, overflows float64 and the targets or
# statistics turn nan or inf
RICKER_SCALE_MAX = 1e100


def ricker(x: np.ndarray) -> np.ndarray:
    """Radial wavelet (1 - r^2) exp(-r^2 / 2) over rows of x."""
    r2 = np.sum(np.atleast_2d(x) ** 2, axis=1)
    return (1.0 - r2) * np.exp(-r2 / 2.0)


def ricker_raw(
    n_train: int = 3000,
    n_test: int = 200,
    radius: float = 2.5,
    noise: float = 0.0,
    seed: int = 0,
):
    """Raw (unstandardized) train/test splits of the synthetic wavelet task.

    Inputs are uniform on [-radius, radius]^2; Gaussian noise (std ``noise``)
    is added to training targets only. n_train must be an integer >= 1 and
    n_test one >= 0, radius lie in (0, RICKER_SCALE_MAX] and noise in
    [0, RICKER_SCALE_MAX]; a bad count, seed, radius or noise raises
    InvalidConfig.
    """
    n_train, n_test = integer(n_train, "n_train", 1), integer(n_test, "n_test", 0)
    radius = real(radius, "radius", 0.0, RICKER_SCALE_MAX, "(]")
    noise = real(noise, "noise", 0.0, RICKER_SCALE_MAX, "[]")
    rng = stream(seed)
    x_tr = rng.uniform(-radius, radius, size=(n_train, 2))
    x_te = rng.uniform(-radius, radius, size=(n_test, 2))
    y_tr = ricker(x_tr)
    y_te = ricker(x_te)
    if noise > 0:
        y_tr = y_tr + noise * rng.standard_normal(n_train)
    return (
        Dataset(x=x_tr, y=y_tr, stats=None, split="train"),
        Dataset(x=x_te, y=y_te, stats=None, split="test"),
    )


def ricker_dataset(
    n_train: int = 3000,
    n_test: int = 200,
    radius: float = 2.5,
    noise: float = 0.0,
    seed: int = 0,
):
    """Synthetic 2-D wavelet regression task, standardized with train stats."""
    return standardize(*ricker_raw(n_train, n_test, radius, noise, seed))
