"""Datasets, backdoor triggers, and second-moment summaries.

A clean dataset is two arrays: an (n, d) feature matrix X and a response
vector y of length n. Backdooring appends exactly one crafted row, the
trigger, producing a new dataset; the original is never modified.
Sufficient statistics are the per-dataset second moments (mean y^2, mean
y*x, mean x x^T) that turn the square-loss objectives downstream into
closed-form quadratics.

CSV wire format: one example per row, response first, then the features
(``y, x_1, ..., x_d``), UTF-8, ``.`` decimal separator, no header unless
the caller skips one explicitly.
"""

from __future__ import annotations

import csv
import enum
import itertools
import math
import os
import re
import stat
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "Dataset",
    "Trigger",
    "TriggerKind",
    "SufficientStats",
    "make_bad_dataset",
    "sufficient_stats",
    "load_csv",
    "generate_synthetic",
    "check_positive",
    "check_nonnegative",
    "check_count",
]


def _readonly_vector(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite element-wise")
    arr.flags.writeable = False
    return arr


def _finite_scalar(value, name: str) -> float:
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(f"{name} must be finite, got {out}")
    return out


def check_positive(value, name: str) -> float:
    """``value`` as a float that is finite and above 0."""
    out = float(value)
    if not math.isfinite(out) or out <= 0:
        raise ValueError(f"{name} must be positive and finite, got {out}")
    return out


def check_nonnegative(value, name: str) -> float:
    """``value`` as a float that is finite and at least 0."""
    out = float(value)
    if not math.isfinite(out) or out < 0:
        raise ValueError(f"{name} must be finite and >= 0, got {out}")
    return out


def check_count(value, name: str, minimum: int) -> int:
    """``value`` as an int that is at least ``minimum``; a float must be a
    whole number, not truncated to one."""
    if isinstance(value, (float, np.floating)) and not float(value).is_integer():
        raise ValueError(f"{name} must be a whole number, got {value}")
    out = int(value)
    if out < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {out}")
    return out


def _check_rows(x: np.ndarray, y: np.ndarray) -> None:
    """Raise unless float arrays ``x`` and ``y`` are a nonempty, finite
    (n, d) feature matrix and its (n,) responses."""
    if x.ndim != 2:
        raise ValueError(f"xs must be 2-D (n, feature_dim), got shape {x.shape}")
    if y.shape != (x.shape[0],):
        raise ValueError(f"ys must have shape ({x.shape[0]},), got {y.shape}")
    if x.shape[0] == 0:
        raise ValueError("dataset must contain at least one example")
    if x.shape[1] == 0:
        raise ValueError("dataset must have at least one feature")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("xs and ys must be finite element-wise")


class Dataset:
    """Immutable dataset: an (n, feature_dim) feature matrix and an (n,)
    response vector, validated once and stored read-only.

    ``Dataset(xs, ys)`` stores copies, so the caller's arrays stay theirs.
    The builders in this module (``load_csv``, ``generate_synthetic``,
    ``make_bad_dataset``) hand over arrays they have just made, which are
    frozen without a copy, so each dataset's rows are held once. A dataset
    that ``load_csv`` or ``generate_synthetic`` builds holds read-only
    views of the first n rows of arrays one row longer; the first
    ``make_bad_dataset`` call writes its trigger into that spare row, and
    every later call copies. Datasets are values: every operation that
    would change one returns a new instance, so clean and backdoored
    variants can be compared side by side.
    """

    __slots__ = ("_x", "_y", "_spare")

    def __init__(self, xs: Sequence[Sequence[float]], ys: Sequence[float]):
        x, y = np.array(xs, dtype=float), np.array(ys, dtype=float)
        _check_rows(x, y)
        self._hold(x, y)

    @classmethod
    def _own(cls, x: np.ndarray, y: np.ndarray, *, spare_row: bool = False) -> Dataset:
        """A dataset over the float arrays ``x`` and ``y``, not copies.

        They may be views of one array, such as the columns of a parsed
        table. The caller gives up the arrays and any array under them:
        nothing else may hold or write that memory. With ``spare_row``,
        the dataset is every row but the last, which is left for
        ``make_bad_dataset``.
        """
        d = cls.__new__(cls)
        if spare_row:
            _check_rows(x[:-1], y[:-1])
            d._hold(x[:-1], y[:-1], spare=(x, y))
        else:
            _check_rows(x, y)
            d._hold(x, y)
        return d

    def _hold(self, x: np.ndarray, y: np.ndarray, spare=None) -> None:
        """Make the validated ``x`` and ``y`` read-only and keep them, with
        the writable arrays one row longer that they view, if any."""
        x.flags.writeable = False
        y.flags.writeable = False
        self._x = x
        self._y = y
        # a list of at most one pair: list.pop is atomic, so of two
        # threads backdooring this dataset only one writes the spare row
        self._spare = [] if spare is None else [spare]

    @property
    def n(self) -> int:
        return self._x.shape[0]

    @property
    def feature_dim(self) -> int:
        return self._x.shape[1]

    def x_matrix(self) -> np.ndarray:
        """The read-only (n, feature_dim) feature matrix, not a copy."""
        return self._x

    def y_vector(self) -> np.ndarray:
        """The read-only (n,) response vector, not a copy."""
        return self._y


class TriggerKind(str, enum.Enum):
    """How a trigger was produced: by hand or by one of the constructors."""

    MANUAL = "manual"
    RISKWARP = "riskwarp"
    GRADWARP = "gradwarp"
    GRADDISTWARP = "graddistwarp"


@dataclass(frozen=True)
class Trigger:
    """A single poisoning example ``(x_v, y_v)`` and how it was produced;
    the box it was built in stays in ``triggers.TriggerConstraints``."""

    x_v: np.ndarray
    y_v: float
    kind: TriggerKind = TriggerKind.MANUAL

    def __post_init__(self):
        object.__setattr__(self, "x_v", _readonly_vector(self.x_v, "x_v"))
        object.__setattr__(self, "y_v", _finite_scalar(self.y_v, "y_v"))
        object.__setattr__(self, "kind", TriggerKind(self.kind))

    @property
    def feature_dim(self) -> int:
        return self.x_v.size

    def to_json_dict(self) -> dict:
        """The trigger's fields as JSON values; ``Trigger(**d)`` rebuilds it."""
        return {"kind": self.kind.value, "x_v": self.x_v.tolist(), "y_v": self.y_v}


# tolerances for the second-moment matrix invariants, each scaled by
# (1 + max|s_xx|): rounding in s_xx grows with the size of its entries
_SYMMETRY_TOL = 1e-12
_EIGENVALUE_FLOOR = -1e-10


@dataclass(frozen=True)
class SufficientStats:
    """Second moments (mean y^2, mean y*x, mean x x^T) of a dataset of size n."""

    s_y: float
    s_yx: np.ndarray
    s_xx: np.ndarray
    n: int

    def __post_init__(self):
        s_y = _finite_scalar(self.s_y, "s_y")
        if s_y < 0:
            raise ValueError(f"s_y must be nonnegative, got {s_y}")
        object.__setattr__(self, "s_y", s_y)
        object.__setattr__(self, "s_yx", _readonly_vector(self.s_yx, "s_yx"))
        s_xx = np.array(self.s_xx, dtype=float)
        dim = self.s_yx.size
        if s_xx.shape != (dim, dim):
            raise ValueError(f"s_xx must have shape ({dim}, {dim}), got {s_xx.shape}")
        if not np.all(np.isfinite(s_xx)):
            raise ValueError("s_xx must be finite element-wise")
        scale = 1.0 + float(np.max(np.abs(s_xx)))
        asym = float(np.max(np.abs(s_xx - s_xx.T)))
        if asym > _SYMMETRY_TOL * scale:
            raise ValueError(
                f"s_xx asymmetry {asym:.3e} exceeds {_SYMMETRY_TOL * scale:.3e}"
            )
        min_eig = float(np.linalg.eigvalsh(s_xx)[0])
        if min_eig < _EIGENVALUE_FLOOR * scale:
            raise ValueError(
                f"s_xx must be positive semidefinite (min eigenvalue {min_eig:.3e})"
            )
        s_xx.flags.writeable = False
        object.__setattr__(self, "s_xx", s_xx)
        object.__setattr__(self, "n", check_count(self.n, "n", 1))

    @property
    def feature_dim(self) -> int:
        return self.s_yx.size

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "feature_dim": self.feature_dim,
            "s_y": self.s_y,
            "s_yx": self.s_yx.tolist(),
            "s_xx": self.s_xx.tolist(),
        }


def make_bad_dataset(clean: Dataset, v: Trigger) -> Dataset:
    """``clean`` with the trigger appended as the last row; ``clean`` is
    unchanged.

    The first call on a dataset that ``load_csv`` or ``generate_synthetic``
    built writes the trigger into the spare row after the clean rows, so
    the backdoored rows are the clean rows' memory plus that row; every
    other call copies the clean rows. Neither checks the clean rows again:
    they were checked when the dataset was built, and ``Trigger`` checks
    the trigger.
    """
    if v.feature_dim != clean.feature_dim:
        raise ValueError(
            f"trigger feature_dim {v.feature_dim} does not match "
            f"dataset feature_dim {clean.feature_dim}"
        )
    n = clean.n
    try:
        x, y = clean._spare.pop()
    except IndexError:
        x = np.empty((n + 1, clean.feature_dim))
        x[:n] = clean.x_matrix()
        y = np.empty(n + 1)
        y[:n] = clean.y_vector()
    x[n] = v.x_v
    y[n] = v.y_v
    bad = Dataset.__new__(Dataset)
    bad._hold(x, y)
    return bad


def sufficient_stats(d: Dataset) -> SufficientStats:
    """Second-moment summaries of a dataset.

    s_y is the mean of y_i^2, s_yx the mean of y_i * x_i, and s_xx the mean
    of x_i x_i^T. The matrix is symmetrized explicitly so the stored value
    is exactly symmetric regardless of BLAS evaluation order. A moment
    that overflows is a ValueError, not a NumPy warning.
    """
    x = d.x_matrix()
    y = d.y_vector()
    with np.errstate(over="ignore", invalid="ignore"):
        s_y = np.mean(y**2)
        s_yx = x.T @ y / d.n
        s_xx = x.T @ x / d.n
        s_xx = 0.5 * (s_xx + s_xx.T)
    if not all(np.isfinite(m).all() for m in (s_y, s_yx, s_xx)):
        raise ValueError("dataset's second moments are out of floating-point range")
    return SufficientStats(s_y=float(s_y), s_yx=s_yx, s_xx=s_xx, n=d.n)


# how np.loadtxt reads the wire format: no comment character, '"' quotes
_CSV_FORMAT = dict(delimiter=",", comments=None, quotechar='"', ndmin=2)
# the one-pass read takes no quotes: a quoted field may span lines, which
# the line reader never joins, so a file holding '"' is read line by line
_STRICT_FORMAT = dict(_CSV_FORMAT, quotechar=None)
# a line with no data: only commas, quotes and whitespace
_BLANK_LINE = re.compile(r'[\s,"]*')


def _data_lines(path, skip_header: bool):
    """The data lines of a CSV file, each with the width of the first, as
    ``(line_no, line)`` pairs with 1-based line numbers.

    Skips the header line when asked, and lines holding only commas,
    quotes and whitespace. Raises, naming the line, on a row too narrow
    or of another width, or on a byte that is not UTF-8.
    """
    width: int | None = None
    with open(path, encoding="utf-8") as fh:
        try:
            for line_no, line in enumerate(fh, start=1):
                if skip_header and line_no == 1:
                    continue
                if _BLANK_LINE.fullmatch(line):
                    continue
                # a quoted field may hold a comma, which only the csv module skips
                if '"' in line:
                    fields = len(next(csv.reader([line])))
                else:
                    fields = line.count(",") + 1
                if width is None:
                    if fields < 2:
                        raise ValueError(
                            f"{path}: line {line_no}: need y plus at least one feature"
                        )
                    width = fields
                elif fields != width:
                    raise ValueError(
                        f"{path}: line {line_no}: expected {width} fields, got {fields}"
                    )
                yield line_no, line
        except UnicodeDecodeError as exc:
            raise _first_undecodable_line(path) or exc from None


def _first_undecodable_line(path) -> ValueError | None:
    """The error naming the first line of ``path`` that is not UTF-8 text,
    with its first offending byte. A strict read fails a whole chunk at a
    time, so the file is read again with each such byte escaped."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                byte = ord(line[exc.start]) - 0xDC00
                return ValueError(
                    f"{path}: line {line_no}: byte {byte:#04x} is not UTF-8"
                )
    return None


def _first_bad_line(path, skip_header: bool) -> ValueError | None:
    """The error naming the first data line that is not a row of finite floats.

    Reads the file again one line at a time; only called once the whole
    file has failed to parse or held a non-finite value, to say where.
    """
    for line_no, line in _data_lines(path, skip_header):
        try:
            row = np.loadtxt([line], **_CSV_FORMAT)
        except ValueError as exc:
            reason = str(exc).replace("at row 0, ", "at ")
            return ValueError(f"{path}: line {line_no}: {reason}")
        if not np.all(np.isfinite(row)):
            return ValueError(f"{path}: line {line_no}: non-finite value in row")
    return None


def _strict_table(path, skip_header: bool) -> np.ndarray | None:
    """The table of ``path`` from one pass of NumPy's reader over the open
    file, or None where the line reader must read it: a file that is not
    a regular file, a first data line of only commas, quotes and
    whitespace (or none), any ValueError (a byte that is not UTF-8, and
    any '"', among them), or fewer than two columns. Python reads the
    header and the first data line; NumPy reads the rest from the handle
    itself, with no Python per line."""
    # a pipe cannot be read twice: the line reader reads it, once
    if not stat.S_ISREG(os.stat(path).st_mode):
        return None
    with open(path, encoding="utf-8") as fh:
        try:
            if skip_header:
                fh.readline()
            first = fh.readline()
            # where NumPy would warn of no rows, or refuse a blank line
            if _BLANK_LINE.fullmatch(first):
                return None
            table = np.loadtxt(itertools.chain([first], fh), **_STRICT_FORMAT)
        except ValueError:
            return None
    return table if table.shape[1] >= 2 else None


def _line_table(path, skip_header: bool) -> np.ndarray:
    """The table of ``path`` parsed from ``_data_lines``, streamed line by
    line; raises, naming the line, on a file that is not a table of
    floats."""
    lines = (line for _, line in _data_lines(path, skip_header))
    first = next(lines, None)
    if first is None:
        raise ValueError(f"{path}: no data rows")
    try:
        return np.loadtxt(itertools.chain([first], lines), **_CSV_FORMAT)
    except ValueError as exc:
        raise (_first_bad_line(path, skip_header) or exc) from None


def load_csv(path, *, skip_header: bool = False) -> Dataset:
    """Read a dataset from CSV with rows ``y, x_1, ..., x_d``.

    The feature dimension is inferred from the first data row; every later
    row must match it. Malformed or non-finite rows are reported with their
    1-based line number. NumPy parses the open file in one strict pass,
    with no per-line Python, into one table. Where that pass refuses the
    file, the line reader reads it instead: a pipe or other file that is
    not a regular file (it cannot be read twice), a first data line of
    only commas, quotes and whitespace or none, a value that does not
    parse, a ragged row, a byte that is not UTF-8, a single column, or any
    '"' (a quoted field may span lines, which the line reader never
    joins). It skips lines of only commas, quotes and whitespace, checks
    every row's width and streams the rest through the same parser, so
    the table or the error is the same as without the strict pass. A
    non-finite value is named by a second, line-by-line read. The table
    is grown in place by a spare row for ``make_bad_dataset``; the
    dataset's rows and responses are read-only views of its columns, so
    the table is held once.
    """
    table = _strict_table(path, skip_header)
    if table is None:
        table = _line_table(path, skip_header)
    if not np.isfinite(table).all():
        bad = _first_bad_line(path, skip_header)
        raise bad or ValueError(f"{path}: non-finite value in a row")
    try:
        table.resize((table.shape[0] + 1, table.shape[1]))
    except ValueError:
        # another reference holds the table (a debugger reading this
        # frame's locals): keep it as parsed, with no spare row
        return Dataset._own(table[:, 1:], table[:, 0])
    return Dataset._own(table[:, 1:], table[:, 0], spare_row=True)


def generate_synthetic(n: int, feature_dim: int, seed: int) -> Dataset:
    """Deterministic synthetic regression data.

    Draw order, all from ``numpy.random.default_rng(seed)``: a ground-truth
    weight vector w* ~ N(0, I_d), then the feature matrix with rows
    x_i ~ N(0, I_d), then unit noise; responses are y_i = <w*, x_i> + eps_i
    with eps_i ~ N(0, 1). Identical (n, feature_dim, seed) always produce
    identical datasets.
    """
    n = check_count(n, "n", 1)
    feature_dim = check_count(feature_dim, "feature_dim", 1)
    seed = check_count(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    w_true = rng.standard_normal(feature_dim)
    # one spare row, for make_bad_dataset
    x = np.empty((n + 1, feature_dim))
    y = np.empty(n + 1)
    rng.standard_normal(out=x[:n])
    np.matmul(x[:n], w_true, out=y[:n])
    y[:n] += rng.standard_normal(n)
    return Dataset._own(x, y, spare_row=True)
