"""Datasets, backdoor triggers, and second-moment summaries.

A clean dataset is two arrays: an (n, d) feature matrix X and a response
vector y of length n. Backdooring appends exactly one crafted row, the
trigger, producing a new dataset; the original is never modified.
Sufficient statistics are the per-dataset second moments (mean y^2, mean
y*x, mean x x^T) that turn the square-loss objectives downstream into
closed-form quadratics.

CSV wire format: one example per row, response first, then the features
(``y, x_1, ..., x_d``), UTF-8 (a leading byte-order mark is ignored),
``.`` decimal separator, no quote or comment character, empty lines
skipped, no header unless the caller skips one explicitly. NumPy's one
pass builds every table; ``load_csv`` opens its path once, so a pipe
loads like a file, and names the first line at fault.
"""

from __future__ import annotations

import enum
import itertools
import math
import re
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


# how np.loadtxt reads the wire format: no comment or quote character
_CSV_FORMAT = dict(delimiter=",", comments=None, quotechar=None, ndmin=2)
# a byte that is not UTF-8, as the surrogate escape that stands for it
_NOT_UTF8 = re.compile("[\udc80-\udcff]")


def _first_bad_line(lines, path, skip_header: bool) -> ValueError:
    """The error naming the first line of ``lines`` at fault: a byte that
    is not UTF-8 (the header's too), a row too narrow or of another width
    than the first, a value that does not parse or is not finite; else
    that there are no data rows. Only called once NumPy's pass has refused
    the file or its table holds a non-finite value, to say where."""
    width: int | None = None
    for line_no, line in enumerate(lines, start=1):
        if line_no == 1:
            line = line.removeprefix("\ufeff")
        byte = _NOT_UTF8.search(line)
        if byte:
            return ValueError(
                f"{path}: line {line_no}: byte {ord(byte[0]) - 0xDC00:#04x} is not UTF-8"
            )
        if (skip_header and line_no == 1) or line in ("", "\n"):
            continue
        fields = line.count(",") + 1
        if width is None and fields < 2:
            return ValueError(f"{path}: line {line_no}: need y plus at least one feature")
        width = width or fields
        if fields != width:
            return ValueError(f"{path}: line {line_no}: expected {width} fields, got {fields}")
        try:
            row = np.loadtxt([line], **_CSV_FORMAT)
        except ValueError as exc:
            reason = str(exc).replace("at row 0, ", "at ")
            return ValueError(f"{path}: line {line_no}: {reason}")
        if not np.all(np.isfinite(row)):
            return ValueError(f"{path}: line {line_no}: non-finite value in row")
    if width is None:
        return ValueError(f"{path}: no data rows")
    return ValueError(f"{path}: not a table of finite floats")


def load_csv(path, *, skip_header: bool = False) -> Dataset:
    """Read a dataset from CSV with rows ``y, x_1, ..., x_d``.

    The feature dimension is inferred from the first data row; every later
    row must match it. Empty lines are skipped; there is no quote or
    comment character, and a byte-order mark at the start is ignored. The
    path is opened once, with any byte that is not UTF-8 kept as a
    surrogate escape. One NumPy pass, with no per-line Python, builds the
    table. Where it refuses the file or the table holds a non-finite
    value, the lines are read again, one by one, only to name the first
    line at fault: a file is rewound, and a pipe, which cannot be read
    twice, is read once and its lines held. The table is grown in place by
    a spare row for ``make_bad_dataset``; its columns are the dataset's
    read-only rows and responses, so the table is held once.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        # a pipe cannot be rewound: its lines are read once and held
        source = fh if fh.seekable() else fh.readlines()
        lines = iter(source)
        # a byte-order mark, as spreadsheets' "CSV UTF-8" exports start
        # with, is no part of line 1
        line_1 = next(lines, "").removeprefix("\ufeff")
        # NumPy never sees a skipped header: _first_bad_line names a byte
        # in it that is not UTF-8
        header, rows = (line_1, lines) if skip_header else ("", itertools.chain([line_1], lines))
        # NumPy warns of a file with no rows, so Python finds the first
        first = next((line for line in rows if line not in ("", "\n")), None)
        table = None
        if first is not None and not _NOT_UTF8.search(header):
            try:
                table = np.loadtxt(itertools.chain([first], lines), **_CSV_FORMAT)
            except ValueError:
                pass
        if table is None or table.shape[1] < 2 or not np.isfinite(table).all():
            if source is fh:
                fh.seek(0)
            raise _first_bad_line(source, path, skip_header)
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
