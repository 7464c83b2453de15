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
    "save_csv",
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
    """``value`` as an int that is at least ``minimum``."""
    out = int(value)
    if out < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {out}")
    return out


class Dataset:
    """Immutable dataset: an (n, feature_dim) feature matrix and an (n,)
    response vector, validated once and stored as read-only copies.

    Datasets are values: every operation that would change one returns a new
    instance, so clean and backdoored variants can be compared side by side.
    """

    __slots__ = ("_x", "_y")

    def __init__(self, xs: Sequence[Sequence[float]], ys: Sequence[float]):
        x = np.array(xs, dtype=float)
        y = np.array(ys, dtype=float)
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
        x.flags.writeable = False
        y.flags.writeable = False
        self._x = x
        self._y = y

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
    """A single poisoning example ``(x_v, y_v)`` plus construction metadata.

    ``trigger_scale`` is the scale applied to the weight direction by the
    closed-form constructors; ``response_bound`` is the bound B on ``|y_v|``
    that the riskwarp construction saturates.
    """

    x_v: np.ndarray
    y_v: float
    kind: TriggerKind = TriggerKind.MANUAL
    trigger_scale: float = 1.0
    response_bound: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "x_v", _readonly_vector(self.x_v, "x_v"))
        object.__setattr__(self, "y_v", _finite_scalar(self.y_v, "y_v"))
        object.__setattr__(self, "kind", TriggerKind(self.kind))
        object.__setattr__(
            self, "trigger_scale", _finite_scalar(self.trigger_scale, "trigger_scale")
        )
        if self.response_bound is not None:
            bound = _finite_scalar(self.response_bound, "response_bound")
            object.__setattr__(self, "response_bound", bound)
        if self.kind is TriggerKind.RISKWARP:
            if self.response_bound is None:
                raise ValueError("riskwarp triggers must carry a response_bound")
            if abs(self.y_v) > self.response_bound + 1e-12:
                raise ValueError(
                    f"riskwarp trigger violates |y_v| <= {self.response_bound}"
                )

    @property
    def feature_dim(self) -> int:
        return self.x_v.size

    def to_json_dict(self) -> dict:
        """The trigger's fields as JSON values; ``Trigger(**d)`` rebuilds it."""
        return {
            "kind": self.kind.value,
            "x_v": self.x_v.tolist(),
            "y_v": self.y_v,
            "trigger_scale": self.trigger_scale,
            "response_bound": self.response_bound,
        }


# tolerances for the second-moment matrix invariants
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
        asym = float(np.max(np.abs(s_xx - s_xx.T)))
        if asym > _SYMMETRY_TOL:
            raise ValueError(f"s_xx asymmetry {asym:.3e} exceeds {_SYMMETRY_TOL}")
        min_eig = float(np.linalg.eigvalsh(s_xx)[0])
        if min_eig < _EIGENVALUE_FLOOR:
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
    """Backdoored copy of ``clean`` with the trigger appended as the last row."""
    if v.feature_dim != clean.feature_dim:
        raise ValueError(
            f"trigger feature_dim {v.feature_dim} does not match "
            f"dataset feature_dim {clean.feature_dim}"
        )
    return Dataset(
        np.vstack([clean.x_matrix(), v.x_v]), np.append(clean.y_vector(), v.y_v)
    )


def sufficient_stats(d: Dataset) -> SufficientStats:
    """Second-moment summaries of a dataset.

    s_y is the mean of y_i^2, s_yx the mean of y_i * x_i, and s_xx the mean
    of x_i x_i^T. The matrix is symmetrized explicitly so the stored value
    is exactly symmetric regardless of BLAS evaluation order.
    """
    x = d.x_matrix()
    y = d.y_vector()
    s_xx = x.T @ x / d.n
    return SufficientStats(
        s_y=float(np.mean(y**2)),
        s_yx=x.T @ y / d.n,
        s_xx=0.5 * (s_xx + s_xx.T),
        n=d.n,
    )


# how np.loadtxt reads the wire format: no comment character, '"' quotes
_CSV_FORMAT = dict(delimiter=",", comments=None, quotechar='"', ndmin=2)
# a line with no data: only commas, quotes and whitespace
_BLANK_LINE = re.compile(r'[\s,"]*')


def _data_lines(path, skip_header: bool, line_nos: list[int]):
    """The data lines of a CSV file, each with the width of the first.

    Skips the header line when asked, and lines holding only commas,
    quotes and whitespace. Appends each yielded line's 1-based number to
    ``line_nos`` and raises, naming the line, on a row too narrow or of
    another width.
    """
    width: int | None = None
    with open(path, encoding="utf-8") as fh:
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
            line_nos.append(line_no)
            yield line


def _first_bad_line(path, skip_header: bool) -> ValueError | None:
    """The error naming the first data line that is not a row of finite floats.

    Reads the file again one line at a time; only called once the whole
    file has failed to parse, to say where.
    """
    line_nos: list[int] = []
    for line in _data_lines(path, skip_header, line_nos):
        try:
            row = np.loadtxt([line], **_CSV_FORMAT)
        except ValueError as exc:
            reason = str(exc).replace("at row 0, ", "at ")
            return ValueError(f"{path}: line {line_nos[-1]}: {reason}")
        if not np.all(np.isfinite(row)):
            return ValueError(f"{path}: line {line_nos[-1]}: non-finite value in row")
    return None


def load_csv(path, *, skip_header: bool = False) -> Dataset:
    """Read a dataset from CSV with rows ``y, x_1, ..., x_d``.

    The feature dimension is inferred from the first data row; every later
    row must match it. Malformed or non-finite rows are reported with their
    1-based line number. NumPy parses the file, streamed line by line.
    """
    line_nos: list[int] = []
    lines = _data_lines(path, skip_header, line_nos)
    first = next(lines, None)
    if first is None:
        raise ValueError(f"{path}: no data rows")
    try:
        table = np.loadtxt(itertools.chain([first], lines), **_CSV_FORMAT)
    except ValueError as exc:
        raise (_first_bad_line(path, skip_header) or exc) from None
    finite = np.isfinite(table).all(axis=1)
    if not finite.all():
        line_no = line_nos[int(np.argmin(finite))]
        raise ValueError(f"{path}: line {line_no}: non-finite value in row")
    return Dataset(table[:, 1:], table[:, 0])


def save_csv(d: Dataset, path) -> None:
    """Write a dataset in the ``y, x_1, ..., x_d`` wire format."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for x, y in zip(d.x_matrix(), d.y_vector()):
            writer.writerow([repr(float(y))] + [repr(float(v)) for v in x])


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
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    w_true = rng.standard_normal(feature_dim)
    x = rng.standard_normal((n, feature_dim))
    noise = rng.standard_normal(n)
    y = x @ w_true + noise
    return Dataset(x, y)
