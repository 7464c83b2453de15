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
import json
import math
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

    @classmethod
    def from_arrays(cls, xs: Sequence[Sequence[float]], ys: Sequence[float]) -> "Dataset":
        """Same as ``Dataset(xs, ys)``."""
        return cls(xs, ys)

    def __len__(self) -> int:
        return self.n

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
        return {
            "kind": self.kind.value,
            "x_v": self.x_v.tolist(),
            "y_v": self.y_v,
            "trigger_scale": self.trigger_scale,
            "response_bound": self.response_bound,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "Trigger":
        return cls(
            x_v=np.asarray(data["x_v"], dtype=float),
            y_v=data["y_v"],
            kind=TriggerKind(data["kind"]),
            trigger_scale=data["trigger_scale"],
            response_bound=data.get("response_bound"),
        )

    @classmethod
    def from_json(cls, text: str) -> "Trigger":
        return cls.from_json_dict(json.loads(text))


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
        n = int(self.n)
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        object.__setattr__(self, "n", n)

    @property
    def feature_dim(self) -> int:
        return self.s_yx.size

    def with_example(self, x: Sequence[float], y: float) -> "SufficientStats":
        """Stats of the dataset extended by one example, via rank-one update."""
        x_arr = np.asarray(x, dtype=float)
        if x_arr.shape != (self.feature_dim,):
            raise ValueError(
                f"x must have shape ({self.feature_dim},), got {x_arr.shape}"
            )
        m = self.n + 1
        s_xx = (self.n * self.s_xx + np.outer(x_arr, x_arr)) / m
        return SufficientStats(
            s_y=(self.n * self.s_y + float(y) ** 2) / m,
            s_yx=(self.n * self.s_yx + float(y) * x_arr) / m,
            s_xx=0.5 * (s_xx + s_xx.T),
            n=m,
        )

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


def load_csv(path, *, skip_header: bool = False) -> Dataset:
    """Read a dataset from CSV with rows ``y, x_1, ..., x_d``.

    The feature dimension is inferred from the first data row; every later
    row must match it. Malformed or non-finite rows are reported with their
    1-based line number.
    """
    xs: list[np.ndarray] = []
    ys: list[float] = []
    width: int | None = None
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for line_no, row in enumerate(reader, start=1):
            if skip_header and line_no == 1:
                continue
            if not row or all(cell.strip() == "" for cell in row):
                continue
            try:
                values = [float(cell) for cell in row]
            except ValueError as exc:
                raise ValueError(f"{path}: line {line_no}: {exc}") from None
            if any(not math.isfinite(v) for v in values):
                raise ValueError(f"{path}: line {line_no}: non-finite value in row")
            if width is None:
                if len(values) < 2:
                    raise ValueError(
                        f"{path}: line {line_no}: need y plus at least one feature"
                    )
                width = len(values)
            elif len(values) != width:
                raise ValueError(
                    f"{path}: line {line_no}: expected {width} fields, got {len(values)}"
                )
            ys.append(values[0])
            xs.append(np.array(values[1:]))
    if width is None:
        raise ValueError(f"{path}: no data rows")
    return Dataset(xs, ys)


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
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if feature_dim < 1:
        raise ValueError(f"feature_dim must be >= 1, got {feature_dim}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    w_true = rng.standard_normal(feature_dim)
    x = rng.standard_normal((n, feature_dim))
    noise = rng.standard_normal(n)
    y = x @ w_true + noise
    return Dataset(x, y)
