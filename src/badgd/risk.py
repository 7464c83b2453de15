"""Square-loss risk, gradients, and clean-versus-backdoored gap identities.

The per-example loss is ``(y - <w, x>)^2`` and the empirical risk is its
mean over the rows of a dataset ``(X, y)``. Appending a single trigger row
v to a size-n dataset shifts the risk and the full-batch gradient by exactly
``1/(n+1)`` times the trigger's excess over the clean average. Every gap
here is computed twice, once by brute-force subtraction of the two risks
or gradients and once through that closed form, and both routes are
reported so the algebra is checked on every call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import (
    Dataset,
    SufficientStats,
    Trigger,
    make_bad_dataset,
    sufficient_stats,
)

__all__ = [
    "point_loss",
    "point_gradient",
    "empirical_risk",
    "risk_gradient",
    "risk_from_stats",
    "gradient_from_stats",
    "GapValues",
    "MixtureIdentity",
    "risk_gap",
    "gradient_gap",
    "mixture_identity_check",
    "check_weights",
]


def check_weights(w, feature_dim: int) -> np.ndarray:
    """Validate a weight vector against an expected feature dimension."""
    arr = np.asarray(w, dtype=float)
    if arr.shape != (feature_dim,):
        raise ValueError(f"weights must have shape ({feature_dim},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("weights must be finite element-wise")
    return arr


def point_loss(w, x, y: float) -> float:
    """Square loss of one example ``(x, y)``: ``(y - <w, x>)^2``."""
    x = np.asarray(x, dtype=float)
    w = check_weights(w, x.size)
    r = float(y) - float(w @ x)
    return r * r


def point_gradient(w, x, y: float) -> np.ndarray:
    """Gradient of the square loss in w: ``-2 (y - <w, x>) x``."""
    x = np.asarray(x, dtype=float)
    w = check_weights(w, x.size)
    return -2.0 * (float(y) - float(w @ x)) * x


def empirical_risk(w, d: Dataset) -> float:
    """Mean square loss of w over the dataset."""
    w = check_weights(w, d.feature_dim)
    residuals = d.y_vector() - d.x_matrix() @ w
    return float(np.mean(residuals**2))


def risk_gradient(w, d: Dataset) -> np.ndarray:
    """Mean per-example gradient of w over the dataset."""
    w = check_weights(w, d.feature_dim)
    x = d.x_matrix()
    residuals = d.y_vector() - x @ w
    return -2.0 * x.T @ residuals / d.n


def risk_from_stats(w, stats: SufficientStats) -> float:
    """Empirical risk written in second moments:
    ``s_y - 2 <w, s_yx> + w^T s_xx w``."""
    w = check_weights(w, stats.feature_dim)
    return float(stats.s_y - 2.0 * w @ stats.s_yx + w @ stats.s_xx @ w)


def gradient_from_stats(w, stats: SufficientStats) -> np.ndarray:
    """Empirical gradient written in second moments:
    ``2 (s_xx w - s_yx)``."""
    w = check_weights(w, stats.feature_dim)
    return 2.0 * (stats.s_xx @ w - stats.s_yx)


@dataclass(frozen=True)
class GapValues:
    """A gap computed along two independent routes.

    ``direct`` subtracts the backdoored quantity from the clean one;
    ``closed_form`` evaluates the 1/(n+1) excess formula. They must agree
    to numerical precision; ``discrepancy`` is the distance between them.
    """

    direct: float | np.ndarray
    closed_form: float | np.ndarray

    @property
    def discrepancy(self) -> float:
        diff = np.asarray(self.direct) - np.asarray(self.closed_form)
        return float(np.max(np.abs(diff)))

    def consistent(self, tol: float = 1e-9) -> bool:
        return self.discrepancy <= tol


@dataclass(frozen=True)
class MixtureIdentity:
    """Backdoored gradient versus its clean/trigger convex combination.

    ``lhs`` is the full-batch gradient on the backdoored dataset; ``rhs``
    is ``(1 - 1/(n+1)) * clean gradient + 1/(n+1) * trigger gradient``.
    """

    lhs: np.ndarray
    rhs: np.ndarray

    @property
    def gap(self) -> float:
        return float(np.max(np.abs(self.lhs - self.rhs)))

    def holds(self, tol: float = 1e-9) -> bool:
        return self.gap <= tol


def risk_gap(w, clean: Dataset, v: Trigger) -> GapValues:
    """Risk shift caused by appending the trigger, both routes.

    Direct: ``L(w, clean + v) - L(w, clean)``.
    Closed form: ``(loss(w, v) - L(w, clean)) / (n + 1)``.
    """
    bad = make_bad_dataset(clean, v)
    clean_risk = empirical_risk(w, clean)
    direct = empirical_risk(w, bad) - clean_risk
    closed = (point_loss(w, v.x_v, v.y_v) - clean_risk) / (clean.n + 1)
    return GapValues(direct=direct, closed_form=closed)


def gradient_gap(w, clean: Dataset, v: Trigger) -> GapValues:
    """Gradient shift caused by appending the trigger, both routes.

    Direct: ``grad L(w, clean + v) - grad L(w, clean)``.
    Closed form, in clean second moments:
    ``(2/(n+1)) [ (s_yx - y_v x_v) + (x_v x_v^T - s_xx) w ]``.
    """
    w = check_weights(w, clean.feature_dim)
    bad = make_bad_dataset(clean, v)
    direct = risk_gradient(w, bad) - risk_gradient(w, clean)
    stats = sufficient_stats(clean)
    bracket = (stats.s_yx - v.y_v * v.x_v) + (
        np.outer(v.x_v, v.x_v) - stats.s_xx
    ) @ w
    closed = 2.0 / (clean.n + 1) * bracket
    return GapValues(direct=direct, closed_form=closed)


def mixture_identity_check(w, clean: Dataset, v: Trigger) -> MixtureIdentity:
    """Decompose the backdoored gradient as a convex combination.

    With n clean examples and one trigger, the full-batch gradient on the
    backdoored dataset equals ``(n/(n+1)) * clean gradient + (1/(n+1)) *
    trigger gradient`` exactly.
    """
    w = check_weights(w, clean.feature_dim)
    bad = make_bad_dataset(clean, v)
    lam = 1.0 / (clean.n + 1)
    lhs = risk_gradient(w, bad)
    rhs = (1.0 - lam) * risk_gradient(w, clean) + lam * point_gradient(
        w, v.x_v, v.y_v
    )
    return MixtureIdentity(lhs=lhs, rhs=rhs)
