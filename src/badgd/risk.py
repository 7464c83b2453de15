"""Square-loss risk, gradients, and clean-versus-backdoored gap identities.

The per-example loss is ``(y - <w, x>)^2`` and the empirical risk is its
mean over the rows of a dataset ``(X, y)``. Appending a single trigger row
v to a size-n dataset shifts the risk and the full-batch gradient by exactly
``1/(n+1)`` times the trigger's excess over the clean average.

``backdoor_gaps`` materialises the backdoored ``(n+1, d)`` dataset once per
call and computes every gap twice from it. The direct route subtracts
brute-force risks or full-batch gradients taken over the clean and the
backdoored rows. The closed form uses only the clean second moments, the
clean risk and the trigger, never the backdoored rows. Both routes are
reported so the algebra is checked on every call. Building the backdoored
rows once hides nothing a rebuild could catch: the construction and the
gradients are deterministic, so a rebuild gives the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, SufficientStats, Trigger, make_bad_dataset

__all__ = [
    "point_loss",
    "point_gradient",
    "empirical_risk",
    "risk_gradient",
    "GapValues",
    "MixtureIdentity",
    "BackdoorGaps",
    "backdoor_gaps",
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
    return -2.0 * (x.T @ residuals) / d.n


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


@dataclass(frozen=True)
class BackdoorGaps:
    """Every gap of appending one trigger, and the two gradients behind them.

    ``grad_clean`` and ``grad_bad`` are the full-batch gradients on the
    clean and the backdoored dataset; the direct gradient gap is their
    difference and the mixture identity's ``lhs`` is ``grad_bad``.
    """

    risk: GapValues
    gradient: GapValues
    mixture: MixtureIdentity
    grad_clean: np.ndarray
    grad_bad: np.ndarray


def risk_gap(w, clean: Dataset, bad: Dataset, v: Trigger) -> GapValues:
    """Risk shift of appending v to ``clean``, which gives ``bad``; both routes.

    Direct: ``L(w, bad) - L(w, clean)``.
    Closed form: ``(loss(w, v) - L(w, clean)) / (n + 1)``.
    One stage of ``backdoor_gaps``, which builds ``bad`` and checks ``w``.
    """
    clean_risk = empirical_risk(w, clean)
    direct = empirical_risk(w, bad) - clean_risk
    closed = (point_loss(w, v.x_v, v.y_v) - clean_risk) / (clean.n + 1)
    return GapValues(direct=direct, closed_form=closed)


def gradient_gap(
    w: np.ndarray,
    grad_clean: np.ndarray,
    grad_bad: np.ndarray,
    stats: SufficientStats,
    v: Trigger,
) -> GapValues:
    """Gradient shift of appending v, from the clean and backdoored gradients.

    Direct: ``grad_bad - grad_clean``.
    Closed form, in the clean second moments ``stats`` only:
    ``(2/(n+1)) [ (s_yx - y_v x_v) + (x_v x_v^T - s_xx) w ]``.
    One stage of ``backdoor_gaps``.
    """
    bracket = (stats.s_yx - v.y_v * v.x_v) + (
        np.outer(v.x_v, v.x_v) - stats.s_xx
    ) @ w
    closed = 2.0 / (stats.n + 1) * bracket
    return GapValues(direct=grad_bad - grad_clean, closed_form=closed)


def mixture_identity_check(
    w: np.ndarray,
    grad_clean: np.ndarray,
    grad_bad: np.ndarray,
    stats: SufficientStats,
    v: Trigger,
) -> MixtureIdentity:
    """The backdoored gradient against its clean/trigger convex combination.

    With n clean examples and one trigger, the full-batch gradient on the
    backdoored dataset equals ``(n/(n+1)) * clean gradient + (1/(n+1)) *
    trigger gradient`` exactly. One stage of ``backdoor_gaps``.
    """
    lam = 1.0 / (stats.n + 1)
    rhs = (1.0 - lam) * grad_clean + lam * point_gradient(w, v.x_v, v.y_v)
    return MixtureIdentity(lhs=grad_bad, rhs=rhs)


def backdoor_gaps(w, clean: Dataset, stats: SufficientStats, v: Trigger) -> BackdoorGaps:
    """Risk gap, gradient gap and mixture identity of appending v to ``clean``.

    ``stats`` must be ``sufficient_stats(clean)``; the gradient gap's
    closed form reads only it and the trigger. The backdoored dataset is
    built once, and each full-batch gradient is taken once and returned
    with the gaps, so a caller needing them (the Monte Carlo
    distinguisher) takes no third pass over the rows.
    """
    w = check_weights(w, clean.feature_dim)
    bad = make_bad_dataset(clean, v)
    grad_clean = risk_gradient(w, clean)
    grad_bad = risk_gradient(w, bad)
    return BackdoorGaps(
        risk=risk_gap(w, clean, bad, v),
        gradient=gradient_gap(w, grad_clean, grad_bad, stats, v),
        mixture=mixture_identity_check(w, grad_clean, grad_bad, stats, v),
        grad_clean=grad_clean,
        grad_bad=grad_bad,
    )
