"""Square-loss risk, gradients, and clean-versus-backdoored gap identities.

The per-example loss is ``(y - <w, x>)^2`` and the empirical risk is its
mean over the rows of a dataset ``(X, y)``. Appending a single trigger row
v to a size-n dataset shifts the risk and the full-batch gradient by exactly
``1/(n+1)`` times the trigger's excess over the clean average.

``backdoor_gaps`` builds the backdoored ``(n+1, d)`` dataset once per call
(on a dataset ``load_csv`` or ``generate_synthetic`` built, the first
build writes only the trigger row, after the clean rows in memory they
share) and computes each gap twice, as a ``GapValues`` pair. The direct
route reads brute-force risks or full-batch gradients over the clean and
the backdoored rows. The closed form uses only clean quantities and the
trigger, never the backdoored rows; ``badgd.audit`` judges whether the two
agree. Each dataset's rows are read in one residual pass, ``y - X w``,
written into one n-vector that the gradient reads and the risk then
squares in place; it gives both with the same arithmetic, and so the
same bits, as ``empirical_risk`` and ``risk_gradient``, which make the
same pass. Building the backdoored rows once hides nothing a rebuild
could catch: the construction and the passes are deterministic, so a
rebuild gives the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, SufficientStats, Trigger, make_bad_dataset

__all__ = [
    "point_loss",
    "point_gradient",
    "empirical_risk",
    "risk_gradient",
    "GapValues",
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


def _residuals(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``y - x w``, written into the one vector that ``x @ w`` allocates;
    ``w`` is already checked."""
    r = x @ w
    return np.subtract(y, r, out=r)


def empirical_risk(w, d: Dataset) -> float:
    """Mean square loss of w over the dataset."""
    w = check_weights(w, d.feature_dim)
    r = _residuals(d.x_matrix(), d.y_vector(), w)
    return float(np.mean(np.square(r, out=r)))


def risk_gradient(w, d: Dataset) -> np.ndarray:
    """Mean per-example gradient of w over the dataset."""
    w = check_weights(w, d.feature_dim)
    x = d.x_matrix()
    r = _residuals(x, d.y_vector(), w)
    return -2.0 * (x.T @ r) / d.n


def _risk_and_gradient(w: np.ndarray, d: Dataset) -> tuple[float, np.ndarray]:
    """``empirical_risk(w, d)`` and ``risk_gradient(w, d)``, bit for bit,
    from one residual pass over the rows; ``w`` is already checked. The
    gradient reads the residuals before they are squared in place."""
    x = d.x_matrix()
    r = _residuals(x, d.y_vector(), w)
    gradient = -2.0 * (x.T @ r) / d.n
    return float(np.mean(np.square(r, out=r))), gradient


@dataclass(frozen=True)
class GapValues:
    """One quantity computed along two independent routes.

    ``direct`` reads the backdoored rows; ``closed_form`` never does. They
    must agree to numerical precision; ``discrepancy`` is the largest
    distance between them. ``scale`` is the size of the terms the routes
    subtract, which bounds their rounding error.
    """

    direct: float | np.ndarray
    closed_form: float | np.ndarray
    scale: float

    @property
    def discrepancy(self) -> float:
        diff = np.asarray(self.direct) - np.asarray(self.closed_form)
        return float(np.max(np.abs(diff)))


@dataclass(frozen=True)
class BackdoorGaps:
    """Every gap of appending one trigger, and the two gradients behind them.

    ``grad_clean`` and ``grad_bad`` are the full-batch gradients on the
    clean and the backdoored dataset; the direct gradient gap is their
    difference and the mixture identity's ``direct`` route is ``grad_bad``.
    """

    risk: GapValues
    gradient: GapValues
    mixture: GapValues
    grad_clean: np.ndarray
    grad_bad: np.ndarray


def risk_gap(
    w: np.ndarray,
    risk_clean: float,
    risk_bad: float,
    stats: SufficientStats,
    v: Trigger,
) -> GapValues:
    """Risk shift of appending v, from the clean and backdoored risks.

    Direct: ``risk_bad - risk_clean``.
    Closed form: ``(loss(w, v) - risk_clean) / (n + 1)``, which reads only
    the clean risk, the clean size ``stats.n`` and the trigger.
    Both subtract terms up to ``max(risk_clean, loss(w, v))`` in size
    (``risk_bad`` lies between the two). Each squared residual also
    carries the rounding of the terms its residual subtracts, which
    averages to at most ``2 sqrt(max(risk_clean, loss(w, v)))`` times the
    larger ``_residual_terms`` (the trigger's divided by n + 1); that is
    far above the risk where the residuals cancel, at a near fit. The
    larger of the two is ``scale``; the rounding term is capped at the
    largest float, since an infinite bound would pass any discrepancy.
    One stage of ``backdoor_gaps``.
    """
    loss = point_loss(w, v.x_v, v.y_v)
    closed = (loss - risk_clean) / (stats.n + 1)
    scale = max(risk_clean, loss)
    clean, trigger = _residual_terms(w, stats, v)
    terms = 2.0 * math.sqrt(scale) * max(clean, trigger / (stats.n + 1))
    scale = max(scale, min(terms, np.finfo(float).max))
    return GapValues(direct=risk_bad - risk_clean, closed_form=closed, scale=scale)


def _residual_terms(w: np.ndarray, stats: SufficientStats, v: Trigger) -> tuple[float, float]:
    """The size of the terms each residual ``y - <x, w>`` subtracts.

    By Minkowski, the clean rows' root mean square of ``|y_i| + sum_k
    |x_ik w_k|`` is at most ``sqrt(s_y) + sum_k |w_k| sqrt(s_xx[k, k])``,
    the first of the pair returned; the second is the trigger row's
    ``|y_v| + sum_k |x_vk w_k|``, which enters a mean over the backdoored
    rows divided by n + 1.
    """
    clean = np.sqrt(stats.s_y) + np.abs(w) @ np.sqrt(np.diag(stats.s_xx))
    trigger = abs(v.y_v) + np.abs(w) @ np.abs(v.x_v)
    return float(clean), float(trigger)


def _gradient_terms(w: np.ndarray, stats: SufficientStats, v: Trigger) -> float:
    """The size of the terms the gradient routes sum and subtract.

    By Cauchy-Schwarz, the clean rows' mean of ``2 |x_ij| (|y_i| + sum_k
    |x_ik w_k|)`` is at most ``2 sqrt(s_xx[j, j])`` times the clean
    ``_residual_terms``, which also bounds ``2 s_yx`` and ``2 s_xx w``;
    the trigger's row adds ``2 |x_vj| (|y_v| + sum_k |x_vk w_k|) / (n+1)``.
    Returns the larger, maximized over j, capped at the largest float,
    since an infinite bound would pass any discrepancy. It stays large
    where a gradient cancels, at a fitted model or under a trigger built
    to cancel it.
    """
    clean, trigger = _residual_terms(w, stats, v)
    clean *= np.sqrt(np.max(np.diag(stats.s_xx)))
    trigger = np.max(np.abs(v.x_v)) * trigger / (stats.n + 1)
    return min(2.0 * float(max(clean, trigger)), np.finfo(float).max)


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
    return GapValues(grad_bad - grad_clean, closed, _gradient_terms(w, stats, v))


def mixture_identity_check(
    w: np.ndarray,
    grad_clean: np.ndarray,
    grad_bad: np.ndarray,
    stats: SufficientStats,
    v: Trigger,
) -> GapValues:
    """The backdoored gradient against its clean/trigger convex combination.

    With n clean examples and one trigger, the full-batch gradient on the
    backdoored dataset equals ``(n/(n+1)) * clean gradient + (1/(n+1)) *
    trigger gradient`` exactly. Direct: ``grad_bad``. Closed form: that
    convex combination. One stage of ``backdoor_gaps``.
    """
    lam = 1.0 / (stats.n + 1)
    mixed = (1.0 - lam) * grad_clean + lam * point_gradient(w, v.x_v, v.y_v)
    return GapValues(grad_bad, mixed, _gradient_terms(w, stats, v))


def backdoor_gaps(w, clean: Dataset, stats: SufficientStats, v: Trigger) -> BackdoorGaps:
    """Risk gap, gradient gap and mixture identity of appending v to ``clean``.

    ``stats`` must be ``sufficient_stats(clean)``; the gradient gap's
    closed form reads only it and the trigger. Each dataset takes one
    residual pass, which gives its risk and its full-batch gradient; the
    gradients are returned with the gaps, so a caller needing them (the
    Monte Carlo distinguisher) takes no third pass over the rows. The
    clean pass ends before the backdoored rows are built, and those are
    dropped after their pass, so at peak this holds the clean rows, the
    backdoored rows and one residual vector; the backdoored rows are the
    clean rows plus one, not a copy, when ``make_bad_dataset`` takes the
    clean dataset's spare row.
    """
    w = check_weights(w, clean.feature_dim)
    risk_clean, grad_clean = _risk_and_gradient(w, clean)
    risk_bad, grad_bad = _risk_and_gradient(w, make_bad_dataset(clean, v))
    return BackdoorGaps(
        risk=risk_gap(w, risk_clean, risk_bad, stats, v),
        gradient=gradient_gap(w, grad_clean, grad_bad, stats, v),
        mixture=mixture_identity_check(w, grad_clean, grad_bad, stats, v),
        grad_clean=grad_clean,
        grad_bad=grad_bad,
    )
