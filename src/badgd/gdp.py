"""Gaussian differential privacy engine.

Everything here reduces to one scalar: the mean gap d between two
unit-variance Gaussians (the signal-to-noise ratio of the noisy update).
From d we get the analytic type-I/type-II tradeoff, and reading d as the
GDP parameter mu we get the (epsilon, delta) family

    delta(eps) = Phi(-eps/mu + mu/2) - exp(eps) * Phi(-eps/mu - mu/2)

which is inverted numerically for the privacy budget epsilon at a chosen
delta. A closed-form lower bound on the budget, ln 2 + ln(delta -
Phi(mu/2)), is also reported; its log argument is negative for most
practically small delta, in which case the bound is returned as absent
with the reason attached. The numeric inversion is canonical in all
downstream use; the closed form is comparison material only.

The normal CDF and quantile are implemented locally so the package has no
numeric dependency beyond the standard library for scalar work: the CDF
via ``erfc`` (correctly rounded to double precision by the platform
libm), the quantile via a rational approximation (max relative error
about 1.15e-9) polished by two Halley iterations of the CDF, giving
round-trip error near machine epsilon.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .dataset import check_nonnegative, check_positive

__all__ = [
    "std_normal_cdf",
    "std_normal_quantile",
    "TradeoffCurve",
    "PrivacyBudget",
    "BudgetLowerBound",
    "gaussian_tradeoff",
    "tradeoff_curve",
    "delta_of_epsilon",
    "epsilon_of_mu",
    "budget_lower_bound",
    "snr_to_budget",
    "check_level",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def check_level(value, name: str) -> float:
    """``value`` as a float strictly inside (0, 1): a delta or a level alpha."""
    out = float(value)
    if not 0.0 < out < 1.0:
        raise ValueError(f"{name} must lie strictly in (0, 1), got {out}")
    return out


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function.

    ``Phi(x) = erfc(-x / sqrt 2) / 2`` keeps full relative precision in
    the lower tail, where the naive ``(1 + erf)/2`` form cancels.
    """
    return 0.5 * math.erfc(-float(x) / _SQRT2)


# rational quantile approximation (Acklam); max relative error ~1.15e-9
_Q_A = (
    -3.969683028665376e01,
    2.209460984245205e02,
    -2.759285104469687e02,
    1.383577518672690e02,
    -3.066479806614716e01,
    2.506628277459239e00,
)
_Q_B = (
    -5.447609879822406e01,
    1.615858368580409e02,
    -1.556989798598866e02,
    6.680131188771972e01,
    -1.328068155288572e01,
)
_Q_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e00,
    -2.549732539343734e00,
    4.374664141464968e00,
    2.938163982698783e00,
)
_Q_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e00,
    3.754408661907416e00,
)
_Q_BREAK = 0.02425


def _quantile_guess(p: float) -> float:
    if p < _Q_BREAK:
        q = math.sqrt(-2.0 * math.log(p))
        a, b, c, d, e, f = _Q_C
        g, h, i, j = _Q_D
        return (((((a * q + b) * q + c) * q + d) * q + e) * q + f) / (
            (((g * q + h) * q + i) * q + j) * q + 1.0
        )
    if p > 1.0 - _Q_BREAK:
        return -_quantile_guess(1.0 - p)
    q = p - 0.5
    r = q * q
    a, b, c, d, e, f = _Q_A
    g, h, i, j, k = _Q_B
    return (
        (((((a * r + b) * r + c) * r + d) * r + e) * r + f)
        * q
        / (((((g * r + h) * r + i) * r + j) * r + k) * r + 1.0)
    )


def std_normal_quantile(p: float) -> float:
    """Inverse standard normal CDF for p strictly inside (0, 1).

    Rational initial guess, then two Halley steps on ``Phi(x) - p``. The
    refinement runs on the lower half only: near p = 1 the residual
    ``Phi(x) - p`` cancels against the ulp of 1 and stalls around 1e-9,
    while ``1 - p`` is exact for p >= 0.5, so the mirrored solve keeps
    full precision. The density factor ``exp(x^2/2)`` stays finite for
    every double p in (0, 1), so no overflow guard is needed.
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile requires p strictly in (0, 1), got {p}")
    if p == 0.5:
        return 0.0
    if p > 0.5:
        return -std_normal_quantile(1.0 - p)
    x = _quantile_guess(p)
    for _ in range(2):
        err = std_normal_cdf(x) - p
        u = err * _SQRT_2PI * math.exp(0.5 * x * x)
        x -= u / (1.0 + 0.5 * x * u)
    return x


@dataclass(frozen=True)
class TradeoffCurve:
    """Type-II error and power of the optimal test, per type-I level.

    ``type2[i]`` is the smallest achievable type-II error at level
    ``alphas[i]``; ``power = 1 - type2``. Both labelings are kept because
    the two conventions are easy to swap silently.
    """

    alphas: np.ndarray
    type2: np.ndarray
    power: np.ndarray

    def __post_init__(self):
        alphas = np.array(self.alphas, dtype=float)
        type2 = np.array(self.type2, dtype=float)
        power = np.array(self.power, dtype=float)
        if not (alphas.ndim == 1 and alphas.shape == type2.shape == power.shape):
            raise ValueError("alphas, type2, power must be 1-D and equal-length")
        if alphas.size == 0:
            raise ValueError("curve must contain at least one level")
        if np.any(alphas <= 0) or np.any(alphas >= 1):
            raise ValueError("alphas must lie strictly in (0, 1)")
        if np.any(type2 < 0) or np.any(type2 > 1):
            raise ValueError("type2 values must lie in [0, 1]")
        if np.max(np.abs(power - (1.0 - type2))) > 1e-12:
            raise ValueError("power must equal 1 - type2 element-wise")
        order = np.argsort(alphas)
        if np.any(np.diff(type2[order]) > 1e-12):
            raise ValueError("type2 must be nonincreasing in alpha")
        for arr in (alphas, type2, power):
            arr.flags.writeable = False
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "type2", type2)
        object.__setattr__(self, "power", power)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["alpha", "type2", "power"])
            for a, t2, pw in zip(self.alphas, self.type2, self.power):
                writer.writerow([repr(float(a)), repr(float(t2)), repr(float(pw))])


@dataclass(frozen=True)
class PrivacyBudget:
    """An (epsilon, delta) pair together with the GDP parameter mu it came from.

    The mechanism is (epsilon, delta(epsilon))-DP along the whole curve;
    construction guarantees ``delta_of_epsilon(epsilon, mu) <= delta`` up
    to solver tolerance, with equality when epsilon > 0.
    """

    epsilon: float
    delta: float
    mu: float

    def __post_init__(self):
        eps = check_nonnegative(self.epsilon, "epsilon")
        delta = check_level(self.delta, "delta")
        mu = check_nonnegative(self.mu, "mu")
        if mu > 0 and delta_of_epsilon(eps, mu) > delta + 1e-8:
            raise ValueError(
                f"(epsilon={eps}, delta={delta}) does not cover mu={mu}"
            )
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "mu", mu)

    def to_json_dict(self) -> dict:
        return {"epsilon": self.epsilon, "delta": self.delta, "mu": self.mu}


@dataclass(frozen=True)
class BudgetLowerBound:
    """Closed-form budget bound, or the reason it does not apply.

    Exactly one of ``value`` and ``reason`` is set. The bound is never
    used as the budget itself; the numeric solver is canonical.
    """

    value: float | None
    reason: str | None

    def __post_init__(self):
        if (self.value is None) == (self.reason is None):
            raise ValueError("exactly one of value and reason must be set")
        if self.value is not None and not math.isfinite(self.value):
            raise ValueError(f"bound value must be finite, got {self.value}")

    def to_json_dict(self) -> dict:
        return {"value": self.value, "reason": self.reason}


def gaussian_tradeoff(d: float, alpha: float) -> tuple[float, float]:
    """Optimal type-II error and power at level alpha for mean gap d.

    type2 = Phi(Phi^{-1}(1 - alpha) - d); power = 1 - type2. At d = 0 the
    two distributions coincide and type2 = 1 - alpha, power = alpha.
    """
    d = check_nonnegative(d, "mean gap")
    alpha = check_level(alpha, "alpha")
    type2 = std_normal_cdf(std_normal_quantile(1.0 - alpha) - d)
    return type2, 1.0 - type2


def tradeoff_curve(d: float, alphas) -> TradeoffCurve:
    """Evaluate the analytic tradeoff at each level in ``alphas``."""
    alphas = np.asarray(alphas, dtype=float)
    pairs = [gaussian_tradeoff(d, a) for a in alphas]
    type2 = np.array([t2 for t2, _ in pairs])
    return TradeoffCurve(alphas=alphas, type2=type2, power=1.0 - type2)


def delta_of_epsilon(epsilon: float, mu: float) -> float:
    """The delta of the GDP (epsilon, delta) family at a given epsilon.

    Strictly decreasing in epsilon and strictly increasing in mu over the
    normal floating-point range; underflows to 0 when both CDF terms do.
    """
    mu = check_positive(mu, "mu")
    epsilon = check_nonnegative(epsilon, "epsilon")
    return std_normal_cdf(-epsilon / mu + 0.5 * mu) - math.exp(
        epsilon + _log_cdf_lower(-epsilon / mu - 0.5 * mu)
    )


# below this point Phi leaves the normal double range (Phi(-37) ~ 6e-300)
_LOG_CDF_TAIL = -37.0
_MILLS_TERMS = 24


def _log_cdf_lower(x: float) -> float:
    """log Phi(x) for x <= 0, finite for every finite x.

    ``e^eps * Phi(b)`` in delta(eps) overflows once eps passes ~709 and
    Phi(b) underflows for b below ~-38, while their product stays small;
    in log space the product is ``exp(eps + log Phi(b))``. Below -37 the
    log comes from ``Phi(x) = phi(x) * R(-x)`` with the Mills ratio R as
    the continued fraction ``1/(t + 1/(t + 2/(t + 3/(t + ...))))``, which
    at t >= 37 reaches double precision well within 24 terms.
    """
    if x > _LOG_CDF_TAIL:
        return math.log(std_normal_cdf(x))
    t = -x
    denom = t
    for k in range(_MILLS_TERMS, 0, -1):
        denom = t + k / denom
    return -0.5 * x * x - math.log(_SQRT_2PI * denom)


# epsilon solver: starting upper bracket, its limit, and stopping width
_EPS_HI_DEFAULT = 100.0
_EPS_HI_MAX = 1e6
_EPS_INTERVAL_TOL = 1e-13


def epsilon_of_mu(mu: float, delta: float) -> float:
    """Smallest epsilon whose delta(epsilon) does not exceed delta.

    Returns 0 when delta(0) <= delta already. Otherwise bisects the
    strictly decreasing ``delta_of_epsilon`` down to a bracket of width
    1e-13, which pins epsilon itself; since |d delta / d epsilon| <= 1
    the achieved delta is at least as accurate. Terminating on the
    bracket rather than on a delta residual matters where the curve is
    nearly flat: a residual test would accept a whole plateau of epsilon
    values. Past epsilon = 512 one ulp exceeds 1e-13, so the bisection
    also stops once the midpoint rounds onto an endpoint; without that
    stop it would loop forever one ulp apart (it did, at mu = 30 and
    delta = 1e-3, epsilon ~ 542).

    The upper bracket starts at 100 (where delta underflows for every
    moderate mu) and doubles while delta stays above target; epsilon
    grows like mu^2 / 2, so mu = 200 needs a bracket near 5e4. Past 1e6
    (mu above about 1280 at delta = 1e-3) the budget is out of range, a
    ValueError: such a trigger is perfectly distinguishable anyway.
    """
    delta = check_level(delta, "delta")
    mu = check_positive(mu, "mu")
    if delta_of_epsilon(0.0, mu) <= delta:
        return 0.0
    lo = 0.0
    hi = _EPS_HI_DEFAULT
    while delta_of_epsilon(hi, mu) > delta:
        hi *= 2.0
        if hi > _EPS_HI_MAX:
            raise ValueError(
                f"epsilon exceeds {_EPS_HI_MAX:g} for mu={mu}, delta={delta}"
            )
    while hi - lo > _EPS_INTERVAL_TOL:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if delta_of_epsilon(mid, mu) > delta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def budget_lower_bound(mu: float, delta: float) -> BudgetLowerBound:
    """Closed-form bound ``ln 2 + ln(delta - Phi(mu/2))`` when it applies.

    The log argument is positive only for delta above Phi(mu/2), i.e. for
    unusually permissive delta; everywhere else the bound is reported as
    absent with the failing argument in the reason. Supplementary output
    only; see epsilon_of_mu for the canonical budget.
    """
    delta = check_level(delta, "delta")
    mu = check_nonnegative(mu, "mu")
    arg = delta - std_normal_cdf(0.5 * mu)
    if arg > 0.0:
        return BudgetLowerBound(value=math.log(2.0) + math.log(arg), reason=None)
    return BudgetLowerBound(
        value=None,
        reason=f"log argument delta - Phi(mu/2) = {arg:.6g} is not positive",
    )


def snr_to_budget(d: float, delta: float) -> PrivacyBudget:
    """Privacy budget of a single noisy update with SNR d at a chosen delta.

    The update's distribution pair is exactly the d-GDP canonical pair, so
    d is the GDP parameter; epsilon comes from the numeric solver.
    """
    d = check_nonnegative(d, "snr")
    epsilon = 0.0 if d == 0.0 else epsilon_of_mu(d, delta)
    return PrivacyBudget(epsilon=epsilon, delta=float(delta), mu=d)
