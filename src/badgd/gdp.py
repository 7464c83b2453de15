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

Scalar normal functions need nothing beyond the standard library: the
CDF comes from ``math.erfc`` (correctly rounded to double precision by
the platform libm), the quantile from ``statistics.NormalDist.inv_cdf``
(Wichura's AS241, relative error near machine epsilon from p = 1e-300
to 1 - 1e-16).
"""

from __future__ import annotations

import csv
import math
import statistics
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


_STD_NORMAL = statistics.NormalDist()


def std_normal_quantile(p: float) -> float:
    """Inverse standard normal CDF for p strictly inside (0, 1)."""
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile requires p strictly in (0, 1), got {p}")
    return _STD_NORMAL.inv_cdf(p)


@dataclass(frozen=True)
class TradeoffCurve:
    """Type-II error of the optimal test, per type-I level.

    ``type2[i]`` is the smallest achievable type-II error at level
    ``alphas[i]``; ``power`` is ``1 - type2``. Both labelings are offered
    because the two conventions are easy to swap silently.
    """

    alphas: np.ndarray
    type2: np.ndarray

    def __post_init__(self):
        alphas = np.array(self.alphas, dtype=float)
        type2 = np.array(self.type2, dtype=float)
        if not (alphas.ndim == 1 and alphas.shape == type2.shape):
            raise ValueError("alphas and type2 must be 1-D and equal-length")
        if alphas.size == 0:
            raise ValueError("curve must contain at least one level")
        if np.any(alphas <= 0) or np.any(alphas >= 1):
            raise ValueError("alphas must lie strictly in (0, 1)")
        if np.any(type2 < 0) or np.any(type2 > 1):
            raise ValueError("type2 values must lie in [0, 1]")
        order = np.argsort(alphas)
        if np.any(np.diff(type2[order]) > 1e-12):
            raise ValueError("type2 must be nonincreasing in alpha")
        for arr in (alphas, type2):
            arr.flags.writeable = False
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "type2", type2)

    @property
    def power(self) -> np.ndarray:
        """Power of the optimal test at each level: ``1 - type2``."""
        return 1.0 - self.type2

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
    type2 = [gaussian_tradeoff(d, a)[0] for a in alphas]
    return TradeoffCurve(alphas=alphas, type2=type2)


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
