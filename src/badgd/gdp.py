"""Gaussian differential privacy engine.

Everything here reduces to one scalar: the mean gap d between two
unit-variance Gaussians (the signal-to-noise ratio of the noisy update).
From d we get the analytic type-I/type-II tradeoff, and reading d as the
GDP parameter mu we get the (epsilon, delta) family

    delta(eps) = Phi(-eps/mu + mu/2) - exp(eps) * Phi(-eps/mu - mu/2)

which is inverted numerically for the privacy budget epsilon at a chosen
delta. A second route reads epsilon off the tradeoff curve f (Dong, Roth
and Su's primal-dual view): the mechanism is (epsilon, delta)-DP iff
f(alpha) >= 1 - delta - e^epsilon alpha for all alpha, so epsilon is the
supremum over alpha of log((1 - delta - f(alpha)) / alpha), each term a
lower bound on epsilon. The routes share only Phi, log Phi and the
quantile; the bisection is canonical.

Scalar normal functions need nothing beyond the standard library: the
CDF comes from ``math.erfc`` (correctly rounded to double precision by
the platform libm), the quantile from ``statistics.NormalDist.inv_cdf``
(Wichura's AS241, relative error near machine epsilon from p = 1e-300
to 1 - 1e-16).

The curve and the budget are returned as the plain dicts that the audit
report holds; ``badgd.cli`` formats the curve as a CSV table.
"""

from __future__ import annotations

import math
import statistics
import sys

from .dataset import check_nonnegative, check_positive

__all__ = [
    "std_normal_cdf",
    "std_normal_quantile",
    "gaussian_tradeoff",
    "tradeoff_curve",
    "delta_of_epsilon",
    "epsilon_of_mu",
    "epsilon_of_tradeoff",
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


def _check_alpha(value) -> float:
    """``value`` as a type-I level: inside (0, 1), and ``1 - alpha`` below
    1.0 in floating point. The threshold is formed from ``alpha`` itself
    (``_tradeoff``), so this rejection no longer guards a computation."""
    alpha = check_level(value, "alpha")
    if 1.0 - alpha == 1.0:
        raise ValueError(f"level {alpha!r} is too small: 1 - level rounds to 1.0")
    return alpha


def _check_levels(alphas) -> list[float]:
    """``alphas`` as a non-empty list of type-I levels, each one that
    ``_check_alpha`` accepts."""
    levels = [_check_alpha(a) for a in alphas]
    if not levels:
        raise ValueError("alphas must contain at least one level")
    return levels


def _check_delta(value) -> float:
    """``value`` as a delta: inside (0, 1) and a normal float. Below the
    smallest normal float the two budget routes lose the precision that
    lets them agree."""
    delta = check_level(value, "delta")
    if delta < sys.float_info.min:
        raise ValueError(
            f"delta {delta!r} is too small: below the smallest normal float "
            f"{sys.float_info.min!r}"
        )
    return delta


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


def _tradeoff(d: float, alpha: float) -> tuple[float, float]:
    """``gaussian_tradeoff`` without its checks.

    The threshold ``z = Phi^{-1}(1 - alpha)`` is taken as
    ``-Phi^{-1}(alpha)``, since ``1 - alpha`` rounds; the type-II error
    ``Phi(z - d)`` and the power ``Phi(d - z)`` each come from their own
    ``erfc``, since ``1 - type2`` cancels when the power is small.
    """
    z = -std_normal_quantile(alpha)
    return std_normal_cdf(z - d), std_normal_cdf(d - z)


def gaussian_tradeoff(d: float, alpha: float) -> tuple[float, float]:
    """Optimal type-II error and power at level alpha for mean gap d.

    type2 = Phi(Phi^{-1}(1 - alpha) - d); power = 1 - type2 =
    Phi(d - Phi^{-1}(1 - alpha)), each to full relative precision. At
    d = 0 the two distributions coincide and type2 = 1 - alpha, power =
    alpha.
    """
    d = check_nonnegative(d, "mean gap")
    return _tradeoff(d, _check_alpha(alpha))


def tradeoff_curve(d: float, alphas) -> dict:
    """The analytic tradeoff at each level in ``alphas``.

    Returns ``{"alphas", "type2", "power"}`` as lists of floats:
    ``type2[i]`` is the smallest type-II error at level ``alphas[i]`` and
    ``power[i]`` is ``1 - type2[i]``, each as ``gaussian_tradeoff`` gives
    it. Both labelings are given because the two conventions are easy to
    swap silently.
    """
    alphas = _check_levels(alphas)
    type2, power = zip(*(gaussian_tradeoff(d, a) for a in alphas))
    return {"alphas": alphas, "type2": list(type2), "power": list(power)}


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
    delta = _check_delta(delta)
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


# golden-section steps of the dual route: the bracket shrinks to 0.618^40
# ~ 5e-9 of its width, and epsilon's error is second order in that, below
# the rounding of the log ratio itself (35 steps already reach it)
_DUAL_STEPS = 40
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def budget_lower_bound(z: float, mu: float, delta: float) -> float:
    """The epsilon that the threshold-z test forces at delta: every
    (epsilon, delta)-DP claim needs Phi(mu - z) <= e^epsilon Phi(-z) + delta,
    so this is log((Phi(mu - z) - delta) / Phi(-z)), i.e. log((1 - delta -
    f(alpha)) / alpha) at alpha = Phi(-z); -inf once Phi(mu - z) <= delta."""
    diff = std_normal_cdf(mu - z) - delta
    return math.log(diff) - _log_cdf_lower(-z) if diff > 0.0 else -math.inf


def epsilon_of_tradeoff(mu: float, delta: float) -> float:
    """The budget at delta read off the mu-GDP tradeoff curve.

    Maximizes ``budget_lower_bound`` over z in [mu/2, mu - Phi^{-1}(delta)]
    by a 40-step golden section; 0 when the maximum is not positive. The
    bound is unimodal there and peaks at z = epsilon/mu + mu/2. When the
    bracket is empty (delta >= Phi(mu/2)) every probe lies at or past its
    right end, where the bound is not positive, so the budget is 0. Never
    evaluates ``delta_of_epsilon``: it is the audit's check on
    ``epsilon_of_mu``.
    """
    delta = _check_delta(delta)
    mu = check_nonnegative(mu, "mu")
    a = 0.5 * mu
    b = mu - std_normal_quantile(delta)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    gc = budget_lower_bound(c, mu, delta)
    gd = budget_lower_bound(d, mu, delta)
    for _ in range(_DUAL_STEPS):
        if gc >= gd:
            b, d, gd = d, c, gc
            c = b - _INV_PHI * (b - a)
            gc = budget_lower_bound(c, mu, delta)
        else:
            a, c, gc = c, d, gd
            d = a + _INV_PHI * (b - a)
            gd = budget_lower_bound(d, mu, delta)
    return max(0.0, gc, gd)


def snr_to_budget(d: float, delta: float) -> dict:
    """Privacy budget of a single noisy update with SNR d at a chosen delta.

    The update's distribution pair is exactly the d-GDP canonical pair, so
    d is the GDP parameter; epsilon comes from the numeric solver. Returns
    ``{"epsilon", "delta", "mu"}``. An epsilon that does not cover d at
    delta (its ``delta_of_epsilon`` above delta + 1e-8, a solver fault on
    the low side) is a ValueError.
    """
    d = check_nonnegative(d, "snr")
    delta = _check_delta(delta)
    epsilon = 0.0 if d == 0.0 else epsilon_of_mu(d, delta)
    if d > 0.0 and delta_of_epsilon(epsilon, d) > delta + 1e-8:
        raise ValueError(f"(epsilon={epsilon}, delta={delta}) does not cover mu={d}")
    return {"epsilon": epsilon, "delta": delta, "mu": d}
