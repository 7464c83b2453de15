"""Normal special functions, tradeoff curves, and the privacy budget engine.

scipy and mpmath serve as independent oracles here; the package itself
never imports them.
"""

from __future__ import annotations

import math
import sys

import mpmath
import numpy as np
import pytest
from scipy import optimize, stats as sstats

from badgd import gdp
from badgd.gdp import (
    delta_of_epsilon,
    epsilon_of_mu,
    epsilon_of_tradeoff,
    gaussian_tradeoff,
    snr_to_budget,
    std_normal_cdf,
    std_normal_quantile,
    tradeoff_curve,
)

# pinned after the first verified run; bisection narrows the bracket to
# 1e-13, so the value is stable to the last few ulps across platforms
EPSILON_REGRESSION_MU = 0.7453559924999299
EPSILON_REGRESSION_DELTA = 1e-3
EPSILON_REGRESSION_VALUE = 2.1890373659968265


def reference_cdf(x: float) -> float:
    """High-precision oracle: Phi(x) = erfc(-x / sqrt 2) / 2 at 50 digits."""
    with mpmath.workdps(50):
        return float(0.5 * mpmath.erfc(-mpmath.mpf(x) / mpmath.sqrt(2)))


def reference_quantile(p: float) -> float:
    """High-precision oracle: the root of Phi(x) = p at 50 digits.

    The root is taken in the lower half, where log Phi is well conditioned
    even at p = 1e-300, and mirrored for p > 1/2; 1 - p is exact there.
    """
    with mpmath.workdps(50):
        q = min(mpmath.mpf(p), 1 - mpmath.mpf(p))
        if q == 0.5:
            return 0.0
        x = mpmath.findroot(
            lambda t: mpmath.log(mpmath.ncdf(t)) - mpmath.log(q),
            float(sstats.norm.ppf(float(q))),
        )
        return float(x if p < 0.5 else -x)


class TestStdNormalCdf:
    def test_symmetry_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_table_value(self):
        assert std_normal_cdf(0.5) == pytest.approx(0.6914625, abs=1e-6)

    def test_against_high_precision_oracle(self):
        for x in np.linspace(-6.0, 6.0, 241):
            assert abs(std_normal_cdf(float(x)) - reference_cdf(float(x))) <= 1e-15

    def test_lower_tail_relative_accuracy(self):
        # rounding x / sqrt(2) once costs about x^2/2 ulps of relative
        # error, ~1.2e-13 at -30; 5e-13 is the honest floor for doubles
        for x in (-10.0, -20.0, -30.0):
            ours = std_normal_cdf(x)
            ref = reference_cdf(x)
            assert abs(ours - ref) / ref <= 5e-13

    def test_matches_scipy(self):
        xs = np.linspace(-8.0, 8.0, 1001)
        ours = np.array([std_normal_cdf(float(x)) for x in xs])
        np.testing.assert_allclose(ours, sstats.norm.cdf(xs), rtol=1e-13, atol=0)


class TestStdNormalQuantile:
    def test_table_value(self):
        assert std_normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-5)

    def test_median(self):
        assert std_normal_quantile(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_matches_scipy(self):
        for p in (1e-8, 1e-4, 0.02425, 0.3, 0.5, 0.7, 0.97575, 1 - 1e-4, 1 - 1e-8):
            assert std_normal_quantile(p) == pytest.approx(
                float(sstats.norm.ppf(p)), rel=1e-12, abs=1e-12
            )

    def test_round_trip_grid(self):
        # the documented invariant: |cdf(quantile(p)) - p| <= 1e-12
        ps = np.linspace(1e-8, 1.0 - 1e-8, 10_000)
        worst = max(abs(std_normal_cdf(std_normal_quantile(float(p))) - p) for p in ps)
        assert worst <= 1e-12

    def test_antisymmetry(self):
        for p in (0.01, 0.2, 0.45):
            assert std_normal_quantile(p) == pytest.approx(
                -std_normal_quantile(1.0 - p), abs=1e-13
            )

    def test_against_high_precision_oracle(self):
        # both tails out to 1e-300 and 1 - 1e-16, and the relative
        # precision of the small quantiles just off p = 1/2
        ps = [*np.logspace(-300, -1, 300), *np.linspace(0.1, 0.9, 81)]
        ps += [1.0 - p for p in np.logspace(-16, -1, 100)]
        ps += [0.5 + p for p in np.logspace(-16, -1, 60)]
        ps += [0.5 - p for p in np.logspace(-16, -1, 60)]
        for p in ps:
            ref = reference_quantile(float(p))
            assert abs(std_normal_quantile(float(p)) - ref) <= 1e-14 * abs(ref)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
    def test_rejects_boundary(self, p):
        with pytest.raises(ValueError, match="strictly in"):
            std_normal_quantile(p)


class TestGaussianTradeoff:
    def test_identical_distributions(self):
        type2, power = gaussian_tradeoff(0.0, 0.05)
        assert type2 == pytest.approx(0.95, abs=1e-12)
        assert power == pytest.approx(0.05, abs=1e-12)

    def test_perfect_separation_limit(self):
        type2, power = gaussian_tradeoff(40.0, 0.05)
        assert type2 <= 1e-100
        assert power == pytest.approx(1.0, abs=1e-12)

    def test_unit_gap_value(self):
        type2, _ = gaussian_tradeoff(1.0, 0.05)
        assert type2 == pytest.approx(0.7405, abs=1e-4)
        oracle = float(sstats.norm.cdf(sstats.norm.ppf(0.95) - 1.0))
        assert type2 == pytest.approx(oracle, abs=1e-12)

    def test_complementarity(self):
        for d in (0.0, 0.5, 2.0):
            for alpha in (0.01, 0.3, 0.9):
                type2, power = gaussian_tradeoff(d, alpha)
                assert type2 + power == pytest.approx(1.0, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            gaussian_tradeoff(1.0, 0.0)
        with pytest.raises(ValueError, match="mean gap"):
            gaussian_tradeoff(-0.5, 0.1)

    def test_too_small_level_named(self):
        """A level whose 1 - alpha rounds to 1.0 is named, not reported as a
        quantile of 1.0; 2**-53, the smallest level above it, is accepted."""
        with pytest.raises(ValueError, match="level 1e-17 is too small"):
            gaussian_tradeoff(1.0, 1e-17)
        with pytest.raises(ValueError, match="level 1e-300 is too small"):
            tradeoff_curve(40.0, [0.05, 1e-300])
        curve = tradeoff_curve(40.0, [2.0**-53])
        assert curve["alphas"] == [2.0**-53]


TAIL_LEVELS = [1e-300, 1e-15, 1e-8, 0.01, 0.5, 0.99]
TAIL_GAPS = [0.0, 1e-6, 0.5, 2.0, 10.0, 37.0]


def reference_tradeoff(d: float, alpha: float) -> tuple[float, float]:
    """High-precision oracle: ``(Phi(z - d), Phi(d - z))`` with ``z`` the
    root of ``Phi(z) = 1 - alpha``, all at 60 digits."""
    with mpmath.workdps(60):
        a = mpmath.mpf(alpha)
        q = min(a, 1 - a)
        z = mpmath.mpf(0)
        if q != 0.5:
            x = mpmath.findroot(
                lambda t: mpmath.log(mpmath.ncdf(t)) - mpmath.log(q),
                float(sstats.norm.ppf(float(q))),
            )
            z = -x if alpha < 0.5 else x
        d = mpmath.mpf(d)
        return float(mpmath.ncdf(z - d)), float(mpmath.ncdf(d - z))


class TestTradeoffTails:
    """Type-II error and power against mpmath at small levels and small
    power. Errors are relative, to the smallest normal float below it (a
    type-II error of 1e-338 underflows). The worst measured is 1.7e-13,
    type2 at (d = 37, alpha = 0.01), where Phi(-34.7) ~ 1e-263 costs
    about z^2/2 ulps; before ``z = -Phi^{-1}(alpha)`` the type-II error
    was off by 1.0e-5 at (10, 1e-12) and the power by 3.3e-4 at
    (0.5, 1e-15)."""

    @pytest.mark.parametrize("alpha", TAIL_LEVELS)
    def test_against_mpmath(self, alpha):
        for d in TAIL_GAPS:
            ours = gdp._tradeoff(d, alpha)
            for value, ref in zip(ours, reference_tradeoff(d, alpha)):
                error = abs(value - ref) / max(ref, sys.float_info.min)
                assert error <= 2e-13, (d, alpha, value, ref)
            if 1.0 - alpha < 1.0:
                assert gaussian_tradeoff(d, alpha) == ours

    @pytest.mark.parametrize("d, alpha", [(10.0, 1e-12), (0.5, 1e-15)])
    def test_hand_corners(self, d, alpha):
        type2, power = gaussian_tradeoff(d, alpha)
        ref_type2, ref_power = reference_tradeoff(d, alpha)
        assert abs(type2 - ref_type2) <= 1e-15 * ref_type2
        assert abs(power - ref_power) <= 1e-13 * ref_power


class TestTradeoffCurve:
    def test_monotone_in_alpha(self):
        curve = tradeoff_curve(1.0, np.linspace(0.01, 0.99, 99))
        assert np.all(np.diff(curve["type2"]) <= 1e-12)
        alphas = curve["alphas"]
        assert curve["power"] == [gaussian_tradeoff(1.0, a)[1] for a in alphas]
        assert all(type(v) is float for values in curve.values() for v in values)

    def test_invariant_violations_rejected(self):
        with pytest.raises(ValueError, match="strictly in"):
            tradeoff_curve(1.0, [1.0])
        with pytest.raises(ValueError, match="at least one level"):
            tradeoff_curve(1.0, [])


class TestDeltaOfEpsilon:
    def test_hand_values(self):
        assert delta_of_epsilon(0.0, 1.0) == pytest.approx(0.382925, abs=1e-6)
        assert delta_of_epsilon(0.0, 2.0) == pytest.approx(0.682689, abs=1e-6)

    def test_vanishes_for_tiny_mu(self):
        assert delta_of_epsilon(1.0, 1e-8) == pytest.approx(0.0, abs=1e-15)

    def test_strictly_decreasing_in_epsilon(self):
        for mu in (0.2, 1.0, 4.0):
            values = [delta_of_epsilon(e, mu) for e in np.arange(0.0, 5.01, 0.25)]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_increasing_in_mu(self):
        for eps in (0.0, 0.5, 2.0):
            values = [delta_of_epsilon(eps, m) for m in np.arange(0.2, 4.01, 0.2)]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_past_exp_overflow_matches_mpmath(self):
        # exp(800) overflows a double; Phi(-45) is below the normal range
        for eps, mu in ((800.0, 40.0), (5000.0, 100.0), (2e4, 200.0)):
            with mpmath.workdps(60):
                ref = float(mpmath_delta(mpmath.mpf(eps), mpmath.mpf(mu)))
            assert delta_of_epsilon(eps, mu) == pytest.approx(ref, rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError, match="mu"):
            delta_of_epsilon(0.0, 0.0)
        with pytest.raises(ValueError, match="epsilon"):
            delta_of_epsilon(-1.0, 1.0)


def scipy_epsilon(mu: float, delta: float) -> float:
    """Independent inversion using scipy's CDF and root finder."""

    def f(eps):
        return (
            sstats.norm.cdf(-eps / mu + 0.5 * mu)
            - math.exp(eps) * sstats.norm.cdf(-eps / mu - 0.5 * mu)
            - delta
        )

    return float(optimize.brentq(f, 0.0, 100.0, xtol=1e-13, rtol=8.9e-16))


def mpmath_delta(eps, mu):
    return mpmath.ncdf(-eps / mu + mu / 2) - mpmath.exp(eps) * mpmath.ncdf(
        -eps / mu - mu / 2
    )


def mpmath_epsilon(mu: float, delta: float, guess: float) -> float:
    """60-digit root of delta(eps) = delta; delta is strictly decreasing in
    eps, so the root is unique and the secant steps from ``guess`` find it."""
    with mpmath.workdps(60):
        mu = mpmath.mpf(mu)
        root = mpmath.findroot(lambda e: mpmath_delta(e, mu) - delta, mpmath.mpf(guess))
        return float(root)


class TestEpsilonOfMu:
    def test_inverts_hand_value(self):
        # delta(0) for mu=1 is just below 0.382925, so no budget is needed
        assert epsilon_of_mu(1.0, 0.382925) == pytest.approx(0.0, abs=1e-6)

    def test_zero_when_delta_already_met(self):
        assert epsilon_of_mu(1.0, 0.5) == 0.0

    def test_round_trip_tolerance(self):
        for mu in (0.3, 1.0, 2.5, 4.0):
            for delta in (1e-5, 1e-3, 1e-1):
                eps = epsilon_of_mu(mu, delta)
                assert abs(delta_of_epsilon(eps, mu) - delta) <= 1e-8

    def test_against_scipy_oracle(self):
        for mu in (0.5, 1.0, 2.0):
            for delta in (1e-5, 1e-3, 1e-1):
                assert epsilon_of_mu(mu, delta) == pytest.approx(
                    scipy_epsilon(mu, delta), abs=1e-10
                )

    def test_regression_pin(self):
        eps = epsilon_of_mu(EPSILON_REGRESSION_MU, EPSILON_REGRESSION_DELTA)
        assert eps == pytest.approx(EPSILON_REGRESSION_VALUE, abs=1e-10)
        assert (
            abs(delta_of_epsilon(eps, EPSILON_REGRESSION_MU) - EPSILON_REGRESSION_DELTA)
            <= 1e-10
        )

    def test_monotone_in_mu(self):
        for delta in (1e-5, 1e-3, 1e-1):
            values = [epsilon_of_mu(m, delta) for m in np.arange(0.1, 4.01, 0.1)]
            assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError, match="delta"):
            epsilon_of_mu(1.0, 0.0)
        with pytest.raises(ValueError, match="mu"):
            epsilon_of_mu(-1.0, 0.5)

    @pytest.mark.parametrize("delta", [1e-3, 1e-10, 1e-300])
    def test_against_mpmath_up_to_mu_200(self, delta):
        # mu = 30, 33, 40 at delta = 1e-3 put epsilon past 512, where one
        # ulp exceeds the 1e-13 bracket width; exp(epsilon) overflows past 709
        for mu in (0.05, 0.5, 2.0, 10.0, 25.4, 30.0, 33.0, 40.0, 100.0, 200.0):
            eps = epsilon_of_mu(mu, delta)
            assert eps == pytest.approx(mpmath_epsilon(mu, delta, eps), rel=1e-12)

    def test_monotone_in_mu_up_to_200(self):
        mus = np.arange(0.5, 200.01, 0.5)
        for delta in (1e-3, 1e-10, 1e-300):
            values = [epsilon_of_mu(float(m), delta) for m in mus]
            assert np.all(np.diff(values) > 0.0), f"violation at delta={delta}"

    def test_bracket_exhausted_is_value_error(self):
        with pytest.raises(ValueError, match="epsilon exceeds"):
            epsilon_of_mu(1e4, 1e-3)


def random_budget_pairs(count: int, seed: int):
    """(mu, delta) pairs: mu log-uniform in [1e-3, 200], delta log-uniform
    in [1e-300, 0.5], so both tails of both routes are visited."""
    rng = np.random.default_rng(seed)
    mus = 10.0 ** rng.uniform(-3.0, math.log10(200.0), count)
    deltas = 10.0 ** rng.uniform(-300.0, math.log10(0.5), count)
    return [(float(m), float(d)) for m, d in zip(mus, deltas)]


class TestEpsilonOfTradeoff:
    def test_agrees_with_bisection(self):
        for mu, delta in random_budget_pairs(3000, 1905):
            dual = epsilon_of_tradeoff(mu, delta)
            assert dual == pytest.approx(epsilon_of_mu(mu, delta), rel=1e-9, abs=0)

    def test_zero_when_delta_already_met(self):
        for mu in (1e-3, 0.1, 0.5, 1.0, 2.0, 4.0):
            for delta in (1e-5, 1e-3, 0.1, 0.3, 0.5, 0.7, 0.95):
                if delta_of_epsilon(0.0, mu) <= delta:
                    assert epsilon_of_mu(mu, delta) == 0.0
                    assert epsilon_of_tradeoff(mu, delta) == 0.0
        # delta(0) = 2 Phi(1/2) - 1 at mu = 1
        delta = 2.0 * std_normal_cdf(0.5) - 1.0 + 1e-12
        assert epsilon_of_mu(1.0, delta) == epsilon_of_tradeoff(1.0, delta) == 0.0

    def test_zero_at_zero_mu(self):
        for delta in (1e-300, 1e-3, 0.5, 0.95):
            assert snr_to_budget(0.0, delta)["epsilon"] == 0.0
            assert epsilon_of_tradeoff(0.0, delta) == 0.0

    def test_lower_bound_unimodal_and_below_epsilon(self):
        # on a 2000-point grid strictly inside [mu/2, mu - Phi^{-1}(delta)]
        for mu, delta in random_budget_pairs(400, 2718):
            zs = np.linspace(0.5 * mu, mu - std_normal_quantile(delta), 2002)[1:-1]
            g = np.array([gdp.budget_lower_bound(float(z), mu, delta) for z in zs])
            assert np.all(np.isfinite(g)), (mu, delta)
            steps = np.diff(g)
            peak = int(np.argmax(g))
            slack = 1e-14 * (1.0 + np.max(np.abs(g)))
            assert np.all(steps[:peak] >= -slack), (mu, delta)
            assert np.all(steps[peak:] <= slack), (mu, delta)
            # every threshold's value is a lower bound on the budget
            assert g[peak] <= epsilon_of_mu(mu, delta) * (1.0 + 1e-9) + 1e-12, (mu, delta)

    @pytest.mark.parametrize("mu", [10.0, 50.0, 200.0])
    @pytest.mark.parametrize("delta", [1e-3, 1e-10, 1e-300])
    def test_both_routes_match_mpmath_at_large_mu(self, mu, delta):
        primal = epsilon_of_mu(mu, delta)
        ref = mpmath_epsilon(mu, delta, primal)
        assert primal == pytest.approx(ref, rel=1e-12)
        assert epsilon_of_tradeoff(mu, delta) == pytest.approx(ref, rel=1e-12)

    def test_independent_of_delta_of_epsilon(self, monkeypatch):
        def unavailable(epsilon, mu):
            raise AssertionError("the tradeoff route evaluated delta(epsilon)")

        monkeypatch.setattr(gdp, "delta_of_epsilon", unavailable)
        value = epsilon_of_tradeoff(EPSILON_REGRESSION_MU, EPSILON_REGRESSION_DELTA)
        assert value == pytest.approx(EPSILON_REGRESSION_VALUE, rel=1e-11)

    def test_validation(self):
        with pytest.raises(ValueError, match="delta"):
            epsilon_of_tradeoff(1.0, 1.0)
        with pytest.raises(ValueError, match="delta"):
            epsilon_of_tradeoff(1.0, 0.0)
        with pytest.raises(ValueError, match="mu"):
            epsilon_of_tradeoff(-1.0, 0.5)


class TestSnrToBudget:
    def test_zero_snr_zero_epsilon(self):
        budget = snr_to_budget(0.0, 1e-3)
        assert budget == {"epsilon": 0.0, "delta": 1e-3, "mu": 0.0}

    def test_regression_pin(self):
        budget = snr_to_budget(EPSILON_REGRESSION_MU, EPSILON_REGRESSION_DELTA)
        assert budget["epsilon"] == pytest.approx(EPSILON_REGRESSION_VALUE, abs=1e-10)
        assert budget["mu"] == EPSILON_REGRESSION_MU

    def test_monotone_in_snr(self):
        values = [snr_to_budget(d, 1e-3)["epsilon"] for d in (0.0, 0.3, 0.8, 1.5, 3.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_json_fields(self):
        payload = snr_to_budget(1.0, 1e-3)
        assert list(payload) == ["epsilon", "delta", "mu"]

    def test_validation(self):
        with pytest.raises(ValueError, match="snr"):
            snr_to_budget(-1.0, 1e-3)


class TestPrivacyBudgetType:
    """The (epsilon, delta, mu) triple ``snr_to_budget`` returns: its
    epsilon must cover mu at delta, and delta is checked even at mu = 0."""

    def test_incoherent_triple_rejected(self, monkeypatch):
        # a solver fault on the low side: epsilon 1% short of covering mu
        solve = gdp.epsilon_of_mu
        monkeypatch.setattr(gdp, "epsilon_of_mu", lambda mu, d: 0.99 * solve(mu, d))
        with pytest.raises(ValueError, match="does not cover mu=2.0"):
            snr_to_budget(2.0, 1e-6)

    def test_coherent_triple_accepted(self):
        eps = epsilon_of_mu(2.0, 1e-6)
        budget = snr_to_budget(2.0, 1e-6)
        assert budget == {"epsilon": eps, "delta": 1e-6, "mu": 2.0}
        assert delta_of_epsilon(eps, 2.0) <= 1e-6 + 1e-8

    def test_validation(self):
        for d in (0.0, 1.0):
            with pytest.raises(ValueError, match="delta"):
                snr_to_budget(d, 0.0)
            with pytest.raises(ValueError, match="delta 1e-318 is too small"):
                snr_to_budget(d, 1e-318)

