"""Normal special functions, tradeoff curves, and the privacy budget engine.

scipy and mpmath serve as independent oracles here; the package itself
never imports them.
"""

from __future__ import annotations

import csv
import math

import mpmath
import numpy as np
import pytest
from scipy import optimize, stats as sstats

from badgd.gdp import (
    BudgetLowerBound,
    PrivacyBudget,
    TradeoffCurve,
    budget_lower_bound,
    delta_of_epsilon,
    epsilon_of_mu,
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


class TestTradeoffCurve:
    def test_monotone_in_alpha(self):
        curve = tradeoff_curve(1.0, np.linspace(0.01, 0.99, 99))
        assert np.all(np.diff(curve.type2) <= 1e-12)
        np.testing.assert_allclose(curve.power, 1.0 - curve.type2, atol=1e-15)

    def test_csv_round_trip(self, tmp_path):
        curve = tradeoff_curve(0.5, [0.01, 0.05, 0.2])
        path = tmp_path / "curve.csv"
        curve.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["alpha", "type2", "power"]
        assert len(rows) == 4
        for row, a, t2 in zip(rows[1:], curve.alphas, curve.type2):
            assert float(row[0]) == a
            assert float(row[1]) == t2

    def test_invariant_violations_rejected(self):
        with pytest.raises(ValueError, match="strictly in"):
            TradeoffCurve(alphas=[1.0], type2=[0.5])
        with pytest.raises(ValueError, match="nonincreasing"):
            TradeoffCurve(alphas=[0.1, 0.2], type2=[0.3, 0.5])


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


class TestBudgetLowerBound:
    def test_positive_argument_value(self):
        bound = budget_lower_bound(0.5, 0.95)
        expected = math.log(2.0) + math.log(0.95 - std_normal_cdf(0.25))
        assert bound.reason is None
        assert bound.value == pytest.approx(expected, abs=1e-12)
        # frozen from direct evaluation of the formula
        assert bound.value == pytest.approx(-0.35298554581103125, abs=1e-12)

    def test_negative_argument_absent(self):
        bound = budget_lower_bound(1.0, 0.05)
        assert bound.value is None
        assert "not positive" in bound.reason

    def test_zero_argument_absent(self):
        # mu = 0 makes Phi(mu/2) exactly 0.5
        bound = budget_lower_bound(0.0, 0.5)
        assert bound.value is None

    def test_never_nan(self):
        for mu in np.arange(0.0, 4.01, 0.25):
            for delta in (1e-5, 1e-3, 0.3, 0.7, 0.95):
                bound = budget_lower_bound(float(mu), float(delta))
                if bound.value is not None:
                    assert math.isfinite(bound.value)
                else:
                    assert bound.reason

    def test_validation(self):
        with pytest.raises(ValueError, match="delta"):
            budget_lower_bound(1.0, 1.0)

    def test_exactly_one_field(self):
        with pytest.raises(ValueError, match="exactly one"):
            BudgetLowerBound(value=1.0, reason="both")
        with pytest.raises(ValueError, match="exactly one"):
            BudgetLowerBound(value=None, reason=None)


class TestSnrToBudget:
    def test_zero_snr_zero_epsilon(self):
        budget = snr_to_budget(0.0, 1e-3)
        assert budget.epsilon == 0.0
        assert budget.mu == 0.0

    def test_regression_pin(self):
        budget = snr_to_budget(EPSILON_REGRESSION_MU, EPSILON_REGRESSION_DELTA)
        assert budget.epsilon == pytest.approx(EPSILON_REGRESSION_VALUE, abs=1e-10)
        assert budget.mu == EPSILON_REGRESSION_MU

    def test_monotone_in_snr(self):
        values = [snr_to_budget(d, 1e-3).epsilon for d in (0.0, 0.3, 0.8, 1.5, 3.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_json_fields(self):
        payload = snr_to_budget(1.0, 1e-3).to_json_dict()
        assert set(payload) == {"epsilon", "delta", "mu"}

    def test_validation(self):
        with pytest.raises(ValueError, match="snr"):
            snr_to_budget(-1.0, 1e-3)


class TestPrivacyBudgetType:
    def test_incoherent_triple_rejected(self):
        with pytest.raises(ValueError, match="cover"):
            PrivacyBudget(epsilon=0.0, delta=1e-6, mu=2.0)

    def test_coherent_triple_accepted(self):
        eps = epsilon_of_mu(2.0, 1e-6)
        budget = PrivacyBudget(epsilon=eps, delta=1e-6, mu=2.0)
        assert budget.epsilon == eps

    def test_validation(self):
        with pytest.raises(ValueError, match="epsilon"):
            PrivacyBudget(epsilon=-1.0, delta=0.5, mu=0.0)
        with pytest.raises(ValueError, match="delta"):
            PrivacyBudget(epsilon=0.0, delta=0.0, mu=0.0)

