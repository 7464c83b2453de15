"""Square loss, gradients, and the clean-vs-backdoored gap identities."""

from __future__ import annotations

import numpy as np
import pytest

from badgd.dataset import Dataset, Trigger, make_bad_dataset, sufficient_stats
from badgd.risk import (
    check_weights,
    empirical_risk,
    point_gradient,
    point_loss,
    risk_gradient,
)
from conftest import corpus, gaps_of, magnitude

# frozen from direct evaluation of (1/(n+1)) * (loss(w, v) - clean risk)
# on the two-point fixture with v = ([-1, 0], 2): (9 - 0.5) / 3
TWO_POINT_RISK_GAP = 17.0 / 6.0


class TestPointLoss:
    def test_exact_fit(self):
        assert point_loss([1.0, 1.0], [1.0, 0.0], 1.0) == 0.0

    def test_hand_values(self):
        assert point_loss([1.0, 1.0], [0.0, 1.0], 3.0) == 4.0
        assert point_loss([0.0], [5.0], 2.0) == 4.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            point_loss([1.0], [1.0, 2.0], 0.0)


class TestPointGradient:
    def test_hand_value(self):
        np.testing.assert_array_equal(
            point_gradient([1.0, 1.0], [0.0, 1.0], 3.0), [0.0, -4.0]
        )

    def test_exact_fit_zero(self):
        np.testing.assert_array_equal(
            point_gradient([1.0, 1.0], [1.0, 0.0], 1.0), [0.0, 0.0]
        )

    def test_one_dim(self):
        np.testing.assert_array_equal(
            point_gradient([0.0], [1.0], 1.0), [-2.0]
        )


class TestEmpiricalRisk:
    def test_two_point_value(self, two_point):
        assert empirical_risk([1.0, 0.0], two_point) == 0.5

    def test_exact_fit_zero(self):
        d = Dataset([[1.0, 0.0]], [2.0])
        assert empirical_risk([2.0, 5.0], d) == 0.0

    def test_mean_of_losses(self):
        d = Dataset([[1.0, 0.0], [0.0, 1.0]], [1.0, 3.0])
        assert empirical_risk([1.0, 1.0], d) == 2.0

    def test_matches_stats_form(self):
        # the risk in second moments: s_y - 2 <w, s_yx> + w^T s_xx w
        for w, d, _ in corpus(100, seed=7):
            direct = empirical_risk(w, d)
            s = sufficient_stats(d)
            via_stats = s.s_y - 2.0 * w @ s.s_yx + w @ s.s_xx @ w
            assert abs(direct - via_stats) <= 1e-10 * (1 + magnitude(direct))


class TestRiskGradient:
    def test_two_point_value(self, two_point):
        np.testing.assert_allclose(
            risk_gradient([1.0, 0.0], two_point), [0.0, 2.0], atol=1e-15
        )

    def test_exact_fit_zero(self):
        d = Dataset([[1.0, 0.0], [2.0, 0.0]], [1.0, 2.0])
        np.testing.assert_array_equal(risk_gradient([1.0, 0.0], d), [0.0, 0.0])

    def test_single_point_equals_point_gradient(self):
        d = Dataset([[2.0, 1.0]], [3.0])
        w = np.array([0.5, -1.0])
        np.testing.assert_allclose(
            risk_gradient(w, d),
            point_gradient(w, d.x_matrix()[0], d.y_vector()[0]),
            atol=1e-15,
        )

    def test_matches_stats_form(self):
        # the gradient in second moments: 2 (s_xx w - s_yx)
        for w, d, _ in corpus(100, seed=8):
            direct = risk_gradient(w, d)
            s = sufficient_stats(d)
            via_stats = 2.0 * (s.s_xx @ w - s.s_yx)
            np.testing.assert_allclose(
                direct, via_stats, rtol=0, atol=1e-10 * (1 + magnitude(direct))
            )

    def test_equals_unparenthesized_scaling(self):
        # scaling by -2 after the product is exact, so the bits match the
        # form that scales the (d, n) transpose first
        for w, d, _ in corpus(100, seed=10):
            x = d.x_matrix()
            reference = -2.0 * x.T @ (d.y_vector() - x @ w) / d.n
            np.testing.assert_array_equal(risk_gradient(w, d), reference)

    def test_matches_finite_difference(self):
        step = 1e-5
        for w, d, _ in corpus(20, seed=9):
            grad = risk_gradient(w, d)
            for j in range(d.feature_dim):
                bump = np.zeros(d.feature_dim)
                bump[j] = step
                numeric = (
                    empirical_risk(w + bump, d) - empirical_risk(w - bump, d)
                ) / (2 * step)
                denom = max(1.0, abs(grad[j]))
                assert abs(numeric - grad[j]) / denom <= 1e-6


class TestMixtureIdentity:
    def test_random_instances(self):
        for w, d, v in corpus(100, seed=11):
            mix = gaps_of(w, d, v).mixture
            assert mix.gap <= 1e-10 * (1 + magnitude(mix.lhs))

    def test_duplicate_point_keeps_gradient(self):
        d = Dataset([[1.0, 2.0]], [3.0])
        v = Trigger(x_v=[1.0, 2.0], y_v=3.0)
        w = np.array([0.3, -0.7])
        mix = gaps_of(w, d, v).mixture
        np.testing.assert_allclose(mix.lhs, risk_gradient(w, d), atol=1e-12)

    def test_hand_value_n1(self):
        d = Dataset([[1.0, 0.0]], [1.0])
        v = Trigger(x_v=[0.0, 1.0], y_v=3.0)
        mix = gaps_of([1.0, 1.0], d, v).mixture
        np.testing.assert_allclose(mix.lhs, [0.0, -2.0], atol=1e-15)
        np.testing.assert_allclose(mix.rhs, [0.0, -2.0], atol=1e-15)


class TestRiskGap:
    def test_hand_value_n1(self):
        d = Dataset([[1.0, 0.0]], [1.0])
        v = Trigger(x_v=[0.0, 1.0], y_v=3.0)
        gap = gaps_of([1.0, 1.0], d, v).risk
        assert gap.direct == pytest.approx(2.0, abs=1e-12)
        assert gap.closed_form == pytest.approx(2.0, abs=1e-12)

    def test_matching_loss_gives_zero(self, two_point):
        # v chosen so loss(w, v) equals the clean risk 0.5 at w = [1, 0]
        v = Trigger(x_v=[0.0, 0.0], y_v=np.sqrt(0.5))
        gap = gaps_of([1.0, 0.0], two_point, v).risk
        assert gap.closed_form == pytest.approx(0.0, abs=1e-12)
        assert gap.direct == pytest.approx(0.0, abs=1e-12)

    def test_two_point_frozen_value(self, two_point):
        gap = gaps_of([1.0, 0.0], two_point, Trigger(x_v=[-1.0, 0.0], y_v=2.0)).risk
        assert gap.direct == pytest.approx(TWO_POINT_RISK_GAP, abs=1e-12)
        assert gap.closed_form == pytest.approx(TWO_POINT_RISK_GAP, abs=1e-12)

    def test_routes_agree_on_corpus(self):
        for w, d, v in corpus(100, seed=12):
            gap = gaps_of(w, d, v).risk
            assert gap.discrepancy <= 1e-10 * (1 + magnitude(gap.direct))


class TestGradientGap:
    def test_hand_value_n1(self):
        d = Dataset([[1.0, 0.0]], [1.0])
        v = Trigger(x_v=[0.0, 1.0], y_v=3.0)
        gap = gaps_of([1.0, 1.0], d, v).gradient
        np.testing.assert_allclose(gap.direct, [0.0, -2.0], atol=1e-12)
        np.testing.assert_allclose(gap.closed_form, [0.0, -2.0], atol=1e-12)

    def test_exact_fit_everywhere_gives_zero(self):
        d = Dataset([[1.0, 0.0], [0.0, 1.0]], [2.0, -1.0])
        w = np.array([2.0, -1.0])
        v = Trigger(x_v=[1.0, 1.0], y_v=1.0)
        gap = gaps_of(w, d, v).gradient
        np.testing.assert_allclose(gap.direct, [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(gap.closed_form, [0.0, 0.0], atol=1e-12)

    def test_routes_agree_on_corpus(self):
        for w, d, v in corpus(100, seed=13):
            gap = gaps_of(w, d, v).gradient
            assert gap.discrepancy <= 1e-10 * (1 + magnitude(gap.direct))


class TestBackdoorGaps:
    def test_returns_the_gradient_pair(self):
        for w, d, v in corpus(20, seed=14):
            gaps = gaps_of(w, d, v)
            grad_clean = risk_gradient(w, d)
            grad_bad = risk_gradient(w, make_bad_dataset(d, v))
            np.testing.assert_array_equal(gaps.grad_clean, grad_clean)
            np.testing.assert_array_equal(gaps.grad_bad, grad_bad)
            np.testing.assert_array_equal(gaps.gradient.direct, grad_bad - grad_clean)
            np.testing.assert_array_equal(gaps.mixture.lhs, grad_bad)


class TestValidation:
    def test_check_weights(self):
        with pytest.raises(ValueError, match="shape"):
            check_weights([1.0], 2)
        with pytest.raises(ValueError, match="finite"):
            check_weights([np.nan, 1.0], 2)
        out = check_weights([1.0, 2.0], 2)
        np.testing.assert_array_equal(out, [1.0, 2.0])
