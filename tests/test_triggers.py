"""Trigger constructors, objective scalings, and the search oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest

from badgd.dataset import (
    Dataset,
    SufficientStats,
    Trigger,
    TriggerKind,
    sufficient_stats,
)
from badgd.risk import gradient_gap, point_loss, empirical_risk, risk_gap
from badgd.triggers import (
    SnrValues,
    TriggerConstraints,
    TriggerReport,
    build_trigger_report,
    graddistwarp_snr,
    gradwarp_objective,
    make_graddistwarp_trigger,
    make_gradwarp_trigger,
    make_riskwarp_trigger,
    oracle_search,
    riskwarp_objective,
)
from conftest import corpus, magnitude

# frozen by hand on the two-point fixture at w = [1, 0]:
# riskwarp with scale 1, bound 2: (2 + 1)^2 - 0.5
RISKWARP_FIXTURE_OBJECTIVE = 8.5
# gradwarp with scale 1: ||[0.5, -1.0]||
GRADWARP_FIXTURE_OBJECTIVE = math.sqrt(1.25)

W_FIXTURE = np.array([1.0, 0.0])


def zero_stats(dim: int = 2) -> SufficientStats:
    return SufficientStats(
        s_y=0.0, s_yx=np.zeros(dim), s_xx=np.zeros((dim, dim)), n=1
    )


class TestTriggerConstraints:
    def test_defaults(self):
        c = TriggerConstraints()
        assert c.x_norm_max == 1.0
        assert c.response_bound == 1.0
        assert c.trigger_scale == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"x_norm_max": 0.0},
            {"response_bound": -1.0},
            {"trigger_scale": float("inf")},
        ],
    )
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(ValueError, match="positive"):
            TriggerConstraints(**kwargs)


class TestRiskwarpObjective:
    def test_fixture_value(self, two_point_stats):
        v = Trigger(x_v=[-1.0, 0.0], y_v=2.0)
        assert riskwarp_objective(W_FIXTURE, two_point_stats, v) == pytest.approx(
            RISKWARP_FIXTURE_OBJECTIVE, abs=1e-12
        )

    def test_zero_everything(self):
        v = Trigger(x_v=[0.0, 0.0], y_v=0.0)
        assert riskwarp_objective([1.0, 1.0], zero_stats(), v) == 0.0

    def test_equals_excess_loss(self):
        for w, d, v in corpus(100, seed=21):
            value = riskwarp_objective(w, sufficient_stats(d), v)
            excess = point_loss(w, v.x_v, v.y_v) - empirical_risk(w, d)
            assert abs(value - excess) <= 1e-10 * (1 + magnitude(value))

    def test_equals_scaled_risk_gap(self):
        for w, d, v in corpus(100, seed=22):
            value = riskwarp_objective(w, sufficient_stats(d), v)
            scaled = risk_gap(w, d, v).closed_form * (d.n + 1)
            assert abs(value - scaled) <= 1e-10 * (1 + magnitude(value))

    def test_dimension_mismatch(self, two_point_stats):
        with pytest.raises(ValueError, match="feature_dim"):
            riskwarp_objective(W_FIXTURE, two_point_stats, Trigger(x_v=[1.0], y_v=0.0))


class TestMakeRiskwarpTrigger:
    def test_fixture_construction(self, two_point_stats):
        c = TriggerConstraints(response_bound=2.0, trigger_scale=1.0)
        v = make_riskwarp_trigger(W_FIXTURE, c)
        np.testing.assert_array_equal(v.x_v, [-1.0, -0.0])
        assert v.y_v == 2.0
        assert v.kind is TriggerKind.RISKWARP
        assert riskwarp_objective(W_FIXTURE, two_point_stats, v) == pytest.approx(
            RISKWARP_FIXTURE_OBJECTIVE, abs=1e-12
        )

    def test_zero_stats_hand_value(self):
        # B^2 + 2*scale*B*||w||^2 + scale^2*||w||^4 = 1 + 4 + 4
        c = TriggerConstraints(response_bound=1.0, trigger_scale=2.0)
        v = make_riskwarp_trigger([0.0, 1.0], c)
        assert riskwarp_objective([0.0, 1.0], zero_stats(), v) == pytest.approx(
            9.0, abs=1e-12
        )

    def test_closed_form_distortion_expression(self):
        for w, d, _ in corpus(50, seed=23):
            stats = sufficient_stats(d)
            c = TriggerConstraints(response_bound=1.5, trigger_scale=0.7)
            v = make_riskwarp_trigger(w, c)
            norm_sq = float(w @ w)
            expected = (
                c.response_bound**2
                - stats.s_y
                + 2.0 * w @ stats.s_yx
                + 2.0 * c.trigger_scale * c.response_bound * norm_sq
                + c.trigger_scale**2 * norm_sq**2
                - w @ stats.s_xx @ w
            )
            value = riskwarp_objective(w, stats, v)
            assert abs(value - expected) <= 1e-10 * (1 + magnitude(value))

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            make_riskwarp_trigger([0.0, 0.0], TriggerConstraints())

    def test_scale_monotonicity(self, two_point_stats):
        values = []
        for scale in np.linspace(0.1, 3.0, 30):
            c = TriggerConstraints(response_bound=2.0, trigger_scale=float(scale))
            v = make_riskwarp_trigger(W_FIXTURE, c)
            values.append(riskwarp_objective(W_FIXTURE, two_point_stats, v))
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestGradwarpObjective:
    def test_fixture_value(self, two_point_stats):
        v = Trigger(x_v=[1.0, 0.0], y_v=0.5)
        assert gradwarp_objective(W_FIXTURE, two_point_stats, v) == pytest.approx(
            GRADWARP_FIXTURE_OBJECTIVE, abs=1e-12
        )

    def test_exact_reproduction_gives_zero(self):
        # single-point dataset: the point itself reproduces both moments
        d = Dataset.from_arrays([[2.0, 1.0]], [1.5])
        v = Trigger(x_v=[2.0, 1.0], y_v=1.5)
        assert gradwarp_objective([0.4, -0.2], sufficient_stats(d), v) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_equals_scaled_gradient_gap(self):
        for w, d, v in corpus(100, seed=24):
            value = gradwarp_objective(w, sufficient_stats(d), v)
            gap_norm = float(np.linalg.norm(np.asarray(gradient_gap(w, d, v).direct)))
            scaled = gap_norm * (d.n + 1) / 2.0
            assert abs(value - scaled) <= 1e-10 * (1 + magnitude(value))


class TestMakeGradwarpTrigger:
    def test_fixture_construction(self, two_point_stats):
        v = make_gradwarp_trigger(W_FIXTURE, TriggerConstraints(), two_point_stats)
        np.testing.assert_array_equal(v.x_v, [1.0, 0.0])
        assert v.y_v == 0.5
        assert v.kind is TriggerKind.GRADWARP
        assert gradwarp_objective(W_FIXTURE, two_point_stats, v) == pytest.approx(
            GRADWARP_FIXTURE_OBJECTIVE, abs=1e-12
        )

    def test_cancellation_gives_zero(self):
        # s_yx parallel to w and scale^2 ||w||^2 w = s_xx w at scale 1
        d = Dataset.from_arrays([[1.0, 0.0]], [3.0])
        stats = sufficient_stats(d)
        v = make_gradwarp_trigger([1.0, 0.0], TriggerConstraints(), stats)
        assert gradwarp_objective([1.0, 0.0], stats, v) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_closed_form_distortion_expression(self):
        for w, d, _ in corpus(50, seed=25):
            stats = sufficient_stats(d)
            c = TriggerConstraints(trigger_scale=1.3)
            v = make_gradwarp_trigger(w, c, stats)
            norm_sq = float(w @ w)
            expected = np.linalg.norm(
                stats.s_yx
                - (float(w @ stats.s_yx) / norm_sq) * w
                + c.trigger_scale**2 * norm_sq * w
                - stats.s_xx @ w
            )
            value = gradwarp_objective(w, stats, v)
            assert abs(value - expected) <= 1e-10 * (1 + magnitude(value))

    def test_zero_weights_rejected(self, two_point_stats):
        with pytest.raises(ValueError, match="nonzero"):
            make_gradwarp_trigger([0.0, 0.0], TriggerConstraints(), two_point_stats)


class TestGraddistwarp:
    def test_same_point_different_kind(self, two_point_stats):
        c = TriggerConstraints(trigger_scale=0.8)
        a = make_gradwarp_trigger(W_FIXTURE, c, two_point_stats)
        b = make_graddistwarp_trigger(W_FIXTURE, c, two_point_stats)
        np.testing.assert_array_equal(a.x_v, b.x_v)
        assert a.y_v == b.y_v
        assert b.kind is TriggerKind.GRADDISTWARP

    def test_zero_gap_gives_zero_snr(self):
        d = Dataset.from_arrays([[1.0, 0.0]], [3.0])
        stats = sufficient_stats(d)
        v = make_gradwarp_trigger([1.0, 0.0], TriggerConstraints(), stats)
        snr = graddistwarp_snr([1.0, 0.0], stats, v, gamma=0.1, sigma=1.0)
        assert snr.definitional == pytest.approx(0.0, abs=1e-12)
        assert snr.closed_form == pytest.approx(0.0, abs=1e-12)

    def test_fixture_value(self, two_point_stats):
        v = Trigger(x_v=[1.0, 0.0], y_v=0.5)
        snr = graddistwarp_snr(W_FIXTURE, two_point_stats, v, gamma=0.1, sigma=1.0)
        assert snr.definitional == pytest.approx(
            2.0 / 3.0 * GRADWARP_FIXTURE_OBJECTIVE, abs=1e-12
        )
        assert snr.canonical == snr.definitional

    def test_gamma_cancels_in_definitional(self):
        for i, (w, d, v) in enumerate(corpus(50, seed=26)):
            stats = sufficient_stats(d)
            sigma = 0.5 + 0.1 * (i % 7)
            values = {
                graddistwarp_snr(w, stats, v, gamma, sigma).definitional
                for gamma in (0.01, 0.1, 1.0)
            }
            assert max(values) - min(values) <= 1e-10 * (1 + max(values))
            gap_norm = float(np.linalg.norm(np.asarray(gradient_gap(w, d, v).direct)))
            assert max(values) == pytest.approx(
                gap_norm / sigma, abs=1e-10 * (1 + gap_norm)
            )

    def test_reduced_form_keeps_gamma(self, two_point_stats):
        v = Trigger(x_v=[1.0, 0.0], y_v=0.5)
        bracket = gradwarp_objective(W_FIXTURE, two_point_stats, v)
        for gamma in (0.1, 0.5):
            snr = graddistwarp_snr(W_FIXTURE, two_point_stats, v, gamma, 2.0)
            expected = bracket / (math.sqrt(gamma * 3.0 / 2.0) * 2.0)
            assert snr.closed_form == pytest.approx(expected, abs=1e-12)

    def test_parameter_validation(self, two_point_stats):
        v = Trigger(x_v=[1.0, 0.0], y_v=0.5)
        with pytest.raises(ValueError, match="gamma"):
            graddistwarp_snr(W_FIXTURE, two_point_stats, v, 0.0, 1.0)
        with pytest.raises(ValueError, match="sigma"):
            graddistwarp_snr(W_FIXTURE, two_point_stats, v, 0.1, -1.0)


class TestRestrictedOptimality:
    def test_riskwarp_response_endpoint(self, two_point_stats):
        c = TriggerConstraints(response_bound=2.0, trigger_scale=1.0)
        best = make_riskwarp_trigger(W_FIXTURE, c)
        best_value = riskwarp_objective(W_FIXTURE, two_point_stats, best)
        for y in np.linspace(-c.response_bound, c.response_bound, 1001):
            v = Trigger(x_v=best.x_v, y_v=float(y))
            assert (
                riskwarp_objective(W_FIXTURE, two_point_stats, v)
                <= best_value + 1e-9
            )

    def test_gradwarp_response_minimizer(self, two_point_stats):
        # the response choice minimizes the s_yx alignment square; the full
        # bracket norm is not monotone in y_v, so grid that term alone
        c = TriggerConstraints(trigger_scale=1.0)
        best = make_gradwarp_trigger(W_FIXTURE, c, two_point_stats)

        def alignment_square(y: float) -> float:
            return float(np.sum((two_point_stats.s_yx - y * best.x_v) ** 2))

        best_value = alignment_square(best.y_v)
        for y in np.linspace(best.y_v - 5.0, best.y_v + 5.0, 1001):
            assert alignment_square(float(y)) >= best_value - 1e-9


class TestOracleSearch:
    def test_deterministic(self, two_point_stats):
        c = TriggerConstraints(x_norm_max=2.0, response_bound=2.0)
        a = oracle_search(
            TriggerKind.RISKWARP, W_FIXTURE, two_point_stats, c, budget=5, seed=42
        )
        b = oracle_search(
            TriggerKind.RISKWARP, W_FIXTURE, two_point_stats, c, budget=5, seed=42
        )
        np.testing.assert_array_equal(a[0].x_v, b[0].x_v)
        assert a[0].y_v == b[0].y_v
        assert a[1] == b[1]

    def test_budget_one_is_single_refined_candidate(self, two_point_stats):
        c = TriggerConstraints()
        v, value = oracle_search(
            TriggerKind.GRADWARP, W_FIXTURE, two_point_stats, c, budget=1, seed=3
        )
        assert v.kind is TriggerKind.MANUAL
        assert np.linalg.norm(v.x_v) <= c.x_norm_max + 1e-12
        assert abs(v.y_v) <= c.response_bound + 1e-12
        assert value == gradwarp_objective(W_FIXTURE, two_point_stats, v)

    def test_restricted_slice_cannot_beat_closed_form(self, two_point_stats):
        c = TriggerConstraints(response_bound=2.0, trigger_scale=1.0)
        best = make_riskwarp_trigger(W_FIXTURE, c)
        best_value = riskwarp_objective(W_FIXTURE, two_point_stats, best)
        _, oracle_value = oracle_search(
            TriggerKind.RISKWARP,
            W_FIXTURE,
            two_point_stats,
            c,
            budget=8,
            seed=7,
            fixed_x=best.x_v,
        )
        assert oracle_value <= best_value + 1e-9

    def test_unrestricted_value_reported_without_ordering(self, two_point_stats):
        c = TriggerConstraints(x_norm_max=1.0, response_bound=1.0)
        v, value = oracle_search(
            TriggerKind.GRADWARP, W_FIXTURE, two_point_stats, c, budget=16, seed=4
        )
        assert math.isfinite(value)
        assert value >= 0.0

    def test_budget_validation(self, two_point_stats):
        with pytest.raises(ValueError, match="budget"):
            oracle_search(
                TriggerKind.RISKWARP,
                W_FIXTURE,
                two_point_stats,
                TriggerConstraints(),
                budget=0,
                seed=1,
            )

    def test_graddistwarp_objective_ranks_like_gradwarp(self, two_point_stats):
        c = TriggerConstraints()
        _, grad_value = oracle_search(
            TriggerKind.GRADWARP, W_FIXTURE, two_point_stats, c, budget=4, seed=9
        )
        _, snr_value = oracle_search(
            TriggerKind.GRADDISTWARP,
            W_FIXTURE,
            two_point_stats,
            c,
            budget=4,
            seed=9,
            gamma=0.1,
            sigma=2.0,
        )
        assert snr_value == pytest.approx(
            2.0 / 3.0 * grad_value / 2.0, abs=1e-10
        )


class TestTriggerReport:
    def test_riskwarp_scaling(self, two_point, two_point_stats):
        c = TriggerConstraints(response_bound=2.0)
        report = build_trigger_report(
            TriggerKind.RISKWARP, W_FIXTURE, two_point_stats, c
        )
        assert report.scaling == "1/(n+1)"
        assert report.scaling_factor == pytest.approx(1.0 / 3.0)
        measured = risk_gap(W_FIXTURE, two_point, report.trigger).closed_form
        assert report.objective_value_scaled == pytest.approx(measured, abs=1e-12)

    def test_gradwarp_scaling(self, two_point, two_point_stats):
        report = build_trigger_report(
            TriggerKind.GRADWARP, W_FIXTURE, two_point_stats, TriggerConstraints()
        )
        assert report.scaling == "2/(n+1)"
        gap_norm = np.linalg.norm(
            np.asarray(gradient_gap(W_FIXTURE, two_point, report.trigger).direct)
        )
        assert report.objective_value_scaled == pytest.approx(
            float(gap_norm), abs=1e-12
        )

    def test_graddistwarp_scaling(self, two_point_stats):
        report = build_trigger_report(
            TriggerKind.GRADDISTWARP,
            W_FIXTURE,
            two_point_stats,
            TriggerConstraints(),
            sigma=2.0,
        )
        snr = graddistwarp_snr(
            W_FIXTURE, two_point_stats, report.trigger, gamma=1.0, sigma=2.0
        )
        assert report.objective_value_scaled == pytest.approx(
            snr.definitional, abs=1e-12
        )

    def test_oracle_attachment(self, two_point_stats):
        report = build_trigger_report(
            TriggerKind.RISKWARP,
            W_FIXTURE,
            two_point_stats,
            TriggerConstraints(response_bound=2.0),
            oracle_budget=4,
            oracle_seed=5,
        )
        assert report.oracle_best is not None
        candidate, value = report.oracle_best
        assert candidate.kind is TriggerKind.MANUAL
        assert math.isfinite(value)
        payload = report.to_json_dict()
        assert payload["oracle_best"]["objective_value"] == value

    def test_inconsistent_scaling_rejected(self, two_point_stats):
        v = Trigger(x_v=[1.0, 0.0], y_v=0.5)
        with pytest.raises(ValueError, match="inconsistent"):
            TriggerReport(
                trigger=v,
                objective_value=2.0,
                objective_value_scaled=3.0,
                scaling="1/(n+1)",
                scaling_factor=0.5,
            )

    def test_snr_values_canonical(self):
        snr = SnrValues(definitional=1.5, closed_form=2.5)
        assert snr.canonical == 1.5
