"""Trigger constructors, objective scalings, and the search oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest

from badgd import triggers
from badgd.dataset import (
    Dataset,
    SufficientStats,
    Trigger,
    TriggerKind,
    make_bad_dataset,
    sufficient_stats,
)
from badgd.risk import check_weights, empirical_risk, point_loss
from badgd.sim import _block_seed, noisy_gd_step
from badgd.triggers import (
    _REFINE_ROUNDS,
    TriggerConstraints,
    build_trigger_report,
    graddistwarp_snr,
    gradwarp_objective,
    make_graddistwarp_trigger,
    make_gradwarp_trigger,
    make_riskwarp_trigger,
    oracle_search,
    riskwarp_objective,
)
from conftest import corpus, gaps_of, magnitude

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
        value = riskwarp_objective(W_FIXTURE, two_point_stats, [-1.0, 0.0], 2.0)
        assert value == pytest.approx(RISKWARP_FIXTURE_OBJECTIVE, abs=1e-12)

    def test_zero_everything(self):
        assert riskwarp_objective([1.0, 1.0], zero_stats(), [0.0, 0.0], 0.0) == 0.0

    def test_equals_excess_loss(self):
        for w, d, v in corpus(100, seed=21):
            value = riskwarp_objective(w, sufficient_stats(d), v.x_v, v.y_v)
            excess = point_loss(w, v.x_v, v.y_v) - empirical_risk(w, d)
            assert abs(value - excess) <= 1e-10 * (1 + magnitude(value))

    def test_equals_scaled_risk_gap(self):
        for w, d, v in corpus(100, seed=22):
            value = riskwarp_objective(w, sufficient_stats(d), v.x_v, v.y_v)
            scaled = gaps_of(w, d, v).risk.closed_form * (d.n + 1)
            assert abs(value - scaled) <= 1e-10 * (1 + magnitude(value))

    def test_dimension_mismatch(self, two_point_stats):
        with pytest.raises(ValueError, match="feature_dim"):
            riskwarp_objective(W_FIXTURE, two_point_stats, [1.0], 0.0)


class TestMakeRiskwarpTrigger:
    def test_fixture_construction(self, two_point_stats):
        c = TriggerConstraints(response_bound=2.0, trigger_scale=1.0)
        v = make_riskwarp_trigger(W_FIXTURE, c)
        np.testing.assert_array_equal(v.x_v, [-1.0, -0.0])
        assert v.y_v == 2.0
        assert v.kind is TriggerKind.RISKWARP
        value = riskwarp_objective(W_FIXTURE, two_point_stats, v.x_v, v.y_v)
        assert value == pytest.approx(RISKWARP_FIXTURE_OBJECTIVE, abs=1e-12)

    def test_zero_stats_hand_value(self):
        # B^2 + 2*scale*B*||w||^2 + scale^2*||w||^4 = 1 + 4 + 4
        c = TriggerConstraints(response_bound=1.0, trigger_scale=2.0)
        v = make_riskwarp_trigger([0.0, 1.0], c)
        value = riskwarp_objective([0.0, 1.0], zero_stats(), v.x_v, v.y_v)
        assert value == pytest.approx(9.0, abs=1e-12)

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
            value = riskwarp_objective(w, stats, v.x_v, v.y_v)
            assert abs(value - expected) <= 1e-10 * (1 + magnitude(value))

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            make_riskwarp_trigger([0.0, 0.0], TriggerConstraints())

    def test_scale_monotonicity(self, two_point_stats):
        values = []
        for scale in np.linspace(0.1, 3.0, 30):
            c = TriggerConstraints(response_bound=2.0, trigger_scale=float(scale))
            v = make_riskwarp_trigger(W_FIXTURE, c)
            values.append(
                riskwarp_objective(W_FIXTURE, two_point_stats, v.x_v, v.y_v)
            )
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestGradwarpObjective:
    def test_fixture_value(self, two_point_stats):
        value = gradwarp_objective(W_FIXTURE, two_point_stats, [1.0, 0.0], 0.5)
        assert value == pytest.approx(GRADWARP_FIXTURE_OBJECTIVE, abs=1e-12)

    def test_exact_reproduction_gives_zero(self):
        # single-point dataset: the point itself reproduces both moments
        d = Dataset([[2.0, 1.0]], [1.5])
        value = gradwarp_objective([0.4, -0.2], sufficient_stats(d), [2.0, 1.0], 1.5)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_equals_scaled_gradient_gap(self):
        for w, d, v in corpus(100, seed=24):
            value = gradwarp_objective(w, sufficient_stats(d), v.x_v, v.y_v)
            gap_norm = float(np.linalg.norm(np.asarray(gaps_of(w, d, v).gradient.direct)))
            scaled = gap_norm * (d.n + 1) / 2.0
            assert abs(value - scaled) <= 1e-10 * (1 + magnitude(value))


def outer_riskwarp(w, stats, x, y):
    """The riskwarp objective as first written, through ``np.outer``."""
    return float(
        (y**2 - stats.s_y)
        + 2.0 * w @ (stats.s_yx - y * x)
        + w @ (np.outer(x, x) - stats.s_xx) @ w
    )


def outer_gradwarp(w, stats, x, y):
    """The gradwarp objective as first written, through ``np.outer``."""
    bracket = (stats.s_yx - y * x) + (np.outer(x, x) - stats.s_xx) @ w
    return float(np.linalg.norm(bracket))


def row_corpus(count: int, seed: int, rows: int = 5):
    """Random instances, each with ``rows`` extra candidate points."""
    rng = np.random.default_rng(seed)
    for w, d, _ in corpus(count, seed):
        xs = rng.uniform(-10.0, 10.0, size=(rows, d.feature_dim))
        ys = rng.uniform(-10.0, 10.0, size=rows)
        yield w, d, sufficient_stats(d), xs, ys


class TestRowObjectives:
    @pytest.mark.parametrize(
        "objective, outer",
        [(riskwarp_objective, outer_riskwarp), (gradwarp_objective, outer_gradwarp)],
    )
    def test_matches_outer_formula(self, objective, outer):
        for w, _, stats, xs, ys in row_corpus(60, seed=31):
            values = objective(w, stats, xs, ys)
            for x, y, value in zip(xs, ys, values):
                expected = outer(w, stats, x, float(y))
                assert abs(value - expected) <= 1e-10 * (1 + magnitude(expected))

    @pytest.mark.parametrize("objective", [riskwarp_objective, gradwarp_objective])
    def test_rows_equal_one_point_calls_exactly(self, objective):
        for w, _, stats, xs, ys in row_corpus(60, seed=32):
            values = objective(w, stats, xs, ys)
            assert values.shape == (len(xs),)
            points = [objective(w, stats, x, float(y)) for x, y in zip(xs, ys)]
            assert all(isinstance(p, float) for p in points)
            np.testing.assert_array_equal(values, points)
            shared = objective(w, stats, xs, ys[0])
            np.testing.assert_array_equal(
                shared, [objective(w, stats, x, ys[0]) for x in xs]
            )

    def test_riskwarp_rows_equal_excess_loss(self):
        for w, d, stats, xs, ys in row_corpus(60, seed=33):
            risk = empirical_risk(w, d)
            values = riskwarp_objective(w, stats, xs, ys)
            for x, y, value in zip(xs, ys, values):
                excess = point_loss(w, x, y) - risk
                assert abs(value - excess) <= 1e-10 * (1 + magnitude(value))

    def test_gradwarp_rows_equal_scaled_gradient_gap(self):
        for w, d, stats, xs, ys in row_corpus(60, seed=34):
            values = gradwarp_objective(w, stats, xs, ys)
            for x, y, value in zip(xs, ys, values):
                gap = gaps_of(w, d, Trigger(x_v=x, y_v=float(y))).gradient.direct
                scaled = float(np.linalg.norm(np.asarray(gap))) * (d.n + 1) / 2.0
                assert abs(value - scaled) <= 1e-10 * (1 + magnitude(value))

    @pytest.mark.parametrize("objective", [riskwarp_objective, gradwarp_objective])
    def test_shape_mismatch(self, objective, two_point_stats):
        with pytest.raises(ValueError, match="feature_dim"):
            objective(W_FIXTURE, two_point_stats, np.zeros((2, 2, 2)), 0.0)
        with pytest.raises(ValueError, match="responses"):
            objective(W_FIXTURE, two_point_stats, np.zeros((3, 2)), np.zeros(2))
        with pytest.raises(ValueError, match="responses"):
            objective(W_FIXTURE, two_point_stats, np.zeros(2), np.zeros(1))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_riskwarp_overflow_is_inf(self, two_point_stats):
        # a Python float square would raise OverflowError here
        with np.errstate(over="ignore"):
            value = riskwarp_objective(W_FIXTURE, two_point_stats, [-1.0, 0.0], 1e200)
        assert value == math.inf


class TestMakeGradwarpTrigger:
    def test_fixture_construction(self, two_point_stats):
        v = make_gradwarp_trigger(W_FIXTURE, TriggerConstraints(), two_point_stats)
        np.testing.assert_array_equal(v.x_v, [1.0, 0.0])
        assert v.y_v == 0.5
        assert v.kind is TriggerKind.GRADWARP
        value = gradwarp_objective(W_FIXTURE, two_point_stats, v.x_v, v.y_v)
        assert value == pytest.approx(GRADWARP_FIXTURE_OBJECTIVE, abs=1e-12)

    def test_cancellation_gives_zero(self):
        # s_yx parallel to w and scale^2 ||w||^2 w = s_xx w at scale 1
        d = Dataset([[1.0, 0.0]], [3.0])
        stats = sufficient_stats(d)
        v = make_gradwarp_trigger([1.0, 0.0], TriggerConstraints(), stats)
        assert gradwarp_objective([1.0, 0.0], stats, v.x_v, v.y_v) == pytest.approx(
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
            value = gradwarp_objective(w, stats, v.x_v, v.y_v)
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
        d = Dataset([[1.0, 0.0]], [3.0])
        stats = sufficient_stats(d)
        v = make_gradwarp_trigger([1.0, 0.0], TriggerConstraints(), stats)
        snr = graddistwarp_snr([1.0, 0.0], stats, v.x_v, v.y_v, sigma=1.0)
        assert snr == pytest.approx(0.0, abs=1e-12)

    def test_fixture_value(self, two_point_stats):
        snr = graddistwarp_snr(W_FIXTURE, two_point_stats, [1.0, 0.0], 0.5, sigma=1.0)
        assert snr == pytest.approx(2.0 / 3.0 * GRADWARP_FIXTURE_OBJECTIVE, abs=1e-12)

    def test_gamma_cancels_in_definitional(self):
        # the mean shift of one real step over its noise scale, at any rate
        for i, (w, d, v) in enumerate(corpus(50, seed=26)):
            stats = sufficient_stats(d)
            sigma = 0.5 + 0.1 * (i % 7)
            snr = graddistwarp_snr(w, stats, v.x_v, v.y_v, sigma)
            gap_norm = float(np.linalg.norm(np.asarray(gaps_of(w, d, v).gradient.direct)))
            assert snr == pytest.approx(gap_norm / sigma, abs=1e-10 * (1 + gap_norm))
            bad = make_bad_dataset(d, v)
            # with zero noise the step is its mean
            zero = np.zeros(d.feature_dim)
            for gamma in (0.01, 0.1, 1.0):
                shift = noisy_gd_step(w, d, gamma, zero) - noisy_gd_step(
                    w, bad, gamma, zero
                )
                step_snr = float(np.linalg.norm(shift)) / (gamma * sigma)
                assert step_snr == pytest.approx(snr, rel=1e-9, abs=1e-10)

    def test_parameter_validation(self, two_point_stats):
        x, y = [1.0, 0.0], 0.5
        for sigma in (0.0, -1.0, math.inf):
            with pytest.raises(ValueError, match="sigma"):
                graddistwarp_snr(W_FIXTURE, two_point_stats, x, y, sigma)


class TestRestrictedOptimality:
    def test_riskwarp_response_endpoint(self, two_point_stats):
        c = TriggerConstraints(response_bound=2.0, trigger_scale=1.0)
        best = make_riskwarp_trigger(W_FIXTURE, c)
        best_value = riskwarp_objective(W_FIXTURE, two_point_stats, best.x_v, best.y_v)
        for y in np.linspace(-c.response_bound, c.response_bound, 1001):
            value = riskwarp_objective(W_FIXTURE, two_point_stats, best.x_v, float(y))
            assert value <= best_value + 1e-9

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
        assert value == gradwarp_objective(W_FIXTURE, two_point_stats, v.x_v, v.y_v)

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

    @pytest.mark.parametrize(
        "kind, objective",
        [
            (TriggerKind.RISKWARP, riskwarp_objective),
            (TriggerKind.GRADWARP, gradwarp_objective),
            (TriggerKind.GRADDISTWARP, gradwarp_objective),
        ],
    )
    def test_best_value_is_objective_at_candidate(
        self, two_point_stats, kind, objective
    ):
        c = TriggerConstraints(x_norm_max=2.0, response_bound=2.0)
        v, value = oracle_search(kind, W_FIXTURE, two_point_stats, c, budget=4, seed=8)
        assert value == objective(W_FIXTURE, two_point_stats, v.x_v, v.y_v)

    def test_graddistwarp_objective_ranks_like_gradwarp(self, two_point_stats):
        c = TriggerConstraints()
        grad_v, grad_value = oracle_search(
            TriggerKind.GRADWARP, W_FIXTURE, two_point_stats, c, budget=4, seed=9
        )
        dist_v, dist_value = oracle_search(
            TriggerKind.GRADDISTWARP, W_FIXTURE, two_point_stats, c, budget=4, seed=9
        )
        np.testing.assert_array_equal(dist_v.x_v, grad_v.x_v)
        assert dist_v.y_v == grad_v.y_v
        assert dist_value == grad_value

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", ["riskwarp", "gradwarp"])
    def test_out_of_range_box_rejected(self, kind, two_point_stats):
        # every probe of a box this large overflows to inf or nan
        with pytest.raises(ValueError, match="oracle objective is out of"):
            oracle_search(
                kind,
                W_FIXTURE,
                two_point_stats,
                TriggerConstraints(x_norm_max=1e200),
                budget=2,
                seed=1,
            )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_box_radius_past_sqrt_max_keeps_points_inside(self):
        # x_norm_max^2 overflows, yet weights of 1 / x_norm_max keep every
        # riskwarp value finite: the box test must still reject the points
        # whose ||x||^2 overflows, as they lie outside the box
        r_max = 1e160
        w = np.array([1.0, 1.0]) / r_max
        v, value = oracle_search(
            "riskwarp", w, zero_stats(), TriggerConstraints(x_norm_max=r_max),
            budget=4, seed=1,
        )
        assert math.isfinite(value)
        assert np.linalg.norm(v.x_v / r_max) <= 1.0

    @pytest.mark.parametrize("kind", ["riskwarp", "gradwarp"])
    @pytest.mark.parametrize("x_norm_max", [1e-160, 1e-200])
    def test_box_whose_square_underflows_rejected(self, kind, x_norm_max):
        # x_norm_max^2 below the smallest normal float: the squared norms
        # the box test reads underflow with it, and at 1e-160 a point about
        # 1.0003 x_norm_max out would pass
        message = f"oracle box radius xmax {x_norm_max!r} is too small"
        with pytest.raises(ValueError, match=message):
            oracle_search(
                kind, np.array([1.0, 1.0]) / x_norm_max, zero_stats(),
                TriggerConstraints(x_norm_max=x_norm_max), budget=8, seed=1,
            )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", ["riskwarp", "gradwarp"])
    def test_box_radius_near_smallest_normal_keeps_points_inside(self, monkeypatch, kind):
        # x_norm_max^2 is just above the smallest normal float
        r_max = 1.5e-154
        runs = spy_refine(monkeypatch)
        _, value = oracle_search(
            kind, np.array([1.0, 1.0]) / r_max, zero_stats(),
            TriggerConstraints(x_norm_max=r_max), budget=8, seed=1,
        )
        [(_, _, x, _, _)] = runs
        assert math.isfinite(value)
        eps = np.finfo(float).eps
        assert np.all(np.linalg.norm(x / r_max, axis=1) <= 1.0 + 8.0 * eps)

    @pytest.mark.parametrize("instance", ["fixture", "lockstep"])
    def test_starts_are_the_same_at_every_budget(self, monkeypatch, two_point_stats, instance):
        """A budget-k search starts from the first k starts of a larger
        budget, so its best value never falls as the budget grows."""
        if instance == "fixture":
            w, stats = W_FIXTURE, two_point_stats
        else:
            w, stats = lockstep_instance(5, seed=45)
        constraints = TriggerConstraints(x_norm_max=2.0, response_bound=1.5)
        runs = spy_refine(monkeypatch)
        values = []
        for budget in range(1, 17):
            values.append(oracle_search("gradwarp", w, stats, constraints, budget, seed=7)[1])
        x_all, y_all = runs[-1][:2]
        for budget, (x, y, *_) in enumerate(runs, 1):
            np.testing.assert_array_equal(x, x_all[:budget])
            np.testing.assert_array_equal(y, y_all[:budget])
        assert values == sorted(values)

    @pytest.mark.parametrize("seed", [0, 5, 123])
    def test_start_stream_is_no_other_stream(self, monkeypatch, seed):
        """The first start lies on the ray of none of the seed's other
        draws: the weights' ``default_rng(seed)`` (``--seed`` without
        ``--weights``), nor the first normals of any Monte Carlo block
        stream, ``SeedSequence((seed, h, b))`` and its children, with the
        tilted hypotheses 2 and 3 that the plan reserves."""
        dim = 5
        w, stats = lockstep_instance(dim, seed=46)
        runs = spy_refine(monkeypatch)
        oracle_search("gradwarp", w, stats, TriggerConstraints(), 4, seed=seed)
        start = runs[0][0][0]
        unit = lambda v: v / np.linalg.norm(v)
        others = [np.random.default_rng(seed)]
        for h in range(4):
            for block in range(3):
                others.append(np.random.default_rng([seed, h, block]))
                others += [np.random.default_rng(_block_seed(seed, h, block, c)) for c in (0, 1)]
        for rng in others:
            assert not np.allclose(unit(start), unit(rng.standard_normal(dim)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_response_bound_too_wide_to_draw_rejected(self, two_point_stats):
        # 2 * 1e308 overflows, so rng.uniform(-b, b) cannot draw from it
        with pytest.raises(ValueError, match="oracle response bound"):
            oracle_search(
                "gradwarp",
                W_FIXTURE,
                two_point_stats,
                TriggerConstraints(response_bound=1e308),
                budget=2,
                seed=1,
            )
        # a bound whose width is finite draws, then every probe overflows
        with pytest.raises(ValueError, match="oracle objective is out of"):
            oracle_search(
                "gradwarp",
                W_FIXTURE,
                two_point_stats,
                TriggerConstraints(response_bound=8e307),
                budget=2,
                seed=1,
            )

    def test_manual_kind_has_no_objective(self, two_point_stats):
        with pytest.raises(ValueError, match="manual"):
            oracle_search(
                TriggerKind.MANUAL,
                W_FIXTURE,
                two_point_stats,
                TriggerConstraints(),
                budget=1,
                seed=1,
            )


OBJECTIVES = {
    TriggerKind.RISKWARP: riskwarp_objective,
    TriggerKind.GRADWARP: gradwarp_objective,
    TriggerKind.GRADDISTWARP: gradwarp_objective,
}


def sequential_oracle(kind, w, stats, constraints, budget, seed):
    """The search oracle one candidate and one probe at a time.

    A reference for ``oracle_search``: the same starts, moves and schedule,
    scoring each probe with a one-point objective call. Returns the best
    ``(x, y, value)`` and how many probes the box check rejected.
    """
    fn = OBJECTIVES[TriggerKind(kind)]
    dim = stats.feature_dim
    b = constraints.response_bound
    r_max = constraints.x_norm_max
    best_x, best_y, best_val = None, 0.0, -math.inf
    rejected = 0
    key = triggers._START_KEY
    directions = np.random.default_rng([seed, key, 0]).standard_normal((budget, dim))
    uniforms = np.random.default_rng([seed, key, 1]).uniform(size=(budget, 2))
    norms = np.linalg.norm(directions, axis=1)
    radii = r_max * uniforms[:, 0] ** (1.0 / dim)
    responses = 2.0 * b * uniforms[:, 1] - b
    for i in range(budget):
        direction, norm = directions[i], float(norms[i])
        if norm == 0.0:
            direction = np.ones(dim)
            norm = math.sqrt(dim)
        x = direction / norm * radii[i]
        y = float(responses[i])
        val = fn(w, stats, x, y)
        x_step = r_max / 4.0
        y_step = b / 4.0
        for _ in range(_REFINE_ROUNDS):
            improved = False
            for j in range(dim):
                for sign in (1.0, -1.0):
                    cand = x.copy()
                    cand[j] += sign * x_step
                    if np.linalg.norm(cand) > r_max:
                        rejected += 1
                        continue
                    cand_val = fn(w, stats, cand, y)
                    if cand_val > val:
                        x, val = cand, cand_val
                        improved = True
            for sign in (1.0, -1.0):
                cand_y = y + sign * y_step
                if abs(cand_y) > b:
                    rejected += 1
                    continue
                cand_val = fn(w, stats, x, cand_y)
                if cand_val > val:
                    y, val = cand_y, cand_val
                    improved = True
            if not improved:
                x_step *= 0.5
                y_step *= 0.5
        if val > best_val:
            best_x, best_y, best_val = x, y, val
    return best_x, best_y, best_val, rejected


def spy_refine(monkeypatch):
    """Makes ``_refine`` record, per search, the starts ``(x, y)``, the
    refined rows ``(x, y)`` and the values it carried for them; returns
    the list it appends them to."""
    runs = []
    refine = triggers._refine

    def spy(form, x, y, val, r_max, b):
        start = (x.copy(), y.copy())
        running = refine(form, x, y, val, r_max, b)
        runs.append((*start, x.copy(), y.copy(), running))
        return running

    monkeypatch.setattr(triggers, "_refine", spy)
    return runs


def lockstep_instance(dim: int, seed: int):
    rng = np.random.default_rng([seed, dim])
    xs = rng.standard_normal((30, dim))
    ys = xs @ rng.standard_normal(dim) + rng.standard_normal(30)
    w = rng.standard_normal(dim)
    return w, sufficient_stats(Dataset(xs, ys))


class TestOracleLockstep:
    @pytest.mark.parametrize("kind", list(OBJECTIVES))
    @pytest.mark.parametrize("dim", [1, 2, 5, 16, 20, 100])
    def test_matches_sequential_reference(self, kind, dim):
        w, stats = lockstep_instance(dim, seed=41)
        boxes = [
            TriggerConstraints(x_norm_max=2.0, response_bound=1.5),
            # tight: far from the unconstrained maximum, so moves hit the box
            TriggerConstraints(x_norm_max=0.05, response_bound=0.05),
        ]
        # the reference makes one objective call per probe: keep d = 100 small
        budgets = (2,) if dim == 100 else (1, 3, 8)
        for constraints in boxes:
            for budget in budgets:
                v, value = oracle_search(
                    kind, w, stats, constraints, budget, seed=budget + dim
                )
                x, y, expected, rejected = sequential_oracle(
                    kind, w, stats, constraints, budget, seed=budget + dim
                )
                np.testing.assert_array_equal(v.x_v, x)
                assert v.y_v == y
                assert abs(value - expected) <= 1e-12 * abs(expected)
                if constraints.x_norm_max < 1.0:
                    assert rejected > 0
                # the box test reads a running ||x||^2: a few ulps of slack
                r_max = constraints.x_norm_max
                assert np.linalg.norm(v.x_v) <= r_max * (1.0 + 8.0 * np.finfo(float).eps)
                assert abs(v.y_v) <= constraints.response_bound

    # a tight box rejects many moves; the call count must not depend on
    # it, nor on which loop refines (d = 20 takes the speculative one)
    @pytest.mark.parametrize("tight", [False, True])
    @pytest.mark.parametrize("budget", [1, 8, 64])
    def test_objective_calls_do_not_grow_with_budget(self, monkeypatch, budget, tight):
        box = 0.05 if tight else 1.0
        constraints = TriggerConstraints(x_norm_max=box, response_bound=box)
        goal = triggers._GOALS[TriggerKind.GRADWARP]
        calls = []

        def counted_bind(w, stats):
            evaluate, form = goal.bind(w, stats)

            def counted(rows, y):
                calls.append(np.shape(rows))
                return evaluate(rows, y)

            return counted, form

        monkeypatch.setitem(
            triggers._GOALS, TriggerKind.GRADWARP, goal._replace(bind=counted_bind)
        )
        for dim in (5, 20):
            w, stats = lockstep_instance(dim, seed=42)
            calls.clear()
            oracle_search(TriggerKind.GRADWARP, w, stats, constraints, budget, seed=1)
            # the starts, then the refined rows; the probes use the scalar form
            assert calls == [(budget, dim)] * 2

    @pytest.mark.parametrize("kind", ["riskwarp", "gradwarp"])
    @pytest.mark.parametrize("dim", [1, 2, 5, 15, 16, 17, 63, 64, 65, 100, 129, 200])
    def test_speculative_loop_is_the_column_loop_bit_for_bit(self, monkeypatch, kind, dim):
        """From copies of the same starts, ``_refine`` with the speculative
        probe leaves ``x`` and ``y`` and returns values that are its bits
        with the one-column probe, at every d: ``_BLOCK`` is set past d for
        the one and to 1 for the other. One direction (riskwarp) and two
        (gradwarp), in a loose, a tight and a 1e200 box, where moves
        overflow the box test."""
        w, stats = lockstep_instance(dim, seed=44)
        _, form = triggers._GOALS[TriggerKind(kind)].bind(w, stats)
        evaluate = OBJECTIVES[TriggerKind(kind)]
        for r_max, b in [(2.0, 1.5), (0.05, 0.05), (1e200, 1e200)]:
            for budget in (1, 3, 32):
                rng = np.random.default_rng([dim, budget])
                x = rng.standard_normal((budget, dim))
                x *= min(r_max, 2.0) * rng.uniform(size=(budget, 1)) / np.linalg.norm(
                    x, axis=1, keepdims=True
                )
                y = min(b, 2.0) * rng.uniform(-1.0, 1.0, budget)
                val = evaluate(w, stats, x, y)
                out = []
                for block in (dim + 1, 1):
                    monkeypatch.setattr(triggers, "_BLOCK", block)
                    rows, ys = x.copy(), y.copy()
                    with np.errstate(over="ignore", invalid="ignore"):
                        values = triggers._refine(form, rows, ys, val, r_max, b)
                    out.append([a.view(np.uint64) for a in (rows, ys, values)])
                for column, speculative in zip(*out):
                    np.testing.assert_array_equal(column, speculative)

    @pytest.mark.parametrize("kind", ["riskwarp", "gradwarp"])
    def test_running_values_agree_with_rescore(self, monkeypatch, kind):
        """The values ``_refine`` carries are the objective at the rows it
        returns, up to rounding of the terms its scalar form adds.

        gradwarp carries ``||a||^2 + c (2 <x, a> + c ||x||^2)`` with
        ``c = <x, w> - y``: its square differs from the re-scored square by
        at most ``64 u (||a||^2 + |2 c <x, a>| + c^2 ||x||^2)``. riskwarp
        carries ``(y^2 - s_y) + 2 (<w, s_yx> - y <x, w>) + (<x, w>^2 - w'
        s_xx w)`` and differs by at most 64 u times the sum of those terms'
        magnitudes. The worst case measured is below 8 u.
        """
        u = np.finfo(float).eps / 2
        runs = spy_refine(monkeypatch)
        boxes = [(2.0, 1.5), (0.05, 0.05), (10.0, 10.0)]
        for dim in (1, 2, 5, 20, 100):
            w, stats = lockstep_instance(dim, seed=41)
            evaluate, _ = triggers._GOALS[TriggerKind(kind)].bind(w, stats)
            for x_norm_max, response_bound in boxes:
                constraints = TriggerConstraints(x_norm_max, response_bound)
                runs.clear()
                oracle_search(kind, w, stats, constraints, budget=8, seed=dim)
                [(_, _, x, y, running)] = runs
                wx = x @ w
                if kind == "gradwarp":
                    a = stats.s_yx - stats.s_xx @ w
                    c = wx - y
                    terms = a @ a + np.abs(2.0 * c * (x @ a)) + c**2 * np.vecdot(x, x)
                    error = np.abs(running**2 - evaluate(x, y) ** 2)
                else:
                    terms = (
                        y**2 + abs(stats.s_y) + 2.0 * abs(w @ stats.s_yx)
                        + 2.0 * np.abs(y * wx) + wx**2 + abs(w @ stats.s_xx @ w)
                    )
                    error = np.abs(running - evaluate(x, y))
                assert np.all(error <= 64.0 * u * terms), (dim, x_norm_max)

    @pytest.mark.parametrize("kind", list(OBJECTIVES))
    def test_weights_checked_once_per_search(self, monkeypatch, kind):
        checks = []

        def counted(w, feature_dim):
            checks.append(feature_dim)
            return check_weights(w, feature_dim)

        monkeypatch.setattr(triggers, "check_weights", counted)
        counts = set()
        for dim in (1, 5, 20):
            w, stats = lockstep_instance(dim, seed=43)
            for budget in (1, 8):
                checks.clear()
                oracle_search(kind, w, stats, TriggerConstraints(), budget, seed=2)
                counts.add(len(checks))
        assert counts == {1}


class TestTriggerReport:
    def test_riskwarp_scaling(self, two_point, two_point_stats):
        c = TriggerConstraints(response_bound=2.0)
        trigger, report = build_trigger_report(
            TriggerKind.RISKWARP, W_FIXTURE, two_point_stats, c
        )
        assert report["scaling"] == "1/(n+1)"
        assert report["scaling_factor"] == pytest.approx(1.0 / 3.0)
        measured = gaps_of(W_FIXTURE, two_point, trigger).risk.closed_form
        assert report["objective_value_scaled"] == pytest.approx(measured, abs=1e-12)

    def test_gradwarp_scaling(self, two_point, two_point_stats):
        trigger, report = build_trigger_report(
            TriggerKind.GRADWARP, W_FIXTURE, two_point_stats, TriggerConstraints()
        )
        assert report["scaling"] == "2/(n+1)"
        gap_norm = np.linalg.norm(
            np.asarray(gaps_of(W_FIXTURE, two_point, trigger).gradient.direct)
        )
        assert report["objective_value_scaled"] == pytest.approx(
            float(gap_norm), abs=1e-12
        )

    def test_graddistwarp_scaling(self, two_point_stats):
        v, report = build_trigger_report(
            TriggerKind.GRADDISTWARP,
            W_FIXTURE,
            two_point_stats,
            TriggerConstraints(),
            sigma=2.0,
        )
        snr = graddistwarp_snr(W_FIXTURE, two_point_stats, v.x_v, v.y_v, sigma=2.0)
        assert report["objective_value_scaled"] == pytest.approx(snr, abs=1e-12)

    def test_oracle_attachment(self, two_point_stats):
        args = (TriggerKind.RISKWARP, W_FIXTURE, two_point_stats)
        c = TriggerConstraints(response_bound=2.0)
        trigger, report = build_trigger_report(*args, c, oracle_budget=4, oracle_seed=5)
        assert report["trigger"] == trigger.to_json_dict()
        assert report["oracle_best"] is not None
        candidate = Trigger(**report["oracle_best"]["trigger"])
        value = report["oracle_best"]["objective_value"]
        assert candidate.kind is TriggerKind.MANUAL
        assert math.isfinite(value)
        best, best_value = oracle_search(*args, c, budget=4, seed=5)
        assert report["oracle_best"]["trigger"] == best.to_json_dict()
        assert value == best_value
        assert list(report) == [
            "trigger",
            "objective_value",
            "objective_value_scaled",
            "scaling",
            "scaling_factor",
            "oracle_best",
        ]

    def test_oracle_value_in_unscaled_units(self, two_point_stats):
        _, report = build_trigger_report(
            TriggerKind.GRADDISTWARP,
            W_FIXTURE,
            two_point_stats,
            TriggerConstraints(),
            sigma=2.0,
            oracle_budget=4,
            oracle_seed=5,
        )
        v = Trigger(**report["oracle_best"]["trigger"])
        value = report["oracle_best"]["objective_value"]
        assert value == gradwarp_objective(W_FIXTURE, two_point_stats, v.x_v, v.y_v)

    def test_oracle_budget_zero_skips_negative_rejected(self, two_point_stats):
        args = (TriggerKind.GRADWARP, W_FIXTURE, two_point_stats, TriggerConstraints())
        _, report = build_trigger_report(*args, oracle_budget=0)
        assert report["oracle_best"] is None
        with pytest.raises(ValueError, match="oracle_budget"):
            build_trigger_report(*args, oracle_budget=-1)

    def test_graddistwarp_rejects_nonpositive_sigma(self, two_point_stats):
        with pytest.raises(ValueError, match="sigma"):
            build_trigger_report(
                TriggerKind.GRADDISTWARP,
                W_FIXTURE,
                two_point_stats,
                TriggerConstraints(),
                sigma=0.0,
            )
