"""Square loss, gradients, and the clean-vs-backdoored gap identities."""

from __future__ import annotations

import math
import numpy as np
import pytest

from badgd.dataset import (
    Dataset,
    Trigger,
    generate_synthetic,
    load_csv,
    make_bad_dataset,
    sufficient_stats,
)
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
            assert mix.discrepancy <= 1e-10 * (1 + magnitude(mix.direct))

    def test_duplicate_point_keeps_gradient(self):
        d = Dataset([[1.0, 2.0]], [3.0])
        v = Trigger(x_v=[1.0, 2.0], y_v=3.0)
        w = np.array([0.3, -0.7])
        mix = gaps_of(w, d, v).mixture
        np.testing.assert_allclose(mix.direct, risk_gradient(w, d), atol=1e-12)

    def test_hand_value_n1(self):
        d = Dataset([[1.0, 0.0]], [1.0])
        v = Trigger(x_v=[0.0, 1.0], y_v=3.0)
        mix = gaps_of([1.0, 1.0], d, v).mixture
        np.testing.assert_allclose(mix.direct, [0.0, -2.0], atol=1e-15)
        np.testing.assert_allclose(mix.closed_form, [0.0, -2.0], atol=1e-15)


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

    def test_scale_is_largest_subtracted_term(self, two_point):
        # s_xx = diag(0.5, 2) and s_y = 1, so at w = [1, 0] each clean
        # residual subtracts terms of root mean square at most 1 + sqrt(0.5)
        clean_residual_terms = 1.0 + math.sqrt(0.5)
        # clean risk 0.5; the trigger's loss is (2 + 1)^2 = 9, below the
        # rounding of its residuals, 2 sqrt(9) times the clean terms (the
        # trigger's row, (2 + 1) / (n + 1) = 1, is smaller)
        gaps = gaps_of([1.0, 0.0], two_point, Trigger(x_v=[-1.0, 0.0], y_v=2.0))
        assert gaps.risk.scale == pytest.approx(6.0 * clean_residual_terms, rel=1e-15)
        # the clean risk 0.5 is the larger term: 2 sqrt(0.5) times the same
        gaps = gaps_of([1.0, 0.0], two_point, Trigger(x_v=[0.0, 0.0], y_v=0.5))
        assert gaps.risk.scale == pytest.approx(
            2.0 * math.sqrt(0.5) * clean_residual_terms, rel=1e-15
        )
        # the gradient routes' terms: the clean rows give 2 sqrt(2) times
        # the residual terms; the zero trigger adds 0
        clean_terms = 2.0 * math.sqrt(2.0) * clean_residual_terms
        assert gaps.gradient.scale == pytest.approx(clean_terms, rel=1e-15)
        assert gaps.mixture.scale == gaps.gradient.scale
        # a large trigger's loss, (20 + 10)^2 = 900, above its residual's
        # rounding 2 * 30 * (20 + 10) / (n + 1) = 600
        gaps = gaps_of([1.0, 0.0], two_point, Trigger(x_v=[-10.0, 0.0], y_v=20.0))
        assert gaps.risk.scale == 900.0
        # and the large trigger's row in the gradient: 2 * 10 * (20 + 10) / (n + 1)
        assert gaps.gradient.scale == gaps.mixture.scale == 200.0


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


def strided_dataset(n: int, d: int, seed: int) -> Dataset:
    """A dataset over column views of one ``(n, d + 1)`` table, as
    ``load_csv`` makes: its rows and responses are not contiguous."""
    table = np.random.default_rng(seed).standard_normal((n, d + 1))
    data = Dataset._own(table[:, 1:], table[:, 0])
    assert not data.x_matrix().flags.c_contiguous
    assert not data.y_vector().flags.c_contiguous
    return data


class TestBackdoorGaps:
    # the corpus, one dataset tall enough for BLAS to block its products,
    # and one whose rows are strided views of a parsed table
    INSTANCES = [
        *corpus(20, seed=14),
        (
            np.linspace(-1.0, 2.0, 7),
            generate_synthetic(20_000, 7, 3),
            Trigger(x_v=np.arange(7.0), y_v=-3.0),
        ),
        (
            np.linspace(2.0, -1.0, 6),
            strided_dataset(20_000, 6, 5),
            Trigger(x_v=np.arange(6.0) - 2.5, y_v=4.0),
        ),
    ]

    def test_returns_the_gradient_pair(self):
        """One residual pass per dataset gives what ``empirical_risk`` and
        ``risk_gradient`` give on the same rows, with ``==``."""
        for w, d, v in self.INSTANCES:
            gaps = gaps_of(w, d, v)
            bad = make_bad_dataset(d, v)
            grad_clean = risk_gradient(w, d)
            grad_bad = risk_gradient(w, bad)
            assert np.all(gaps.grad_clean == grad_clean)
            assert np.all(gaps.grad_bad == grad_bad)
            assert np.all(gaps.gradient.direct == grad_bad - grad_clean)
            assert np.all(gaps.mixture.direct == grad_bad)
            assert gaps.risk.direct == empirical_risk(w, bad) - empirical_risk(w, d)


class TestSpareRow:
    @pytest.mark.parametrize("source", ["generated", "csv"])
    def test_spare_row_reads_as_a_copy(self, source, tmp_path):
        """The first backdoored dataset, written into the clean dataset's
        spare row, and a later one, a copy, give the same rows, risks and
        gradients with ``==``. A CSV's first backdoored rows are strided
        views of the parsed table, the copy's are contiguous; with NumPy's
        OpenBLAS they agree bit for bit (measured on eight shapes, 1 x 1 to
        20000 x 5 and 2000 x 100)."""
        n, d = 3000, 6
        if source == "generated":
            clean = generate_synthetic(n, d, 2)
        else:
            path = tmp_path / "data.csv"
            table = np.random.default_rng(6).standard_normal((n, d + 1))
            np.savetxt(path, table, delimiter=",", fmt="%.17g")
            clean = load_csv(path)
        v = Trigger(x_v=np.arange(d) - 2.5, y_v=4.0)
        spare, copy = make_bad_dataset(clean, v), make_bad_dataset(clean, v)
        assert np.shares_memory(spare.x_matrix(), clean.x_matrix())
        assert not np.shares_memory(copy.x_matrix(), clean.x_matrix())
        assert np.array_equal(spare.x_matrix(), copy.x_matrix())
        assert np.array_equal(spare.y_vector(), copy.y_vector())
        for w in np.random.default_rng(7).standard_normal((3, d)):
            assert empirical_risk(w, spare) == empirical_risk(w, copy)
            assert np.all(risk_gradient(w, spare) == risk_gradient(w, copy))


class TestValidation:
    def test_check_weights(self):
        with pytest.raises(ValueError, match="shape"):
            check_weights([1.0], 2)
        with pytest.raises(ValueError, match="finite"):
            check_weights([np.nan, 1.0], 2)
        out = check_weights([1.0, 2.0], 2)
        np.testing.assert_array_equal(out, [1.0, 2.0])
