"""Descent steps, trajectories, and the Monte Carlo distinguisher."""

from __future__ import annotations

import csv
import math

import numpy as np
import pytest

from badgd.dataset import Dataset, Trigger, make_bad_dataset
from badgd.gdp import gaussian_tradeoff, std_normal_quantile
from badgd.risk import risk_gradient
from badgd.sim import (
    MC_BLOCK,
    DistinguisherResult,
    NoisyGDConfig,
    _simulate_scores,
    Trajectory,
    gd_step,
    monte_carlo_tradeoff,
    noisy_gd_step,
    run_trajectory,
    write_distinguisher_csv,
)
from badgd.triggers import TriggerConstraints, make_gradwarp_trigger
from badgd.dataset import sufficient_stats

W_FIXTURE = np.array([1.0, 0.0])


def zero_gap_instance():
    """Single-point dataset with its own point as trigger: the clean and
    backdoored gradients coincide exactly, so the SNR is 0."""
    d0 = Dataset([[1.0, 0.5]], [2.0])
    v = Trigger(x_v=[1.0, 0.5], y_v=2.0)
    return d0, v


def _grads(w, d0: Dataset, v: Trigger) -> tuple[np.ndarray, np.ndarray]:
    """Full-batch gradients at w on d0 and on d0 with v appended."""
    return risk_gradient(w, d0), risk_gradient(w, make_bad_dataset(d0, v))


class TestNoisyGDConfig:
    def test_accepts_zero_sigma(self):
        cfg = NoisyGDConfig(gamma=0.1, sigma=0.0)
        assert cfg.gamma * cfg.sigma == 0.0

    def test_sigma_gamma(self):
        cfg = NoisyGDConfig(gamma=0.5, sigma=2.0)
        assert cfg.gamma * cfg.sigma == 1.0

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"gamma": 0.0, "sigma": 1.0}, "gamma"),
            ({"gamma": 0.1, "sigma": -1.0}, "sigma"),
            ({"gamma": 0.1, "sigma": 1.0, "steps": 0}, "steps"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            NoisyGDConfig(**kwargs)


class TestGdStep:
    def test_zero_gradient_fixed_point(self):
        d = Dataset([[1.0, 0.0], [2.0, 0.0]], [1.0, 2.0])
        out = gd_step([1.0, 3.0], d, gamma=0.1)
        np.testing.assert_array_equal(out, [1.0, 3.0])

    def test_fixture_step(self, two_point):
        out = gd_step(W_FIXTURE, two_point, gamma=0.1)
        np.testing.assert_allclose(out, [1.0, -0.2], atol=1e-15)

    def test_gamma_validation(self, two_point):
        with pytest.raises(ValueError, match="gamma"):
            gd_step(W_FIXTURE, two_point, gamma=0.0)


class TestNoisyGdStep:
    def test_zero_noise_equals_plain_step(self, two_point):
        cfg = NoisyGDConfig(gamma=0.1, sigma=1.0)
        noisy = noisy_gd_step(W_FIXTURE, two_point, cfg, np.zeros(2))
        plain = gd_step(W_FIXTURE, two_point, cfg.gamma)
        np.testing.assert_array_equal(noisy, plain)

    def test_noise_shape_validation(self, two_point):
        cfg = NoisyGDConfig(gamma=0.1, sigma=1.0)
        with pytest.raises(ValueError, match="noise"):
            noisy_gd_step(W_FIXTURE, two_point, cfg, np.zeros(3))

    def test_increment_moments(self, two_point):
        # one-step increments are N(-gamma * grad, (gamma sigma)^2 I)
        cfg = NoisyGDConfig(gamma=0.1, sigma=0.8, seed=55)
        n_samples = 20_000
        rng = np.random.default_rng(cfg.seed)
        grad = risk_gradient(W_FIXTURE, two_point)
        increments = np.empty((n_samples, 2))
        for i in range(n_samples):
            noise = cfg.sigma * rng.standard_normal(2)
            increments[i] = noisy_gd_step(W_FIXTURE, two_point, cfg, noise) - W_FIXTURE
        target_mean = -cfg.gamma * grad
        mean_tol = 4.0 * cfg.gamma * cfg.sigma / math.sqrt(n_samples)
        assert np.all(np.abs(increments.mean(axis=0) - target_mean) <= mean_tol)
        var = increments.var(axis=0, ddof=1)
        np.testing.assert_allclose(var, (cfg.gamma * cfg.sigma) ** 2, rtol=0.05)


class TestRunTrajectory:
    def test_single_plain_step(self, two_point):
        cfg = NoisyGDConfig(gamma=0.1, sigma=1.0, steps=1)
        traj = run_trajectory(W_FIXTURE, two_point, cfg, noisy=False)
        assert len(traj) == 2
        np.testing.assert_array_equal(traj.weights[0], W_FIXTURE)
        np.testing.assert_allclose(
            traj.weights[1], gd_step(W_FIXTURE, two_point, 0.1), atol=1e-15
        )
        assert not traj.diverged

    def test_seed_determinism(self, two_point):
        cfg = NoisyGDConfig(gamma=0.05, sigma=1.5, steps=8, seed=99)
        a = run_trajectory(W_FIXTURE, two_point, cfg, noisy=True)
        b = run_trajectory(W_FIXTURE, two_point, cfg, noisy=True)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        assert a.risks == b.risks

    def test_risks_nonincreasing_at_small_step(self):
        from badgd.dataset import generate_synthetic

        d = generate_synthetic(30, 3, seed=17)
        cfg = NoisyGDConfig(gamma=0.01, sigma=0.0, steps=25)
        traj = run_trajectory(np.zeros(3), d, cfg, noisy=False)
        assert all(b <= a + 1e-12 for a, b in zip(traj.risks, traj.risks[1:]))

    def test_divergence_flagged_not_raised(self, two_point):
        cfg = NoisyGDConfig(gamma=1e200, sigma=0.0, steps=6)
        traj = run_trajectory(W_FIXTURE, two_point, cfg, noisy=False)
        assert traj.diverged
        assert len(traj) <= 7
        assert not np.all(np.isfinite(traj.weights[-1]))

    def test_length_contract(self, two_point):
        cfg = NoisyGDConfig(gamma=0.01, sigma=0.5, steps=4, seed=1)
        traj = run_trajectory(W_FIXTURE, two_point, cfg, noisy=True)
        assert len(traj.weights) == len(traj.risks) == 5


class TestTrajectoryType:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="align"):
            Trajectory(weights=(np.zeros(2),), risks=(0.0, 1.0))

    def test_non_finite_needs_flag(self):
        with pytest.raises(ValueError, match="diverged"):
            Trajectory(weights=(np.array([np.inf, 0.0]),), risks=(0.0,))
        flagged = Trajectory(
            weights=(np.array([np.inf, 0.0]),), risks=(math.inf,), diverged=True
        )
        assert flagged.diverged

    def test_csv_format(self, tmp_path, two_point):
        cfg = NoisyGDConfig(gamma=0.1, sigma=0.0, steps=2)
        traj = run_trajectory(W_FIXTURE, two_point, cfg, noisy=False)
        path = tmp_path / "trajectory.csv"
        traj.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "risk", "w_0", "w_1"]
        assert [row[0] for row in rows[1:]] == ["0", "1", "2"]
        assert float(rows[1][1]) == traj.risks[0]


def _gradwarp_grads(d0: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """The gradient pair of d0's gradwarp trigger at ``W_FIXTURE``."""
    v = make_gradwarp_trigger(W_FIXTURE, TriggerConstraints(), sufficient_stats(d0))
    return _grads(W_FIXTURE, d0, v)


class TestMonteCarloTradeoff:
    def test_zero_gap_matches_null(self):
        d0, v = zero_gap_instance()
        cfg = NoisyGDConfig(gamma=0.1, sigma=1.0, seed=2)
        grads = _grads([0.2, -0.1], d0, v)
        results = monte_carlo_tradeoff(*grads, cfg, [0.05, 0.2], 5000)
        for r in results:
            se = math.sqrt(r.alpha * (1.0 - r.alpha) / r.trials)
            assert abs(r.est_type1 - r.alpha) <= 3.0 * se
            assert abs(r.est_type2 - (1.0 - r.alpha)) <= 3.0 * se

    def test_unit_gap_matches_analytic(self, two_point):
        grad0, grad1 = _gradwarp_grads(two_point)
        gap_norm = float(np.linalg.norm(grad1 - grad0))
        cfg = NoisyGDConfig(gamma=0.1, sigma=gap_norm, seed=3)
        results = monte_carlo_tradeoff(grad0, grad1, cfg, [0.01, 0.05, 0.2], 10_000)
        for r in results:
            type2, _ = gaussian_tradeoff(1.0, r.alpha)
            assert abs(r.est_type2 - type2) <= 3.0 * r.std_err

    def test_threshold_from_analytic_null(self, two_point):
        stats = sufficient_stats(two_point)
        v = make_gradwarp_trigger(W_FIXTURE, TriggerConstraints(), stats)
        cfg = NoisyGDConfig(gamma=0.1, sigma=1.0, seed=4)
        grads = _grads(W_FIXTURE, two_point, v)
        (result,) = monte_carlo_tradeoff(*grads, cfg, [0.05], 1000)
        d1 = make_bad_dataset(two_point, v)
        d = float(
            np.linalg.norm(
                cfg.gamma * (risk_gradient(W_FIXTURE, d1) - risk_gradient(W_FIXTURE, two_point))
            )
        ) / (cfg.gamma * cfg.sigma)
        expected = -0.5 * d * d + d * std_normal_quantile(0.95)
        assert result.threshold == pytest.approx(expected, abs=1e-12)

    def test_doubling_trials_scales_std_err(self, two_point):
        grads = _gradwarp_grads(two_point)
        cfg = NoisyGDConfig(gamma=0.1, sigma=1.0, seed=5)
        (small,) = monte_carlo_tradeoff(*grads, cfg, [0.05], 2000)
        (large,) = monte_carlo_tradeoff(*grads, cfg, [0.05], 4000)
        assert large.std_err == pytest.approx(
            small.std_err / math.sqrt(2.0), rel=1e-12
        )

    def test_deterministic_and_alpha_independent_streams(self, two_point):
        grads = _gradwarp_grads(two_point)
        cfg = NoisyGDConfig(gamma=0.1, sigma=1.0, seed=6)
        combined = monte_carlo_tradeoff(*grads, cfg, [0.01, 0.05], 1500)
        (alone,) = monte_carlo_tradeoff(*grads, cfg, [0.05], 1500)
        matching = combined[1]
        assert matching.est_type1 == alone.est_type1
        assert matching.est_type2 == alone.est_type2

    def test_validation(self, two_point):
        grad0, grad1 = _gradwarp_grads(two_point)
        cfg = NoisyGDConfig(0.1, 1.0)
        with pytest.raises(ValueError, match="trials"):
            monte_carlo_tradeoff(grad0, grad1, cfg, [0.05], 500)
        with pytest.raises(ValueError, match="sigma"):
            monte_carlo_tradeoff(grad0, grad1, NoisyGDConfig(0.1, 0.0), [0.05], 2000)
        with pytest.raises(ValueError, match="alpha"):
            monte_carlo_tradeoff(grad0, grad1, cfg, [1.5], 2000)
        for pair in ((grad0, grad1[:1]), (grad0[None], grad1[None]), (1.0, 2.0)):
            with pytest.raises(ValueError, match="vectors of one shape"):
                monte_carlo_tradeoff(*pair, cfg, [0.05], 2000)
        with pytest.raises(ValueError, match="finite"):
            monte_carlo_tradeoff(grad0, grad1 + np.inf, cfg, [0.05], 2000)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_step_size_cancels(self, two_point):
        # the score never multiplies by gamma, so even 1e308 cannot overflow
        grads = _gradwarp_grads(two_point)
        runs = [
            monte_carlo_tradeoff(*grads, NoisyGDConfig(gamma, 1.0, seed=8), [0.05], 1000)
            for gamma in (0.1, 1e308)
        ]
        assert runs[0] == runs[1]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_snr_out_of_range(self, two_point):
        grads = _gradwarp_grads(two_point)
        with pytest.raises(ValueError, match="snr .* out of floating-point range"):
            monte_carlo_tradeoff(*grads, NoisyGDConfig(0.1, 1e-300), [0.05], 1000)


def _streams(w, d0: Dataset, v: Trigger, seed: int):
    """Clean and backdoored gradients at w, and a noise config."""
    return *_grads(w, d0, v), NoisyGDConfig(gamma=0.1, sigma=0.5, seed=seed)


def _fixture_streams(seed: int):
    """The streams of the gradwarp trigger on the two-point fixture."""
    d0 = Dataset([[1.0, 0.0], [0.0, 2.0]], [1.0, -1.0])
    v = make_gradwarp_trigger(W_FIXTURE, TriggerConstraints(), sufficient_stats(d0))
    return _streams(W_FIXTURE, d0, v, seed)


def llr_reference(delta_w, mu0, mu1, sigma_gamma: float) -> float:
    """Recentered log-likelihood ratio of one observed update ``delta_w``
    between N(mu0, sigma_gamma^2 I) and N(mu1, sigma_gamma^2 I):
    ``<W, delta_w> - <W, (mu0 + mu1) / 2>`` with
    ``W = (mu1 - mu0) / sigma_gamma^2``."""
    w_vec = (mu1 - mu0) / sigma_gamma**2
    return float(w_vec @ delta_w - w_vec @ (0.5 * (mu0 + mu1)))


class TestLlrScores:
    """``_simulate_scores`` against the LLR formula on the same draws."""

    @pytest.mark.parametrize("hypothesis", [0, 1])
    @pytest.mark.parametrize("instance", ["gradwarp", "zero-gap"])
    def test_first_block_matches_reference(self, instance, hypothesis):
        if instance == "gradwarp":
            grad0, grad1, cfg = _fixture_streams(seed=14)
        else:
            grad0, grad1, cfg = _streams([0.2, -0.1], *zero_gap_instance(), seed=14)
        grad = (grad0, grad1)[hypothesis]
        scores, _ = _simulate_scores(grad, grad0, grad1, cfg, MC_BLOCK, hypothesis)

        noise_seq, _ = np.random.SeedSequence([cfg.seed, hypothesis, 0]).spawn(2)
        noise = np.random.default_rng(noise_seq).standard_normal((MC_BLOCK, grad.size))
        updates = -cfg.gamma * (grad + cfg.sigma * noise)
        mu0, mu1 = -cfg.gamma * grad0, -cfg.gamma * grad1
        reference = np.array(
            [llr_reference(dw, mu0, mu1, cfg.gamma * cfg.sigma) for dw in updates]
        )
        scale = float(np.max(np.abs(reference)))
        np.testing.assert_allclose(scores, reference, rtol=1e-12, atol=1e-12 * scale)
        if instance == "zero-gap":
            assert scale == 0.0


class TestBlockStreams:
    """The block-seeded reproducibility contract of ``_simulate_scores``."""

    @pytest.mark.parametrize(
        "trials", [MC_BLOCK - 1, MC_BLOCK, MC_BLOCK + 1, 2 * MC_BLOCK + 1]
    )
    def test_shorter_run_is_prefix(self, trials):
        grad0, grad1, cfg = _fixture_streams(seed=11)
        scores, ties = _simulate_scores(grad0, grad0, grad1, cfg, trials, 0)
        assert scores.shape == ties.shape == (trials,)
        assert np.all(np.isfinite(scores))
        assert np.all((ties >= 0.0) & (ties < 1.0))
        longer = _simulate_scores(grad0, grad0, grad1, cfg, 3 * MC_BLOCK, 0)
        np.testing.assert_array_equal(scores, longer[0][:trials])
        np.testing.assert_array_equal(ties, longer[1][:trials])

    def test_blocks_and_hypotheses_draw_different_noise(self):
        grad0, grad1, cfg = _fixture_streams(seed=12)
        scores0, ties0 = _simulate_scores(grad0, grad0, grad1, cfg, 2 * MC_BLOCK, 0)
        # the same gradient under the other hypothesis tag: only the noise differs
        scores1, ties1 = _simulate_scores(grad0, grad0, grad1, cfg, 2 * MC_BLOCK, 1)
        first, second = slice(0, MC_BLOCK), slice(MC_BLOCK, 2 * MC_BLOCK)
        for a, b in [
            (scores0[first], scores0[second]),
            (ties0[first], ties0[second]),
            (scores0, scores1),
            (ties0, ties1),
            (scores0, ties0),
        ]:
            assert np.count_nonzero(a == b) == 0
            assert abs(np.corrcoef(a, b)[0, 1]) < 0.1

    def test_clean_scores_match_analytic_null(self):
        grad0, grad1, cfg = _fixture_streams(seed=13)
        trials = 100_000
        d = float(np.linalg.norm(grad1 - grad0)) / cfg.sigma
        scores, _ = _simulate_scores(grad0, grad0, grad1, cfg, trials, 0)
        mean_se = d / math.sqrt(trials)
        var_se = d * d * math.sqrt(2.0 / (trials - 1))
        assert abs(scores.mean() + 0.5 * d * d) <= 5.0 * mean_se
        assert abs(scores.var(ddof=1) - d * d) <= 5.0 * var_se


class TestDistinguisherResult:
    def test_validation(self):
        with pytest.raises(ValueError, match="est_type1"):
            DistinguisherResult(
                alpha=0.05,
                threshold=0.0,
                est_type1=1.5,
                est_type2=0.5,
                std_err=0.01,
                trials=1000,
            )
        with pytest.raises(ValueError, match="trials"):
            DistinguisherResult(
                alpha=0.05,
                threshold=0.0,
                est_type1=0.5,
                est_type2=0.5,
                std_err=0.01,
                trials=0,
            )

    def test_csv_format(self, tmp_path):
        results = [
            DistinguisherResult(
                alpha=0.05,
                threshold=1.25,
                est_type1=0.049,
                est_type2=0.74,
                std_err=0.004,
                trials=1000,
            )
        ]
        path = tmp_path / "mc.csv"
        write_distinguisher_csv(results, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "alpha",
            "threshold",
            "est_type1",
            "est_type2",
            "std_err",
            "trials",
        ]
        assert float(rows[1][0]) == 0.05
        assert int(rows[1][5]) == 1000
