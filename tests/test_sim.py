"""The noisy descent step and the Monte Carlo distinguisher."""

from __future__ import annotations

import math

import numpy as np
import pytest

from badgd import sim
from badgd.dataset import Dataset, Trigger, make_bad_dataset
from badgd.gdp import gaussian_tradeoff, std_normal_quantile
from badgd.risk import risk_gradient
from badgd.sim import (
    MC_BLOCK,
    _block_rejections,
    _block_scores,
    _block_ties,
    monte_carlo_tradeoff,
    noisy_gd_step,
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


def plain_step(w, d: Dataset, gamma: float) -> np.ndarray:
    """Reference: one full-batch descent step, ``w - gamma * grad``."""
    return np.asarray(w, dtype=float) - gamma * risk_gradient(w, d)


class TestNoisyGdStep:
    def test_zero_noise_equals_plain_step(self, two_point):
        noisy = noisy_gd_step(W_FIXTURE, two_point, 0.1, np.zeros(2))
        plain = plain_step(W_FIXTURE, two_point, 0.1)
        np.testing.assert_array_equal(noisy, plain)

    def test_zero_gradient_fixed_point(self):
        d = Dataset([[1.0, 0.0], [2.0, 0.0]], [1.0, 2.0])
        out = noisy_gd_step([1.0, 3.0], d, 0.1, np.zeros(2))
        np.testing.assert_array_equal(out, [1.0, 3.0])

    def test_fixture_step(self, two_point):
        out = noisy_gd_step(W_FIXTURE, two_point, 0.1, np.zeros(2))
        np.testing.assert_allclose(out, [1.0, -0.2], atol=1e-15)

    def test_sigma_gamma(self, two_point):
        # the step moves by gamma times the gradient noise
        noise = np.array([2.0, -4.0])
        noisy = noisy_gd_step(W_FIXTURE, two_point, 0.5, noise)
        plain = plain_step(W_FIXTURE, two_point, 0.5)
        np.testing.assert_allclose(noisy - plain, -0.5 * noise, atol=1e-15)

    def test_gamma_validation(self, two_point):
        for gamma in (0.0, -0.1, math.inf, math.nan):
            with pytest.raises(ValueError, match="gamma"):
                noisy_gd_step(W_FIXTURE, two_point, gamma, np.zeros(2))

    def test_noise_shape_validation(self, two_point):
        with pytest.raises(ValueError, match="noise"):
            noisy_gd_step(W_FIXTURE, two_point, 0.1, np.zeros(3))
        with pytest.raises(ValueError, match="gamma"):
            noisy_gd_step(W_FIXTURE, two_point, 0.0, np.zeros(2))

    def test_increment_moments(self, two_point):
        # one-step increments are N(-gamma * grad, (gamma sigma)^2 I)
        gamma, sigma = 0.1, 0.8
        n_samples = 20_000
        rng = np.random.default_rng(55)
        grad = risk_gradient(W_FIXTURE, two_point)
        increments = np.empty((n_samples, 2))
        for i in range(n_samples):
            noise = sigma * rng.standard_normal(2)
            increments[i] = noisy_gd_step(W_FIXTURE, two_point, gamma, noise) - W_FIXTURE
        target_mean = -gamma * grad
        mean_tol = 4.0 * gamma * sigma / math.sqrt(n_samples)
        assert np.all(np.abs(increments.mean(axis=0) - target_mean) <= mean_tol)
        var = increments.var(axis=0, ddof=1)
        np.testing.assert_allclose(var, (gamma * sigma) ** 2, rtol=0.05)


def _gradwarp_grads(d0: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """The gradient pair of d0's gradwarp trigger at ``W_FIXTURE``."""
    v = make_gradwarp_trigger(W_FIXTURE, TriggerConstraints(), sufficient_stats(d0))
    return _grads(W_FIXTURE, d0, v)


class TestMonteCarloTradeoff:
    def test_zero_gap_matches_null(self):
        d0, v = zero_gap_instance()
        grads = _grads([0.2, -0.1], d0, v)
        results = monte_carlo_tradeoff(*grads, 1.0, [0.05, 0.2], 5000, 2)
        for r in results:
            se = math.sqrt(r["alpha"] * (1.0 - r["alpha"]) / r["trials"])
            assert abs(r["est_type1"] - r["alpha"]) <= 3.0 * se
            assert abs(r["est_type2"] - (1.0 - r["alpha"])) <= 3.0 * se

    def test_unit_gap_matches_analytic(self, two_point):
        grad0, grad1 = _gradwarp_grads(two_point)
        gap_norm = float(np.linalg.norm(grad1 - grad0))
        results = monte_carlo_tradeoff(
            grad0, grad1, gap_norm, [0.01, 0.05, 0.2], 10_000, 3
        )
        for r in results:
            type2, _ = gaussian_tradeoff(1.0, r["alpha"])
            assert abs(r["est_type2"] - type2) <= 3.0 * r["std_err"]

    def test_threshold_from_analytic_null(self, two_point):
        stats = sufficient_stats(two_point)
        v = make_gradwarp_trigger(W_FIXTURE, TriggerConstraints(), stats)
        gamma, sigma = 0.1, 1.0
        grads = _grads(W_FIXTURE, two_point, v)
        (result,) = monte_carlo_tradeoff(*grads, sigma, [0.05], 1000, 4)
        d1 = make_bad_dataset(two_point, v)
        d = float(
            np.linalg.norm(
                gamma * (risk_gradient(W_FIXTURE, d1) - risk_gradient(W_FIXTURE, two_point))
            )
        ) / (gamma * sigma)
        expected = -0.5 * d * d + d * std_normal_quantile(0.95)
        assert result["threshold"] == pytest.approx(expected, abs=1e-12)

    def test_too_small_level_named_before_simulating(self, two_point, monkeypatch):
        def unreachable(*args):
            raise AssertionError("scores simulated for a rejected level")

        monkeypatch.setattr(sim, "_block_scores", unreachable)
        grads = _gradwarp_grads(two_point)
        with pytest.raises(ValueError, match="level 1e-17 is too small"):
            monte_carlo_tradeoff(*grads, 1.0, [0.05, 1e-17], 1000, 5)

    def test_doubling_trials_scales_std_err(self, two_point):
        grads = _gradwarp_grads(two_point)
        (small,) = monte_carlo_tradeoff(*grads, 1.0, [0.05], 2000, 5)
        (large,) = monte_carlo_tradeoff(*grads, 1.0, [0.05], 4000, 5)
        assert large["std_err"] == pytest.approx(
            small["std_err"] / math.sqrt(2.0), rel=1e-12
        )

    def test_deterministic_and_alpha_independent_streams(self, two_point):
        grads = _gradwarp_grads(two_point)
        combined = monte_carlo_tradeoff(*grads, 1.0, [0.01, 0.05], 1500, 6)
        (alone,) = monte_carlo_tradeoff(*grads, 1.0, [0.05], 1500, 6)
        matching = combined[1]
        assert matching["est_type1"] == alone["est_type1"]
        assert matching["est_type2"] == alone["est_type2"]

    def test_validation(self, two_point):
        grad0, grad1 = _gradwarp_grads(two_point)
        with pytest.raises(ValueError, match="trials"):
            monte_carlo_tradeoff(grad0, grad1, 1.0, [0.05], 500, 0)
        for sigma in (0.0, -1.0, math.inf):
            with pytest.raises(ValueError, match="sigma"):
                monte_carlo_tradeoff(grad0, grad1, sigma, [0.05], 2000, 0)
            with pytest.raises(ValueError, match="sigma"):
                _block_scores(grad0, grad0, grad1, sigma, 0, 0, 1000, 0)
        with pytest.raises(ValueError, match="seed"):
            monte_carlo_tradeoff(grad0, grad1, 1.0, [0.05], 2000, -1)
        with pytest.raises(ValueError, match="seed"):
            _block_scores(grad0, grad0, grad1, 1.0, -1, 0, 1000, 0)
        with pytest.raises(ValueError, match="alpha"):
            monte_carlo_tradeoff(grad0, grad1, 1.0, [1.5], 2000, 0)
        with pytest.raises(ValueError, match="at least one level"):
            monte_carlo_tradeoff(grad0, grad1, 1.0, [], 2000, 0)
        for pair in ((grad0, grad1[:1]), (grad0[None], grad1[None]), (1.0, 2.0)):
            with pytest.raises(ValueError, match="vectors of one shape"):
                monte_carlo_tradeoff(*pair, 1.0, [0.05], 2000, 0)
        with pytest.raises(ValueError, match="finite"):
            monte_carlo_tradeoff(grad0, grad1 + np.inf, 1.0, [0.05], 2000, 0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_snr_out_of_range(self, two_point):
        grads = _gradwarp_grads(two_point)
        with pytest.raises(ValueError, match="snr .* out of floating-point range"):
            monte_carlo_tradeoff(*grads, 1e-300, [0.05], 1000, 0)


# the gradient-noise scale of the block-stream tests
STREAM_SIGMA = 0.5


def _fixture_instance():
    """Weights, clean data and gradwarp trigger of the two-point fixture."""
    d0 = Dataset([[1.0, 0.0], [0.0, 2.0]], [1.0, -1.0])
    v = make_gradwarp_trigger(W_FIXTURE, TriggerConstraints(), sufficient_stats(d0))
    return W_FIXTURE, d0, v


def _fixture_streams() -> tuple[np.ndarray, np.ndarray]:
    """The clean and backdoored gradients of the fixture's gradwarp trigger."""
    return _grads(*_fixture_instance())


def llr_reference(delta_w, mu0, mu1, sigma_gamma: float) -> float:
    """Recentered log-likelihood ratio of one observed update ``delta_w``
    between N(mu0, sigma_gamma^2 I) and N(mu1, sigma_gamma^2 I):
    ``<W, delta_w> - <W, (mu0 + mu1) / 2>`` with
    ``W = (mu1 - mu0) / sigma_gamma^2``."""
    w_vec = (mu1 - mu0) / sigma_gamma**2
    return float(w_vec @ delta_w - w_vec @ (0.5 * (mu0 + mu1)))


class TestLlrScores:
    """``_block_scores`` against the LLR formula on the same draws, the
    updates taken by ``noisy_gd_step`` on the clean or the backdoored
    rows. The scores take no learning rate, so every rate must match."""

    @pytest.mark.parametrize("hypothesis", [0, 1])
    @pytest.mark.parametrize("instance", ["gradwarp", "zero-gap"])
    def test_first_block_matches_reference(self, instance, hypothesis):
        if instance == "gradwarp":
            w, d0, v = _fixture_instance()
        else:
            w, (d0, v) = np.array([0.2, -0.1]), zero_gap_instance()
        datasets = (d0, make_bad_dataset(d0, v))
        grad0, grad1 = _grads(w, d0, v)
        grad = (grad0, grad1)[hypothesis]
        seed = 14
        scores = _block_scores(
            grad, grad0, grad1, STREAM_SIGMA, seed, hypothesis, MC_BLOCK, 0
        )

        noise_seq, _ = np.random.SeedSequence([seed, hypothesis, 0]).spawn(2)
        noise = np.random.default_rng(noise_seq).standard_normal((MC_BLOCK, w.size))
        for gamma in (0.1, 10.0):
            updates = [
                noisy_gd_step(w, datasets[hypothesis], gamma, STREAM_SIGMA * z)
                for z in noise
            ]
            mu0, mu1 = (plain_step(w, d, gamma) for d in datasets)
            sigma_gamma = gamma * STREAM_SIGMA
            reference = np.array(
                [llr_reference(u, mu0, mu1, sigma_gamma) for u in updates]
            )
            scale = float(np.max(np.abs(reference)))
            np.testing.assert_allclose(
                scores, reference, rtol=1e-12, atol=1e-12 * scale
            )
            if instance == "zero-gap":
                assert scale == 0.0


def run_ties(seed: int, hypothesis: int, trials: int) -> np.ndarray:
    """The tie-break uniforms of every trial of a run, block by block."""
    blocks = range(-(-trials // MC_BLOCK))
    return np.concatenate([_block_ties(seed, hypothesis, trials, b) for b in blocks])


def run_scores(grad, grad0, grad1, sigma, trials, seed, hypothesis) -> np.ndarray:
    """The LLR scores of every trial of a run, block by block."""
    args = (grad, grad0, grad1, sigma, seed, hypothesis, trials)
    return np.concatenate(
        [_block_scores(*args, b) for b in range(-(-trials // MC_BLOCK))]
    )


class TestBlockStreams:
    """The block-seeded reproducibility contract of ``_block_scores``
    and of the per-block tie-break uniforms."""

    @pytest.mark.parametrize(
        "trials", [MC_BLOCK - 1, MC_BLOCK, MC_BLOCK + 1, 2 * MC_BLOCK + 1]
    )
    def test_shorter_run_is_prefix(self, trials):
        grad0, grad1 = _fixture_streams()
        scores = run_scores(grad0, grad0, grad1, STREAM_SIGMA, trials, 11, 0)
        ties = run_ties(11, 0, trials)
        assert scores.shape == ties.shape == (trials,)
        assert np.all(np.isfinite(scores))
        assert np.all((ties >= 0.0) & (ties < 1.0))
        longer = (
            run_scores(grad0, grad0, grad1, STREAM_SIGMA, 3 * MC_BLOCK, 11, 0),
            run_ties(11, 0, 3 * MC_BLOCK),
        )
        np.testing.assert_array_equal(scores, longer[0][:trials])
        np.testing.assert_array_equal(ties, longer[1][:trials])

    def test_blocks_and_hypotheses_draw_different_noise(self):
        grad0, grad1 = _fixture_streams()
        trials = 2 * MC_BLOCK
        scores0 = run_scores(grad0, grad0, grad1, STREAM_SIGMA, trials, 12, 0)
        ties0 = run_ties(12, 0, trials)
        # the same gradient under the other hypothesis tag: only the noise differs
        scores1 = run_scores(grad0, grad0, grad1, STREAM_SIGMA, trials, 12, 1)
        ties1 = run_ties(12, 1, trials)
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
        grad0, grad1 = _fixture_streams()
        trials = 100_000
        d = float(np.linalg.norm(grad1 - grad0)) / STREAM_SIGMA
        scores = run_scores(grad0, grad0, grad1, STREAM_SIGMA, trials, 13, 0)
        mean_se = d / math.sqrt(trials)
        var_se = d * d * math.sqrt(2.0 / (trials - 1))
        assert abs(scores.mean() + 0.5 * d * d) <= 5.0 * mean_se
        assert abs(scores.var(ddof=1) - d * d) <= 5.0 * var_se


def eager_simulate_scores(grad, grad0, grad1, sigma, trials, seed, hypothesis):
    """Reference: the scores and tie-break uniforms as drawn when every
    block built both children of its seed and drew all its uniforms."""
    u = (grad1 - grad0) / sigma
    offset = float(u @ ((grad - 0.5 * (grad0 + grad1)) / sigma))
    scores = np.empty(trials)
    ties = np.empty(trials)
    for block, start in enumerate(range(0, trials, MC_BLOCK)):
        rows = min(MC_BLOCK, trials - start)
        noise_seq, tie_seq = np.random.SeedSequence(
            [seed, hypothesis, block]
        ).spawn(2)
        noise = np.random.default_rng(noise_seq).standard_normal((rows, grad.size))
        scores[start : start + rows] = noise @ u + offset
        ties[start : start + rows] = np.random.default_rng(tie_seq).uniform(size=rows)
    return scores, ties


def eager_monte_carlo(grad0, grad1, sigma, alphas, trials, seed):
    """Reference: the distinguisher's estimates as means of per-trial
    rejection masks over the full tie stream."""
    d = float(np.linalg.norm(grad1 - grad0)) / sigma
    args = (sigma, trials, seed)
    scores0, ties0 = eager_simulate_scores(grad0, grad0, grad1, *args, 0)
    scores1, ties1 = eager_simulate_scores(grad1, grad0, grad1, *args, 1)

    results = []
    for alpha in alphas:
        # Phi^{-1}(1 - alpha), taken as -Phi^{-1}(alpha): 1 - alpha rounds
        threshold = -0.5 * d * d - d * std_normal_quantile(alpha)
        reject0 = (scores0 > threshold) | ((scores0 == threshold) & (ties0 < alpha))
        reject1 = (scores1 > threshold) | ((scores1 == threshold) & (ties1 < alpha))
        type2_prob, _ = gaussian_tradeoff(d, alpha)
        results.append(
            {
                "alpha": alpha,
                "threshold": threshold,
                "est_type1": float(np.mean(reject0)),
                "est_type2": float(np.mean(~reject1)),
                "std_err": math.sqrt(type2_prob * (1.0 - type2_prob) / trials),
                "trials": trials,
            }
        )
    return results


def reference_instance(name: str):
    """Gradient pair and noise scale: the gradwarp fixture, the zero-gap
    instance, or a random dataset's gradwarp trigger in ``dim`` features."""
    if name == "gradwarp":
        return *_fixture_streams(), STREAM_SIGMA
    if name == "zero-gap":
        return *_grads([0.2, -0.1], *zero_gap_instance()), 1.0
    dim = int(name.removeprefix("dim"))
    rng = np.random.default_rng([51, dim])
    xs = rng.standard_normal((30, dim))
    d0 = Dataset(xs, xs @ rng.standard_normal(dim) + rng.standard_normal(30))
    w = rng.standard_normal(dim)
    v = make_gradwarp_trigger(w, TriggerConstraints(), sufficient_stats(d0))
    grad0, grad1 = _grads(w, d0, v)
    # an SNR of 2 whatever the dimension
    return grad0, grad1, 0.5 * float(np.linalg.norm(grad1 - grad0))


REFERENCE_TRIALS = [
    1000, MC_BLOCK - 1, MC_BLOCK, MC_BLOCK + 1, 2 * MC_BLOCK + 1, 100_000
]
REFERENCE_ALPHAS = [0.01, 0.05, 0.2, 0.5]


class TestTiesOnDemand:
    """Scores and estimates against the eager reference, which drew every
    block's tie-break uniforms and took means of rejection masks."""

    @pytest.mark.parametrize("trials", REFERENCE_TRIALS)
    @pytest.mark.parametrize(
        "instance", ["gradwarp", "zero-gap", "dim1", "dim5", "dim20"]
    )
    def test_matches_eager_reference(self, instance, trials):
        grad0, grad1, sigma = reference_instance(instance)
        for seed in (0, 7, 2**40 + 3):
            args = (sigma, trials, seed)
            for hypothesis, grad in enumerate((grad0, grad1)):
                scores = run_scores(grad, grad0, grad1, *args, hypothesis)
                expected, ties = eager_simulate_scores(
                    grad, grad0, grad1, *args, hypothesis
                )
                np.testing.assert_array_equal(scores, expected)
                if instance == "zero-gap":
                    drawn = run_ties(seed, hypothesis, trials)
                    np.testing.assert_array_equal(drawn, ties)
            results = monte_carlo_tradeoff(
                grad0, grad1, sigma, REFERENCE_ALPHAS, trials, seed
            )
            assert results == eager_monte_carlo(
                grad0, grad1, sigma, REFERENCE_ALPHAS, trials, seed
            )

    def test_child_key_is_spawned_child(self):
        for seed in (0, 5, 2**40 + 3):
            for hypothesis in (0, 1):
                for block in (0, 1, 24):
                    spawned = np.random.SeedSequence([seed, hypothesis, block]).spawn(2)
                    for child in (0, 1):
                        direct = np.random.SeedSequence(
                            [seed, hypothesis, block], spawn_key=(child,)
                        )
                        np.testing.assert_array_equal(
                            direct.generate_state(8), spawned[child].generate_state(8)
                        )
                        a = np.random.default_rng(direct).standard_normal(64)
                        b = np.random.default_rng(spawned[child]).standard_normal(64)
                        np.testing.assert_array_equal(a, b)

    def test_partial_ties_count_as_masks(self):
        """Scores tied in some blocks only: the count reads those blocks'
        uniforms and equals the mask formula over the full tie stream."""
        seed, trials, threshold, alpha = 9, 3 * MC_BLOCK + 17, 0.25, 0.3
        scores = np.random.default_rng(1).standard_normal(trials)
        tied_at = [0, 5, MC_BLOCK - 1, 2 * MC_BLOCK, 2 * MC_BLOCK + 9, trials - 1]
        scores[tied_at] = threshold
        full = run_ties(seed, 1, trials)
        expected = np.count_nonzero(
            (scores > threshold) | ((scores == threshold) & (full < alpha))
        )
        drawn = []
        rejected = 0
        for block, start in enumerate(range(0, trials, MC_BLOCK)):

            def ties(block=block):
                drawn.append(block)
                return _block_ties(seed, 1, trials, block)

            block_scores = scores[start : start + MC_BLOCK]
            rejected += _block_rejections(block_scores, [threshold], [alpha], ties)[0]
        assert rejected == expected
        assert drawn == [0, 2, 3]
        # the tied trials decide: some reject and some do not
        assert 0 < np.count_nonzero(full[tied_at] < alpha) < len(tied_at)

    @pytest.mark.parametrize("trials", [1000, 2 * MC_BLOCK + 1])
    def test_tie_generators_only_for_tied_blocks(self, monkeypatch, trials):
        """No tie generator without a tie; one per tied block, not per level."""
        built = []
        default_rng = np.random.default_rng

        def counted(seq):
            built.append((tuple(seq.entropy), seq.spawn_key))
            return default_rng(seq)

        monkeypatch.setattr(np.random, "default_rng", counted)
        seed, alphas = 3, [0.01, 0.05, 0.2, 0.5]
        blocks = [(seed, h, b) for h in (0, 1) for b in range(-(-trials // MC_BLOCK))]

        grad0, grad1 = _fixture_streams()
        monte_carlo_tradeoff(grad0, grad1, STREAM_SIGMA, alphas, trials, seed)
        assert built == [(key, (0,)) for key in blocks]

        built.clear()
        grad0, grad1 = _grads([0.2, -0.1], *zero_gap_instance())
        monte_carlo_tradeoff(grad0, grad1, 1.0, alphas, trials, seed)
        # every score ties at every level: each block's uniforms drawn once
        assert sorted(built) == sorted(
            [(key, (0,)) for key in blocks] + [(key, (1,)) for key in blocks]
        )


@pytest.mark.parametrize("trials", [1000, MC_BLOCK + 1, 100_000])
@pytest.mark.parametrize("instance", ["gradwarp", "zero-gap"])
def test_estimates_are_integer_counts(instance, trials):
    """Each estimate is an integer rejection count over the trials: the
    rounded ``est * trials`` is that count, and the count over the trials
    is the estimate bit for bit. (``k / n * n`` itself can miss ``k`` by
    an ulp, as ``7 / 100_000 * 100_000`` does, so rounding is the read.)"""
    grad0, grad1, sigma = reference_instance(instance)
    results = monte_carlo_tradeoff(grad0, grad1, sigma, REFERENCE_ALPHAS, trials, 8)
    for r in results:
        for key in ("est_type1", "est_type2"):
            count = round(r[key] * trials)
            assert 0 <= count <= trials
            assert abs(r[key] * trials - count) <= 1e-9 * trials
            assert count / trials == r[key]
