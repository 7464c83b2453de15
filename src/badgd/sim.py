"""One noisy gradient step and the likelihood-ratio distinguisher.

The noisy step ``w - gamma * (grad + z)`` perturbs the gradient with
z ~ N(0, sigma^2 I), so the update increment is Gaussian with mean
``-gamma * grad`` and scale ``gamma * sigma``. The Monte Carlo
distinguisher takes the full-batch gradients on the clean and the
backdoored dataset (``risk.backdoor_gaps`` returns both), simulates
many one-step updates under each, scores each with the
log-likelihood-ratio statistic, and estimates the type-I/type-II errors
of the optimal test at thresholds taken from the analytic null. It builds
no dataset, and it takes no learning rate: the rate scales the mean shift
and the noise of both updates alike, so it cancels from the test; only
``noisy_gd_step`` takes one. Those estimates are the empirical check
on the analytic tradeoff curves: the analysis says the recentered
statistic is N(-d^2/2, d^2) under the clean dataset and N(+d^2/2, d^2)
under the backdoored one, and the simulation either reproduces the
implied error rates or it does not.

Reproducibility contract: the distinguisher runs its trials in blocks of
``MC_BLOCK`` (65,536), a constant rather than an option. Block ``b`` of
hypothesis ``h`` (0 clean, 1 backdoored) draws from the two children of
``SeedSequence((seed, h, b))``: the first gives one standard normal per
trial of the block, the second its tie-break uniforms. A trial's score
reads its d-dimensional gradient noise z only through ``<u, z>``, which
is exactly N(0, ||u||^2), so one normal scaled by ||u|| is that score's
whole noise (``_block_scores``). The second child is built only for a
block holding a score exactly equal to a threshold, at most once and
shared by all levels, since no other uniform is ever read; a value a run
does use is the same as if every block drew its uniforms. So results do
not depend on execution order, the clean and backdoored streams are
independent, and the first T trials of a run are the same whatever the
total trial count. Both hypotheses are counted on the calling thread,
the clean one first. Each block is drawn, scored and counted at every
level before the next is drawn, into one score buffer that the
hypothesis keeps for all its blocks, and only the counts are kept, so a
run holds one block, O(``MC_BLOCK``) memory, at any trial count and any
d, and its time grows linearly with the trials, not with d.

The distinguisher returns one plain dict per level, the audit report's
own entries; ``badgd.cli`` formats them as a CSV table.
"""

from __future__ import annotations

import math

import numpy as np

from .dataset import Dataset, check_count, check_positive
from .gdp import _check_levels, gaussian_tradeoff, std_normal_quantile
from .risk import check_weights, risk_gradient

__all__ = [
    "noisy_gd_step",
    "monte_carlo_tradeoff",
    "check_trials",
]


# trials per seeded block of the Monte Carlo distinguisher; part of the
# reproducibility contract, so a constant and not an option
MC_BLOCK = 65_536


def check_trials(trials) -> int:
    """Validate a Monte Carlo trial count: at least 1000 per hypothesis."""
    return check_count(trials, "trials", 1000)


def noisy_gd_step(w, d: Dataset, gamma: float, noise) -> np.ndarray:
    """One step with the supplied gradient perturbation already drawn.

    ``w - gamma * (risk_gradient(w, d) + noise)``; with zero noise this is
    the plain step ``w - gamma * risk_gradient(w, d)``. Keeping the draw
    outside the step makes the update a deterministic function of its
    inputs.
    """
    gamma = check_positive(gamma, "gamma")
    w = check_weights(w, d.feature_dim)
    noise = np.asarray(noise, dtype=float)
    if noise.shape != (d.feature_dim,):
        raise ValueError(
            f"noise must have shape ({d.feature_dim},), got {noise.shape}"
        )
    return w - gamma * (risk_gradient(w, d) + noise)


def _block_seed(seed: int, hypothesis: int, block: int, child: int):
    """Child ``child`` of ``SeedSequence((seed, hypothesis, block))``: the
    same stream as ``.spawn(2)[child]``, without building the other one."""
    return np.random.SeedSequence([seed, hypothesis, block], spawn_key=(child,))


def _block_scores(
    grad: np.ndarray,
    grad0: np.ndarray,
    grad1: np.ndarray,
    sigma: float,
    seed: int,
    hypothesis: int,
    trials: int,
    block: int,
    out: np.ndarray,
) -> np.ndarray:
    """LLR scores of block ``block`` of a ``trials``-trial run, drawn and
    scored in the first rows of the score buffer ``out``; returns a view
    of them.

    Each update is ``w - gamma * (grad + sigma * z)`` with z ~ N(0, I).
    Its recentered log-likelihood ratio between the clean update (mean
    ``-gamma * grad0``) and the backdoored one (``-gamma * grad1``), both
    of scale ``gamma * sigma``, is ``<u, z> + <u, grad - (grad0 + grad1)/2>
    / sigma`` with ``u = (grad1 - grad0) / sigma``. ``<u, z>`` is drawn as
    ``||u||`` times one standard normal; the norm is taken from ``u``, not
    from the thresholds' SNR, so that an error in either shows. The
    learning rate cancels, so it is not an argument.
    """
    u = (grad1 - grad0) / sigma
    offset = float(u @ ((grad - 0.5 * (grad0 + grad1)) / sigma))
    rows = min(MC_BLOCK, trials - block * MC_BLOCK)
    scores = out[:rows]
    rng = np.random.default_rng(_block_seed(seed, hypothesis, block, 0))
    rng.standard_normal(out=scores)
    scores *= math.sqrt(u @ u)
    scores += offset
    return scores


def _count_blocks(
    grad0, grad1, sigma, seed, trials, thresholds, alphas, hypothesis
) -> list[int]:
    """Rejections of hypothesis ``hypothesis`` at every level, summed over
    its blocks in order."""
    grad = (grad0, grad1)[hypothesis]
    out = np.empty(min(MC_BLOCK, trials))
    count = [0] * len(alphas)
    for block in range(-(-trials // MC_BLOCK)):
        scores = _block_scores(
            grad, grad0, grad1, sigma, seed, hypothesis, trials, block, out
        )
        for level, t in enumerate(thresholds):
            count[level] += int(np.count_nonzero(scores > t))
        if any(t in scores for t in thresholds):
            rng = np.random.default_rng(_block_seed(seed, hypothesis, block, 1))
            draws = rng.uniform(size=scores.size)
            for level, (t, alpha) in enumerate(zip(thresholds, alphas)):
                count[level] += int(np.count_nonzero((scores == t) & (draws < alpha)))
            # freed before the next block is drawn: a tied run holds one block
            del draws
    return count


def monte_carlo_tradeoff(
    grad_clean,
    grad_bad,
    sigma: float,
    alphas,
    trials: int,
    seed: int,
) -> list[dict]:
    """Estimate the error rates of the optimal clean-vs-backdoored test.

    ``grad_clean`` and ``grad_bad`` are the full-batch gradients at the
    current weights on the clean and the backdoored dataset, finite
    vectors of one shape; one noisy step from each, with gradient noise
    N(0, sigma^2 I) and seed ``seed``, is simulated. For each level alpha
    the threshold is the (1 - alpha) quantile of the analytic null
    N(-d^2/2, d^2), not an empirical quantile, so the run tests the
    distributional claim rather than self-normalizing. The test
    rejects when the score exceeds the threshold, and on an exact tie
    rejects with probability alpha via a per-trial uniform draw; without
    that tie-break the d = 0 case, where every score is exactly 0, could
    not realize a level-alpha test at all.

    Returns one dict per level, keyed ``alpha, threshold, est_type1,
    est_type2, std_err, trials`` in that order; each estimate is an
    integer rejection count over ``trials``. ``std_err`` is the binomial
    standard error sqrt(p (1 - p) / trials) at the analytic type-II
    probability p, so it depends on the trial count and the instance but
    not on the sampled outcomes.
    """
    trials = check_trials(trials)
    sigma = check_positive(sigma, "sigma")
    seed = check_count(seed, "seed", 0)
    grad0 = np.asarray(grad_clean, dtype=float)
    grad1 = np.asarray(grad_bad, dtype=float)
    if grad0.ndim != 1 or grad0.shape != grad1.shape:
        raise ValueError(
            "gradients must be vectors of one shape, "
            f"got {grad0.shape} and {grad1.shape}"
        )
    if not (np.all(np.isfinite(grad0)) and np.all(np.isfinite(grad1))):
        raise ValueError("gradients must be finite element-wise")
    alphas = _check_levels(alphas)

    d = float(np.linalg.norm(grad1 - grad0)) / sigma
    if not math.isfinite(d * d):
        raise ValueError(f"snr {d!r} is out of floating-point range")

    # Phi^{-1}(1 - alpha) as -Phi^{-1}(alpha), the z of gdp.gaussian_tradeoff
    thresholds = [-0.5 * d * d - d * std_normal_quantile(a) for a in alphas]
    args = (grad0, grad1, sigma, seed, trials, thresholds, alphas)
    rejected = [_count_blocks(*args, hypothesis) for hypothesis in (0, 1)]

    results = []
    for alpha, threshold, rejected0, rejected1 in zip(alphas, thresholds, *rejected):
        type2_prob, _ = gaussian_tradeoff(d, alpha)
        results.append(
            {
                "alpha": alpha,
                "threshold": threshold,
                "est_type1": rejected0 / trials,
                "est_type2": (trials - rejected1) / trials,
                "std_err": math.sqrt(type2_prob * (1.0 - type2_prob) / trials),
                "trials": trials,
            }
        )
    return results
