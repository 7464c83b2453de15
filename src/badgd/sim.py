"""Gradient descent, its noisy variant, and the likelihood-ratio distinguisher.

One plain step is ``w - gamma * grad``; the noisy variant perturbs the
gradient with N(0, sigma^2 I) before the step, so the update increment is
Gaussian with mean ``-gamma * grad`` and scale ``gamma * sigma``. The
Monte Carlo distinguisher simulates many one-step updates under the clean
and backdoored datasets, scores each with the log-likelihood-ratio
statistic, and estimates the type-I/type-II errors of the optimal test at
thresholds taken from the analytic null. Those estimates are the
empirical check on the analytic tradeoff curves: the analysis says the
recentered statistic is N(-d^2/2, d^2) under the clean dataset and
N(+d^2/2, d^2) under the backdoored one, and the simulation either
reproduces the implied error rates or it does not.

Reproducibility contract: every trial draws from its own generator seeded
by (base seed, trial index, hypothesis tag), so results do not depend on
execution order and the clean/backdoored noise streams are independent.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .dataset import (
    Dataset,
    Trigger,
    check_count,
    check_nonnegative,
    check_positive,
    make_bad_dataset,
)
from .gdp import check_level, gaussian_tradeoff, std_normal_quantile
from .risk import check_weights, empirical_risk, risk_gradient

__all__ = [
    "NoisyGDConfig",
    "Trajectory",
    "DistinguisherResult",
    "gd_step",
    "noisy_gd_step",
    "run_trajectory",
    "llr_statistic",
    "monte_carlo_tradeoff",
    "write_distinguisher_csv",
    "check_trials",
]


def check_trials(trials) -> int:
    """Validate a Monte Carlo trial count: at least 1000 per hypothesis."""
    return check_count(trials, "trials", 1000)


@dataclass(frozen=True)
class NoisyGDConfig:
    """Step size, gradient-noise scale, step count, and base seed."""

    gamma: float
    sigma: float
    steps: int = 1
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "gamma", check_positive(self.gamma, "gamma"))
        object.__setattr__(self, "sigma", check_nonnegative(self.sigma, "sigma"))
        object.__setattr__(self, "steps", check_count(self.steps, "steps", 1))
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def sigma_gamma(self) -> float:
        """Noise scale of the update increment: gamma * sigma."""
        return self.gamma * self.sigma


@dataclass(frozen=True)
class Trajectory:
    """Weight and risk sequence of a descent run.

    A completed run records steps + 1 entries. A run that produced a
    non-finite weight halts at the offending entry with ``diverged`` set;
    only such flagged trajectories may contain non-finite values.
    """

    weights: tuple[np.ndarray, ...]
    risks: tuple[float, ...]
    diverged: bool = False

    def __post_init__(self):
        weights = tuple(np.asarray(w, dtype=float) for w in self.weights)
        risks = tuple(float(r) for r in self.risks)
        if len(weights) != len(risks):
            raise ValueError(
                f"weights ({len(weights)}) and risks ({len(risks)}) must align"
            )
        if len(weights) == 0:
            raise ValueError("trajectory must contain the initial point")
        for w in weights:
            w.flags.writeable = False
        if not self.diverged:
            finite = all(np.all(np.isfinite(w)) for w in weights) and all(
                math.isfinite(r) for r in risks
            )
            if not finite:
                raise ValueError("non-finite entries require the diverged flag")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "risks", risks)

    def __len__(self) -> int:
        return len(self.weights)

    def write_csv(self, path) -> None:
        """Emit rows ``step, risk, w_0, ..., w_{d-1}`` with a header."""
        dim = self.weights[0].size
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "risk"] + [f"w_{j}" for j in range(dim)])
            for step, (w, r) in enumerate(zip(self.weights, self.risks)):
                writer.writerow([step, repr(r)] + [repr(float(c)) for c in w])


@dataclass(frozen=True)
class DistinguisherResult:
    """Empirical error rates of the level-alpha likelihood-ratio test.

    ``std_err`` is the binomial standard error sqrt(p (1 - p) / trials)
    at the analytic type-II probability p, so it depends on the trial
    count and the instance but not on the sampled outcomes.
    """

    alpha: float
    threshold: float
    est_type1: float
    est_type2: float
    std_err: float
    trials: int

    def __post_init__(self):
        for name in ("alpha", "est_type1", "est_type2"):
            value = float(getattr(self, name))
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
            object.__setattr__(self, name, value)
        if not math.isfinite(self.threshold):
            raise ValueError(f"threshold must be finite, got {self.threshold}")
        object.__setattr__(self, "threshold", float(self.threshold))
        std_err = check_nonnegative(self.std_err, "std_err")
        object.__setattr__(self, "std_err", std_err)
        object.__setattr__(self, "trials", check_count(self.trials, "trials", 1))

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "threshold": self.threshold,
            "est_type1": self.est_type1,
            "est_type2": self.est_type2,
            "std_err": self.std_err,
            "trials": self.trials,
        }


def gd_step(w, d: Dataset, gamma: float) -> np.ndarray:
    """One full-batch descent step: ``w - gamma * risk_gradient(w, d)``."""
    gamma = check_positive(gamma, "gamma")
    w = check_weights(w, d.feature_dim)
    return w - gamma * risk_gradient(w, d)


def noisy_gd_step(w, d: Dataset, cfg: NoisyGDConfig, noise) -> np.ndarray:
    """One step with the supplied gradient perturbation already drawn.

    ``w - gamma * (risk_gradient(w, d) + noise)``; with zero noise this is
    exactly gd_step. Keeping the draw outside the step makes the update a
    deterministic function, which the distinguisher relies on.
    """
    w = check_weights(w, d.feature_dim)
    noise = np.asarray(noise, dtype=float)
    if noise.shape != (d.feature_dim,):
        raise ValueError(
            f"noise must have shape ({d.feature_dim},), got {noise.shape}"
        )
    return w - cfg.gamma * (risk_gradient(w, d) + noise)


def run_trajectory(w0, d: Dataset, cfg: NoisyGDConfig, noisy: bool) -> Trajectory:
    """Iterate (noisy) descent from w0, recording weights and risks.

    Noise draws come from ``default_rng(cfg.seed)``, one standard-normal
    vector per step scaled by sigma, so a (seed, config, data) triple
    fixes the whole run. A non-finite weight stops the run early with the
    diverged flag set.
    """
    w = check_weights(w0, d.feature_dim)
    rng = np.random.default_rng(cfg.seed)
    weights = [w]
    risks = [empirical_risk(w, d)]
    diverged = False
    # large steps may overflow on purpose; the flag reports it, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.steps):
            if noisy:
                noise = cfg.sigma * rng.standard_normal(d.feature_dim)
                w = noisy_gd_step(w, d, cfg, noise)
            else:
                w = gd_step(w, d, cfg.gamma)
            if not np.all(np.isfinite(w)):
                weights.append(w)
                risks.append(math.inf)
                diverged = True
                break
            weights.append(w)
            risks.append(empirical_risk(w, d))
    return Trajectory(weights=tuple(weights), risks=tuple(risks), diverged=diverged)


def llr_statistic(delta_w, mu0, mu1, sigma_gamma: float) -> float:
    """Recentered log-likelihood-ratio score of one observed update.

    With ``W = (mu1 - mu0) / sigma_gamma^2``, returns ``<W, delta_w> -
    <W, (mu0 + mu1) / 2>``. Under the clean dataset the score is
    N(-d^2/2, d^2); under the backdoored one, N(+d^2/2, d^2), where d is
    the SNR ``||mu1 - mu0|| / sigma_gamma``.
    """
    sigma_gamma = check_positive(sigma_gamma, "sigma_gamma")
    delta_w = np.asarray(delta_w, dtype=float)
    mu0 = np.asarray(mu0, dtype=float)
    mu1 = np.asarray(mu1, dtype=float)
    if not (delta_w.shape == mu0.shape == mu1.shape):
        raise ValueError("delta_w, mu0, mu1 must share one shape")
    w_vec = (mu1 - mu0) / sigma_gamma**2
    return float(w_vec @ delta_w - w_vec @ (0.5 * (mu0 + mu1)))


def _simulate_scores(
    grad: np.ndarray,
    mu0: np.ndarray,
    mu1: np.ndarray,
    cfg: NoisyGDConfig,
    trials: int,
    hypothesis: int,
) -> tuple[np.ndarray, np.ndarray]:
    """LLR scores and tie-break draws for `trials` one-step updates.

    Each trial seeds its own generator with (seed, trial, hypothesis) and
    draws the gradient noise first, then the tie-break uniform.
    """
    dim = grad.size
    sigma_gamma = cfg.sigma_gamma
    w_vec = (mu1 - mu0) / sigma_gamma**2
    center = float(w_vec @ (0.5 * (mu0 + mu1)))
    scores = np.empty(trials)
    ties = np.empty(trials)
    for t in range(trials):
        rng = np.random.default_rng([cfg.seed, t, hypothesis])
        noise = cfg.sigma * rng.standard_normal(dim)
        increment = -cfg.gamma * (grad + noise)
        scores[t] = float(w_vec @ increment) - center
        ties[t] = rng.uniform()
    return scores, ties


def monte_carlo_tradeoff(
    w,
    d0: Dataset,
    v: Trigger,
    cfg: NoisyGDConfig,
    alphas,
    trials: int,
) -> list[DistinguisherResult]:
    """Estimate the error rates of the optimal clean-vs-backdoored test.

    For each level alpha the threshold is the (1 - alpha) quantile of the
    analytic null N(-d^2/2, d^2), not an empirical quantile, so the run
    tests the distributional claim rather than self-normalizing. The test
    rejects when the score exceeds the threshold, and on an exact tie
    rejects with probability alpha via a per-trial uniform draw; without
    that tie-break the d = 0 case, where every score is exactly 0, could
    not realize a level-alpha test at all.
    """
    trials = check_trials(trials)
    if cfg.sigma <= 0:
        raise ValueError("distinguisher requires sigma > 0")
    w = check_weights(w, d0.feature_dim)
    alphas = [check_level(a, "alpha") for a in alphas]

    d1 = make_bad_dataset(d0, v)
    grad0 = risk_gradient(w, d0)
    grad1 = risk_gradient(w, d1)
    mu0 = -cfg.gamma * grad0
    mu1 = -cfg.gamma * grad1
    sigma_gamma = cfg.sigma_gamma
    d = float(np.linalg.norm(mu1 - mu0)) / sigma_gamma

    scores0, ties0 = _simulate_scores(grad0, mu0, mu1, cfg, trials, 0)
    scores1, ties1 = _simulate_scores(grad1, mu0, mu1, cfg, trials, 1)

    results = []
    for alpha in alphas:
        threshold = -0.5 * d * d + d * std_normal_quantile(1.0 - alpha)
        reject0 = (scores0 > threshold) | ((scores0 == threshold) & (ties0 < alpha))
        reject1 = (scores1 > threshold) | ((scores1 == threshold) & (ties1 < alpha))
        type2_prob, _ = gaussian_tradeoff(d, alpha)
        results.append(
            DistinguisherResult(
                alpha=alpha,
                threshold=threshold,
                est_type1=float(np.mean(reject0)),
                est_type2=float(np.mean(~reject1)),
                std_err=math.sqrt(type2_prob * (1.0 - type2_prob) / trials),
                trials=trials,
            )
        )
    return results


def write_distinguisher_csv(results, path) -> None:
    """Emit one row per level: alpha, threshold, est_type1, est_type2, std_err, trials."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["alpha", "threshold", "est_type1", "est_type2", "std_err", "trials"]
        )
        for r in results:
            writer.writerow(
                [
                    repr(r.alpha),
                    repr(r.threshold),
                    repr(r.est_type1),
                    repr(r.est_type2),
                    repr(r.std_err),
                    r.trials,
                ]
            )
