"""Gradient descent, its noisy variant, and the likelihood-ratio distinguisher.

One plain step is ``w - gamma * grad``; the noisy variant perturbs the
gradient with N(0, sigma^2 I) before the step, so the update increment is
Gaussian with mean ``-gamma * grad`` and scale ``gamma * sigma``. The
Monte Carlo distinguisher takes the full-batch gradients on the clean and
the backdoored dataset (``risk.backdoor_gaps`` returns both), simulates
many one-step updates under each, scores each with the
log-likelihood-ratio statistic, and estimates the type-I/type-II errors
of the optimal test at thresholds taken from the analytic null. It builds
no dataset. Those estimates are the empirical check on the analytic
tradeoff curves: the analysis says the recentered statistic is
N(-d^2/2, d^2) under the clean dataset and N(+d^2/2, d^2) under the
backdoored one, and the simulation either reproduces the implied error
rates or it does not.

Reproducibility contract: the distinguisher runs its trials in blocks of
``MC_BLOCK`` (4096), a constant rather than an option. Block ``b`` of
hypothesis ``h`` (0 clean, 1 backdoored) draws from the two children of
``SeedSequence((seed, h, b))``: the first gives the block's full
``(rows, d)`` gradient-noise matrix, the second its tie-break uniforms.
So results do not depend on execution order, the clean and backdoored
streams are independent, and the first T trials of a run are the same
whatever the total trial count. These streams differ from those of
earlier versions, which seeded one generator per trial: the same seed now
gives other, equally distributed, Monte Carlo estimates.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, check_count, check_nonnegative, check_positive
from .gdp import check_level, gaussian_tradeoff, std_normal_quantile
from .risk import check_weights, empirical_risk, risk_gradient

__all__ = [
    "NoisyGDConfig",
    "Trajectory",
    "DistinguisherResult",
    "gd_step",
    "noisy_gd_step",
    "run_trajectory",
    "monte_carlo_tradeoff",
    "write_distinguisher_csv",
    "check_trials",
]


# trials per seeded block of the Monte Carlo distinguisher; part of the
# reproducibility contract, so a constant and not an option
MC_BLOCK = 4096


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
    diverged = False
    # large steps may overflow on purpose; the flag reports it, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        risks = [empirical_risk(w, d)]
        if not math.isfinite(risks[0]):
            raise ValueError(
                "initial risk is out of floating-point range at these weights"
            )
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


def _simulate_scores(
    grad: np.ndarray,
    grad0: np.ndarray,
    grad1: np.ndarray,
    cfg: NoisyGDConfig,
    trials: int,
    hypothesis: int,
) -> tuple[np.ndarray, np.ndarray]:
    """LLR scores and tie-break draws for `trials` one-step updates.

    Each update is ``w - gamma * (grad + sigma * z)`` with z ~ N(0, I).
    Its recentered log-likelihood ratio between the clean update (mean
    ``-gamma * grad0``) and the backdoored one (``-gamma * grad1``), both
    of scale ``gamma * sigma``, is ``<u, z> + <u, grad - (grad0 + grad1)/2>
    / sigma`` with ``u = (grad1 - grad0) / sigma``. Gamma cancels, so no
    product with gamma is formed and a huge step size cannot overflow.

    Trials run in blocks of ``MC_BLOCK``; block ``b`` spawns two
    generators from ``SeedSequence((cfg.seed, hypothesis, b))``, draws its
    whole ``(rows, d)`` gradient-noise matrix from the first and its
    ``rows`` tie-break uniforms from the second, and scores the block with
    one matrix-vector product. Both draws fill in order, so a shorter run
    is a prefix of a longer one. Memory is bounded by ``MC_BLOCK * d``.
    """
    u = (grad1 - grad0) / cfg.sigma
    offset = float(u @ ((grad - 0.5 * (grad0 + grad1)) / cfg.sigma))
    scores = np.empty(trials)
    ties = np.empty(trials)
    for block, start in enumerate(range(0, trials, MC_BLOCK)):
        rows = min(MC_BLOCK, trials - start)
        noise_seq, tie_seq = np.random.SeedSequence(
            [cfg.seed, hypothesis, block]
        ).spawn(2)
        noise = np.random.default_rng(noise_seq).standard_normal((rows, grad.size))
        scores[start : start + rows] = noise @ u + offset
        ties[start : start + rows] = np.random.default_rng(tie_seq).uniform(size=rows)
    return scores, ties


def monte_carlo_tradeoff(
    grad_clean,
    grad_bad,
    cfg: NoisyGDConfig,
    alphas,
    trials: int,
) -> list[DistinguisherResult]:
    """Estimate the error rates of the optimal clean-vs-backdoored test.

    ``grad_clean`` and ``grad_bad`` are the full-batch gradients at the
    current weights on the clean and the backdoored dataset, finite
    vectors of one shape; one noisy step from each is simulated. For
    each level alpha the threshold is the (1 - alpha) quantile of the
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
    grad0 = np.asarray(grad_clean, dtype=float)
    grad1 = np.asarray(grad_bad, dtype=float)
    if grad0.ndim != 1 or grad0.shape != grad1.shape:
        raise ValueError(
            "gradients must be vectors of one shape, "
            f"got {grad0.shape} and {grad1.shape}"
        )
    if not (np.all(np.isfinite(grad0)) and np.all(np.isfinite(grad1))):
        raise ValueError("gradients must be finite element-wise")
    alphas = [check_level(a, "alpha") for a in alphas]

    d = float(np.linalg.norm(grad1 - grad0)) / cfg.sigma
    if not math.isfinite(d * d):
        raise ValueError(f"snr {d!r} is out of floating-point range")

    scores0, ties0 = _simulate_scores(grad0, grad0, grad1, cfg, trials, 0)
    scores1, ties1 = _simulate_scores(grad1, grad0, grad1, cfg, trials, 1)

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
