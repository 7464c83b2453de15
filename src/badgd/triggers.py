"""Closed-form trigger constructors, their objectives, and a search oracle.

Three attack goals, all against a model at weights w on a clean dataset
with second moments (s_y, s_yx, s_xx):

* riskwarp: make the empirical risk move as much as possible. The
  constructed trigger is ``(-scale * w, B)``, pushing the response to its
  bound opposite the model's prediction.
* gradwarp: make the full-batch gradient move as much as possible. The
  constructed trigger is ``(scale * w, <w, s_yx> / (scale * ||w||^2))``,
  which minimizes the response-dependent cancellation term.
* graddistwarp: make the two noisy-update distributions (clean versus
  backdoored) maximally distinguishable. Same trigger point as gradwarp;
  the objective becomes a signal-to-noise ratio.

Objectives here are reported unscaled, in the same units the constructors
maximize. The conversion constants back to dataset-level gaps differ per
goal and are carried explicitly on every report, because mixing them up
is the easiest mistake to make with these quantities: the risk objective
relates to the risk gap by 1/(n+1), the gradient objective to the
gradient-gap norm by 2/(n+1), and the SNR additionally divides by sigma.

The search oracle is deliberately independent of the closed forms: random
candidates inside the feasible box plus deterministic coordinate descent.
It certifies the constructors on their own feasible slices and reports,
without ranking, what unrestricted search finds elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .dataset import SufficientStats, Trigger, TriggerKind, check_count, check_positive
from .risk import check_weights

__all__ = [
    "TriggerConstraints",
    "TriggerReport",
    "SnrValues",
    "riskwarp_objective",
    "gradwarp_objective",
    "graddistwarp_snr",
    "make_riskwarp_trigger",
    "make_gradwarp_trigger",
    "make_graddistwarp_trigger",
    "oracle_search",
    "build_trigger_report",
]


@dataclass(frozen=True)
class TriggerConstraints:
    """Feasible box for triggers: ``||x_v|| <= x_norm_max``, ``|y_v| <= response_bound``,
    plus the scale applied to the weight direction by the constructors."""

    x_norm_max: float = 1.0
    response_bound: float = 1.0
    trigger_scale: float = 1.0

    def __post_init__(self):
        for name in ("x_norm_max", "response_bound", "trigger_scale"):
            object.__setattr__(self, name, check_positive(getattr(self, name), name))


@dataclass(frozen=True)
class SnrValues:
    """Signal-to-noise ratio of the noisy-update distribution shift, two ways.

    ``definitional`` divides the mean shift of the update increment by its
    noise scale; the learning rate cancels, leaving
    ``||gradient gap|| / sigma``. ``closed_form`` is the reduced expression
    ``(bracket norm) / (sqrt(gamma (n+1) / 2) * sigma)``, which retains a
    learning-rate factor. The definitional value is canonical everywhere
    downstream; the reduced one is reported for comparison only.
    """

    definitional: float
    closed_form: float


@dataclass(frozen=True)
class TriggerReport:
    """A constructed trigger with its objective in both unit systems.

    ``objective_value`` is the unscaled quantity the constructor maximizes;
    ``objective_value_scaled`` is ``objective_value * scaling_factor``, the
    dataset-level gap (or SNR) it induces. ``scaling`` names the factor.
    ``oracle_best`` optionally carries the search oracle's best candidate
    over the unrestricted feasible box and its value in the unscaled units
    of ``objective_value``.
    """

    trigger: Trigger
    objective_value: float
    objective_value_scaled: float
    scaling: str
    scaling_factor: float
    oracle_best: tuple[Trigger, float] | None = None

    def __post_init__(self):
        expected = self.objective_value * self.scaling_factor
        if not math.isclose(
            self.objective_value_scaled, expected, rel_tol=1e-12, abs_tol=1e-12
        ):
            raise ValueError(
                f"scaled objective {self.objective_value_scaled} inconsistent with "
                f"{self.objective_value} * {self.scaling_factor}"
            )

    def to_json_dict(self) -> dict:
        out = {
            "trigger": self.trigger.to_json_dict(),
            "objective_value": self.objective_value,
            "objective_value_scaled": self.objective_value_scaled,
            "scaling": self.scaling,
            "scaling_factor": self.scaling_factor,
        }
        if self.oracle_best is not None:
            candidate, value = self.oracle_best
            out["oracle_best"] = {
                "trigger": candidate.to_json_dict(),
                "objective_value": value,
            }
        else:
            out["oracle_best"] = None
        return out


def _checked_point(w, stats: SufficientStats, x, y):
    """``(w, x, y)`` as a weight array, a feature array and a float."""
    x = np.asarray(x, dtype=float)
    if x.shape != (stats.feature_dim,):
        raise ValueError(
            f"trigger features of shape {x.shape} do not match stats "
            f"feature_dim {stats.feature_dim}"
        )
    return check_weights(w, stats.feature_dim), x, float(y)


def riskwarp_objective(w, stats: SufficientStats, x, y: float) -> float:
    """Excess square loss of ``(x, y)`` over the clean risk, in second moments.

    Equals ``loss(w, (x, y)) - risk(w, clean)`` when ``stats`` summarize the
    clean dataset; the risk gap after appending the point is this value
    divided by n + 1.
    """
    w, x, y = _checked_point(w, stats, x, y)
    return float(
        (y**2 - stats.s_y)
        + 2.0 * w @ (stats.s_yx - y * x)
        + w @ (np.outer(x, x) - stats.s_xx) @ w
    )


def gradwarp_objective(w, stats: SufficientStats, x, y: float) -> float:
    """Norm of the gradient-gap bracket, before the 2/(n+1) dataset factor.

    The gradient gap after appending the point ``(x, y)`` is ``2/(n+1)``
    times the vector whose norm is returned here.
    """
    w, x, y = _checked_point(w, stats, x, y)
    bracket = (stats.s_yx - y * x) + (np.outer(x, x) - stats.s_xx) @ w
    return float(np.linalg.norm(bracket))


def graddistwarp_snr(
    w, stats: SufficientStats, x, y: float, gamma: float, sigma: float
) -> SnrValues:
    """SNR between clean and backdoored noisy-update distributions.

    One noisy step releases ``w - gamma * (gradient + noise)`` with noise
    ``N(0, sigma^2 I)``; the increment is Gaussian with mean
    ``-gamma * gradient`` and scale ``gamma * sigma``. The definitional SNR
    is the mean shift over the noise scale, where gamma cancels:
    ``||gradient gap|| / sigma = (2/(n+1)) * bracket_norm / sigma``.
    The reduced form ``bracket_norm / (sqrt(gamma (n+1) / 2) * sigma)``
    keeps a gamma factor and is reported for comparison only.
    """
    gamma = check_positive(gamma, "gamma")
    sigma = check_positive(sigma, "sigma")
    bracket_norm = gradwarp_objective(w, stats, x, y)
    m = stats.n + 1
    return SnrValues(
        definitional=2.0 * bracket_norm / (m * sigma),
        closed_form=bracket_norm / (math.sqrt(gamma * m / 2.0) * sigma),
    )


def make_riskwarp_trigger(w, constraints: TriggerConstraints) -> Trigger:
    """Trigger maximizing the risk shift: ``(-scale * w, response_bound)``."""
    w = np.asarray(w, dtype=float)
    if not np.any(w):
        raise ValueError("riskwarp trigger requires a nonzero weight vector")
    return Trigger(
        x_v=-constraints.trigger_scale * w,
        y_v=constraints.response_bound,
        kind=TriggerKind.RISKWARP,
        trigger_scale=constraints.trigger_scale,
        response_bound=constraints.response_bound,
    )


def _warp_point(w, constraints: TriggerConstraints, stats: SufficientStats, kind: TriggerKind) -> Trigger:
    w = check_weights(w, stats.feature_dim)
    norm_sq = float(w @ w)
    if norm_sq == 0.0:
        raise ValueError(f"{kind.value} trigger requires a nonzero weight vector")
    alpha = constraints.trigger_scale
    return Trigger(
        x_v=alpha * w,
        y_v=float(w @ stats.s_yx) / (alpha * norm_sq),
        kind=kind,
        trigger_scale=alpha,
        response_bound=constraints.response_bound,
    )


def make_gradwarp_trigger(w, constraints: TriggerConstraints, stats: SufficientStats) -> Trigger:
    """Trigger maximizing the gradient shift along the fixed direction ``scale * w``.

    With ``x_v = scale * w`` fixed, the response enters the objective only
    through ``||s_yx - y_v x_v||^2``; completing the square gives
    ``y_v = <w, s_yx> / (scale * ||w||^2)``.
    """
    return _warp_point(w, constraints, stats, TriggerKind.GRADWARP)


def make_graddistwarp_trigger(w, constraints: TriggerConstraints, stats: SufficientStats) -> Trigger:
    """Trigger maximizing the noisy-update SNR; same point as gradwarp.

    The SNR is a positive multiple of the gradient objective, so the same
    trigger maximizes both; only the reported kind differs.
    """
    return _warp_point(w, constraints, stats, TriggerKind.GRADDISTWARP)


class _Goal(NamedTuple):
    """What a constructed kind is after, declared once.

    ``construct(w, constraints, stats)`` builds the trigger and
    ``objective(w, stats, x, y)`` is what it maximizes. The gap the
    objective induces is ``numerator / (n + 1)`` times the objective,
    divided also by sigma when ``per_sigma``; the label and the factors in
    both directions are derived from those two fields.
    """

    construct: Callable
    objective: Callable
    numerator: int
    per_sigma: bool

    @property
    def scaling(self) -> str:
        denominator = "((n+1)*sigma)" if self.per_sigma else "(n+1)"
        return f"{self.numerator}/{denominator}"

    def factor(self, m: int, sigma: float) -> float:
        """Objective to gap, for a backdoored dataset of ``m`` rows."""
        if self.per_sigma:
            return self.numerator / (m * check_positive(sigma, "sigma"))
        return self.numerator / m

    def unscaled(self, gap: float, m: int) -> float:
        """A dataset-level gap back in objective units (goals without sigma)."""
        return gap * m / self.numerator


# The SNR graddistwarp maximizes is the gradient objective times its factor,
# so it shares that objective.
_GOALS = {
    TriggerKind.RISKWARP: _Goal(
        lambda w, constraints, stats: make_riskwarp_trigger(w, constraints),
        riskwarp_objective,
        numerator=1,
        per_sigma=False,
    ),
    TriggerKind.GRADWARP: _Goal(
        make_gradwarp_trigger, gradwarp_objective, numerator=2, per_sigma=False
    ),
    TriggerKind.GRADDISTWARP: _Goal(
        make_graddistwarp_trigger, gradwarp_objective, numerator=2, per_sigma=True
    ),
}


def _goal(kind: TriggerKind | str) -> _Goal:
    kind = TriggerKind(kind)
    if kind not in _GOALS:
        raise ValueError(f"no objective for trigger kind {kind.value!r}")
    return _GOALS[kind]


# coordinate-descent refinement schedule: halve the step this many times
_REFINE_ROUNDS = 24


def oracle_search(
    objective: TriggerKind | str,
    w,
    stats: SufficientStats,
    constraints: TriggerConstraints,
    budget: int,
    seed: int,
    *,
    fixed_x=None,
) -> tuple[Trigger, float]:
    """Best trigger found by random sampling plus coordinate descent.

    Maximizes the objective that the constructor of kind ``objective``
    maximizes, and returns its value in that objective's unscaled units.
    Draws ``budget`` starting points uniformly from the feasible box
    (``||x_v|| <= x_norm_max`` via a uniform-in-ball draw, ``|y_v| <=
    response_bound``), then refines each with axis-aligned steps that halve
    over a fixed schedule, rejecting any move that leaves the box. With
    ``fixed_x`` the feature part is pinned and only the response is
    searched, which restricts the oracle to a constructor's feasible slice.

    Each candidate gets its own seed stream derived from (seed, index), so
    results are identical regardless of evaluation order.
    """
    fn = _goal(objective).objective
    w = check_weights(w, stats.feature_dim)
    budget = check_count(budget, "budget", 1)
    dim = stats.feature_dim
    b = constraints.response_bound
    r_max = constraints.x_norm_max
    if fixed_x is not None:
        fixed_x = np.asarray(fixed_x, dtype=float)
        if fixed_x.shape != (dim,):
            raise ValueError(f"fixed_x must have shape ({dim},), got {fixed_x.shape}")

    best_x: np.ndarray | None = None
    best_y = 0.0
    best_val = -math.inf
    for i in range(budget):
        rng = np.random.default_rng([seed, i])
        if fixed_x is None:
            direction = rng.standard_normal(dim)
            norm = float(np.linalg.norm(direction))
            if norm == 0.0:
                direction = np.ones(dim)
                norm = math.sqrt(dim)
            radius = r_max * rng.uniform() ** (1.0 / dim)
            x = direction / norm * radius
        else:
            x = fixed_x.copy()
        y = float(rng.uniform(-b, b))
        val = fn(w, stats, x, y)

        x_step = r_max / 4.0
        y_step = b / 4.0
        for _ in range(_REFINE_ROUNDS):
            improved = False
            if fixed_x is None:
                for j in range(dim):
                    for sign in (1.0, -1.0):
                        cand = x.copy()
                        cand[j] += sign * x_step
                        if np.linalg.norm(cand) > r_max:
                            continue
                        cand_val = fn(w, stats, cand, y)
                        if cand_val > val:
                            x, val = cand, cand_val
                            improved = True
            for sign in (1.0, -1.0):
                cand_y = y + sign * y_step
                if abs(cand_y) > b:
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

    assert best_x is not None
    best = Trigger(
        x_v=best_x,
        y_v=best_y,
        kind=TriggerKind.MANUAL,
        trigger_scale=constraints.trigger_scale,
        response_bound=constraints.response_bound,
    )
    return best, best_val


def build_trigger_report(
    kind: TriggerKind | str,
    w,
    stats: SufficientStats,
    constraints: TriggerConstraints,
    *,
    sigma: float = 1.0,
    oracle_budget: int = 0,
    oracle_seed: int = 0,
) -> TriggerReport:
    """Construct the requested trigger and report both objective scalings.

    With ``oracle_budget`` above 0, also runs the unrestricted search oracle
    on the same objective and attaches its best candidate for side-by-side
    comparison; 0 skips it. No ordering between the closed form and the
    unrestricted oracle is implied.
    """
    goal = _goal(kind)
    w = check_weights(w, stats.feature_dim)
    check_count(oracle_budget, "oracle_budget", 0)
    factor = goal.factor(stats.n + 1, sigma)
    trigger = goal.construct(w, constraints, stats)
    # out-of-range inputs make the value non-finite; callers reject it
    with np.errstate(over="ignore", invalid="ignore"):
        value = goal.objective(w, stats, trigger.x_v, trigger.y_v)
    oracle_best = None
    if oracle_budget > 0:
        oracle_best = oracle_search(
            kind, w, stats, constraints, budget=oracle_budget, seed=oracle_seed
        )
    return TriggerReport(
        trigger=trigger,
        objective_value=value,
        objective_value_scaled=value * factor,
        scaling=goal.scaling,
        scaling_factor=factor,
        oracle_best=oracle_best,
    )
