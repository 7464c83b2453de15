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
goal and every report dict names its factor next to the scaled value,
because mixing them up is the easiest mistake to make with these
quantities: the risk objective relates to the risk gap by 1/(n+1), the
gradient objective to the gradient-gap norm by 2/(n+1), and the SNR
additionally divides by sigma. A trigger is its point and kind only; the
box and scale it was built with live in ``TriggerConstraints`` alone.

Each objective takes one candidate point or a ``(k, d)`` array of them.
It is defined once, as a bound evaluator: binding it to ``(w, stats)``
validates ``w`` and forms its constants, among them the only O(d^2)
product ``s_xx w``, and the evaluator then costs O(d) per point. The
public objectives bind once per call, the search oracle once per search.

The search oracle is deliberately independent of the closed forms: random
candidates inside the feasible box plus deterministic coordinate descent.
Every candidate starts from its own seed stream, and all of them refine in
lockstep as rows of one array, so one objective call scores a move for
every candidate and a round costs O(budget * d) per probed coordinate.
It reports, without ranking, what unrestricted search finds.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .dataset import SufficientStats, Trigger, TriggerKind, check_count, check_positive
from .risk import check_weights

__all__ = [
    "TriggerConstraints",
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


def _bind_riskwarp(w, stats: SufficientStats):
    """The riskwarp objective at fixed ``(w, stats)``: ``f(rows, y)``.

    Validates ``w`` and forms ``<w, s_yx>`` and ``w' s_xx w`` once; each
    call then costs O(d) per row of ``rows`` ``(k, d)``, with ``y`` a
    scalar or ``(k,)``, and returns ``(k,)`` values.
    """
    w = check_weights(w, stats.feature_dim)
    w_syx = w @ stats.s_yx
    w_sxx_w = w @ stats.s_xx @ w

    def evaluate(rows, y):
        wx = np.vecdot(rows, w)
        return (y**2 - stats.s_y) + 2.0 * (w_syx - y * wx) + (wx**2 - w_sxx_w)

    return evaluate


def _bind_gradwarp(w, stats: SufficientStats):
    """The gradwarp objective at fixed ``(w, stats)``: ``f(rows, y)``.

    Validates ``w`` and forms ``a = s_yx - s_xx w``, the only O(d^2)
    product, once; each call then costs O(d) per row. Shapes as for
    ``_bind_riskwarp``.
    """
    w = check_weights(w, stats.feature_dim)
    a = stats.s_yx - stats.s_xx @ w

    def evaluate(rows, y):
        bracket = rows * (np.vecdot(rows, w) - y)[:, None]
        bracket += a
        return np.sqrt(np.vecdot(bracket, bracket))

    return evaluate


def _evaluate(bind, w, stats: SufficientStats, x, y):
    """``bind(w, stats)`` at one point ``(d,)`` with a scalar ``y`` (a
    float) or at rows ``(k, d)`` with a scalar or ``(k,)`` ``y`` (``(k,)``
    values)."""
    x = np.asarray(x, dtype=float)
    dim = stats.feature_dim
    if x.ndim not in (1, 2) or x.shape[-1] != dim:
        raise ValueError(
            f"trigger features of shape {x.shape} do not match stats "
            f"feature_dim {dim}"
        )
    y = np.asarray(y, dtype=float)
    if y.shape not in ((), x.shape[:-1]):
        raise ValueError(
            f"trigger responses of shape {y.shape} do not match features "
            f"of shape {x.shape}"
        )
    values = bind(w, stats)(np.atleast_2d(x), y)
    return float(values[0]) if x.ndim == 1 else values


def riskwarp_objective(w, stats: SufficientStats, x, y):
    """Excess square loss of ``(x, y)`` over the clean risk, in second moments.

    Equals ``loss(w, (x, y)) - risk(w, clean)`` when ``stats`` summarize the
    clean dataset; the risk gap after appending the point is this value
    divided by n + 1. Written as
    ``(y^2 - s_y) + 2 (<w, s_yx> - y <w, x>) + (<w, x>^2 - w' s_xx w)``,
    it costs O(d) per point after one O(d^2) product per call. ``x`` is
    one point ``(d,)`` with a scalar ``y`` (returns a float) or rows
    ``(k, d)`` with a scalar or ``(k,)`` ``y`` (returns ``(k,)`` values).
    """
    return _evaluate(_bind_riskwarp, w, stats, x, y)


def gradwarp_objective(w, stats: SufficientStats, x, y):
    """Norm of the gradient-gap bracket, before the 2/(n+1) dataset factor.

    The gradient gap after appending the point ``(x, y)`` is ``2/(n+1)``
    times the bracket ``(s_yx - s_xx w) + x (<x, w> - y)``, whose norm is
    returned here. Shapes and cost are as for ``riskwarp_objective``.
    """
    return _evaluate(_bind_gradwarp, w, stats, x, y)


def graddistwarp_snr(w, stats: SufficientStats, x, y: float, sigma: float) -> float:
    """SNR between clean and backdoored noisy-update distributions.

    One noisy step adds gradient noise ``N(0, sigma^2 I)`` before the step
    is scaled by the learning rate, which therefore scales the mean shift
    and the noise alike and cancels. The SNR is the mean shift over the
    noise scale: ``||gradient gap|| / sigma = (2/(n+1)) * bracket_norm /
    sigma``, the bracket norm being ``gradwarp_objective``.
    """
    sigma = check_positive(sigma, "sigma")
    bracket_norm = gradwarp_objective(w, stats, x, y)
    return 2.0 * bracket_norm / ((stats.n + 1) * sigma)


def make_riskwarp_trigger(w, constraints: TriggerConstraints) -> Trigger:
    """Trigger maximizing the risk shift: ``(-scale * w, response_bound)``."""
    w = np.asarray(w, dtype=float)
    if not np.any(w):
        raise ValueError("riskwarp trigger requires a nonzero weight vector")
    scale, bound = constraints.trigger_scale, constraints.response_bound
    return Trigger(x_v=-scale * w, y_v=bound, kind=TriggerKind.RISKWARP)


def _warp_point(w, constraints: TriggerConstraints, stats: SufficientStats, kind: TriggerKind) -> Trigger:
    w = check_weights(w, stats.feature_dim)
    with np.errstate(over="ignore"):
        norm_sq = float(w @ w)
    if not math.isfinite(norm_sq):
        raise ValueError(
            f"{kind.value} trigger: squared weight norm is out of floating-point range"
        )
    if not np.any(w):
        raise ValueError(f"{kind.value} trigger requires a nonzero weight vector")
    alpha = constraints.trigger_scale
    # the response's denominator: below the smallest normal float it has
    # lost precision, and the response overflows or is inexact
    denominator = alpha * norm_sq
    if denominator < sys.float_info.min:
        result = "0" if denominator == 0.0 else f"the subnormal {denominator!r}"
        raise ValueError(
            f"{kind.value} trigger: trigger scale {alpha!r} times the squared "
            f"weight norm {norm_sq!r} underflows to {result}"
        )
    return Trigger(x_v=alpha * w, y_v=float(w @ stats.s_yx) / denominator, kind=kind)


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
    ``bind(w, stats)`` returns what it maximizes, as a function of
    ``(rows, y)``. The gap the objective induces is ``numerator / (n + 1)``
    times the objective, divided also by sigma when ``per_sigma``; the
    label and the factor are derived from those two fields.
    """

    construct: Callable
    bind: Callable
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


# The SNR graddistwarp maximizes is the gradient objective times its factor,
# so it shares that objective.
_GOALS = {
    TriggerKind.RISKWARP: _Goal(
        lambda w, constraints, stats: make_riskwarp_trigger(w, constraints),
        _bind_riskwarp,
        numerator=1,
        per_sigma=False,
    ),
    TriggerKind.GRADWARP: _Goal(
        make_gradwarp_trigger, _bind_gradwarp, numerator=2, per_sigma=False
    ),
    TriggerKind.GRADDISTWARP: _Goal(
        make_graddistwarp_trigger, _bind_gradwarp, numerator=2, per_sigma=True
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
) -> tuple[Trigger, float]:
    """Best trigger found by random sampling plus coordinate descent.

    Maximizes the objective that the constructor of kind ``objective``
    maximizes, and returns its value in that objective's unscaled units.
    Draws ``budget`` starting points uniformly from the feasible box
    (``||x_v|| <= x_norm_max`` via a uniform-in-ball draw, ``|y_v| <=
    response_bound``), then refines each with axis-aligned steps that halve
    over a fixed schedule, rejecting any move that leaves the box.

    Each candidate draws its start from its own seed stream derived from
    (seed, index). The candidates refine in lockstep as the rows of one
    ``(budget, d)`` array: every step tries the same move on all rows with
    one objective call, and each row accepts it on its own (inside the box
    and strictly better), with its own step sizes. So each candidate takes
    the path it would take alone, and a round costs O(budget * d) per
    probed (coordinate, sign) column, at most ``2 d + 2`` calls per round.
    The objective is bound to ``(w, stats)`` once per search. A probe moves
    one column of the candidate array in place and puts back the rows
    that reject the move.
    """
    goal = _goal(objective)
    budget = check_count(budget, "budget", 1)
    dim = stats.feature_dim
    b = constraints.response_bound
    r_max = constraints.x_norm_max
    if not math.isfinite(2.0 * b):
        raise ValueError(
            f"oracle response bound {b} is out of floating-point range: "
            "its draw width 2 * bound overflows"
        )

    x = np.empty((budget, dim))
    y = np.empty(budget)
    for i in range(budget):
        rng = np.random.default_rng([seed, i])
        direction = rng.standard_normal(dim)
        norm = float(np.linalg.norm(direction))
        if norm == 0.0:
            direction = np.ones(dim)
            norm = math.sqrt(dim)
        radius = r_max * rng.uniform() ** (1.0 / dim)
        x[i] = direction / norm * radius
        y[i] = rng.uniform(-b, b)

    # an out-of-range box or weights make every value non-finite; that is
    # the error below
    with np.errstate(over="ignore", invalid="ignore"):
        fn = goal.bind(w, stats)
        val = fn(x, y)
        x_step = np.full(budget, r_max / 4.0)
        y_step = np.full(budget, b / 4.0)
        for _ in range(_REFINE_ROUNDS):
            improved = np.zeros(budget, dtype=bool)
            for j in range(dim):
                # move column j in place, then put back the rows that reject it
                column = x[:, j]
                for step in (x_step, -x_step):
                    kept = column.copy()
                    column += step
                    cand_val = fn(x, y)
                    norms = np.sqrt(np.vecdot(x, x))
                    take = ~(norms > r_max) & (cand_val > val)
                    np.copyto(column, kept, where=~take)
                    np.copyto(val, cand_val, where=take)
                    improved |= take
            for step in (y_step, -y_step):
                cand_y = y + step
                cand_val = fn(x, cand_y)
                take = ~(np.abs(cand_y) > b) & (cand_val > val)
                np.copyto(y, cand_y, where=take)
                np.copyto(val, cand_val, where=take)
                improved |= take
            np.copyto(x_step, 0.5 * x_step, where=~improved)
            np.copyto(y_step, 0.5 * y_step, where=~improved)

    # the first candidate holding the largest value; NaN never ranks
    ranked = np.where(np.isnan(val), -math.inf, val)
    i = int(np.argmax(ranked))
    best_val = float(ranked[i])
    if not math.isfinite(best_val):
        raise ValueError("oracle objective is out of floating-point range")
    return Trigger(x_v=x[i], y_v=float(y[i])), best_val


def build_trigger_report(
    kind: TriggerKind | str,
    w,
    stats: SufficientStats,
    constraints: TriggerConstraints,
    *,
    sigma: float = 1.0,
    oracle_budget: int = 0,
    oracle_seed: int = 0,
) -> tuple[Trigger, dict]:
    """The requested trigger and its report, a JSON-ready dict.

    ``objective_value_scaled`` is the unscaled ``objective_value`` times
    ``scaling_factor`` (named by ``scaling``): the gap or SNR it induces.
    With ``oracle_budget`` above 0, ``oracle_best`` holds the search
    oracle's best ``trigger`` and its ``objective_value``, unranked
    against the closed form; else None.
    """
    goal = _goal(kind)
    w = check_weights(w, stats.feature_dim)
    check_count(oracle_budget, "oracle_budget", 0)
    factor = goal.factor(stats.n + 1, sigma)
    trigger = goal.construct(w, constraints, stats)
    # out-of-range inputs make the value non-finite; callers reject it
    with np.errstate(over="ignore", invalid="ignore"):
        value = _evaluate(goal.bind, w, stats, trigger.x_v, trigger.y_v)
    oracle_best = None
    if oracle_budget > 0:
        best, best_value = oracle_search(
            kind, w, stats, constraints, budget=oracle_budget, seed=oracle_seed
        )
        oracle_best = {"trigger": best.to_json_dict(), "objective_value": best_value}
    return trigger, {
        "trigger": trigger.to_json_dict(),
        "objective_value": value,
        "objective_value_scaled": value * factor,
        "scaling": goal.scaling,
        "scaling_factor": factor,
        "oracle_best": oracle_best,
    }
