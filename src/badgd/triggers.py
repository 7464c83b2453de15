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
It is defined once, in its bind function: binding it to ``(w, stats)``
validates ``w`` and forms its constants, among them the only O(d^2)
product ``s_xx w``. The bound evaluator then costs O(d) per point, and
next to it the bind returns the objective's scalar form: its value from
a row's products with one or two fixed directions (``<x, w>``, and
``<x, s_yx - s_xx w>`` for the gradient objectives), ``||x||^2`` and
``y``. The public objectives bind once per call, the search oracle once
per search.

The search oracle is deliberately independent of the closed forms: random
candidates inside the feasible box plus deterministic coordinate descent.
The starts come from two seed streams of the oracle's own, a row per
candidate, and all candidates refine in lockstep as rows of one array.
The bound evaluator runs twice per search, on every candidate at once: on
the starts and on the refined points, whose values rank them. In between,
one descent loop carries each candidate's scalars; a round re-derives
them and tabulates every column's moves in O(budget * d), and a probe
scores moves from them. Below 16 columns (``_BLOCK``) the probe takes one
column at a time, both signs for every candidate in O(budget). From 16
on it scores 64 columns at once, speculatively, and each candidate takes
its first accepted move: the same moves by the same arithmetic, so the
two probes give the same bits. It reports, without ranking, what
unrestricted search finds.
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


class _ScalarForm(NamedTuple):
    """An objective as a function of a few scalars of each row.

    A row ``x`` enters only through its products ``x @ directions.T``
    (``(k,)``, one per direction) and ``||x||^2``: ``value(p, xx, y)``
    takes the products as ``p`` (``p[i]`` an array of any shape), the
    squared norms as ``xx`` and the responses as ``y``, all broadcasting
    together, and returns the objective. The search oracle carries these
    scalars and updates them in O(1) per row for a one-coordinate move.
    """

    directions: np.ndarray
    value: Callable


def _bind_riskwarp(w, stats: SufficientStats):
    """The riskwarp objective at fixed ``(w, stats)``: ``(f(rows, y), form)``.

    Validates ``w`` and forms ``<w, s_yx>`` and ``w' s_xx w`` once; each
    call of ``f`` then costs O(d) per row of ``rows`` ``(k, d)``, with
    ``y`` a scalar or ``(k,)``, and returns ``(k,)`` values. ``f`` is the
    scalar form at ``p = (<rows, w>,)``, so both share one arithmetic.
    """
    w = check_weights(w, stats.feature_dim)
    w_syx = w @ stats.s_yx
    w_sxx_w = w @ stats.s_xx @ w

    def value(p, xx, y):
        wx = p[0]
        return (y**2 - stats.s_y) + 2.0 * (w_syx - y * wx) + (wx**2 - w_sxx_w)

    def evaluate(rows, y):
        return value((np.vecdot(rows, w),), None, y)

    return evaluate, _ScalarForm(w[None, :], value)


def _bind_gradwarp(w, stats: SufficientStats):
    """The gradwarp objective at fixed ``(w, stats)``: ``(f(rows, y), form)``.

    Validates ``w`` and forms ``a = s_yx - s_xx w``, the only O(d^2)
    product, once; each call of ``f`` then costs O(d) per row. Shapes as
    for ``_bind_riskwarp``. ``f`` forms the bracket ``a + c x`` with
    ``c = <x, w> - y`` and takes its norm. The scalar form expands the
    square, ``||a||^2 + c (2 <x, a> + c ||x||^2)``, which loses accuracy
    where the bracket cancels ``a``; the oracle steers by it and reports
    ``f``.
    """
    w = check_weights(w, stats.feature_dim)
    a = stats.s_yx - stats.s_xx @ w
    a_a = a @ a

    def value(p, xx, y):
        c = p[0] - y
        return np.sqrt(a_a + c * (2.0 * p[1] + c * xx))

    def evaluate(rows, y):
        bracket = rows * (np.vecdot(rows, w) - y)[:, None]
        bracket += a
        return np.sqrt(np.vecdot(bracket, bracket))

    return evaluate, _ScalarForm(np.stack([w, a]), value)


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
    evaluate, _ = bind(w, stats)
    values = evaluate(np.atleast_2d(x), y)
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
    sigma``, the bracket norm being ``gradwarp_objective``. A quotient out
    of floating-point range is a ValueError naming sigma.
    """
    sigma = check_positive(sigma, "sigma")
    bracket_norm = gradwarp_objective(w, stats, x, y)
    snr = 2.0 * bracket_norm / ((stats.n + 1) * sigma)
    if not math.isfinite(snr):
        raise ValueError(f"sigma {sigma!r} is too small: the snr is out of floating-point range")
    return snr


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
    ``(rows, y)`` and as its ``_ScalarForm``. The gap the objective
    induces is ``numerator / (n + 1)`` times the objective, divided also
    by sigma when ``per_sigma``; the label and the factor are derived
    from those two fields.
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
# below this many columns, the one-column probe runs; from this many on,
# the speculative probe
_BLOCK = 16
# columns the speculative probe scores at once
_WIDE_BLOCK = 64
# the second word of the starts' seed keys (seed, _START_KEY, stream): not
# 0, as the weights' default_rng(seed) pads, nor a Monte Carlo key's h, 0..3
_START_KEY = 0x6F7261


def _refine(form: _ScalarForm, x, y, val, r_max: float, b: float):
    """Coordinate descent on the rows of ``x`` ``(budget, d)`` and ``y``
    ``(budget,)``, in place, from their values ``val``; returns the values
    at the refined rows as the scalar form carried them.

    Each row's state is its products ``p_i = <x, u_i>`` with the form's
    directions, ``||x||^2``, a probed column and the value. A round
    re-derives the products and norms, then tabulates what each column's
    ``+`` and ``-`` moves add to them and to the column, a block of
    columns at a time, in O(budget * d) all told, and the probe moves a
    row where a move stays in the box and is strictly better. ``y`` moves
    last; a row that moved nowhere in a round halves its steps. The probe
    is picked by d: ``_probe_by_column`` below ``_BLOCK`` columns,
    ``_probe_speculative``, faster there and slower below, from ``_BLOCK``
    on. Both make the same moves by the same arithmetic: the same bits.
    """
    k = len(form.directions)
    budget, dim = x.shape
    # the squared box radius, capped so that it never overflows: past
    # sqrt(max) every finite ||x||^2 is inside and an infinite one is not
    r2 = min(r_max * r_max, sys.float_info.max)
    # rows p, xx, column, value
    state = np.empty((k + 3, 1, budget))
    p, xx, value = state[:k, 0], state[k, 0], state[k + 2, 0]
    value[:] = val
    # per column of a block, what its + and - moves add to each row's
    # products, squared norm and column; laid out for the probe's reads
    if dim < _BLOCK:
        probe, width = _probe_by_column, dim
        table = np.empty((width, k + 2, 2, budget))
    else:
        probe, width = _probe_speculative, min(dim, _WIDE_BLOCK)
        table = np.empty((budget, k + 2, width, 2)).transpose(2, 1, 3, 0)
    steps = np.empty((2, budget))
    moved = np.empty((2, budget), dtype=bool)
    x_step = np.full(budget, r_max / 4.0)
    y_step = np.full(budget, b / 4.0)
    for _ in range(_REFINE_ROUNDS):
        steps[0] = x_step
        np.negative(x_step, out=steps[1])
        two_steps = 2.0 * steps
        s2 = x_step * x_step
        np.vecdot(x, form.directions[:, None, :], out=p)
        np.vecdot(x, x, out=xx)
        moved[:] = False
        for start in range(0, dim, width):
            block = table[: min(width, dim - start)]
            cols = slice(start, start + len(block))
            np.multiply(form.directions.T[cols, :, None, None], steps, out=block[:, :k])
            # a column changes only when it is probed, so its moves are known
            np.multiply(x.T[cols, None, :], two_steps, out=block[:, k])
            block[:, k] += s2
            block[:, k + 1] = steps
            probe(form, state, block, x, y, start, r2, moved)
        moved |= _move_y(form, p, xx, y, value, y_step, b)
        still = ~(moved[0] | moved[1])
        np.copyto(x_step, 0.5 * x_step, where=still)
        np.copyto(y_step, 0.5 * y_step, where=still)
    return value.copy()


def _move_y(form: _ScalarForm, p, xx, y, value, y_step, b: float):
    """A round's last probe, in place: each row scores ``y + y_step`` and
    ``y - y_step`` from its products ``p`` and squared norm ``xx``, and
    takes a move as a column's moves are taken; returns which rows took
    each, ``(2, budget)``."""
    cand_y = np.stack([y + y_step, y - y_step])
    cand_y_value = form.value(p, xx, cand_y)
    take = np.abs(cand_y) <= b
    take &= cand_y_value > value
    for sign in (1, 0):
        np.copyto(y, cand_y[sign], where=take[sign])
        np.copyto(value, cand_y_value[sign], where=take[sign])
    return take


def _probe_by_column(form: _ScalarForm, state, block, x, y, start: int, r2: float, moved):
    """``_refine``'s probe of ``block``, columns ``start`` on, one column
    at a time: column ``j`` enters each row's state, and the state plus
    the column's moves scores ``x_j + s`` and ``x_j - s`` for every row in
    one ``(2, budget)`` form call, in O(budget). A row takes ``+`` if it
    stays in the box and is strictly better, else ``-`` under the same
    test."""
    k = len(form.directions)
    # each row's + and - moves
    cand = np.empty((k + 3, 2, len(y)))
    lin, cand_lin = state[: k + 2], cand[: k + 2]
    column, value = state[k + 1, 0], state[k + 2, 0]
    cand_p, cand_xx, cand_value = cand[:k], cand[k], cand[k + 2]
    cand_plus, cand_minus = cand[:, :1], cand[:, 1:]
    # y once per sign, so that the form's arithmetic takes rows of one shape
    y_rows = np.empty((2, len(y)))
    y_rows[:] = y
    take = np.empty((2, len(y)), dtype=bool)
    for j, move in enumerate(block, start):
        column[:] = x[:, j]
        np.add(lin, move, out=cand_lin)
        cand_value[:] = form.value(cand_p, cand_xx, y_rows)
        np.less_equal(cand_xx, r2, out=take)
        take &= cand_value > value
        np.copyto(state, cand_minus, where=take[1])
        np.copyto(state, cand_plus, where=take[0])
        x[:, j] = column
        moved |= take


def _probe_speculative(form: _ScalarForm, state, block, x, y, start: int, r2: float, moved):
    """``_refine``'s probe of ``block``, columns ``start`` on, speculatively.

    It repeats one step: every row that moved in the last step (every row,
    first) scores both moves of every block column it has not yet passed,
    from its current state, in one form call, in O(width * moving rows),
    and takes its first accepted move, ``+`` before ``-``, alone; a row
    with none is done with the block. Between two of a row's moves,
    ``_probe_by_column`` probes each of these columns from that same state
    by the same elementwise arithmetic, so both take the same moves. A
    block costs one step more than its busiest row's moves, the least late
    in the descent, where few rows move. ``_refine`` lays its table out by
    row for this probe.
    """
    k = len(form.directions)
    n_cols = len(block)
    # per row, its products and squared norm, and its block's moves
    lin, value = state[: k + 1, 0].T, state[k + 2, 0]
    by_row = block.transpose(3, 1, 0, 2)
    # the moving rows, and each one's first move not yet passed
    rows = np.arange(len(y))
    at = np.zeros(len(y), dtype=np.intp)
    while (first := int(at.min()) // 2) < n_cols:
        cand = lin[rows, :, None, None] + by_row[rows, : k + 1, first:]
        cand = cand.transpose(1, 0, 2, 3)
        cand_value = form.value(cand[:k], cand[k], y[rows, None, None])
        take = cand[k] <= r2
        take &= cand_value > value[rows, None, None]
        # each row's first accepted move in probe order (column by column,
        # + before -), past the moves it has passed
        take = take.reshape(len(rows), -1)
        take &= np.arange(2 * first, 2 * n_cols) >= at[:, None]
        move = take.argmax(axis=1)
        i = np.flatnonzero(take.any(axis=1))
        if not i.size:
            break
        col, sign = np.divmod(move[i], 2)
        rows = rows[i]
        lin[rows] = cand[:, i, col, sign].T
        value[rows] = cand_value[i, col, sign]
        # freed before the next step's probes: one step's are held at a time
        del cand, cand_value, take
        col += first
        x[rows, start + col] += by_row[rows, k + 1, col, sign]
        moved[0, rows] = True
        at = 2 * col + 2


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

    The starts are drawn at once, the directions ``(budget, d)`` and the
    radius and response uniforms ``(budget, 2)`` from two seed streams of
    their own, so a candidate's start is the same at every budget. The
    candidates refine in lockstep as the rows of one array, each accepting
    moves on its own with its own step sizes, so each takes the path it
    would take alone. The objective is bound to ``(w, stats)`` once per
    search; its row evaluator scores the starts and the refined rows,
    whose values rank them. A response bound whose draw width overflows,
    or a box radius whose square is below the smallest normal float, where
    the box test cannot see the box, is a ValueError.
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
    if r_max * r_max < sys.float_info.min:
        raise ValueError(
            f"oracle box radius xmax {r_max!r} is too small: its square "
            "underflows below the smallest normal float"
        )

    # row i is candidate i's start at every budget
    x = np.random.default_rng([seed, _START_KEY, 0]).standard_normal((budget, dim))
    uniforms = np.random.default_rng([seed, _START_KEY, 1]).uniform(size=(budget, 2))
    norms = np.linalg.norm(x, axis=1)
    zero = norms == 0.0
    x[zero] = 1.0
    norms[zero] = math.sqrt(dim)
    x /= norms[:, None]
    x *= r_max * uniforms[:, :1] ** (1.0 / dim)
    y = 2.0 * b * uniforms[:, 1] - b

    # an out-of-range box or weights make every value non-finite; that is
    # the error below
    with np.errstate(over="ignore", invalid="ignore"):
        evaluate, form = goal.bind(w, stats)
        _refine(form, x, y, evaluate(x, y), r_max, b)
        val = evaluate(x, y)

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
    oracle_budget = check_count(oracle_budget, "oracle_budget", 0)
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
