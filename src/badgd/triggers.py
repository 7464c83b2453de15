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
Every candidate starts from its own seed stream, and all of them refine in
lockstep as rows of one array. The bound evaluator runs twice per search,
on every candidate at once: on the starts and on the refined points,
whose values rank them. In between, the descent carries each candidate's
scalars, which a round re-derives in O(budget * d). Below 16 columns
(``_BLOCK``) it then probes one column at a time, both signs for every
candidate in one O(budget) step. From 16 columns on it probes
speculatively, 64 columns at a time: each step scores every column a
moving candidate has not yet passed, in O(64 * moving candidates), and
each candidate takes its first accepted move, so a block costs one step
more than its busiest candidate's moves. Until a candidate moves, every
probe starts from its one unchanged state, so the speculative loop
accepts and rejects exactly what the one-column loop does, by the same
arithmetic: the two give the same bits. It reports, without ranking,
what unrestricted search finds.
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
# columns whose moves the one-column loop tabulates at once, so that its
# table stays small at any d; from this many columns on, the speculative
# loop runs instead
_BLOCK = 16
# columns the speculative loop scores at once
_WIDE_BLOCK = 64


def _refine(form: _ScalarForm, x, y, val, r_max: float, b: float):
    """Coordinate descent on the rows of ``x`` ``(budget, d)`` and ``y``
    ``(budget,)``, in place, from their values ``val``; returns the values
    at the refined rows as the scalar form carried them.

    Below ``_BLOCK`` columns, ``_refine_by_column`` probes one column at a
    time; from ``_BLOCK`` on, ``_refine_speculative`` scores a block of
    columns at once, which is faster there and slower below. Both make
    the same moves: their results are the same bits.
    """
    if x.shape[1] < _BLOCK:
        return _refine_by_column(form, x, y, val, r_max, b)
    return _refine_speculative(form, x, y, val, r_max, b)


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


def _refine_by_column(form: _ScalarForm, x, y, val, r_max: float, b: float):
    """``_refine`` one column at a time.

    Each row's state is its products ``p_i = <x, u_i>`` with the form's
    directions ``u_i``, ``xx = ||x||^2``, the probed column and the value.
    A round re-derives the products and norms from ``x``, and tabulates
    what a move of each column adds to them, ``_BLOCK`` columns at a time,
    in O(budget * d) all told. A probe of column ``j`` then scores
    ``x_j + s`` and ``x_j - s`` for every row in one ``(2, budget)`` form
    call from the same base point, in O(budget): ``p_i +- s u_i[j]`` and
    ``xx +- 2 s x_j + s^2``. A row takes ``+`` if it stays in the box and
    is strictly better, else ``-`` under the same test; ``y`` moves the
    same way.
    """
    k = len(form.directions)
    budget, dim = x.shape
    # the squared box radius, capped so that it never overflows: past
    # sqrt(max) every finite ||x||^2 is inside and an infinite one is not
    r2 = min(r_max * r_max, sys.float_info.max)
    # rows p, xx, column, value: the state holds each row's point, cand
    # its + and - moves
    state = np.empty((k + 3, 1, budget))
    cand = np.empty((k + 3, 2, budget))
    p, xx, column, value = state[:k, 0], state[k, 0], state[k + 1, 0], state[k + 2, 0]
    value[:] = val
    cand_p, cand_xx, cand_value = cand[:k], cand[k], cand[k + 2]
    cand_plus, cand_minus = cand[:, :1], cand[:, 1:]
    lin, cand_lin = state[: k + 2], cand[: k + 2]
    # per column of a block, what its + and - moves add to each row but
    # the value
    moves = np.empty((min(dim, _BLOCK), k + 2, 2, budget))
    steps = np.empty((2, budget))
    # y once per sign, so that the form's arithmetic takes rows of one shape
    y_rows = np.empty((2, budget))
    take = np.empty((2, budget), dtype=bool)
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
        y_rows[:] = y
        moved[:] = False
        for start in range(0, dim, _BLOCK):
            block = moves[: min(_BLOCK, dim - start)]
            cols = slice(start, start + len(block))
            np.multiply(form.directions.T[cols, :, None, None], steps, out=block[:, :k])
            # a column changes only when it is probed, so its moves are known
            np.multiply(x.T[cols, None, :], two_steps, out=block[:, k])
            block[:, k] += s2
            block[:, k + 1] = steps
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
        moved |= _move_y(form, p, xx, y, value, y_step, b)
        still = ~(moved[0] | moved[1])
        np.copyto(x_step, 0.5 * x_step, where=still)
        np.copyto(y_step, 0.5 * y_step, where=still)
    return value.copy()


def _refine_speculative(form: _ScalarForm, x, y, val, r_max: float, b: float):
    """``_refine`` a block of columns at a time, by speculative probes.

    Each row's products, squared norm and value, the tabulated moves and
    the box test are those of ``_refine_by_column``, with tables of
    ``_WIDE_BLOCK`` columns and, per move, the column it leaves. Within
    a block the loop repeats one step: every row that moved in the last
    step (every row, first) scores both moves of every block column it
    has not yet passed, all from its current state, in one form call, in
    O(width * moving rows). Each such row takes its first column with an
    accepted move, ``+`` before ``-``, applies that move alone and passes
    the column; a row with none is done with the block. Between two of a
    row's moves, the one-column loop probes each of these columns from
    that same state, by the same elementwise arithmetic on the same
    operands, so it rejects what this loop rejects and takes the same
    move: ``x``, ``y`` and the values come out the same bits. A block
    costs one step more than its busiest row's moves, so the saving is
    largest late in the descent, where few rows move.
    """
    k = len(form.directions)
    budget, dim = x.shape
    r2 = min(r_max * r_max, sys.float_info.max)
    # per row, its products and squared norm
    lin = np.empty((budget, k + 1))
    p, xx = lin.T[:k], lin[:, k]
    value = np.array(val, dtype=float)
    width = min(dim, _WIDE_BLOCK)
    # per row and column of a block, what the column's + and - moves add
    # to the row's products and squared norm, and the column after each
    moves = np.empty((budget, k + 1, width, 2))
    x_after = np.empty((budget, width, 2))
    steps = np.empty((budget, 2))
    moved = np.empty(budget, dtype=bool)
    # a block's moves in probe order: column by column, + before -
    order = np.arange(2 * width)
    x_step = np.full(budget, r_max / 4.0)
    y_step = np.full(budget, b / 4.0)
    for _ in range(_REFINE_ROUNDS):
        steps[:, 0] = x_step
        np.negative(x_step, out=steps[:, 1])
        two_steps = 2.0 * steps
        s2 = (x_step * x_step)[:, None, None]
        np.vecdot(x, form.directions[:, None, :], out=p)
        np.vecdot(x, x, out=xx)
        moved[:] = False
        for start in range(0, dim, width):
            n_cols = min(width, dim - start)
            cols = slice(start, start + n_cols)
            block, block_x = moves[:, :, :n_cols], x_after[:, :n_cols]
            np.multiply(
                form.directions[:, cols, None], steps[:, None, None, :], out=block[:, :k]
            )
            # a column changes only when it is passed, so its moves are known
            np.multiply(x[:, cols, None], two_steps[:, None, :], out=block[:, k])
            block[:, k] += s2
            np.add(x[:, cols, None], steps[:, None, :], out=block_x)
            # the moving rows, and each one's first move not yet passed
            rows = np.arange(budget)
            at = np.zeros(budget, dtype=np.intp)
            while True:
                first = int(at.min()) // 2
                if first == n_cols:
                    break
                cand = lin[rows, :, None, None] + block[rows, :, first:]
                cand_lin = cand.transpose(1, 0, 2, 3)
                cand_value = form.value(cand_lin[:k], cand_lin[k], y[rows, None, None])
                take = cand_lin[k] <= r2
                take &= cand_value > value[rows, None, None]
                # each row's first accepted move in probe order, past the
                # moves it has passed
                take = take.reshape(len(rows), -1)
                take &= order[2 * first : 2 * n_cols] >= at[:, None]
                move = take.argmax(axis=1)
                i = np.flatnonzero(take.any(axis=1))
                if not i.size:
                    break
                col, sign = np.divmod(move[i], 2)
                rows = rows[i]
                lin[rows] = cand[i, :, col, sign]
                value[rows] = cand_value[i, col, sign]
                col += first
                x[rows, start + col] = block_x[rows, col, sign]
                moved[rows] = True
                at = 2 * col + 2
        take = _move_y(form, p, xx, y, value, y_step, b)
        still = ~(moved | take[0] | take[1])
        np.copyto(x_step, 0.5 * x_step, where=still)
        np.copyto(y_step, 0.5 * y_step, where=still)
    return value


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
    ``(budget, d)`` array, each accepting a move on its own (inside the box
    and strictly better) with its own step sizes, so each takes the path
    it would take alone. The objective is bound to ``(w, stats)`` once per
    search, and its row evaluator runs twice, on all candidates at once:
    to score the starts and to re-score the refined rows, whose values
    rank them. Between the two, ``_refine`` steers by the objective's
    scalar form, carrying each row's products with ``w`` (and ``a``) and
    its squared norm. A round re-derives them in O(budget * d); below 16
    columns each probed coordinate then costs O(budget), both signs at
    once, and from 16 on a block of 64 columns is probed speculatively,
    with the same moves.
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
