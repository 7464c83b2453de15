"""The audit pipeline as one function.

``run_audit`` takes a dataset, a weight vector and a trigger (a kind to
construct, or a ready manual trigger) and returns the whole audit as a
JSON-ready dict: the trigger and its report, the risk, gradient and
mixture gaps along both of their routes, the SNR of one noisy update, the
analytic tradeoff curve next to a Monte Carlo run of the optimal
distinguisher, the (epsilon, delta) budget along its two routes, and the
consistency checks that compare each pair of routes at runtime. It logs
one ``stage:`` line per step on stderr. The step's learning rate scales
the update's mean shift and its noise alike and cancels from all of
these, so an audit depends on sigma and n but takes no learning rate.

This module only compares routes; it computes none of them. Each gap's
direct and closed-form evaluations live in ``risk``, and the budget's
bisection and tradeoff routes in ``gdp``, so a bug in one of them cannot
hide behind shared arithmetic here. All six route checks make one
decision, ``_agree``, whose tolerance the canonical route sets (the
direct gap, the direct SNR, the bisection's epsilon); each gap's routes
widen it to their rounding error, which grows with the size of the terms
they subtract (``GapValues.scale``) rather than with the gap. The clean
second moments are computed once and feed the trigger, the gaps' closed
forms and the SNR; the two full-batch gradients behind the direct
gradient gap also feed the Monte Carlo run, whose estimates are judged
against the analytic curve from the SNR's closed form.
"""

from __future__ import annotations

import dataclasses
import math
import sys

import numpy as np

from .dataset import (
    Dataset,
    SufficientStats,
    Trigger,
    TriggerKind,
    check_count,
    check_positive,
    sufficient_stats,
)
from .gdp import (
    _check_delta,
    _check_levels,
    epsilon_of_tradeoff,
    snr_to_budget,
    tradeoff_curve,
)
from .risk import backdoor_gaps, check_weights
from .sim import check_trials, monte_carlo_tradeoff
from .triggers import TriggerConstraints, build_trigger_report, graddistwarp_snr

__all__ = ["gap_sections", "run_audit"]

# route checks scale this base tolerance by (1 + the canonical magnitude)
_CHECK_TOL = 1e-9
# ... or this many units of roundoff (2**-53) of the terms the routes
# subtract, whichever is larger; on correct code the risk routes differed
# by at most 1.6 units over random data of magnitude 1 to 1e6 and 0.007
# at a near fit under triggers that zero the risk gap, the gradient and
# mixture routes by at most 1.7, also under triggers that cancel the
# gradient gap or the backdoored gradient
_ROUNDING_UNITS = 64


def _log(message: str) -> None:
    print(f"stage: {message}", file=sys.stderr)


def _agree(canonical, other, terms: float = 0.0) -> bool:
    """The one rule of every route check: ``max|canonical - other| <=
    max(_CHECK_TOL * (1 + max|canonical|), _ROUNDING_UNITS * 2**-53 *
    terms)``, where ``terms`` is the size of what the routes subtract (0
    leaves the first bound)."""
    gap = np.max(np.abs(np.subtract(canonical, other)))
    scale = np.max(np.abs(canonical))
    bound = max(_CHECK_TOL * (1.0 + scale), _ROUNDING_UNITS * 2.0**-53 * terms)
    return bool(gap <= bound)


def gap_sections(
    w, data: Dataset, stats: SufficientStats, trigger: Trigger
) -> tuple[dict, dict, tuple[np.ndarray, np.ndarray]]:
    """The three gaps of appending ``trigger`` to ``data``, as report sections.

    ``stats`` is ``sufficient_stats(data)``. Returns the ``risk_gap``,
    ``gradient_gap`` and ``mixture_identity`` sections, one check per gap
    that its two routes agree, and the full-batch gradients on the clean
    and the backdoored data. A section with a non-finite value is a
    ValueError: the inputs are out of floating-point range, which says
    nothing about the routes' agreement; a response too large to square
    is named.
    """
    # out-of-range inputs surface as the error below, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = backdoor_gaps(w, data, stats, trigger)
        r_gap, g_gap, mixture = gaps.risk, gaps.gradient, gaps.mixture
        sections = {
            "risk_gap": {
                "direct": r_gap.direct,
                "closed_form": r_gap.closed_form,
                "discrepancy": r_gap.discrepancy,
            },
            "gradient_gap": {
                "direct": g_gap.direct.tolist(),
                "closed_form": g_gap.closed_form.tolist(),
                "norm": float(np.linalg.norm(g_gap.direct)),
                "discrepancy": g_gap.discrepancy,
            },
            "mixture_identity": {"max_abs_gap": mixture.discrepancy},
        }
    if not math.isfinite(r_gap.scale) and math.isinf(trigger.y_v * trigger.y_v):
        raise ValueError(
            f"risk_gap is out of floating-point range: the trigger's response "
            f"y_v={trigger.y_v!r} overflows its square loss"
        )
    for name, section in sections.items():
        if not np.all(np.isfinite(np.hstack(list(section.values())))):
            raise ValueError(f"{name} is out of floating-point range")
    checks = {
        "risk_gap_routes": _agree(r_gap.direct, r_gap.closed_form, r_gap.scale),
        "gradient_gap_routes": _agree(g_gap.direct, g_gap.closed_form, g_gap.scale),
        "mixture_identity": _agree(mixture.direct, mixture.closed_form, mixture.scale),
    }
    return sections, checks, (gaps.grad_clean, gaps.grad_bad)


def run_audit(
    data: Dataset,
    w,
    trigger: TriggerKind | Trigger,
    *,
    constraints: TriggerConstraints,
    sigma: float,
    delta: float,
    trials: int,
    alphas,
    seed: int,
    oracle_budget: int,
    source: dict | None = None,
) -> dict:
    """Audit one trigger on ``data`` at weights ``w``; returns the report.

    ``trigger`` is a kind to construct under ``constraints`` (its report
    then includes the search oracle's best candidate when
    ``oracle_budget > 0``) or a ready trigger, which has no report.
    ``seed`` drives the oracle and the Monte Carlo run; ``source`` is
    echoed in the report's inputs. The noise, ``seed``, ``delta``, the
    levels, ``trials`` and ``oracle_budget`` are checked before any work.
    The report's ``consistency`` section says whether every runtime check
    held; it is complete either way.
    """
    sigma = check_positive(sigma, "sigma")
    seed = check_count(seed, "seed", 0)
    delta = _check_delta(delta)
    alphas = _check_levels(alphas)
    trials = check_trials(trials)
    oracle_budget = check_count(oracle_budget, "oracle_budget", 0)
    _log(f"dataset loaded (n={data.n}, feature_dim={data.feature_dim})")
    stats = sufficient_stats(data)
    w = check_weights(w, data.feature_dim)
    trigger_report = None
    if not isinstance(trigger, Trigger):
        trigger, trigger_report = build_trigger_report(
            trigger,
            w,
            stats,
            constraints,
            sigma=sigma,
            oracle_budget=oracle_budget,
            oracle_seed=seed,
        )
    kind = trigger.kind
    _log(f"trigger ready (kind={kind.value})")

    sections, checks, grads = gap_sections(w, data, stats, trigger)
    r_gap, g_gap = sections["risk_gap"], sections["gradient_gap"]
    _log("gap identities evaluated")

    snr = graddistwarp_snr(w, stats, trigger.x_v, trigger.y_v, sigma)
    _log(f"snr = {snr!r}")

    # the budget needs only the SNR: an epsilon out of range is an error
    # before the Monte Carlo run, the costliest stage, starts
    budget = snr_to_budget(snr, delta)
    epsilon_dual = epsilon_of_tradeoff(snr, delta)
    epsilon = budget["epsilon"]
    _log(f"privacy budget epsilon = {epsilon!r}")

    curve = tradeoff_curve(snr, alphas)
    mc = monte_carlo_tradeoff(*grads, sigma, alphas, trials, seed)
    _log(f"monte carlo complete (trials={trials})")

    checks["snr_matches_gradient_gap"] = _agree(g_gap["norm"] / sigma, snr)
    checks["budget_routes"] = _agree(epsilon, epsilon_dual)
    if trigger_report is not None:
        # the scaled objective against the direct route of what it scales to
        direct = {
            TriggerKind.RISKWARP: r_gap["direct"],
            TriggerKind.GRADWARP: g_gap["norm"],
            TriggerKind.GRADDISTWARP: g_gap["norm"] / sigma,
        }[kind]
        scaled = trigger_report["objective_value_scaled"]
        checks["objective_scaling"] = _agree(direct, scaled)
    checks["monte_carlo_within_3se"] = all(
        abs(r["est_type2"] - t2) <= 3.0 * r["std_err"]
        and abs(r["est_type1"] - r["alpha"])
        <= 3.0 * math.sqrt(r["alpha"] * (1.0 - r["alpha"]) / r["trials"])
        for r, t2 in zip(mc, curve["type2"])
    )
    return {
        "inputs": {
            "source": source,
            "weights": w.tolist(),
            "trigger_kind": kind.value,
            "constraints": dataclasses.asdict(constraints),
            "sigma": sigma,
            "delta": delta,
            "trials": trials,
            "alphas": alphas,
            "seed": seed,
            "oracle_budget": oracle_budget,
        },
        # the O(d) moments; ``badgd stats`` prints s_xx, d^2 floats
        "sufficient_stats": {
            "n": stats.n,
            "feature_dim": stats.feature_dim,
            "s_y": stats.s_y,
            "s_yx": stats.s_yx.tolist(),
        },
        "trigger": trigger.to_json_dict(),
        "trigger_report": trigger_report,
        **sections,
        "snr": {"definitional": snr},
        "analytic_curve": curve,
        "monte_carlo": mc,
        "privacy": {
            "budget": budget,
            "epsilon_dual": epsilon_dual,
            "discrepancy": abs(epsilon - epsilon_dual),
        },
        "consistency": {**checks, "all": all(checks.values())},
    }
