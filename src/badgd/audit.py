"""The audit pipeline as one function.

``run_audit`` takes a dataset, a weight vector and a trigger (a kind to
construct, or a ready manual trigger) and returns the whole audit as a
JSON-ready dict: the trigger and its report, the risk, gradient and
mixture gaps along both of their routes, the SNR of the noisy update, the
analytic tradeoff curve next to a Monte Carlo run of the optimal
distinguisher, the (epsilon, delta) budget, and the consistency checks
that compare each pair of routes at runtime. It logs one ``stage:`` line
per step on stderr.

This module only compares routes; it computes none of them. Each gap's
direct and closed-form evaluations live in ``risk``, so a bug in one of
them cannot hide behind shared arithmetic here. The clean second moments
are computed once and feed the trigger, the gaps' closed forms and the
SNR; the two full-batch gradients behind the direct gradient gap also
feed the Monte Carlo run, whose estimates are judged against the
analytic curve from the SNR's closed form.
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
    budget_lower_bound,
    check_level,
    delta_of_epsilon,
    snr_to_budget,
    tradeoff_curve,
)
from .risk import backdoor_gaps, check_weights
from .sim import NoisyGDConfig, check_trials, monte_carlo_tradeoff
from .triggers import (
    _GOALS,
    TriggerConstraints,
    build_trigger_report,
    graddistwarp_snr,
)

__all__ = ["gap_sections", "run_audit"]

# identity checks scale this base tolerance by (1 + magnitude)
_CHECK_TOL = 1e-9


def _log(message: str) -> None:
    print(f"stage: {message}", file=sys.stderr)


def _close(a: float, b: float) -> bool:
    scale = 1.0 + max(abs(a), abs(b))
    return abs(a - b) <= _CHECK_TOL * scale


def gap_sections(
    w, data: Dataset, stats: SufficientStats, trigger: Trigger
) -> tuple[dict, dict, tuple[np.ndarray, np.ndarray]]:
    """The three gaps of appending ``trigger`` to ``data``, as report sections.

    ``stats`` is ``sufficient_stats(data)``. Returns the ``risk_gap``,
    ``gradient_gap`` and ``mixture_identity`` sections, one check per gap
    that its two routes agree, and the full-batch gradients on the clean
    and the backdoored data. A section with a non-finite value is a
    ValueError: the inputs are out of floating-point range, which says
    nothing about the routes' agreement.
    """
    # out-of-range inputs surface as the error below, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = backdoor_gaps(w, data, stats, trigger)
        r_gap, g_gap, mixture = gaps.risk, gaps.gradient, gaps.mixture
        direct = np.asarray(g_gap.direct)
        sections = {
            "risk_gap": {
                "direct": r_gap.direct,
                "closed_form": r_gap.closed_form,
                "discrepancy": r_gap.discrepancy,
            },
            "gradient_gap": {
                "direct": direct.tolist(),
                "closed_form": np.asarray(g_gap.closed_form).tolist(),
                "norm": float(np.linalg.norm(direct)),
                "discrepancy": g_gap.discrepancy,
            },
            "mixture_identity": {"max_abs_gap": mixture.gap},
        }
    for name, section in sections.items():
        if not np.all(np.isfinite(np.hstack(list(section.values())))):
            raise ValueError(f"{name} is out of floating-point range")
    checks = {
        "risk_gap_routes": _close(r_gap.direct, r_gap.closed_form),
        "gradient_gap_routes": g_gap.discrepancy
        <= _CHECK_TOL * (1.0 + float(np.max(np.abs(direct)))),
        "mixture_identity": mixture.gap
        <= _CHECK_TOL * (1.0 + float(np.max(np.abs(mixture.lhs)))),
    }
    return sections, checks, (gaps.grad_clean, gaps.grad_bad)


def run_audit(
    data: Dataset,
    w,
    trigger: TriggerKind | Trigger,
    *,
    constraints: TriggerConstraints,
    gamma: float,
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
    echoed in the report's inputs. The noise, ``delta``, ``trials`` and
    ``oracle_budget`` are checked before any work. The report's
    ``consistency`` section says whether every runtime check held; it is
    complete either way.
    """
    cfg = NoisyGDConfig(gamma=gamma, sigma=sigma, steps=1, seed=seed)
    check_positive(sigma, "sigma")
    check_level(delta, "delta")
    check_trials(trials)
    check_count(oracle_budget, "oracle_budget", 0)
    _log(f"dataset loaded (n={data.n}, feature_dim={data.feature_dim})")
    stats = sufficient_stats(data)
    w = check_weights(w, data.feature_dim)
    alphas = [float(a) for a in alphas]
    trigger_report = None
    if not isinstance(trigger, Trigger):
        trigger_report = build_trigger_report(
            trigger,
            w,
            stats,
            constraints,
            sigma=sigma,
            oracle_budget=oracle_budget,
            oracle_seed=seed,
        )
        trigger = trigger_report.trigger
    kind = trigger.kind
    _log(f"trigger ready (kind={kind.value})")

    sections, checks, grads = gap_sections(w, data, stats, trigger)
    r_gap, g_gap = sections["risk_gap"], sections["gradient_gap"]
    _log("gap identities evaluated")

    snr = graddistwarp_snr(w, stats, trigger.x_v, trigger.y_v, gamma, sigma)
    _log(f"snr = {snr.definitional!r}")

    curve = tradeoff_curve(snr.definitional, alphas)
    mc = monte_carlo_tradeoff(*grads, cfg, alphas, trials)
    _log(f"monte carlo complete (trials={trials})")

    budget = snr_to_budget(snr.definitional, delta)
    bound = budget_lower_bound(snr.definitional, delta)
    _log(f"privacy budget epsilon = {budget.epsilon!r}")

    checks["snr_matches_gradient_gap"] = _close(
        snr.definitional, g_gap["norm"] / sigma
    )
    checks["budget_covers_delta"] = (
        budget.mu == 0.0
        or delta_of_epsilon(budget.epsilon, budget.mu) <= budget.delta + 1e-8
    )
    if trigger_report is not None:
        # the scaled objective against the direct route of what it scales to
        direct = {
            TriggerKind.RISKWARP: r_gap["direct"],
            TriggerKind.GRADWARP: g_gap["norm"],
            TriggerKind.GRADDISTWARP: g_gap["norm"] / sigma,
        }[kind]
        checks["objective_scaling"] = _close(
            trigger_report.objective_value_scaled, direct
        )
    checks["monte_carlo_within_3se"] = all(
        abs(r.est_type2 - t2) <= 3.0 * r.std_err
        and abs(r.est_type1 - r.alpha)
        <= 3.0 * math.sqrt(r.alpha * (1.0 - r.alpha) / r.trials)
        for r, t2 in zip(mc, curve.type2)
    )

    for section, goal, gap in (
        (r_gap, _GOALS[TriggerKind.RISKWARP], r_gap["closed_form"]),
        (g_gap, _GOALS[TriggerKind.GRADWARP], g_gap["norm"]),
    ):
        section["unscaled_objective"] = goal.unscaled(gap, stats.n + 1)
        section["scaling"] = goal.scaling
    return {
        "inputs": {
            "source": source,
            "weights": w.tolist(),
            "loss": "square",
            "trigger_kind": kind.value,
            "constraints": dataclasses.asdict(constraints),
            "gamma": gamma,
            "sigma": sigma,
            "delta": delta,
            "trials": trials,
            "alphas": alphas,
            "seed": seed,
            "oracle_budget": oracle_budget,
        },
        "sufficient_stats": stats.to_json_dict(),
        "trigger": trigger.to_json_dict(),
        "trigger_report": None
        if trigger_report is None
        else trigger_report.to_json_dict(),
        **sections,
        "snr": {
            "definitional": snr.definitional,
            "reduced": snr.closed_form,
            "gamma": gamma,
            "sigma": sigma,
        },
        "analytic_curve": {
            "alphas": curve.alphas.tolist(),
            "type2": curve.type2.tolist(),
            "power": curve.power.tolist(),
        },
        "monte_carlo": [r.to_json_dict() for r in mc],
        "privacy": {
            "budget": budget.to_json_dict(),
            "lower_bound": bound.to_json_dict(),
        },
        "curve_files": {
            "analytic": "analytic_curve.csv",
            "monte_carlo": "monte_carlo.csv",
        },
        "consistency": {**checks, "all": all(checks.values())},
    }
