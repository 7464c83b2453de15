"""Backdoor triggers for square-loss gradient descent and their privacy cost.

The pipeline: append one crafted example (a trigger) to a clean dataset,
measure exactly how far it moves the empirical risk, the full-batch
gradient, and the distribution of a noisy gradient update, then convert
the distributional shift into a Gaussian differential privacy budget and
validate the whole chain with an independent Monte Carlo distinguisher
and search oracles.

Modules:

* ``dataset``   datasets as (X, y) arrays, triggers, second-moment summaries
* ``risk``      square loss, gradients, clean-vs-backdoored gap identities
* ``triggers``  closed-form trigger constructors plus a search oracle
* ``gdp``       normal special functions, tradeoff curves, (epsilon, delta)
* ``sim``       (noisy) descent simulation and the LLR distinguisher
* ``audit``     the whole pipeline as one report: ``run_audit``
* ``cli``       the ``badgd`` command
"""

from __future__ import annotations

__version__ = "0.1.0"

from .audit import run_audit
from .dataset import (
    Dataset,
    SufficientStats,
    Trigger,
    TriggerKind,
    generate_synthetic,
    load_csv,
    make_bad_dataset,
    save_csv,
    sufficient_stats,
)
from .gdp import (
    BudgetLowerBound,
    PrivacyBudget,
    TradeoffCurve,
    budget_lower_bound,
    delta_of_epsilon,
    epsilon_of_mu,
    gaussian_tradeoff,
    snr_to_budget,
    std_normal_cdf,
    std_normal_quantile,
    tradeoff_curve,
)
from .risk import (
    BackdoorGaps,
    GapValues,
    MixtureIdentity,
    backdoor_gaps,
    empirical_risk,
    point_gradient,
    point_loss,
    risk_gradient,
)
from .sim import (
    DistinguisherResult,
    NoisyGDConfig,
    Trajectory,
    gd_step,
    monte_carlo_tradeoff,
    noisy_gd_step,
    run_trajectory,
)
from .triggers import (
    SnrValues,
    TriggerConstraints,
    TriggerReport,
    build_trigger_report,
    graddistwarp_snr,
    gradwarp_objective,
    make_graddistwarp_trigger,
    make_gradwarp_trigger,
    make_riskwarp_trigger,
    oracle_search,
    riskwarp_objective,
)

__all__ = [
    "__version__",
    "run_audit",
    "Dataset",
    "SufficientStats",
    "Trigger",
    "TriggerKind",
    "generate_synthetic",
    "load_csv",
    "make_bad_dataset",
    "save_csv",
    "sufficient_stats",
    "BudgetLowerBound",
    "PrivacyBudget",
    "TradeoffCurve",
    "budget_lower_bound",
    "delta_of_epsilon",
    "epsilon_of_mu",
    "gaussian_tradeoff",
    "snr_to_budget",
    "std_normal_cdf",
    "std_normal_quantile",
    "tradeoff_curve",
    "BackdoorGaps",
    "GapValues",
    "MixtureIdentity",
    "backdoor_gaps",
    "empirical_risk",
    "point_gradient",
    "point_loss",
    "risk_gradient",
    "DistinguisherResult",
    "NoisyGDConfig",
    "Trajectory",
    "gd_step",
    "monte_carlo_tradeoff",
    "noisy_gd_step",
    "run_trajectory",
    "SnrValues",
    "TriggerConstraints",
    "TriggerReport",
    "build_trigger_report",
    "graddistwarp_snr",
    "gradwarp_objective",
    "make_graddistwarp_trigger",
    "make_gradwarp_trigger",
    "make_riskwarp_trigger",
    "oracle_search",
    "riskwarp_objective",
]
