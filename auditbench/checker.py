"""Report checker and outcome classification, without badgd.

``check_report`` recomputes what a ``report.json`` claims from the inputs
the benchmark generated, with NumPy and SciPy:

* the trigger, from the closed forms badgd documents;
* the direct gradient gap, by brute force on the clean and backdoored
  rows;
* ``snr.definitional`` = ||direct gap|| / sigma, relative 1e-9;
* epsilon, as the root of delta(eps) = delta with delta(eps) evaluated in
  log space (``scipy.special.log_ndtr``);
* each Monte Carlo estimate against the analytic type-I/type-II error:
  the count must not lie in a binomial tail beyond the two-sided 5-sigma
  level (normal approximation: within 5 SE; the exact tail also holds
  where the analytic error is 0 or the SE is below one trial).

``classify`` maps an attempt to an outcome (see README.md). An exit 2
whose only failed check is ``monte_carlo_within_3se`` is ``mc_flag``: a
false alarm of badgd's runtime 3-SE check on correct code, not a failure.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize, special, stats

import workloads

REL_TOL = 1e-9
MC_TAIL = stats.norm.sf(5.0)
MC_FLAG_CHECK = "monte_carlo_within_3se"


def log_delta(eps: float, mu: float) -> float:
    """log delta(eps) of mu-GDP, or -inf where delta(eps) <= 0 in floating point."""
    a = special.log_ndtr(-eps / mu + mu / 2.0)
    b = eps + special.log_ndtr(-eps / mu - mu / 2.0)
    if b >= a:
        return -math.inf
    return a + math.log1p(-math.exp(b - a))


def epsilon_of_mu(mu: float, delta: float) -> float:
    """Smallest eps >= 0 with delta(eps) <= delta."""
    target = math.log(delta)
    if log_delta(0.0, mu) <= target:
        return 0.0
    hi = 1.0
    while log_delta(hi, mu) > target:
        hi *= 2.0
    return optimize.brentq(lambda e: log_delta(e, mu) - target, 0.0, hi,
                           xtol=1e-14, rtol=4 * np.finfo(float).eps)


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _binomial_tail(estimate: float, trials: int, p: float) -> float:
    count = round(estimate * trials)
    lower = stats.binom.cdf(count, trials, p)
    upper = stats.binom.sf(count - 1, trials, p)
    return float(min(lower, upper))


def check_report(report: dict, audit: workloads.Audit, x: np.ndarray, y: np.ndarray) -> list[str]:
    """Problems found in ``report``; an empty list means it checks out."""
    problems = []
    inputs = report["inputs"]
    w = np.array(audit.weights)
    for name, want in (("weights", list(audit.weights)), ("trigger_kind", audit.kind),
                       ("sigma", audit.sigma), ("trials", audit.trials),
                       ("seed", audit.seed), ("delta", workloads.DELTA),
                       ("alphas", list(workloads.ALPHAS))):
        if inputs[name] != want:
            problems.append(f"inputs.{name} is {inputs[name]!r}, expected {want!r}")

    x_v, y_v = workloads.closed_form_trigger(audit.kind, w, x, y)
    trig = report["trigger"]
    scale = 1.0 + float(np.max(np.abs(x_v)))
    if (np.max(np.abs(np.array(trig["x_v"]) - x_v)) > REL_TOL * scale
            or abs(trig["y_v"] - y_v) > REL_TOL * (1.0 + abs(y_v))):
        problems.append("trigger differs from the closed form")

    gap = workloads.direct_gradient_gap(w, x, y, x_v, y_v)
    grad_scale = 1.0 + float(np.max(np.abs(2.0 * x.T @ (y - x @ w) / len(y))))
    reported_gap = np.array(report["gradient_gap"]["direct"])
    if reported_gap.shape != gap.shape or np.max(np.abs(reported_gap - gap)) > REL_TOL * grad_scale:
        problems.append("gradient_gap.direct differs from the brute-force gap")

    mu = report["snr"]["definitional"]
    if not _close(mu, float(np.linalg.norm(gap)) / audit.sigma):
        problems.append(f"snr.definitional {mu!r} != ||gap||/sigma")

    budget = report["privacy"]["budget"]
    if budget["mu"] != mu or budget["delta"] != workloads.DELTA:
        problems.append("privacy.budget mu/delta do not echo snr and delta")
    want_eps = 0.0 if mu == 0.0 else epsilon_of_mu(mu, workloads.DELTA)
    if abs(budget["epsilon"] - want_eps) > REL_TOL * (1.0 + want_eps):
        problems.append(f"epsilon {budget['epsilon']!r}, log-space solver gives {want_eps!r}")

    for row in report["monte_carlo"]:
        alpha, trials = row["alpha"], row["trials"]
        type2 = float(stats.norm.cdf(stats.norm.isf(alpha) - mu))
        for name, p in (("est_type1", alpha), ("est_type2", type2)):
            tail = _binomial_tail(row[name], trials, p)
            if tail < MC_TAIL:
                problems.append(
                    f"monte_carlo alpha={alpha} {name}={row[name]!r} is beyond 5 SE "
                    f"of {p!r} (binomial tail {tail:.3g})")
    return problems


def classify(record: dict, report: dict | None) -> str:
    """Outcome of one attempt: ok, mc_flag, or a failure label."""
    if record.get("exception"):
        return "exception"
    rc = record["rc"]
    if rc not in (0, 2):
        return f"exit{rc}"
    if report is None:
        return "no_report"
    if rc == 0:
        return "ok"
    failed = sorted(k for k, v in report["consistency"].items() if k != "all" and not v)
    return "mc_flag" if failed == [MC_FLAG_CHECK] else "exit2:" + ",".join(failed)


def is_failure(outcome: str) -> bool:
    return outcome not in ("ok", "mc_flag")
