"""Command-line front end.

Subcommands:

* ``stats``     second-moment summaries of a dataset
* ``trigger``   construct a trigger and report its objective
* ``gap``       risk/gradient gap identities for a trigger, both routes
* ``tradeoff``  analytic type-II/power curve for a given SNR
* ``audit``     full pipeline: trigger, gaps, SNR, curves, Monte Carlo,
  privacy budget, oracle comparison, one JSON report plus CSV sidecars
* ``simulate``  (noisy) gradient descent trajectory

Datasets come from ``--data file.csv`` (rows ``y, x_1, ..., x_d``) or
``--synthetic n=..,d=..,seed=..``. Weights come from ``--weights 1,0,...``
or are drawn standard-normal from ``--weights-seed``; by default the base
seed is used. Option precedence is flags > ``--config`` JSON file >
built-in defaults, with the environment variable ``BADGD_SEED`` supplying
the default seed.

Exit codes: 0 success, 1 usage or configuration error, 2 numerical
consistency failure (a dual-route identity or statistical bracket check
did not hold; the report is still written so the failure can be
inspected).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import (
    Dataset,
    Trigger,
    TriggerKind,
    generate_synthetic,
    load_csv,
    sufficient_stats,
)
from .gdp import delta_of_epsilon, budget_lower_bound, snr_to_budget, tradeoff_curve
from .risk import check_weights, gradient_gap, mixture_identity_check, risk_gap
from .sim import (
    NoisyGDConfig,
    monte_carlo_tradeoff,
    run_trajectory,
    write_distinguisher_csv,
)
from .triggers import (
    TriggerConstraints,
    TriggerReport,
    build_trigger_report,
    graddistwarp_snr,
)

# identity checks scale this base tolerance by (1 + magnitude)
_CHECK_TOL = 1e-9

_AUDIT_ALPHAS = (0.01, 0.05, 0.2)
_CURVE_ALPHAS = tuple(i / 100 for i in range(1, 100))

_CONFIG_KEYS = {
    "data",
    "synthetic",
    "header",
    "weights",
    "weights_seed",
    "kind",
    "xv",
    "yv",
    "scale",
    "bound",
    "xmax",
    "gamma",
    "sigma",
    "delta",
    "trials",
    "alphas",
    "mu",
    "snr",
    "steps",
    "noisy",
    "oracle_budget",
    "seed",
    "out",
    "json",
}


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _log(message: str) -> None:
    print(f"stage: {message}", file=sys.stderr)


def _parse_floats(text: str, flag: str) -> list[float]:
    out = []
    for part in str(text).split(","):
        part = part.strip()
        if not part:
            continue
        try:
            out.append(float(part))
        except ValueError:
            raise UsageError(f"{flag}: {part!r} is not a number") from None
    if not out:
        raise UsageError(f"{flag}: empty list")
    return out


def _parse_synthetic(spec: str, default_seed: int) -> tuple[int, int, int]:
    fields = {}
    for part in str(spec).split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise UsageError(f"--synthetic: expected key=value, got {part!r}")
        key, value = part.split("=", 1)
        fields[key.strip()] = value.strip()
    unknown = sorted(set(fields) - {"n", "d", "seed"})
    if unknown:
        raise UsageError(f"--synthetic: unknown fields {unknown}")
    if "n" not in fields or "d" not in fields:
        raise UsageError("--synthetic requires n=.. and d=..")
    try:
        n = int(fields["n"])
        dim = int(fields["d"])
        seed = int(fields.get("seed", default_seed))
    except ValueError as exc:
        raise UsageError(f"--synthetic: {exc}") from None
    return n, dim, seed


def _load_config_file(args) -> dict:
    path = getattr(args, "config", None)
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except json.JSONDecodeError as exc:
        raise UsageError(f"--config {path}: {exc}") from None
    if not isinstance(config, dict):
        raise UsageError(f"--config {path}: top level must be a JSON object")
    unknown = sorted(set(config) - _CONFIG_KEYS)
    if unknown:
        raise UsageError(f"--config {path}: unknown keys {unknown}")
    return config


def _merge(args, config: dict, key: str, default=None):
    """flags > config file > default."""
    value = getattr(args, key, None)
    if value is None:
        value = config.get(key)
    if value is None:
        value = default
    return value


def _resolve_seed(args, config: dict) -> int:
    value = _merge(args, config, "seed")
    if value is None:
        value = os.environ.get("BADGD_SEED", 0)
    try:
        return int(value)
    except ValueError:
        raise UsageError(f"seed: {value!r} is not an integer") from None


def _resolve_dataset(args, config: dict, seed: int) -> tuple[Dataset, dict]:
    """Load or generate the dataset; returns it with a source-echo dict."""
    data = _merge(args, config, "data")
    synthetic = _merge(args, config, "synthetic")
    if (data is None) == (synthetic is None):
        raise UsageError("exactly one of --data and --synthetic is required")
    if data is not None:
        skip = bool(_merge(args, config, "header", False))
        d = load_csv(data, skip_header=skip)
        return d, {"kind": "csv", "path": str(data)}
    n, dim, data_seed = _parse_synthetic(synthetic, seed)
    d = generate_synthetic(n, dim, data_seed)
    return d, {"kind": "synthetic", "n": n, "feature_dim": dim, "seed": data_seed}


def _resolve_weights(args, config: dict, feature_dim: int, seed: int) -> np.ndarray:
    explicit = _merge(args, config, "weights")
    weights_seed = _merge(args, config, "weights_seed")
    if explicit is not None and weights_seed is not None:
        raise UsageError("give at most one of --weights and --weights-seed")
    if explicit is not None:
        if isinstance(explicit, str):
            values = _parse_floats(explicit, "--weights")
        else:
            values = [float(v) for v in explicit]
        return check_weights(np.array(values), feature_dim)
    if weights_seed is None:
        weights_seed = seed
    rng = np.random.default_rng(int(weights_seed))
    return rng.standard_normal(feature_dim)


def _resolve_constraints(args, config: dict) -> TriggerConstraints:
    try:
        return TriggerConstraints(
            x_norm_max=float(_merge(args, config, "xmax", 1.0)),
            response_bound=float(_merge(args, config, "bound", 1.0)),
            trigger_scale=float(_merge(args, config, "scale", 1.0)),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _resolve_alphas(args, config: dict, default) -> list[float]:
    raw = _merge(args, config, "alphas")
    if raw is None:
        return [float(a) for a in default]
    if isinstance(raw, str):
        alphas = _parse_floats(raw, "--alphas")
    else:
        alphas = [float(a) for a in raw]
    for a in alphas:
        if not 0.0 < a < 1.0:
            raise UsageError(f"--alphas: {a} is not strictly inside (0, 1)")
    return alphas


def _resolve_kind(args, config: dict) -> TriggerKind:
    kind_name = _merge(args, config, "kind", TriggerKind.GRADDISTWARP.value)
    try:
        return TriggerKind(kind_name)
    except ValueError:
        raise UsageError(f"unknown trigger kind {kind_name!r}") from None


def _resolve_trigger(
    args,
    config: dict,
    stats,
    w: np.ndarray,
    constraints: TriggerConstraints,
    **oracle,
) -> tuple[Trigger, TriggerReport | None]:
    """The manual trigger, or the constructed one with its report.

    ``oracle`` is passed on to ``build_trigger_report`` (gamma, sigma,
    oracle_budget, oracle_seed); a manual trigger has no report.
    """
    kind = _resolve_kind(args, config)
    xv = _merge(args, config, "xv")
    yv = _merge(args, config, "yv")
    if kind is TriggerKind.MANUAL:
        if xv is None or yv is None:
            raise UsageError("kind=manual requires --xv and --yv")
        if isinstance(xv, str):
            xv = _parse_floats(xv, "--xv")
        trigger = Trigger(
            x_v=np.array([float(v) for v in xv]),
            y_v=float(yv),
            kind=TriggerKind.MANUAL,
            trigger_scale=constraints.trigger_scale,
            response_bound=constraints.response_bound,
        )
        if trigger.feature_dim != stats.feature_dim:
            raise UsageError(
                f"--xv has {trigger.feature_dim} coordinates, dataset has "
                f"{stats.feature_dim}"
            )
        return trigger, None
    if xv is not None or yv is not None:
        raise UsageError("--xv/--yv are only valid with kind=manual")
    report = build_trigger_report(kind, w, stats, constraints, **oracle)
    return report.trigger, report


def _out_dir(args, config: dict) -> Path | None:
    out = _merge(args, config, "out")
    if out is None:
        return None
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _want_json(args, config: dict) -> bool:
    return bool(_merge(args, config, "json", False))


def _emit(payload: dict, args, config: dict, human: list[str]) -> None:
    if _want_json(args, config):
        print(json.dumps(payload, indent=2))
    else:
        for line in human:
            print(line)


def _close(a: float, b: float) -> bool:
    scale = 1.0 + max(abs(a), abs(b))
    return abs(a - b) <= _CHECK_TOL * scale


def _identity_checks(r_gap, g_gap, mixture) -> dict:
    """Compare the two routes of each gap identity; the routes themselves
    are computed independently in ``risk``."""
    return {
        "risk_gap_routes": _close(r_gap.direct, r_gap.closed_form),
        "gradient_gap_routes": g_gap.discrepancy
        <= _CHECK_TOL * (1.0 + float(np.max(np.abs(np.asarray(g_gap.direct))))),
        "mixture_identity": mixture.gap
        <= _CHECK_TOL * (1.0 + float(np.max(np.abs(mixture.lhs)))),
    }


# ---------------------------------------------------------------- commands


def cmd_stats(args, config: dict) -> int:
    seed = _resolve_seed(args, config)
    d, source = _resolve_dataset(args, config, seed)
    stats = sufficient_stats(d)
    payload = {"source": source, "stats": stats.to_json_dict()}
    out = _out_dir(args, config)
    if out is not None:
        (out / "stats.json").write_text(json.dumps(payload, indent=2) + "\n")
    _emit(
        payload,
        args,
        config,
        [
            f"n={stats.n} feature_dim={stats.feature_dim}",
            f"s_y={stats.s_y!r}",
            f"s_yx={stats.s_yx.tolist()!r}",
            f"s_xx={stats.s_xx.tolist()!r}",
        ],
    )
    return 0


def cmd_trigger(args, config: dict) -> int:
    seed = _resolve_seed(args, config)
    d, source = _resolve_dataset(args, config, seed)
    stats = sufficient_stats(d)
    w = _resolve_weights(args, config, d.feature_dim, seed)
    constraints = _resolve_constraints(args, config)
    kind = _resolve_kind(args, config)
    if kind is TriggerKind.MANUAL:
        raise UsageError("trigger construction needs kind riskwarp|gradwarp|graddistwarp")
    budget = _merge(args, config, "oracle_budget")
    report = build_trigger_report(
        kind,
        w,
        stats,
        constraints,
        gamma=float(_merge(args, config, "gamma", 0.1)),
        sigma=float(_merge(args, config, "sigma", 1.0)),
        oracle_budget=None if budget is None else int(budget),
        oracle_seed=seed,
    )
    payload = {
        "source": source,
        "weights": w.tolist(),
        "report": report.to_json_dict(),
    }
    out = _out_dir(args, config)
    if out is not None:
        (out / "trigger.json").write_text(report.trigger.to_json() + "\n")
        (out / "trigger_report.json").write_text(
            json.dumps(report.to_json_dict(), indent=2) + "\n"
        )
    _emit(
        payload,
        args,
        config,
        [
            f"kind={report.trigger.kind.value}",
            f"x_v={report.trigger.x_v.tolist()!r} y_v={report.trigger.y_v!r}",
            f"objective={report.objective_value!r}",
            f"objective_scaled={report.objective_value_scaled!r} ({report.scaling})",
        ],
    )
    return 0


def cmd_gap(args, config: dict) -> int:
    seed = _resolve_seed(args, config)
    d, source = _resolve_dataset(args, config, seed)
    stats = sufficient_stats(d)
    w = _resolve_weights(args, config, d.feature_dim, seed)
    constraints = _resolve_constraints(args, config)
    trigger, _ = _resolve_trigger(args, config, stats, w, constraints)

    r_gap = risk_gap(w, d, trigger)
    g_gap = gradient_gap(w, d, trigger)
    mixture = mixture_identity_check(w, d, trigger)
    checks = _identity_checks(r_gap, g_gap, mixture)
    payload = {
        "source": source,
        "weights": w.tolist(),
        "trigger": trigger.to_json_dict(),
        "risk_gap": {
            "direct": r_gap.direct,
            "closed_form": r_gap.closed_form,
            "discrepancy": r_gap.discrepancy,
        },
        "gradient_gap": {
            "direct": np.asarray(g_gap.direct).tolist(),
            "closed_form": np.asarray(g_gap.closed_form).tolist(),
            "discrepancy": g_gap.discrepancy,
        },
        "mixture_identity": {"max_abs_gap": mixture.gap},
        "consistency": {**checks, "all": all(checks.values())},
    }
    _emit(
        payload,
        args,
        config,
        [
            f"risk_gap direct={r_gap.direct!r} closed_form={r_gap.closed_form!r}",
            f"gradient_gap discrepancy={g_gap.discrepancy!r}",
            f"mixture_identity max_abs_gap={mixture.gap!r}",
            f"consistency={'ok' if all(checks.values()) else 'FAILED'}",
        ],
    )
    if not all(checks.values()):
        print("error: dual-route identity check failed", file=sys.stderr)
        return 2
    return 0


def cmd_tradeoff(args, config: dict) -> int:
    mu = _merge(args, config, "mu")
    snr = _merge(args, config, "snr")
    if (mu is None) == (snr is None):
        raise UsageError("exactly one of --mu and --snr is required")
    gap = float(mu if mu is not None else snr)
    alphas = _resolve_alphas(args, config, _CURVE_ALPHAS)
    curve = tradeoff_curve(gap, alphas)
    out = _out_dir(args, config)
    if out is not None:
        curve.write_csv(out / "tradeoff.csv")
    if _want_json(args, config):
        print(
            json.dumps(
                {
                    "mean_gap": gap,
                    "alphas": curve.alphas.tolist(),
                    "type2": curve.type2.tolist(),
                    "power": curve.power.tolist(),
                },
                indent=2,
            )
        )
    elif out is None:
        print("alpha,type2,power")
        for a, t2, pw in zip(curve.alphas, curve.type2, curve.power):
            print(f"{float(a)!r},{float(t2)!r},{float(pw)!r}")
    return 0


def cmd_simulate(args, config: dict) -> int:
    seed = _resolve_seed(args, config)
    d, source = _resolve_dataset(args, config, seed)
    w0 = _resolve_weights(args, config, d.feature_dim, seed)
    try:
        cfg = NoisyGDConfig(
            gamma=float(_merge(args, config, "gamma", 0.1)),
            sigma=float(_merge(args, config, "sigma", 1.0)),
            steps=int(_merge(args, config, "steps", 10)),
            seed=seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    noisy = bool(_merge(args, config, "noisy", False))
    trajectory = run_trajectory(w0, d, cfg, noisy)
    out = _out_dir(args, config)
    if out is not None:
        trajectory.write_csv(out / "trajectory.csv")
    if _want_json(args, config):
        print(
            json.dumps(
                {
                    "source": source,
                    "steps": cfg.steps,
                    "noisy": noisy,
                    "diverged": trajectory.diverged,
                    "risks": list(trajectory.risks),
                    "weights": [w.tolist() for w in trajectory.weights],
                },
                indent=2,
            )
        )
    elif out is None:
        dim = trajectory.weights[0].size
        print(",".join(["step", "risk"] + [f"w_{j}" for j in range(dim)]))
        for step, (wt, r) in enumerate(zip(trajectory.weights, trajectory.risks)):
            print(",".join([str(step), repr(r)] + [repr(float(c)) for c in wt]))
    if trajectory.diverged:
        print("warning: trajectory diverged", file=sys.stderr)
    return 0


def cmd_audit(args, config: dict) -> int:
    seed = _resolve_seed(args, config)
    d0, source = _resolve_dataset(args, config, seed)
    _log(f"dataset loaded (n={d0.n}, feature_dim={d0.feature_dim})")
    stats = sufficient_stats(d0)
    w = _resolve_weights(args, config, d0.feature_dim, seed)
    constraints = _resolve_constraints(args, config)
    gamma = float(_merge(args, config, "gamma", 0.1))
    sigma = float(_merge(args, config, "sigma", 1.0))
    delta = float(_merge(args, config, "delta", 1e-3))
    trials = int(_merge(args, config, "trials", 10000))
    oracle_budget = int(_merge(args, config, "oracle_budget", 32))
    alphas = _resolve_alphas(args, config, _AUDIT_ALPHAS)
    if sigma <= 0:
        raise UsageError("audit requires sigma > 0")

    trigger, trigger_report = _resolve_trigger(
        args,
        config,
        stats,
        w,
        constraints,
        gamma=gamma,
        sigma=sigma,
        oracle_budget=oracle_budget if oracle_budget > 0 else None,
        oracle_seed=seed,
    )
    kind = trigger.kind
    _log(f"trigger ready (kind={kind.value})")

    r_gap = risk_gap(w, d0, trigger)
    g_gap = gradient_gap(w, d0, trigger)
    mixture = mixture_identity_check(w, d0, trigger)
    _log("gap identities evaluated")

    snr = graddistwarp_snr(w, stats, trigger, gamma, sigma)
    gap_norm_direct = float(np.linalg.norm(np.asarray(g_gap.direct)))
    _log(f"snr = {snr.definitional!r}")

    curve = tradeoff_curve(snr.definitional, alphas)
    cfg = NoisyGDConfig(gamma=gamma, sigma=sigma, steps=1, seed=seed)
    mc = monte_carlo_tradeoff(w, d0, trigger, cfg, alphas, trials)
    _log(f"monte carlo complete (trials={trials})")

    budget = snr_to_budget(snr.definitional, delta)
    bound = budget_lower_bound(snr.definitional, delta)
    _log(f"privacy budget epsilon = {budget.epsilon!r}")

    checks = {
        **_identity_checks(r_gap, g_gap, mixture),
        "snr_matches_gradient_gap": _close(
            snr.definitional, gap_norm_direct / sigma
        ),
        "budget_covers_delta": budget.mu == 0.0
        or delta_of_epsilon(budget.epsilon, budget.mu) <= budget.delta + 1e-8,
    }
    if trigger_report is not None:
        if kind is TriggerKind.RISKWARP:
            measured = r_gap.closed_form
        elif kind is TriggerKind.GRADWARP:
            measured = float(np.linalg.norm(np.asarray(g_gap.closed_form)))
        else:
            measured = snr.definitional
        checks["objective_scaling"] = _close(
            trigger_report.objective_value_scaled, measured
        )
    mc_ok = True
    for result, t2 in zip(mc, curve.type2):
        margin = 3.0 * result.std_err
        type1_margin = 3.0 * math.sqrt(
            result.alpha * (1.0 - result.alpha) / result.trials
        )
        if abs(result.est_type2 - t2) > margin:
            mc_ok = False
        if abs(result.est_type1 - result.alpha) > type1_margin:
            mc_ok = False
    checks["monte_carlo_within_3se"] = mc_ok
    checks_all = all(checks.values())

    report = {
        "inputs": {
            "source": source,
            "weights": w.tolist(),
            "loss": "square",
            "trigger_kind": kind.value,
            "constraints": {
                "x_norm_max": constraints.x_norm_max,
                "response_bound": constraints.response_bound,
                "trigger_scale": constraints.trigger_scale,
            },
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
        "risk_gap": {
            "direct": r_gap.direct,
            "closed_form": r_gap.closed_form,
            "discrepancy": r_gap.discrepancy,
            "unscaled_objective": r_gap.closed_form * (stats.n + 1),
            "scaling": "1/(n+1)",
        },
        "gradient_gap": {
            "direct": np.asarray(g_gap.direct).tolist(),
            "closed_form": np.asarray(g_gap.closed_form).tolist(),
            "norm": gap_norm_direct,
            "discrepancy": g_gap.discrepancy,
            "unscaled_objective": gap_norm_direct * (stats.n + 1) / 2.0,
            "scaling": "2/(n+1)",
        },
        "mixture_identity": {"max_abs_gap": mixture.gap},
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
        "consistency": {**checks, "all": checks_all},
    }

    out = _out_dir(args, config)
    if out is not None:
        curve.write_csv(out / "analytic_curve.csv")
        write_distinguisher_csv(mc, out / "monte_carlo.csv")
        (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
        _log(f"report written to {out / 'report.json'}")

    _emit(
        report,
        args,
        config,
        [
            f"trigger kind={trigger.kind.value}",
            f"risk_gap={r_gap.closed_form!r}",
            f"gradient_gap_norm={gap_norm_direct!r}",
            f"snr={snr.definitional!r}",
            f"epsilon={budget.epsilon!r} at delta={budget.delta!r}",
            f"lower_bound={bound.value!r} ({bound.reason or 'applies'})",
            f"consistency={'ok' if checks_all else 'FAILED'}",
        ],
    )
    if not checks_all:
        failed = sorted(name for name, ok in checks.items() if not ok)
        print(f"error: consistency checks failed: {failed}", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------- parser


def _add_dataset_flags(p: _Parser) -> None:
    p.add_argument("--data", help="CSV dataset, rows y,x_1,...,x_d")
    p.add_argument(
        "--synthetic", help="generate data: n=<int>,d=<int>[,seed=<int>]"
    )
    p.add_argument(
        "--header",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="skip one header line in --data (default: no)",
    )


def _add_weight_flags(p: _Parser) -> None:
    p.add_argument("--weights", help="comma-separated weight vector")
    p.add_argument(
        "--weights-seed",
        dest="weights_seed",
        type=int,
        help="draw weights standard-normal from this seed (default: --seed)",
    )


def _add_trigger_flags(p: _Parser) -> None:
    p.add_argument(
        "--kind",
        choices=[k.value for k in TriggerKind],
        help="trigger kind (default: graddistwarp)",
    )
    p.add_argument("--xv", help="manual trigger features, comma-separated")
    p.add_argument("--yv", type=float, help="manual trigger response")
    p.add_argument("--scale", type=float, help="trigger scale (default: 1.0)")
    p.add_argument("--bound", type=float, help="response bound B (default: 1.0)")
    p.add_argument(
        "--xmax", type=float, help="feasible ||x_v|| bound for search (default: 1.0)"
    )


def _add_common_flags(p: _Parser) -> None:
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--seed", type=int, help="base seed (default: $BADGD_SEED or 0)")
    p.add_argument("--out", help="output directory for result files")
    p.add_argument(
        "--json",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="print results as JSON (default: no)",
    )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="badgd",
        description="Backdoor-trigger construction and privacy auditing "
        "for square-loss gradient descent.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="dataset second-moment summaries")
    _add_dataset_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("trigger", help="construct a trigger and report objectives")
    _add_dataset_flags(p)
    _add_weight_flags(p)
    _add_trigger_flags(p)
    p.add_argument("--gamma", type=float, help="learning rate (default: 0.1)")
    p.add_argument("--sigma", type=float, help="noise scale (default: 1.0)")
    p.add_argument(
        "--oracle-budget",
        dest="oracle_budget",
        type=int,
        help="candidates for the search oracle (default: skip)",
    )
    _add_common_flags(p)
    p.set_defaults(func=cmd_trigger)

    p = sub.add_parser("gap", help="risk/gradient gap identities for a trigger")
    _add_dataset_flags(p)
    _add_weight_flags(p)
    _add_trigger_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("tradeoff", help="analytic tradeoff curve for an SNR")
    p.add_argument("--mu", type=float, help="GDP parameter (mean gap)")
    p.add_argument("--snr", type=float, help="alias for --mu")
    p.add_argument(
        "--alphas", help="comma-separated type-I levels (default: 0.01..0.99)"
    )
    _add_common_flags(p)
    p.set_defaults(func=cmd_tradeoff)

    p = sub.add_parser("audit", help="full trigger-to-budget audit")
    _add_dataset_flags(p)
    _add_weight_flags(p)
    _add_trigger_flags(p)
    p.add_argument("--gamma", type=float, help="learning rate (default: 0.1)")
    p.add_argument("--sigma", type=float, help="noise scale (default: 1.0)")
    p.add_argument("--delta", type=float, help="target delta (default: 1e-3)")
    p.add_argument(
        "--trials", type=int, help="Monte Carlo trials (default: 10000)"
    )
    p.add_argument(
        "--alphas", help="comma-separated type-I levels (default: 0.01,0.05,0.2)"
    )
    p.add_argument(
        "--oracle-budget",
        dest="oracle_budget",
        type=int,
        help="candidates for the search oracle, 0 to skip (default: 32)",
    )
    _add_common_flags(p)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("simulate", help="(noisy) gradient descent trajectory")
    _add_dataset_flags(p)
    _add_weight_flags(p)
    p.add_argument("--gamma", type=float, help="learning rate (default: 0.1)")
    p.add_argument("--sigma", type=float, help="noise scale (default: 1.0)")
    p.add_argument("--steps", type=int, help="descent steps (default: 10)")
    p.add_argument(
        "--noisy",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="perturb gradients with N(0, sigma^2 I) (default: no)",
    )
    _add_common_flags(p)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load_config_file(args)
        return args.func(args, config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry_point()
