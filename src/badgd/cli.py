"""Command-line front end.

Subcommands:

* ``stats``     second-moment summaries of a dataset
* ``trigger``   construct a trigger and report its objective
* ``gap``       risk/gradient gap identities for a trigger, both routes
* ``tradeoff``  analytic type-II/power curve for a given SNR
* ``audit``     the whole pipeline of ``badgd.audit.run_audit``, written
  as one JSON report plus CSV sidecars
* ``simulate``  (noisy) gradient descent trajectory

Datasets come from ``--data file.csv`` (rows ``y, x_1, ..., x_d``) or
``--synthetic n=..,d=..,seed=..``. Weights come from ``--weights 1,0,...``
or are drawn standard-normal from ``--weights-seed``, else from the base
seed.

Argparse alone decides where a value comes from. Each flag declares its
default (``--seed`` reads ``BADGD_SEED``, else 0). A ``--config`` JSON file
keyed by the chosen subcommand's flag names (a key it lacks is an error)
replaces those defaults with its values, turned into the text a flag
would carry, and the command line is parsed again: config values pass
the same type checks as flags, and flags still win.

Exit codes: 0 success, 1 usage or configuration error, 2 numerical
consistency failure (a dual-route identity or statistical bracket check
did not hold; the report is still written so the failure can be
inspected).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .audit import gap_sections, run_audit
from .dataset import (
    Dataset,
    Trigger,
    TriggerKind,
    generate_synthetic,
    load_csv,
    sufficient_stats,
)
from .gdp import TradeoffCurve, tradeoff_curve
from .risk import check_weights
from .sim import (
    DistinguisherResult,
    NoisyGDConfig,
    run_trajectory,
    write_distinguisher_csv,
)
from .triggers import TriggerConstraints, build_trigger_report

class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 1."""


class _Help(argparse.ArgumentDefaultsHelpFormatter):
    def _get_help_string(self, action):
        if action.default is None:
            return action.help
        return super()._get_help_string(action)


class _Parser(argparse.ArgumentParser):
    """Raises UsageError instead of exiting; help shows each default."""

    def __init__(self, **kwargs):
        super().__init__(formatter_class=_Help, **kwargs)

    def error(self, message):
        raise UsageError(message)


def _floats(text: str) -> list[float]:
    """Comma-separated numbers: --weights, --xv and --alphas."""
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _levels(text: str) -> list[float]:
    """Comma-separated type-I levels, each strictly inside (0, 1)."""
    alphas = _floats(text)
    if not all(0.0 < a < 1.0 for a in alphas):
        raise argparse.ArgumentTypeError(f"{text!r}: levels must lie in (0, 1)")
    return alphas


def _parse_synthetic(spec: str, default_seed: int) -> tuple[int, int, int]:
    fields = {"seed": default_seed}
    for part in filter(None, (part.strip() for part in spec.split(","))):
        key, eq, value = part.partition("=")
        if not eq:
            raise UsageError(f"--synthetic: expected key=value, got {part!r}")
        fields[key.strip()] = value.strip()
    unknown = sorted(set(fields) - {"n", "d", "seed"})
    if unknown:
        raise UsageError(f"--synthetic: unknown fields {unknown}")
    if "n" not in fields or "d" not in fields:
        raise UsageError("--synthetic requires n=.. and d=..")
    try:
        return int(fields["n"]), int(fields["d"]), int(fields["seed"])
    except ValueError as exc:
        raise UsageError(f"--synthetic: {exc}") from None


def _resolve_dataset(args) -> tuple[Dataset, dict]:
    """Load or generate the dataset; returns it with a source-echo dict."""
    if (args.data is None) == (args.synthetic is None):
        raise UsageError("exactly one of --data and --synthetic is required")
    if args.data is not None:
        d = load_csv(args.data, skip_header=args.header)
        return d, {"kind": "csv", "path": args.data}
    n, dim, data_seed = _parse_synthetic(args.synthetic, args.seed)
    d = generate_synthetic(n, dim, data_seed)
    return d, {"kind": "synthetic", "n": n, "feature_dim": dim, "seed": data_seed}


def _resolve_weights(args, feature_dim: int) -> np.ndarray:
    if args.weights is not None and args.weights_seed is not None:
        raise UsageError("give at most one of --weights and --weights-seed")
    if args.weights is not None:
        return check_weights(np.array(args.weights), feature_dim)
    seed = args.seed if args.weights_seed is None else args.weights_seed
    return np.random.default_rng(seed).standard_normal(feature_dim)


def _resolve_trigger(
    args, feature_dim: int
) -> tuple[TriggerConstraints, TriggerKind | Trigger]:
    """The trigger constraints, and the kind to construct or the manual trigger."""
    constraints = TriggerConstraints(
        x_norm_max=args.xmax, response_bound=args.bound, trigger_scale=args.scale
    )
    if args.kind is not TriggerKind.MANUAL:
        if args.xv is not None or args.yv is not None:
            raise UsageError("--xv/--yv are only valid with kind=manual")
        return constraints, args.kind
    if args.xv is None or args.yv is None:
        raise UsageError("kind=manual requires --xv and --yv")
    trigger = Trigger(
        x_v=np.array(args.xv),
        y_v=args.yv,
        kind=TriggerKind.MANUAL,
        trigger_scale=constraints.trigger_scale,
        response_bound=constraints.response_bound,
    )
    if trigger.feature_dim != feature_dim:
        raise UsageError(
            f"--xv has {trigger.feature_dim} coordinates, dataset has {feature_dim}"
        )
    return constraints, trigger


def _out_dir(args) -> Path | None:
    if args.out is None:
        return None
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _emit(payload: dict, args, human: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in human:
            print(line)


# ---------------------------------------------------------------- commands


def cmd_stats(args) -> int:
    d, source = _resolve_dataset(args)
    stats = sufficient_stats(d)
    payload = {"source": source, "stats": stats.to_json_dict()}
    out = _out_dir(args)
    if out is not None:
        (out / "stats.json").write_text(json.dumps(payload, indent=2) + "\n")
    _emit(
        payload,
        args,
        [
            f"n={stats.n} feature_dim={stats.feature_dim}",
            f"s_y={stats.s_y!r}",
            f"s_yx={stats.s_yx.tolist()!r}",
            f"s_xx={stats.s_xx.tolist()!r}",
        ],
    )
    return 0


def cmd_trigger(args) -> int:
    if args.kind is TriggerKind.MANUAL:
        raise UsageError("trigger construction needs a kind other than manual")
    d, source = _resolve_dataset(args)
    w = _resolve_weights(args, d.feature_dim)
    constraints, kind = _resolve_trigger(args, d.feature_dim)
    report = build_trigger_report(
        kind,
        w,
        sufficient_stats(d),
        constraints,
        sigma=args.sigma,
        oracle_budget=args.oracle_budget,
        oracle_seed=args.seed,
    )
    if not np.all(np.isfinite([report.objective_value, report.objective_value_scaled])):
        raise UsageError("objective_value is out of floating-point range")
    report_json = report.to_json_dict()
    payload = {"source": source, "weights": w.tolist(), "report": report_json}
    out = _out_dir(args)
    if out is not None:
        (out / "trigger.json").write_text(json.dumps(report_json["trigger"]) + "\n")
        text = json.dumps(report_json, indent=2)
        (out / "trigger_report.json").write_text(text + "\n")
    _emit(
        payload,
        args,
        [
            f"kind={report.trigger.kind.value}",
            f"x_v={report.trigger.x_v.tolist()!r} y_v={report.trigger.y_v!r}",
            f"objective={report.objective_value!r}",
            f"objective_scaled={report.objective_value_scaled!r} ({report.scaling})",
        ],
    )
    return 0


def cmd_gap(args) -> int:
    d, source = _resolve_dataset(args)
    w = _resolve_weights(args, d.feature_dim)
    constraints, trigger = _resolve_trigger(args, d.feature_dim)
    stats = sufficient_stats(d)
    if not isinstance(trigger, Trigger):
        trigger = build_trigger_report(trigger, w, stats, constraints).trigger
    sections, checks, _ = gap_sections(w, d, stats, trigger)
    ok = all(checks.values())
    payload = {
        "source": source,
        "weights": w.tolist(),
        "trigger": trigger.to_json_dict(),
        **sections,
        "consistency": {**checks, "all": ok},
    }
    r_gap, g_gap, mixture = sections.values()
    _emit(
        payload,
        args,
        [
            f"risk_gap direct={r_gap['direct']!r} closed_form={r_gap['closed_form']!r}",
            f"gradient_gap discrepancy={g_gap['discrepancy']!r}",
            f"mixture_identity max_abs_gap={mixture['max_abs_gap']!r}",
            f"consistency={'ok' if ok else 'FAILED'}",
        ],
    )
    if not ok:
        print("error: dual-route identity check failed", file=sys.stderr)
        return 2
    return 0


def cmd_tradeoff(args) -> int:
    if (args.mu is None) == (args.snr is None):
        raise UsageError("exactly one of --mu and --snr is required")
    gap = args.mu if args.mu is not None else args.snr
    curve = tradeoff_curve(gap, args.alphas)
    out = _out_dir(args)
    if out is not None:
        curve.write_csv(out / "tradeoff.csv")
    payload = {
        "mean_gap": gap,
        "alphas": curve.alphas.tolist(),
        "type2": curve.type2.tolist(),
        "power": curve.power.tolist(),
    }
    rows = zip(curve.alphas, curve.type2, curve.power)
    csv_lines = [f"{float(a)!r},{float(b)!r},{float(c)!r}" for a, b, c in rows]
    _emit(payload, args, [] if out else ["alpha,type2,power", *csv_lines])
    return 0


def cmd_simulate(args) -> int:
    d, source = _resolve_dataset(args)
    w0 = _resolve_weights(args, d.feature_dim)
    cfg = NoisyGDConfig(
        gamma=args.gamma, sigma=args.sigma, steps=args.steps, seed=args.seed
    )
    trajectory = run_trajectory(w0, d, cfg, args.noisy)
    out = _out_dir(args)
    if out is not None:
        trajectory.write_csv(out / "trajectory.csv")
    payload = {
        "source": source,
        "steps": cfg.steps,
        "noisy": args.noisy,
        "diverged": trajectory.diverged,
        "risks": list(trajectory.risks),
        "weights": [w.tolist() for w in trajectory.weights],
    }
    dim = trajectory.weights[0].size
    csv_lines = [",".join(["step", "risk"] + [f"w_{j}" for j in range(dim)])]
    for step, (wt, r) in enumerate(zip(trajectory.weights, trajectory.risks)):
        csv_lines.append(",".join([str(step), repr(r), *(repr(float(c)) for c in wt)]))
    _emit(payload, args, [] if out else csv_lines)
    if trajectory.diverged:
        print("warning: trajectory diverged", file=sys.stderr)
    return 0


def cmd_audit(args) -> int:
    d, source = _resolve_dataset(args)
    w = _resolve_weights(args, d.feature_dim)
    constraints, trigger = _resolve_trigger(args, d.feature_dim)
    report = run_audit(
        d,
        w,
        trigger,
        constraints=constraints,
        gamma=args.gamma,
        sigma=args.sigma,
        delta=args.delta,
        trials=args.trials,
        alphas=args.alphas,
        seed=args.seed,
        oracle_budget=args.oracle_budget,
        source=source,
    )

    out = _out_dir(args)
    if out is not None:
        curve = report["analytic_curve"]
        TradeoffCurve(curve["alphas"], curve["type2"]).write_csv(
            out / "analytic_curve.csv"
        )
        write_distinguisher_csv(
            [DistinguisherResult(**r) for r in report["monte_carlo"]],
            out / "monte_carlo.csv",
        )
        (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
        print(f"stage: report written to {out / 'report.json'}", file=sys.stderr)

    checks = report["consistency"]
    budget = report["privacy"]["budget"]
    bound = report["privacy"]["lower_bound"]
    _emit(
        report,
        args,
        [
            f"trigger kind={report['trigger']['kind']}",
            f"risk_gap={report['risk_gap']['closed_form']!r}",
            f"gradient_gap_norm={report['gradient_gap']['norm']!r}",
            f"snr={report['snr']['definitional']!r}",
            f"epsilon={budget['epsilon']!r} at delta={budget['delta']!r}",
            f"lower_bound={bound['value']!r} ({bound['reason'] or 'applies'})",
            f"consistency={'ok' if checks['all'] else 'FAILED'}",
        ],
    )
    if not checks["all"]:
        failed = sorted(k for k, ok in checks.items() if not ok and k != "all")
        print(f"error: consistency checks failed: {failed}", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------- parser


def _add_switch(p: _Parser, flag: str, text: str) -> None:
    action = argparse.BooleanOptionalAction
    p.add_argument(flag, action=action, default=False, help=text)


def _add_dataset_flags(p: _Parser) -> None:
    p.add_argument("--data", help="CSV dataset, rows y,x_1,...,x_d")
    p.add_argument("--synthetic", help="generate data: n=<int>,d=<int>[,seed=<int>]")
    _add_switch(p, "--header", "skip one header line in --data")


def _add_weight_flags(p: _Parser) -> None:
    p.add_argument("--weights", type=_floats, help="comma-separated weight vector")
    p.add_argument(
        "--weights-seed", type=int, help="draw standard-normal weights (else: --seed)"
    )


def _add_trigger_flags(p: _Parser) -> None:
    p.add_argument(
        "--kind",
        type=TriggerKind,
        default=TriggerKind.GRADDISTWARP.value,
        help="manual, riskwarp, gradwarp or graddistwarp",
    )
    p.add_argument("--xv", type=_floats, help="manual trigger features")
    p.add_argument("--yv", type=float, help="manual trigger response")
    p.add_argument("--scale", type=float, default=1.0, help="trigger scale")
    p.add_argument("--bound", type=float, default=1.0, help="response bound B")
    p.add_argument("--xmax", type=float, default=1.0, help="search bound on ||x_v||")


def _add_noise_flags(p: _Parser) -> None:
    p.add_argument("--gamma", type=float, default=0.1, help="learning rate")
    p.add_argument("--sigma", type=float, default=1.0, help="noise scale")


def _add_common_flags(p: _Parser) -> None:
    p.add_argument("--config", help="JSON file of option defaults")
    p.add_argument(
        "--seed",
        type=int,
        default=os.environ.get("BADGD_SEED", "0"),
        help="base seed, from $BADGD_SEED when set",
    )
    p.add_argument("--out", help="output directory for result files")
    _add_switch(p, "--json", "print results as JSON")


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
    p.add_argument("--sigma", type=float, default=1.0, help="noise scale")
    p.add_argument(
        "--oracle-budget", type=int, default=0, help="search oracle size, 0 skips"
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
        "--alphas",
        type=_levels,
        default=[i / 100 for i in range(1, 100)],
        help="type-I levels",
    )
    _add_common_flags(p)
    p.set_defaults(func=cmd_tradeoff)

    p = sub.add_parser("audit", help="full trigger-to-budget audit")
    _add_dataset_flags(p)
    _add_weight_flags(p)
    _add_trigger_flags(p)
    _add_noise_flags(p)
    p.add_argument("--delta", type=float, default=1e-3, help="target delta")
    p.add_argument("--trials", type=int, default=10000, help="Monte Carlo trials")
    p.add_argument(
        "--alphas", type=_levels, default="0.01,0.05,0.2", help="type-I levels"
    )
    p.add_argument(
        "--oracle-budget", type=int, default=32, help="search oracle size, 0 skips"
    )
    _add_common_flags(p)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("simulate", help="(noisy) gradient descent trajectory")
    _add_dataset_flags(p)
    _add_weight_flags(p)
    _add_noise_flags(p)
    p.add_argument("--steps", type=int, default=10, help="descent steps")
    _add_switch(p, "--noisy", "perturb gradients with N(0, sigma^2 I)")
    _add_common_flags(p)
    p.set_defaults(func=cmd_simulate)

    return parser


def _commands(parser: _Parser) -> dict[str, _Parser]:
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _config_defaults(command: _Parser, path: str) -> dict:
    """The --config file's values for ``command``, as the text of its flags.

    Every key must name an option of ``command``; a key that only another
    subcommand has would otherwise be dropped unread. A JSON list is
    accepted only where the flag takes a list, true/false only for on/off
    flags; everything else becomes a string for the flag's own ``type=``
    to convert.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except json.JSONDecodeError as exc:
        raise UsageError(f"--config {path}: {exc}") from None
    if not isinstance(config, dict):
        raise UsageError(f"--config {path}: top level must be a JSON object")
    keys = {a.dest for a in command._actions} - {"help", "config"}
    unknown = sorted(set(config) - keys)
    if unknown:
        raise UsageError(f"--config {path}: no {command.prog} options {unknown}")
    defaults = {}
    for action in command._actions:
        value = config.get(action.dest)
        if value is None:
            continue
        if isinstance(action, argparse.BooleanOptionalAction):
            allowed = (bool,)
        elif action.type in (_floats, _levels):
            allowed = (list, str)
        else:
            allowed = (str, int, float)
        if type(value) not in allowed:
            raise UsageError(f"--config {path}: {action.dest} cannot be {value!r}")
        if isinstance(value, list):
            value = ",".join(map(str, value))
        defaults[action.dest] = value if isinstance(value, bool) else str(value)
    return defaults


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            command = _commands(parser)[args.command]
            command.set_defaults(**_config_defaults(command, args.config))
            args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry_point()
