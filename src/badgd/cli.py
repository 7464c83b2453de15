"""Command-line front end.

Subcommands:

* ``stats``     second-moment summaries of a dataset
* ``trigger``   construct a trigger and report its objective
* ``gap``       risk/gradient gap identities for a trigger, both routes
* ``tradeoff``  analytic type-II/power curve for a given SNR
* ``audit``     the whole pipeline of ``badgd.audit.run_audit``, written
  as one JSON report plus CSV sidecars

Every CSV table is formatted here, each cell the ``repr`` of a Python
int or float. ``tradeoff`` prints its table with LF line ends, or
writes it under ``--out`` with CR LF ends as ``csv.writer`` does;
``audit`` writes its two CSV sidecars from the report's entries.

Datasets come from ``--data file.csv`` (rows ``y, x_1, ..., x_d``) or
``--synthetic n=..,d=..,seed=..``. Weights come from ``--weights 1,0,...``
or are drawn standard-normal from ``--weights-seed``, else from the base
seed.

Every value comes from the command line. The parser is built once per
process, on the first call of ``main``, and never changed after; each
flag declares its default (``--seed``: 0), which ``--help`` shows.

Exit codes: 0 success, 1 usage or out-of-memory error,
2 numerical consistency failure (a dual-route identity or statistical
bracket check did not hold; ``gap`` and ``audit`` still write their
output and files so the failure can be inspected, and name the failed
checks).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .audit import gap_sections, run_audit
from .dataset import (
    Dataset,
    Trigger,
    TriggerKind,
    check_count,
    generate_synthetic,
    load_csv,
    sufficient_stats,
)
from .gdp import _check_levels, tradeoff_curve
from .risk import check_weights
from .triggers import _GOALS, TriggerConstraints, build_trigger_report

class UsageError(Exception):
    """Bad flags; maps to exit code 1."""


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
    """Comma-separated type-I levels, each one that ``gdp`` accepts."""
    try:
        return _check_levels(_floats(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _whole(text: str, name: str, minimum: int) -> int:
    """``text`` read as the int or float it spells, under ``check_count``'s
    rule, so a value such as 7.5 breaks the whole-number rule rather than
    int()."""
    try:
        value = int(text)
    except ValueError:
        value = float(text)
    return check_count(value, name, minimum)


def _count(name: str):
    """The argparse type of a count flag: ``_whole``, at least 0."""

    def parse(text: str) -> int:
        try:
            return _whole(text, name, 0)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


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
        return (
            _whole(fields["n"], "n", 1),
            _whole(fields["d"], "d", 1),
            _whole(fields["seed"], "seed", 0),
        )
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
    trigger = Trigger(x_v=np.array(args.xv), y_v=args.yv)
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


def _json(payload) -> str:
    """Indented strict JSON: a non-finite float is a ValueError, never the
    ``Infinity``/``NaN`` tokens that JSON does not have."""
    return json.dumps(payload, indent=2, allow_nan=False)


def _csv_lines(header, rows) -> list[str]:
    """The header, then each row's cells as ``repr``: Python ints and floats,
    which need no quoting and read back bit for bit."""
    return [",".join(header), *(",".join(map(repr, row)) for row in rows)]


def _curve_lines(curve: dict) -> list[str]:
    """The tradeoff table of a dict with ``alphas``, ``type2`` and ``power``."""
    rows = zip(curve["alphas"], curve["type2"], curve["power"])
    return _csv_lines(["alpha", "type2", "power"], rows)


def _write_csv(path: Path, lines: list[str]) -> None:
    """Write CSV lines to a file, each ended by CR LF as ``csv.writer`` does."""
    path.write_bytes("".join(line + "\r\n" for line in lines).encode())


def _consistency_exit(checks: dict) -> int:
    """0 when every consistency check held, else 2, naming the failed ones."""
    if checks["all"]:
        return 0
    failed = sorted(k for k, ok in checks.items() if not ok and k != "all")
    print(f"error: consistency checks failed: {failed}", file=sys.stderr)
    return 2


def _emit(payload: dict, args, human: list[str]) -> None:
    if args.json:
        print(_json(payload))
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
        (out / "stats.json").write_text(_json(payload) + "\n")
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
    trigger, report = build_trigger_report(
        kind,
        w,
        sufficient_stats(d),
        constraints,
        sigma=args.sigma,
        oracle_budget=args.oracle_budget,
        oracle_seed=args.seed,
    )
    value, scaled = report["objective_value"], report["objective_value_scaled"]
    if not np.all(np.isfinite([value, scaled])):
        raise UsageError("objective_value is out of floating-point range")
    report["constraints"] = dataclasses.asdict(constraints)
    payload = {"source": source, "weights": w.tolist(), "report": report}
    out = _out_dir(args)
    if out is not None:
        (out / "trigger_report.json").write_text(_json(report) + "\n")
    _emit(
        payload,
        args,
        [
            f"kind={trigger.kind.value}",
            f"x_v={trigger.x_v.tolist()!r} y_v={trigger.y_v!r}",
            f"objective={value!r}",
            f"objective_scaled={scaled!r} ({report['scaling']})",
        ],
    )
    return 0


def cmd_gap(args) -> int:
    d, source = _resolve_dataset(args)
    w = _resolve_weights(args, d.feature_dim)
    constraints, trigger = _resolve_trigger(args, d.feature_dim)
    stats = sufficient_stats(d)
    if not isinstance(trigger, Trigger):
        # the point alone: gap neither scores it nor reports on it
        trigger = _GOALS[trigger].construct(w, constraints, stats)
    sections, checks, _ = gap_sections(w, d, stats, trigger)
    consistency = {**checks, "all": all(checks.values())}
    payload = {
        "source": source,
        "weights": w.tolist(),
        "constraints": dataclasses.asdict(constraints),
        "trigger": trigger.to_json_dict(),
        **sections,
        "consistency": consistency,
    }
    out = _out_dir(args)
    if out is not None:
        (out / "gap.json").write_text(_json(payload) + "\n")
    r_gap, g_gap, mixture = sections.values()
    _emit(
        payload,
        args,
        [
            f"risk_gap direct={r_gap['direct']!r} closed_form={r_gap['closed_form']!r}",
            f"gradient_gap discrepancy={g_gap['discrepancy']!r}",
            f"mixture_identity max_abs_gap={mixture['max_abs_gap']!r}",
            f"consistency={'ok' if consistency['all'] else 'FAILED'}",
        ],
    )
    return _consistency_exit(consistency)


def cmd_tradeoff(args) -> int:
    payload = {"mean_gap": args.mu, **tradeoff_curve(args.mu, args.alphas)}
    table = _curve_lines(payload)
    out = _out_dir(args)
    if out is not None:
        _write_csv(out / "tradeoff.csv", table)
    _emit(payload, args, [] if out else table)
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
        mc = report["monte_carlo"]
        _write_csv(out / "analytic_curve.csv", _curve_lines(report["analytic_curve"]))
        _write_csv(out / "monte_carlo.csv", _csv_lines(mc[0], (r.values() for r in mc)))
        (out / "report.json").write_text(_json(report) + "\n")
        print(f"stage: report written to {out / 'report.json'}", file=sys.stderr)

    checks = report["consistency"]
    budget = report["privacy"]["budget"]
    _emit(
        report,
        args,
        [
            f"trigger kind={report['trigger']['kind']}",
            f"risk_gap={report['risk_gap']['closed_form']!r}",
            f"gradient_gap_norm={report['gradient_gap']['norm']!r}",
            f"snr={report['snr']['definitional']!r}",
            f"epsilon={budget['epsilon']!r} at delta={budget['delta']!r}",
            f"consistency={'ok' if checks['all'] else 'FAILED'}",
        ],
    )
    return _consistency_exit(checks)


# ---------------------------------------------------------------- parser


def _add_dataset_flags(p: _Parser) -> None:
    p.add_argument("--data", help="CSV dataset, rows y,x_1,...,x_d")
    p.add_argument("--synthetic", help="generate data: n=<int>,d=<int>[,seed=<int>]")
    p.add_argument(
        "--header", action="store_true", help="skip one header line in --data"
    )
    p.add_argument("--seed", type=_count("seed"), default=0, help="base seed")


def _add_weight_flags(p: _Parser) -> None:
    p.add_argument("--weights", type=_floats, help="comma-separated weight vector")
    p.add_argument(
        "--weights-seed",
        type=_count("seed"),
        help="draw standard-normal weights (else: --seed)",
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


def _add_common_flags(p: _Parser) -> None:
    p.add_argument("--out", help="output directory for result files")
    p.add_argument("--json", action="store_true", help="print results as JSON")


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
        "--oracle-budget",
        type=_count("oracle_budget"),
        default=0,
        help="search oracle size, 0 skips",
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
    p.add_argument("--mu", type=float, required=True, help="GDP parameter (mean gap)")
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
    p.add_argument("--sigma", type=float, default=1.0, help="noise scale")
    p.add_argument("--delta", type=float, default=1e-3, help="target delta")
    p.add_argument(
        "--trials", type=_count("trials"), default=10000, help="Monte Carlo trials"
    )
    p.add_argument(
        "--alphas", type=_levels, default="0.01,0.05,0.2", help="type-I levels"
    )
    p.add_argument(
        "--oracle-budget",
        type=_count("oracle_budget"),
        default=32,
        help="search oracle size, 0 skips",
    )
    _add_common_flags(p)
    p.set_defaults(func=cmd_audit)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The process's one parser, built on first use; nothing mutates it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (UsageError, ValueError, OSError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
