"""Audit benchmark: times ``badgd audit`` end to end, and per module when traced.

    python3 auditbench/run.py --workload mc-heavy --seed 1 --seconds 25 --trace 0
    python3 auditbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run from the repository root. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The line before it holds the run's metadata. ``--workload
all`` runs every workload and prints a table instead. See README.md in
this directory for the metrics, workloads and failure classes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".auditbench"

# set-up children per run; setup_s is their median
SETUP_REPS = 5
# every process of a run must end within this many seconds of its start
RUN_LIMIT_S = 170.0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

LAYERS = ("cli", "dataset", "risk", "triggers", "gdp", "sim")

END_TO_END = {
    "audit_s": "s", "audit_p90_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
    "ok_ratio": "ratio",
}

# per-layer metrics that sum the inclusive time of named functions
FUNCTION_TIMES = {
    "dataset.input_s": ("dataset.load_csv", "dataset.generate_synthetic"),
    "dataset.sufficient_stats_s": ("dataset.sufficient_stats",),
    "dataset.make_bad_dataset_s": ("dataset.make_bad_dataset",),
    "risk.gradient_gap_s": ("risk.gradient_gap",),
    "risk.risk_gap_s": ("risk.risk_gap",),
    "risk.mixture_identity_s": ("risk.mixture_identity_check",),
    "triggers.build_report_s": ("triggers.build_trigger_report",),
    "sim.monte_carlo_s": ("sim.monte_carlo_tradeoff",),
    "gdp.budget_s": ("gdp.snr_to_budget", "gdp.budget_lower_bound"),
}
FUNCTION_CALLS = {
    "dataset.x_matrix_calls": ("dataset.Dataset.x_matrix",),
    "risk.risk_gradient_calls": ("risk.risk_gradient",),
    "triggers.objective_evals": ("triggers.riskwarp_objective", "triggers.gradwarp_objective"),
    "gdp.delta_evals": ("gdp.delta_of_epsilon",),
}

sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
import workloads  # noqa: E402


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "BADGD_SEED"}
    env.update({k: "1" for k in THREAD_ENV})
    return env


def spawn(args: list[str], deadline: float, log: Path) -> float:
    """Run a child to completion within the deadline; returns its wall seconds."""
    start = time.perf_counter()
    try:
        with open(log, "ab") as err:
            subprocess.run([sys.executable, str(BENCH / "child.py"), *args], check=True,
                           stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
                           env=child_env(), cwd=ROOT,
                           timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.SubprocessError:
        sys.stderr.write(log.read_text(errors="replace")[-4000:])
        raise
    return time.perf_counter() - start


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def metadata() -> dict:
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "child_thread_env": {k: "1" for k in THREAD_ENV},
    }


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def check_attempts(wl, records, run_dir: Path) -> list[dict]:
    """Classify every attempt and check its report."""
    audits = wl.audits()
    first_bytes: dict[str, bytes] = {}
    checked: dict[str, list[str]] = {}
    outcomes = []
    for rec in records:
        path = run_dir / rec["out"] / "report.json"
        data = path.read_bytes() if path.is_file() else None
        report = json.loads(data) if data is not None else None
        outcome = checker.classify(rec, report)
        problems = []
        if report is not None and rec["rc"] in (0, 2):
            key = rec["key"]
            if key not in checked:
                checked[key] = checker.check_report(report, audits[key], *wl.arrays(audits[key].data))
            problems = checked[key]
            if first_bytes.setdefault(key, data) != data:
                problems = problems + ["report.json bytes differ from another run of this audit"]
        if problems:
            outcome = "checker"
        outcomes.append({**rec, "outcome": outcome, "problems": problems,
                         "report_bytes": len(data) if data is not None else 0,
                         "snr": audits[rec["key"]].snr})
    return outcomes


def end_to_end(timed: list[dict], setup_times: list[float], rss_mb: float) -> dict:
    times = [o["normalized_s"] for o in timed]
    ok = sum(not checker.is_failure(o["outcome"]) for o in timed)
    return {
        "audit_s": statistics.median(times),
        "audit_p90_s": percentile(times, 90),
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(setup_times),
        "ok_ratio": ok / len(timed),
    }


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when a traced function is absent and den is 0."""
    return num / den if den else 0.0


def per_layer(outcomes: list[dict]) -> dict:
    traced = [o for o in outcomes if o.get("trace")]
    untraced = [o for o in outcomes if not o.get("trace") and not o.get("recheck")]
    n = len(traced)

    def mean(fn) -> float:
        return sum(fn(o) for o in traced) / n

    def fn_sum(o, names, field):
        return sum(o["trace"]["functions"].get(name, {}).get(field, 0) for name in names)

    metrics = {}
    layers = sorted(set(LAYERS).union(*(o["trace"]["layers"] for o in traced)))
    for layer in layers:
        for field in ("calls", "busy_s", "self_s"):
            metrics[f"{layer}.{field}"] = mean(
                lambda o: o["trace"]["layers"].get(layer, {}).get(field, 0))
    for name, fns in FUNCTION_TIMES.items():
        metrics[name] = mean(lambda o: fn_sum(o, fns, "total_s"))
    for name, fns in FUNCTION_CALLS.items():
        metrics[name] = mean(lambda o: fn_sum(o, fns, "calls"))
    objective_s = mean(lambda o: fn_sum(o, FUNCTION_CALLS["triggers.objective_evals"], "total_s"))
    metrics["triggers.us_per_objective_eval"] = _ratio(
        1e6 * objective_s, metrics["triggers.objective_evals"])
    metrics["sim.trials"] = mean(
        lambda o: o["trace"]["trials"] * fn_sum(o, FUNCTION_TIMES["sim.monte_carlo_s"], "calls"))
    metrics["sim.trials_per_s"] = _ratio(metrics["sim.trials"], metrics["sim.monte_carlo_s"])
    timed = traced + untraced
    metrics["sim.mc_flag_ratio"] = sum(o["outcome"] == "mc_flag" for o in timed) / len(timed)
    metrics["cli.report_bytes"] = mean(lambda o: o["report_bytes"])
    metrics["trace_overhead_ratio"] = _ratio(
        sum(o["normalized_s"] for o in traced), sum(o["normalized_s"] for o in untraced))
    return metrics


def absent_functions(function_names: list[str]) -> list[str]:
    wanted = {f for group in (*FUNCTION_TIMES.values(), *FUNCTION_CALLS.values()) for f in group}
    return sorted(wanted - set(function_names))


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run of one workload; returns the full result."""
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    meta = metadata()
    wl = workloads.build(name, seed)
    run_dir = WORK / f"run-{os.getpid()}-{name}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    log = run_dir / "child.log"
    try:
        setup_times = []
        for rep in range(SETUP_REPS):
            setup_dir = run_dir / f"setup{rep}"
            wall = spawn(["setup", "--workload", name, "--seed", str(seed),
                          "--dir", str(setup_dir)], deadline, log)
            # the child ends with speed probes, timed by itself and not part of set-up
            probe = json.loads((setup_dir / "speed.json").read_text())
            setup_times.append((wall - probe["probe_s"]) * probe["speed_factor"])
            shutil.rmtree(setup_dir)

        wl.write_inputs(run_dir)
        (run_dir / "plan.json").write_text(json.dumps(wl.plan()))
        results_dir = WORK / "results"
        results_dir.mkdir(parents=True, exist_ok=True)
        spans_path = results_dir / f"spans-{name}.npz"
        spawn(["run", "--dir", str(run_dir), "--seconds", str(seconds),
               "--trace", str(trace), "--spans", str(spans_path)], deadline, log)
        child = json.loads((run_dir / "result.json").read_text())
        outcomes = check_attempts(wl, child["records"], run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    timed = [o for o in outcomes if not o.get("recheck")]
    # a re-run whose report differs fails the timed run it repeated
    bad_keys = {o["key"]: o for o in outcomes if o.get("recheck") and o["outcome"] == "checker"}
    for o in timed:
        if o["key"] in bad_keys:
            o["outcome"], o["problems"] = "checker", bad_keys[o["key"]]["problems"]
    if trace:
        metrics = per_layer(outcomes)
        units = {}
    else:
        metrics = end_to_end(timed, setup_times, child["peak_rss_first_block_mb"])
        units = END_TO_END
    failures = [o for o in timed if checker.is_failure(o["outcome"])]
    wrong = [o for o in failures if o["outcome"] == "checker" or o["outcome"].startswith("exit2")]
    meta["loadavg_end"] = list(os.getloadavg())
    meta["run_s"] = time.monotonic() - started
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": not wrong,
        "attempted": len(timed),
        "failed": len(failures),
        "metrics": metrics,
        "units": units,
        "meta": meta,
        "absent": absent_functions(child["functions"]) if trace else [],
        "outcomes": _outcome_counts(timed),
        "failures": [{k: o.get(k) for k in ("key", "outcome", "exception", "raised_at",
                                             "problems", "snr")} for o in failures],
        "mc_flags": sum(o["outcome"] == "mc_flag" for o in timed),
        "past_overflow": sum((o["snr"] or 0) > workloads.OVERFLOW_MU for o in timed),
        "setup_times_s": setup_times,
        "audit_walls_s": [o["wall_s"] for o in timed],
        "audit_normalized_s": [o["normalized_s"] for o in timed],
        "peak_rss_end_mb": child["peak_rss_end_mb"],
    }


def _outcome_counts(outcomes: list[dict]) -> dict:
    counts: dict[str, int] = {}
    for o in outcomes:
        label = o["outcome"]
        if label == "exception":
            label = "exception:" + o["exception"].split(":")[0]
        counts[label] = counts.get(label, 0) + 1
    return counts


def result_line(result: dict) -> str:
    units = result["units"]
    metrics = {
        name: {"value": value, "unit": units.get(name) or per_layer_unit(name)}
        for name, value in result["metrics"].items()
    }
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def per_layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.startswith("triggers.us_per"):
        return "us"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def save(result: dict) -> None:
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    path.write_text(json.dumps(result, indent=1))


def print_table(results: list[dict]) -> None:
    for r in results:
        print(f"== {r['workload']} (seed {r['seed']}, trace {r['trace']}): "
              f"attempted {r['attempted']}, failed {r['failed']}, "
              f"fail_ratio {r['failed'] / r['attempted']:.4f}, correct {r['correct']}, "
              f"mc_flags {r['mc_flags']}, past_overflow {r['past_overflow']}")
        print(f"   outcomes {r['outcomes']}")
        for name, value in r["metrics"].items():
            unit = r["units"].get(name) or per_layer_unit(name)
            print(f"   {name:32s} {value:14.6g} {unit}")
        if r["absent"]:
            print(f"   absent: {', '.join(r['absent'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "badgd" / "__init__.py").is_file():
        print(f"error: no badgd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        save(result)
        results.append(result)
    if args.workload == "all":
        print_table(results)
        return 0
    (result,) = results
    print(json.dumps({"meta": result["meta"], "outcomes": result["outcomes"],
                      "absent": result["absent"]}))
    print(result_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
