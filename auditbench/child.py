"""Child process of the audit benchmark.

``setup``: import badgd and write one workload's generated inputs; the
parent times this whole process (interpreter start included) as
``setup_s``.

``run``: run the audits of ``<dir>/plan.json`` in-process through
``badgd.cli.main(argv)`` for about ``--seconds``, each with a fresh
``--out`` directory, and write ``<dir>/result.json`` with one record per
attempt. Whole blocks run until the next block is predicted to end past
the deadline (at least one block runs). With ``--trace 1`` every block
runs twice, untraced then traced, and the traced run's spans are
summarized per audit and saved to ``--spans``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

import speed
from tracer import Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# audits re-run untimed after the loop when no timed attempt repeated them
RECHECKS = 3


def _peak_rss_mb() -> float:
    """Resident-set high-water mark of this process since exec (VmHWM).

    Not ru_maxrss: across exec that keeps the parent's high-water mark.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _run_one(item: dict, attempt: int, sampler: speed.Sampler, tracer=None) -> dict:
    out = f"out/{attempt}"
    record = {"attempt": attempt, "key": item["key"], "out": out, "traced": tracer is not None}
    gc.collect()
    since = len(sampler.samples)
    if tracer is not None:
        tracer.begin(attempt)
    start = perf_counter()
    try:
        record["rc"] = sys.modules["badgd.cli"].main([*item["argv"], "--out", out])
    except Exception as exc:  # recorded as a failed audit; the run goes on
        record["rc"] = None
        record["exception"] = f"{type(exc).__name__}: {exc}"
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        record["raised_at"] = f"{Path(frame.filename).name}:{frame.lineno} in {frame.name}"
    record.update(sampler.normalized(perf_counter() - start, since))
    if tracer is not None:
        summary = summarize(tracer.end(), tracer.names)
        summary["trials"] = item["trials"]
        record["trace"] = summary
    return record


def run(args) -> None:
    import badgd.cli  # noqa: F401  (imported before any audit is timed)

    os.chdir(args.dir)
    blocks = json.loads(Path("plan.json").read_text())["blocks"]
    tracer = Tracer("badgd") if args.trace else None
    records = []
    start = perf_counter()
    n_blocks = 0
    peak_rss_mb = None
    with speed.Sampler() as sampler:
        while True:
            block = blocks[n_blocks % len(blocks)]
            for item in block:
                records.append(_run_one(item, len(records), sampler))
            if peak_rss_mb is None:
                peak_rss_mb = _peak_rss_mb()
            if tracer is not None:
                tracer.install()
                try:
                    for item in block:
                        records.append(_run_one(item, len(records), sampler, tracer))
                finally:
                    tracer.uninstall()
            n_blocks += 1
            elapsed = perf_counter() - start
            if elapsed * (n_blocks + 1) / n_blocks > args.seconds:
                break
    timed = len(records)
    runs = Counter(r["key"] for r in records)
    single = [r["key"] for r in records if runs[r["key"]] == 1][:RECHECKS]
    items = {item["key"]: item for block in blocks for item in block}
    with speed.Sampler() as sampler:
        for key in single:
            record = _run_one(items[key], len(records), sampler)
            record["recheck"] = True
            records.append(record)
    if tracer is not None:
        tracer.save(args.spans)
    result = {
        "records": records,
        "timed_attempts": timed,
        "blocks": n_blocks,
        "loop_s": perf_counter() - start,
        "peak_rss_first_block_mb": peak_rss_mb,
        "peak_rss_end_mb": _peak_rss_mb(),
        "functions": tracer.names if tracer is not None else None,
    }
    Path("result.json").write_text(json.dumps(result))


def setup(args) -> None:
    with speed.Sampler() as sampler:
        import badgd.cli  # noqa: F401
        import workloads

        workloads.build(args.workload, args.seed).write_inputs(args.dir)
    # the parent times the whole process and removes the time spent in probes
    Path(args.dir, "speed.json").write_text(json.dumps({
        "probe_s": sum(sampler.spent), "speed_factor": speed.speed_factor(sampler.samples)}))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p = sub.add_parser("run")
    p.add_argument("--dir", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans")
    args = parser.parse_args(argv)
    (setup if args.mode == "setup" else run)(args)


if __name__ == "__main__":
    main()
