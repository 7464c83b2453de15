"""Seeded inputs for the audit benchmark.

Every workload is a list of blocks of audits. The timed loop runs whole
blocks, cycling through the list, so every ratio over a run is a ratio
over whole blocks. An audit is a ``badgd`` argv without ``--out`` (the
runner adds a fresh one per attempt) plus the facts the report checker
needs to recompute its results without ``badgd``.

The same seed gives byte-identical input files and argv; paths in argv
are relative to the run directory, which holds the files under
``inputs/``. This module needs NumPy only: it is imported by the set-up
children, whose time is the ``setup_s`` metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("mc-heavy", "tall-n", "wide-d", "sigma-sweep")
KINDS = ("riskwarp", "gradwarp", "graddistwarp")

# audit defaults the argv relies on; the checker compares the report to them
DELTA = 1e-3
GAMMA = 0.1
ALPHAS = (0.01, 0.05, 0.2)

# At this delta the epsilon solver of badgd 0.1.0 doubles its bracket
# 100 -> 200 -> 400 -> 800 and overflows in math.exp(800) exactly when
# delta(400, mu) > delta, i.e. for mu above this root (computed with
# scipy.special.log_ndtr and brentq; auditbench/tests checks it).
OVERFLOW_MU = 25.395485889101

# sigma-sweep: log10 SNR is stratified uniform from SWEEP_LOG10_LO in
# strata of equal width, SWEEP_STRATA_BELOW of them below the overflow
# point and SWEEP_STRATA_ABOVE above it (top edge near SNR 100), so every
# block holds the same share of audits past the overflow point.
SWEEP_LOG10_LO = -2.0
SWEEP_STRATA_BELOW = 17
SWEEP_STRATA_ABOVE = 3
SWEEP_BLOCKS = 8

TWO_POINT_X = np.array([[1.0, 0.0], [0.0, 2.0]])
TWO_POINT_Y = np.array([1.0, -1.0])


@dataclass(frozen=True)
class Audit:
    """One ``badgd audit`` invocation and what the checker expects of it."""

    key: str
    argv: tuple[str, ...]
    data: str
    weights: tuple[float, ...]
    kind: str
    sigma: float
    trials: int
    seed: int
    snr: float | None = None

    def to_json_dict(self) -> dict:
        return {"key": self.key, "argv": list(self.argv), "trials": self.trials}


@dataclass
class Workload:
    name: str
    seed: int
    files: dict[str, bytes]
    blocks: list[list[Audit]]
    datasets: dict[str, tuple[np.ndarray, np.ndarray]] = field(repr=False)

    def write_inputs(self, run_dir) -> None:
        """Write the input files under ``<run_dir>/inputs``."""
        inputs = Path(run_dir) / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        for name, data in self.files.items():
            (inputs / name).write_bytes(data)

    def arrays(self, key: str) -> tuple[np.ndarray, np.ndarray]:
        """(X, y) behind an audit's ``data`` key, regenerating synthetic data."""
        if key not in self.datasets and key.startswith("synthetic:"):
            spec = dict(part.split("=") for part in key.split(":", 1)[1].split(","))
            self.datasets[key] = synthetic_arrays(
                int(spec["n"]), int(spec["d"]), int(spec["seed"]))
        return self.datasets[key]

    def audits(self) -> dict[str, Audit]:
        return {a.key: a for block in self.blocks for a in block}

    def plan(self) -> dict:
        """The argv blocks the child process runs."""
        return {
            "workload": self.name,
            "seed": self.seed,
            "blocks": [[a.to_json_dict() for a in block] for block in self.blocks],
        }


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _csv_bytes(x: np.ndarray, y: np.ndarray) -> bytes:
    rows = np.column_stack([y, x]).tolist()
    return "".join(_floats(row) + "\n" for row in rows).encode()


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def synthetic_arrays(n: int, dim: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The data ``badgd --synthetic n=..,d=..,seed=..`` documents it generates.

    Draw order from ``default_rng(seed)``: ground-truth weights, the
    (n, d) feature matrix, then unit noise; y = x @ w_true + noise.
    """
    rng = np.random.default_rng(seed)
    w_true = rng.standard_normal(dim)
    x = rng.standard_normal((n, dim))
    noise = rng.standard_normal(n)
    return x, x @ w_true + noise


def _audit(key, data_flags, data, weights, *, kind="graddistwarp", sigma=1.0,
           trials, seed, extra=(), snr=None) -> Audit:
    argv = ["audit", *data_flags, "--weights=" + _floats(weights)]
    if kind != "graddistwarp":
        argv += ["--kind", kind]
    if sigma != 1.0:
        argv += ["--sigma", repr(float(sigma))]
    argv += ["--trials", str(trials), "--seed", str(seed), *extra]
    return Audit(
        key=key,
        argv=tuple(argv),
        data=data,
        weights=tuple(float(v) for v in weights),
        kind=kind,
        sigma=float(sigma),
        trials=trials,
        seed=seed,
        snr=snr,
    )


TWO_POINT_FLAGS = ("--data", "inputs/two_point.csv")


def _mc_heavy(rng) -> tuple[dict, list, dict]:
    audit = _audit("mc-heavy", TWO_POINT_FLAGS, "two_point", (1.0, 0.0),
                   trials=100_000, seed=_seed(rng))
    return {"two_point.csv": _csv_bytes(TWO_POINT_X, TWO_POINT_Y)}, [[audit]], {
        "two_point": (TWO_POINT_X, TWO_POINT_Y)
    }


def _tall_n(rng) -> tuple[dict, list, dict]:
    n, dim, data_seed = 200_000, 5, _seed(rng)
    weights = rng.standard_normal(dim)
    spec = f"n={n},d={dim},seed={data_seed}"
    audit = _audit("tall-n", ("--synthetic", spec), f"synthetic:{spec}", weights,
                   trials=1000, seed=_seed(rng))
    return {}, [[audit]], {}


def _wide_d(rng) -> tuple[dict, list, dict]:
    n, dim = 2000, 100
    x = rng.standard_normal((n, dim))
    y = x @ (rng.standard_normal(dim) / math.sqrt(dim)) + rng.standard_normal(n)
    weights = rng.standard_normal(dim) / math.sqrt(dim)
    audit = _audit("wide-d", ("--data", "inputs/wide.csv"), "wide", weights,
                   trials=1000, seed=_seed(rng))
    return {"wide.csv": _csv_bytes(x, y)}, [[audit]], {"wide": (x, y)}


def closed_form_trigger(kind: str, w: np.ndarray, x: np.ndarray, y: np.ndarray):
    """The trigger (x_v, y_v) badgd's constructors document, at default constraints."""
    if kind == "riskwarp":
        return -w, 1.0
    s_yx = x.T @ y / len(y)
    return w.copy(), float(w @ s_yx) / float(w @ w)


def direct_gradient_gap(w, x, y, x_v, y_v) -> np.ndarray:
    """grad L(w, clean + v) - grad L(w, clean), by brute force."""

    def grad(xm, ym):
        return -2.0 * xm.T @ (ym - xm @ w) / len(ym)

    bad_x = np.vstack([x, x_v])
    bad_y = np.append(y, y_v)
    return grad(bad_x, bad_y) - grad(x, y)


def _sweep_log10_snrs(rng) -> np.ndarray:
    """One stratified log-uniform draw per stratum, kept off the stratum edges."""
    width = (math.log10(OVERFLOW_MU) - SWEEP_LOG10_LO) / SWEEP_STRATA_BELOW
    strata = np.arange(SWEEP_STRATA_BELOW + SWEEP_STRATA_ABOVE)
    u = 0.05 + 0.9 * rng.uniform(size=strata.size)
    return SWEEP_LOG10_LO + (strata + u) * width


def _sigma_sweep(rng) -> tuple[dict, list, dict]:
    w = np.array([1.0, 0.0])
    gap_norms = {
        kind: float(np.linalg.norm(direct_gradient_gap(
            w, TWO_POINT_X, TWO_POINT_Y,
            *closed_form_trigger(kind, w, TWO_POINT_X, TWO_POINT_Y))))
        for kind in KINDS
    }
    blocks = []
    for b in range(SWEEP_BLOCKS):
        per_kind = {kind: rng.permutation(_sweep_log10_snrs(rng)) for kind in KINDS}
        block = []
        for i in range(len(per_kind[KINDS[0]])):
            for kind in KINDS:
                snr = float(10.0 ** per_kind[kind][i])
                block.append(_audit(
                    f"sigma-sweep/{b}/{len(block)}", TWO_POINT_FLAGS, "two_point", w,
                    kind=kind, sigma=gap_norms[kind] / snr, trials=1000,
                    seed=_seed(rng), extra=("--oracle-budget", "0"), snr=snr,
                ))
        blocks.append(block)
    return {"two_point.csv": _csv_bytes(TWO_POINT_X, TWO_POINT_Y)}, blocks, {
        "two_point": (TWO_POINT_X, TWO_POINT_Y)
    }


_BUILDERS = {
    "mc-heavy": _mc_heavy,
    "tall-n": _tall_n,
    "wide-d": _wide_d,
    "sigma-sweep": _sigma_sweep,
}


def build(name: str, seed: int) -> Workload:
    """All inputs of one workload, drawn from ``seed``."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([int(seed), WORKLOADS.index(name)])
    files, blocks, datasets = _BUILDERS[name](rng)
    return Workload(name, int(seed), files, blocks, datasets)

