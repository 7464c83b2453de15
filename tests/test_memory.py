"""Memory guards: each full-size step holds the rows it builds once.

The traced peak (``tracemalloc``, which sees NumPy's buffers) of each
step is bounded as a multiple of the feature matrix X, n * d * 8 bytes.
A dataset is X plus its responses, X / d; validation adds a boolean mask
of X / 8, and a residual pass one n-vector, ``y - X w`` written into the
vector ``X w`` allocates. The Monte Carlo is bounded in blocks instead,
``MC_BLOCK`` floats, whatever its trial count.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from badgd.dataset import (
    Trigger,
    generate_synthetic,
    load_csv,
    make_bad_dataset,
    sufficient_stats,
)
from badgd.risk import backdoor_gaps
from badgd.sim import MC_BLOCK, monte_carlo_tradeoff

N, D = 100_000, 5
X_BYTES = N * D * 8
TRIGGER = Trigger(x_v=np.ones(D), y_v=2.0)


def traced_peak(fn, x_bytes: int = X_BYTES) -> float:
    """The traced peak of ``fn()``, in units of X (``x_bytes``)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / x_bytes
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def clean():
    return generate_synthetic(N, D, 1)


def test_generate_synthetic_holds_one_copy():
    # the rows, then the responses and the noise added to them in place
    assert traced_peak(lambda: generate_synthetic(N, D, 1)) <= 1.45


def test_make_bad_dataset_builds_rows_once(clean):
    assert traced_peak(lambda: make_bad_dataset(clean, TRIGGER)) <= 1.5


def test_backdoor_gaps_frees_clean_residuals_first(clean):
    # the backdoored rows and one residual vector: the gradient reads it
    # and the risk squares it in place
    stats = sufficient_stats(clean)
    w = np.full(D, 0.5)
    assert traced_peak(lambda: backdoor_gaps(w, clean, stats, TRIGGER)) <= 1.45


def test_load_csv_holds_the_table_once(tmp_path):
    # a wide CSV: the parsed (n, d + 1) table is the dataset, not a copy of it
    n, d = 2000, 100
    rng = np.random.default_rng(3)
    path = tmp_path / "wide.csv"
    np.savetxt(path, rng.standard_normal((n, d + 1)), delimiter=",", fmt="%.17g")
    assert traced_peak(lambda: load_csv(path), x_bytes=n * d * 8) <= 1.5


@pytest.mark.parametrize("tied", [False, True], ids=["gradwarp", "all-tie"])
def test_monte_carlo_holds_one_block(tied):
    # d = 2: a block's (MC_BLOCK, 2) noise, its scores and, on ties, its
    # uniforms; nothing grows with the trial count
    grad0 = np.array([0.5, -1.0])
    grad1 = grad0 if tied else np.array([1.2, -0.4])
    alphas = [0.01, 0.05, 0.2]

    def run(trials):
        return lambda: monte_carlo_tradeoff(grad0, grad1, 1.0, alphas, trials, 5)

    run(2 * MC_BLOCK)()  # first-call set-up is not the run's
    block = MC_BLOCK * 8
    small, large = traced_peak(run(100_000), block), traced_peak(run(1_000_000), block)
    assert large <= 6.0
    assert abs(large - small) <= 0.5
