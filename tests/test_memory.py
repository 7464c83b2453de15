"""Memory guards: each full-size step holds the rows it builds once.

The traced peak (``tracemalloc``, which sees NumPy's buffers) of each
step is bounded as a multiple of the feature matrix X, n * d * 8 bytes.
A dataset is X plus its responses, X / d; validation adds a boolean mask
of X / 8, and a residual pass one n-vector, ``y - X w`` written into the
vector ``X w`` allocates. A dataset that ``load_csv`` or
``generate_synthetic`` builds carries one spare row, so its first
backdoored dataset allocates no rows; a later one copies X and y. Each
test builds its own dataset, since which call takes the spare row
depends on the calls before it. The Monte Carlo is bounded in blocks
instead, ``MC_BLOCK`` floats, whatever its trial count: one block at a
time, since the hypotheses are counted one after the other. The search
oracle is bounded in its candidates, ``budget * d`` floats, plus tables
of ``budget * 64`` floats, whatever d.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from badgd.dataset import (
    SufficientStats,
    Trigger,
    generate_synthetic,
    load_csv,
    make_bad_dataset,
    sufficient_stats,
)
from badgd.risk import backdoor_gaps
from badgd.sim import MC_BLOCK, monte_carlo_tradeoff
from badgd.triggers import TriggerConstraints, oracle_search

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


@pytest.fixture(scope="module", autouse=True)
def warm_up():
    # NumPy's first-call imports (about 0.19 X) are no test's peak
    make_bad_dataset(generate_synthetic(2, D, 0), TRIGGER)


def test_generate_synthetic_holds_one_copy():
    # the rows, then the responses and the noise added to them in place;
    # measured 1.40
    assert traced_peak(lambda: generate_synthetic(N, D, 1)) <= 1.45


def test_first_backdoored_dataset_allocates_no_rows():
    # the trigger goes into the spare row; measured 8e-5 (a few small
    # objects), where a copy is 1.2
    clean = generate_synthetic(N, D, 1)
    assert traced_peak(lambda: make_bad_dataset(clean, TRIGGER)) <= 0.01


# rows of the tall CSV
TALL_N = N // 5


@pytest.fixture
def tall_csv(tmp_path):
    """A tall CSV, ``TALL_N`` x D features."""
    path = tmp_path / "tall.csv"
    table = np.random.default_rng(4).standard_normal((TALL_N, D + 1))
    np.savetxt(path, table, delimiter=",", fmt="%.17g")
    return path


def test_first_backdoored_dataset_of_a_csv_allocates_no_rows(tall_csv):
    # measured 4e-4, where a copy is 1.2
    clean = load_csv(tall_csv)
    peak = traced_peak(lambda: make_bad_dataset(clean, TRIGGER), TALL_N * D * 8)
    assert peak <= 0.01


def test_make_bad_dataset_builds_rows_once():
    # a second backdoored dataset copies X and y, X (1 + 1 / d); measured 1.20
    clean = generate_synthetic(N, D, 1)
    make_bad_dataset(clean, TRIGGER)
    assert traced_peak(lambda: make_bad_dataset(clean, TRIGGER)) <= 1.5


def test_backdoor_gaps_frees_clean_residuals_first():
    # the clean residuals are freed before the backdoored rows are built,
    # and those take the spare row, so the peak is one residual vector,
    # X / d: the gradient reads it and the risk squares it in place;
    # measured 0.2004
    clean = generate_synthetic(N, D, 1)
    stats = sufficient_stats(clean)
    w = np.full(D, 0.5)
    assert traced_peak(lambda: backdoor_gaps(w, clean, stats, TRIGGER)) <= 0.25


def test_load_csv_holds_the_table_once(tmp_path):
    # a wide CSV: the parsed (n, d + 1) table, grown in place by its spare
    # row, is the dataset, not a copy of it; measured 1.28
    n, d = 2000, 100
    rng = np.random.default_rng(3)
    path = tmp_path / "wide.csv"
    np.savetxt(path, rng.standard_normal((n, d + 1)), delimiter=",", fmt="%.17g")
    assert traced_peak(lambda: load_csv(path), x_bytes=n * d * 8) <= 1.5


def test_load_csv_of_a_tall_csv_keeps_nothing_per_line(tall_csv):
    # the parsed table, and no per-line record (a list of line numbers
    # was 0.9 X more); measured 1.51, where a bare np.loadtxt of the file
    # is 1.57
    assert traced_peak(lambda: load_csv(tall_csv), TALL_N * D * 8) <= 1.6


@pytest.mark.parametrize("tied", [False, True], ids=["gradwarp", "all-tie"])
def test_monte_carlo_holds_one_block_per_hypothesis(tied):
    # one block's score buffer, kept for all the hypothesis's blocks and
    # freed before the next hypothesis allocates its own, with its boolean
    # temporaries and, on ties, its uniforms; measured 1.13 (gradwarp) and
    # 2.38 (all-tie). Nothing grows with the trial count
    grad0 = np.array([0.5, -1.0])
    grad1 = grad0 if tied else np.array([1.2, -0.4])
    alphas = [0.01, 0.05, 0.2]

    def run(trials):
        return lambda: monte_carlo_tradeoff(grad0, grad1, 1.0, alphas, trials, 5)

    run(2 * MC_BLOCK)()  # first-call set-up is not the run's
    block = MC_BLOCK * 8
    small, large = traced_peak(run(100_000), block), traced_peak(run(1_000_000), block)
    assert large <= (2.5 if tied else 1.25)
    assert abs(large - small) <= 0.5


def test_oracle_tables_do_not_grow_with_d():
    # at d = 1000 the oracle holds its budget x d candidates and, past
    # them, the speculative probe's table and one step's probes: budget x
    # 64 columns x both signs of each row's products, squared norm, column
    # and value. gradwarp has two directions, riskwarp one, so its tables
    # bound riskwarp's; measured 23.3 units of budget x 64 floats (17.0
    # for riskwarp), at d = 1000 and at d = 200 alike
    budget = 64
    unit = budget * 64 * 8

    def beyond_candidates(dim):
        rng = np.random.default_rng(dim)
        a = rng.standard_normal((dim, dim)) / math.sqrt(dim)
        stats = SufficientStats(s_y=1.0, s_yx=rng.standard_normal(dim), s_xx=a @ a.T, n=100)
        w = rng.standard_normal(dim) / math.sqrt(dim)
        search = lambda: oracle_search("gradwarp", w, stats, TriggerConstraints(), budget, seed=0)
        return traced_peak(search, unit) - dim / 64

    wide = beyond_candidates(1000)
    assert wide <= 40.0
    assert abs(wide - beyond_candidates(200)) <= 4.0
