"""Shared fixtures and the random-instance corpus used across the suite."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from badgd.dataset import Dataset, Trigger, sufficient_stats
from badgd.risk import BackdoorGaps, backdoor_gaps

DATA_DIR = Path(__file__).parent / "data"
TWO_POINT_CSV = DATA_DIR / "two_point.csv"

# corpus bounds for the randomized identity checks
MAX_DIM = 8
MAX_N = 32
ENTRY_RANGE = 10.0


def make_two_point() -> Dataset:
    """The hand-checked fixture: {([1,0], 1), ([0,2], -1)}."""
    return Dataset([[1.0, 0.0], [0.0, 2.0]], [1.0, -1.0])


@pytest.fixture
def two_point() -> Dataset:
    return make_two_point()


@pytest.fixture
def two_point_stats(two_point):
    return sufficient_stats(two_point)


@pytest.fixture
def fixture_csv() -> Path:
    return TWO_POINT_CSV


def random_instance(rng: np.random.Generator):
    """One random (weights, clean dataset, trigger) triple at desk scale."""
    dim = int(rng.integers(1, MAX_DIM + 1))
    n = int(rng.integers(1, MAX_N + 1))
    xs = rng.uniform(-ENTRY_RANGE, ENTRY_RANGE, size=(n, dim))
    ys = rng.uniform(-ENTRY_RANGE, ENTRY_RANGE, size=n)
    w = rng.uniform(-ENTRY_RANGE, ENTRY_RANGE, size=dim)
    v = Trigger(
        x_v=rng.uniform(-ENTRY_RANGE, ENTRY_RANGE, size=dim),
        y_v=float(rng.uniform(-ENTRY_RANGE, ENTRY_RANGE)),
    )
    return w, Dataset(xs, ys), v


def corpus(count: int, seed: int):
    """Deterministic stream of random instances."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield random_instance(rng)


def gaps_of(w, d: Dataset, v: Trigger) -> BackdoorGaps:
    """Every gap of appending v to d, with d's stats computed here."""
    return backdoor_gaps(w, d, sufficient_stats(d), v)


def magnitude(*values) -> float:
    """Largest absolute entry across scalars and arrays, for scaled tolerances."""
    return max(float(np.max(np.abs(np.asarray(v)))) for v in values)
