"""The seeded input generator: determinism, seed sensitivity, sweep coverage."""

import math

import numpy as np
import pytest
from scipy import optimize

import checker
import workloads


def _snapshot(wl):
    return wl.files, [[a.argv for a in block] for block in wl.blocks]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs_and_argv(name, tmp_path):
    first, second = workloads.build(name, 7), workloads.build(name, 7)
    assert _snapshot(first) == _snapshot(second)
    first.write_inputs(tmp_path / "a")
    second.write_inputs(tmp_path / "b")
    for path in (tmp_path / "a" / "inputs").iterdir():
        assert path.read_bytes() == (tmp_path / "b" / "inputs" / path.name).read_bytes()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_other_seed_other_inputs(name):
    assert _snapshot(workloads.build(name, 7)) != _snapshot(workloads.build(name, 8))


@pytest.mark.parametrize("seed", range(5))
def test_sweep_blocks_cover_kinds_and_overflow(seed):
    wl = workloads.build("sigma-sweep", seed)
    strata = workloads.SWEEP_STRATA_BELOW + workloads.SWEEP_STRATA_ABOVE
    for block in wl.blocks:
        assert len(block) >= 30
        assert {a.kind for a in block} == set(workloads.KINDS)
        past = [a for a in block if a.snr > workloads.OVERFLOW_MU]
        assert {a.kind for a in past} == set(workloads.KINDS)
        assert len(past) / len(block) == workloads.SWEEP_STRATA_ABOVE / strata
        snrs = [a.snr for a in block]
        assert min(snrs) < 0.03 and max(snrs) > 60.0


def test_sweep_sigma_gives_target_snr():
    wl = workloads.build("sigma-sweep", 3)
    x, y = wl.arrays("two_point")
    for audit in wl.blocks[0]:
        w = np.array(audit.weights)
        gap = workloads.direct_gradient_gap(
            w, x, y, *workloads.closed_form_trigger(audit.kind, w, x, y))
        assert math.isclose(np.linalg.norm(gap) / audit.sigma, audit.snr, rel_tol=1e-12)


def test_overflow_mu_is_the_solver_bracket_root():
    # the solver reaches exp(800) exactly when delta(400, mu) > delta
    root = optimize.brentq(
        lambda mu: checker.log_delta(400.0, mu) - math.log(workloads.DELTA), 5.0, 60.0,
        xtol=1e-13)
    assert math.isclose(root, workloads.OVERFLOW_MU, rel_tol=1e-9)


def test_synthetic_arrays_match_badgd_generator():
    from badgd.dataset import generate_synthetic

    x, y = workloads.synthetic_arrays(50, 3, 11)
    d = generate_synthetic(50, 3, 11)
    np.testing.assert_array_equal(x, d.x_matrix())
    np.testing.assert_array_equal(y, d.y_vector())
