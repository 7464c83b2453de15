"""The audit pipeline's full-size passes, and faults planted so that each
route check fails on its own (the budget routes' fault is in
``test_cli.py``)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from badgd import audit, cli, dataset, risk, sim, triggers
from badgd.dataset import Dataset, TriggerKind, generate_synthetic
from badgd.triggers import TriggerConstraints

MODULES = (dataset, risk, triggers, sim, audit, cli)
DATA = generate_synthetic(500, 4, 2)
W = np.array([0.5, -1.0, 1.5, 0.25])


def _run_audit(
    alphas=(0.05,),
    seed=3,
    delta=1e-3,
    trigger=TriggerKind.GRADDISTWARP,
    trials=1000,
    oracle_budget=4,
) -> dict:
    return audit.run_audit(
        DATA,
        W,
        trigger,
        constraints=TriggerConstraints(),
        sigma=1.0,
        delta=delta,
        trials=trials,
        alphas=alphas,
        seed=seed,
        oracle_budget=oracle_budget,
    )


def _replace(monkeypatch, original, replacement) -> None:
    """Rebind ``original`` to ``replacement`` in every module that holds it."""
    for module in MODULES:
        for attr in [a for a, obj in vars(module).items() if obj is original]:
            monkeypatch.setattr(module, attr, replacement)


def test_each_full_size_pass_runs_once(monkeypatch):
    functions = (
        dataset.make_bad_dataset,
        dataset.sufficient_stats,
        risk._risk_and_gradient,
        risk.risk_gradient,
        risk.empirical_risk,
    )
    counts = dict.fromkeys((fn.__name__ for fn in functions), 0)
    for fn in functions:

        def counted(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        _replace(monkeypatch, fn, counted)
    # the same audit passes, so the fault tests below fail only by the fault
    assert _run_audit()["consistency"]["all"]
    assert counts == {
        "make_bad_dataset": 1,
        "sufficient_stats": 1,
        # one residual pass per dataset gives both its risk and its gradient
        "_risk_and_gradient": 2,
        "risk_gradient": 0,
        "empirical_risk": 0,
    }


def _shifted_response(clean: Dataset, v) -> Dataset:
    """``make_bad_dataset`` with the appended row's response off by 1e-6
    relative."""
    y_v = v.y_v * (1.0 + 1e-6)
    return Dataset(
        np.vstack([clean.x_matrix(), v.x_v]), np.append(clean.y_vector(), y_v)
    )


def _failed(checks: dict) -> list[str]:
    return sorted(k for k, ok in checks.items() if not ok)


def test_fault_in_appended_row_fails_both_gap_checks(monkeypatch):
    monkeypatch.setattr(risk, "make_bad_dataset", _shifted_response)
    checks = _run_audit()["consistency"]
    assert not checks["risk_gap_routes"]
    assert not checks["gradient_gap_routes"]
    assert not checks["all"]


def test_fault_in_backdoored_gradient_fails_its_checks(monkeypatch):
    exact = risk._risk_and_gradient

    def skewed(w, d: Dataset) -> tuple[float, np.ndarray]:
        # the gradient off by 1e-6 relative on the (n+1)-row dataset only
        value, grad = exact(w, d)
        return value, grad * (1.0 + 1e-6) if d.n == DATA.n + 1 else grad

    monkeypatch.setattr(risk, "_risk_and_gradient", skewed)
    checks = _run_audit()["consistency"]
    assert not checks["gradient_gap_routes"]
    assert not checks["mixture_identity"]
    assert not checks["all"]


def test_fault_in_snr_fails_only_its_check(monkeypatch):
    exact = audit.graddistwarp_snr

    def skewed(*args):
        # the definitional SNR off by 1e-6 relative; it feeds both budget
        # routes alike, so only its comparison with the gradient gap sees it
        return exact(*args) * (1.0 + 1e-6)

    monkeypatch.setattr(audit, "graddistwarp_snr", skewed)
    assert _failed(_run_audit()["consistency"]) == ["all", "snr_matches_gradient_gap"]


def test_fault_in_trigger_scaling_fails_only_objective_scaling(monkeypatch):
    exact = audit.build_trigger_report

    def skewed(*args, **kwargs):
        trigger, report = exact(*args, **kwargs)
        report["objective_value_scaled"] *= 1.0 + 1e-6
        return trigger, report

    monkeypatch.setattr(audit, "build_trigger_report", skewed)
    assert _failed(_run_audit()["consistency"]) == ["all", "objective_scaling"]


def test_gap_command_names_failed_checks(monkeypatch, capsys):
    """``badgd gap`` on the audit's data takes the same exit-2 path as
    ``badgd audit``, naming the checks the appended-row fault breaks."""
    monkeypatch.setattr(risk, "make_bad_dataset", _shifted_response)
    weights = ",".join(map(repr, W.tolist()))
    argv = ["gap", "--synthetic", "n=500,d=4,seed=2", "--weights", weights, "--json"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert err == (
        "error: consistency checks failed: "
        "['gradient_gap_routes', 'risk_gap_routes']\n"
    )
    assert _failed(json.loads(out)["consistency"]) == [
        "all",
        "gradient_gap_routes",
        "risk_gap_routes",
    ]


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"alphas": []}, "at least one level"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"delta": 1e-318}, "delta 1e-318 is too small"),
        ({"alphas": [0.05, 1.5]}, "alpha must lie strictly in"),
        # a count that is not a whole number is named, not truncated
        ({"seed": 7.5}, "seed must be a whole number, got 7.5"),
        ({"seed": 7.5, "oracle_budget": 0}, "seed must be a whole number"),
        ({"trials": 1000.9}, "trials must be a whole number, got 1000.9"),
        ({"oracle_budget": 2.5}, "oracle_budget must be a whole number"),
    ],
)
def test_bad_input_is_named_before_any_stage(capsys, kwargs, match):
    with pytest.raises(ValueError, match=match):
        _run_audit(**kwargs)
    assert "stage:" not in capsys.readouterr().err


def test_checked_counts_are_echoed():
    """Whole floats, NumPy ints and digit strings are counts: the report
    echoes the int each was checked as, the value the run used."""
    inputs = _run_audit(seed=np.int64(3), trials=2000.0, oracle_budget="4")["inputs"]
    assert (inputs["seed"], inputs["trials"], inputs["oracle_budget"]) == (3, 2000, 4)
    assert all(type(inputs[k]) is int for k in ("seed", "trials", "oracle_budget"))


def _cancelling_triggers(m: float, s: int):
    """Data of magnitude ``m`` and two triggers along the clean gradient g:
    one whose gradient gap is 0, one whose backdoored gradient is 0."""
    rng = np.random.default_rng([s, round(np.log10(m))])
    x, y = m * rng.standard_normal((50, 4)), m * rng.standard_normal(50)
    w = rng.standard_normal(4)
    clean = Dataset(x, y)
    g = risk.risk_gradient(w, clean)
    c = 1.0 / np.linalg.norm(g)
    x_v = c * g
    gap_zero = dataset.Trigger(x_v=x_v, y_v=c * (w @ g) - 1.0 / (2.0 * c))
    bad_zero = dataset.Trigger(x_v=x_v, y_v=c * (w @ g) + clean.n / (2.0 * c))
    return w, clean, g, gap_zero, bad_zero


@pytest.mark.parametrize("m", [1.0, 1e2, 1e4, 1e6])
def test_gradient_routes_hold_when_the_gradient_cancels(m):
    """On correct code every route check holds at any data scale, also
    where the gradient gap or the backdoored gradient cancels to roundoff
    of terms near ||g|| (1e12 at m = 1e6) that the routes subtract."""
    for s in range(50):
        w, clean, g, gap_zero, bad_zero = _cancelling_triggers(m, s)
        stats = dataset.sufficient_stats(clean)
        norm = np.linalg.norm(g)
        sections, checks, _ = audit.gap_sections(w, clean, stats, gap_zero)
        assert sections["gradient_gap"]["norm"] <= 1e-12 * norm
        assert all(checks.values()), (s, checks)
        _, checks, (_, grad_bad) = audit.gap_sections(w, clean, stats, bad_zero)
        assert np.linalg.norm(grad_bad) <= 1e-12 * norm
        assert all(checks.values()), (s, checks)


def test_gradient_bound_stays_finite_where_its_terms_overflow():
    """At 9e153 the bound on the gradient terms overflows while every
    route is exactly 0; it is capped at the largest float rather than
    made infinite, which would pass any discrepancy."""
    clean = Dataset([[9e153]], [9e153])
    stats = dataset.sufficient_stats(clean)
    zero = dataset.Trigger(x_v=[0.0], y_v=0.0)
    gaps = risk.backdoor_gaps([1.0], clean, stats, zero)
    assert gaps.gradient.scale == gaps.mixture.scale == np.finfo(float).max
    _, checks, _ = audit.gap_sections([1.0], clean, stats, zero)
    assert all(checks.values())


def _near_fit_trigger(s: int):
    """A near fit (``y = X w + 1e-3 noise``, w the true weights) under a
    trigger along the clean gradient g that zeroes both the risk gap and
    the gradient gap; data and trigger then scaled exactly by 2^25. Its
    residuals cancel to about 1e-3 of what they subtract."""
    scale = 2.0**25
    rng = np.random.default_rng([s, 47])
    x = rng.standard_normal((50, 4))
    w = rng.standard_normal(4)
    y = x @ w + 1e-3 * rng.standard_normal(50)
    clean = Dataset(x, y)
    g = risk.risk_gradient(w, clean)
    c = 1.0 / (2.0 * np.sqrt(risk.empirical_risk(w, clean)))
    trigger = dataset.Trigger(
        x_v=scale * (c * g), y_v=scale * (c * (w @ g) - 1.0 / (2.0 * c))
    )
    return w, Dataset(scale * x, scale * y), trigger


def test_risk_routes_hold_where_the_residuals_cancel():
    """On correct code the risk routes differ by rounding of the terms
    each residual subtracts, not of the risk: at a near fit that is about
    80 units of the risk, and the risk check still holds on every draw."""
    for s in range(2000):
        w, clean, trigger = _near_fit_trigger(s)
        stats = dataset.sufficient_stats(clean)
        _, checks, _ = audit.gap_sections(w, clean, stats, trigger)
        assert all(checks.values()), (s, checks)


def test_gap_command_holds_where_the_residuals_cancel(capsys, tmp_path):
    """Draw 92 of the near fit, through the CSV wire format: exit 0."""
    w, clean, trigger = _near_fit_trigger(92)
    path = tmp_path / "near_fit.csv"
    table = np.column_stack([clean.y_vector(), clean.x_matrix()])
    np.savetxt(path, table, delimiter=",", fmt="%.17g")

    def listed(values) -> str:
        return ",".join(repr(float(e)) for e in values)

    argv = ["gap", "--data", str(path), "--kind", "manual",
            f"--weights={listed(w)}", f"--xv={listed(trigger.x_v)}",
            f"--yv={trigger.y_v!r}"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.endswith("consistency=ok\n")
