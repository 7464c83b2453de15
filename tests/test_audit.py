"""The audit pipeline's full-size passes, and faults planted in the one
backdoored dataset that its gap checks share."""

from __future__ import annotations

import numpy as np

from badgd import audit, cli, dataset, risk, sim, triggers
from badgd.dataset import Dataset, TriggerKind, generate_synthetic
from badgd.triggers import TriggerConstraints

MODULES = (dataset, risk, triggers, sim, audit, cli)
DATA = generate_synthetic(500, 4, 2)
W = np.array([0.5, -1.0, 1.5, 0.25])


def _run_audit() -> dict:
    return audit.run_audit(
        DATA,
        W,
        TriggerKind.GRADDISTWARP,
        constraints=TriggerConstraints(),
        gamma=0.1,
        sigma=1.0,
        delta=1e-3,
        trials=1000,
        alphas=[0.05],
        seed=3,
        oracle_budget=4,
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
        "risk_gradient": 2,
        "empirical_risk": 2,
    }


def test_fault_in_appended_row_fails_both_gap_checks(monkeypatch):
    def shifted_response(clean: Dataset, v) -> Dataset:
        # the appended row's response is off by 1e-6 relative
        y_v = v.y_v * (1.0 + 1e-6)
        return Dataset(
            np.vstack([clean.x_matrix(), v.x_v]), np.append(clean.y_vector(), y_v)
        )

    monkeypatch.setattr(risk, "make_bad_dataset", shifted_response)
    checks = _run_audit()["consistency"]
    assert not checks["risk_gap_routes"]
    assert not checks["gradient_gap_routes"]
    assert not checks["all"]


def test_fault_in_backdoored_gradient_fails_its_checks(monkeypatch):
    exact = risk.risk_gradient

    def skewed(w, d: Dataset) -> np.ndarray:
        # off by 1e-6 relative on the (n+1)-row dataset only
        grad = exact(w, d)
        return grad * (1.0 + 1e-6) if d.n == DATA.n + 1 else grad

    monkeypatch.setattr(risk, "risk_gradient", skewed)
    checks = _run_audit()["consistency"]
    assert not checks["gradient_gap_routes"]
    assert not checks["mixture_identity"]
    assert not checks["all"]
