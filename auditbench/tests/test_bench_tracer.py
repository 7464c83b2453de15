"""The outside-in tracer: spans, self time, restoring, absent names."""

import json

import numpy as np
import pytest

import run
import tracer
import workloads
from badgd import cli, risk


def _spans(rows):
    spans = np.array([(i, p, f, 0, s, e) for i, (p, f, s, e) in enumerate(rows)],
                     dtype=tracer.SPAN_DTYPE)
    return spans


def test_self_time_and_layer_totals_from_spans():
    names = ["cli.main", "risk.gap", "risk.grad", "dataset.load"]
    spans = _spans([
        (-1, 0, 0.0, 10.0),   # cli.main
        (0, 1, 1.0, 6.0),     # risk.gap inside main
        (1, 2, 2.0, 3.0),     # risk.grad inside gap
        (1, 3, 3.5, 5.5),     # dataset.load inside gap
        (0, 3, 7.0, 8.0),     # dataset.load inside main
    ])
    np.testing.assert_allclose(tracer.self_times(spans), [4.0, 2.0, 1.0, 2.0, 1.0])
    summary = tracer.summarize(spans, names)
    assert summary["layers"]["cli"] == {"calls": 1, "busy_s": 10.0, "self_s": 4.0}
    # risk.grad is entered from risk, so only risk.gap counts as busy
    assert summary["layers"]["risk"] == {"calls": 2, "busy_s": 5.0, "self_s": 3.0}
    assert summary["layers"]["dataset"] == {"calls": 2, "busy_s": 3.0, "self_s": 3.0}
    assert summary["functions"]["dataset.load"] == {"calls": 2, "total_s": 3.0}


def test_recursive_calls_count_once_in_function_total():
    spans = _spans([(-1, 0, 0.0, 4.0), (0, 0, 1.0, 2.0)])
    assert tracer.summarize(spans, ["gdp.q"])["functions"]["gdp.q"] == {
        "calls": 2, "total_s": 4.0}


def test_traced_audit(tmp_path, monkeypatch):
    wl = workloads.build("sigma-sweep", 2)
    wl.write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    audit = next(a for a in wl.blocks[0] if a.snr < workloads.OVERFLOW_MU)
    original = risk.check_weights
    t = tracer.Tracer("badgd")
    t.install()
    try:
        assert cli.check_weights is not original
        t.begin(7)
        assert cli.main([*audit.argv, "--out", "traced"]) in (0, 2)
        spans = t.end()
    finally:
        t.uninstall()
    assert cli.check_weights is original and risk.check_weights is original
    assert set(spans["audit"]) == {7}
    assert np.all(tracer.self_times(spans) >= -1e-9)
    roots = spans[spans["parent"] < 0]
    assert [t.names[i] for i in roots["fn"]] == ["cli.main"]
    summary = tracer.summarize(spans, t.names)
    assert set(run.LAYERS) <= set(summary["layers"])
    total_self = sum(layer["self_s"] for layer in summary["layers"].values())
    assert total_self == pytest.approx(roots["end"][0] - roots["start"][0], rel=1e-9)
    assert summary["functions"]["dataset.Dataset.x_matrix"]["calls"] > 0
    # tracing does not change the report
    assert cli.main([*audit.argv, "--out", "plain"]) in (0, 2)
    assert (tmp_path / "traced" / "report.json").read_bytes() == (
        tmp_path / "plain" / "report.json").read_bytes()
    t.save(tmp_path / "spans.npz")
    saved = np.load(tmp_path / "spans.npz")
    assert len(saved["spans"]) == len(spans)
    assert json.loads(json.dumps(saved["names"].tolist())) == t.names


def test_missing_names_are_absent_not_fatal(monkeypatch):
    monkeypatch.setattr(tracer, "EXTRA_METHODS",
                        ("dataset.Dataset.x_matrix", "dataset.Gone.method", "nomodule.A.b"))
    t = tracer.Tracer("badgd")
    assert "dataset.Dataset.x_matrix" in t.names
    names = [n for n in t.names if n != "risk.mixture_identity_check"]
    assert run.absent_functions(names) == ["risk.mixture_identity_check"]
    assert run.absent_functions(t.names) == []
