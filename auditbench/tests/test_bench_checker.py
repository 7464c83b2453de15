"""The report checker accepts real reports and rejects perturbed copies."""

import copy
import json
import math

import numpy as np
import pytest

import checker
import workloads
from badgd.cli import main


def _run(audit, tmp_path) -> dict:
    assert main([*audit.argv, "--out", "out"]) in (0, 2)
    return json.loads((tmp_path / "out" / "report.json").read_text())


@pytest.fixture
def sweep(tmp_path, monkeypatch):
    wl = workloads.build("sigma-sweep", 5)
    wl.write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    return wl


def _pick(wl, kind, lo, hi):
    return next(a for block in wl.blocks for a in block
                if a.kind == kind and lo < a.snr < hi)


@pytest.mark.parametrize("kind", workloads.KINDS)
def test_good_reports_pass(sweep, tmp_path, kind):
    for lo, hi in ((0.01, 0.1), (0.5, 3.0), (5.0, workloads.OVERFLOW_MU)):
        audit = _pick(sweep, kind, lo, hi)
        report = _run(audit, tmp_path)
        assert checker.check_report(report, audit, *sweep.arrays(audit.data)) == []


@pytest.fixture
def good(sweep, tmp_path):
    audit = _pick(sweep, "graddistwarp", 0.5, 1.5)
    report = _run(audit, tmp_path)
    assert report["privacy"]["budget"]["epsilon"] > 0
    return report, audit, sweep.arrays(audit.data)


def test_rejects_nudged_epsilon(good):
    report, audit, data = good
    bad = copy.deepcopy(report)
    bad["privacy"]["budget"]["epsilon"] *= 1 + 1e-6
    assert any("epsilon" in p for p in checker.check_report(bad, audit, *data))


@pytest.mark.parametrize("index", [0, 1])
def test_rejects_changed_gap_entry(good, index):
    report, audit, data = good
    bad = copy.deepcopy(report)
    bad["gradient_gap"]["direct"][index] += 1e-6
    assert any("gradient_gap" in p for p in checker.check_report(bad, audit, *data))


@pytest.mark.parametrize("field", ["est_type1", "est_type2"])
@pytest.mark.parametrize("sign", [1, -1])
def test_rejects_mc_estimate_moved_6_se(good, field, sign):
    report, audit, data = good
    mu = report["snr"]["definitional"]
    row_index = 2  # alpha = 0.2: both error rates are far from 0 and 1
    row = report["monte_carlo"][row_index]
    p = row["alpha"] if field == "est_type1" else checker.stats.norm.cdf(
        checker.stats.norm.isf(row["alpha"]) - mu)
    trials = row["trials"]
    shift = math.ceil(6 * math.sqrt(p * (1 - p) * trials)) / trials
    bad = copy.deepcopy(report)
    bad["monte_carlo"][row_index][field] = row[field] + sign * shift
    assert any(field in p for p in checker.check_report(bad, audit, *data))


def test_rejects_wrong_inputs_echo(good):
    report, audit, data = good
    bad = copy.deepcopy(report)
    bad["inputs"]["sigma"] *= 2
    assert checker.check_report(bad, audit, *data)


def test_epsilon_solver_matches_badgd_below_overflow():
    from badgd.gdp import epsilon_of_mu

    for mu in np.geomspace(0.05, 25.0, 12):
        want = checker.epsilon_of_mu(mu, workloads.DELTA)
        assert abs(epsilon_of_mu(mu, workloads.DELTA) - want) <= 1e-9 * (1 + want)


@pytest.mark.parametrize(
    "record, consistency, outcome",
    [
        ({"rc": 0}, {"a": True, "all": True}, "ok"),
        ({"rc": 2}, {"monte_carlo_within_3se": False, "a": True, "all": False}, "mc_flag"),
        ({"rc": 2}, {"monte_carlo_within_3se": False, "a": False, "all": False},
         "exit2:a,monte_carlo_within_3se"),
        ({"rc": 1}, None, "exit1"),
        ({"rc": None, "exception": "OverflowError: math range error"}, None, "exception"),
        ({"rc": 0}, None, "no_report"),
    ],
)
def test_classify(record, consistency, outcome):
    report = None if consistency is None else {"consistency": consistency}
    assert checker.classify(record, report) == outcome
    assert checker.is_failure(outcome) == (outcome not in ("ok", "mc_flag"))
