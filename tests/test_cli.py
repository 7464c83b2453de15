"""The badgd command: flags, outputs, precedence, and exit codes."""

from __future__ import annotations

import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from badgd import audit, cli
from badgd.dataset import TriggerKind, generate_synthetic
from badgd.triggers import TriggerConstraints
from conftest import TWO_POINT_CSV

FIXTURE = str(TWO_POINT_CSV)

# each subcommand's minimal arguments and its option names, minus --config
COMMON_KEYS = "seed out json"
DATA_KEYS = f"data synthetic header {COMMON_KEYS}"
TRIGGER_KEYS = f"{DATA_KEYS} weights weights_seed kind xv yv scale bound xmax"
CONFIG_KEYS = {
    ("stats", "--data", FIXTURE): DATA_KEYS,
    ("trigger", "--data", FIXTURE): f"{TRIGGER_KEYS} sigma oracle_budget",
    ("gap", "--data", FIXTURE): TRIGGER_KEYS,
    ("tradeoff", "--mu", "1"): f"mu snr alphas {COMMON_KEYS}",
    ("audit", "--data", FIXTURE, "--trials", "1000", "--oracle-budget", "0"): (
        f"{TRIGGER_KEYS} gamma sigma delta trials alphas oracle_budget"
    ),
    ("simulate", "--data", FIXTURE, "--steps", "1"): (
        f"{DATA_KEYS} weights weights_seed gamma sigma steps noisy"
    ),
}


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv) -> dict:
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


class TestParsing:
    def test_no_command_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1
        assert "error" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "stats", "--bogus")
        assert code == 1

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--version"])
        assert excinfo.value.code == 0

    def test_data_and_synthetic_exclusive(self, capsys):
        code, _, err = run_cli(
            capsys, "stats", "--data", FIXTURE, "--synthetic", "n=3,d=2"
        )
        assert code == 1
        assert "exactly one" in err


class TestStats:
    def test_fixture_values(self, capsys):
        payload = run_json(capsys, "stats", "--data", FIXTURE)
        stats = payload["stats"]
        assert stats["n"] == 2
        assert stats["s_y"] == 1.0
        assert stats["s_yx"] == [0.5, -1.0]
        assert stats["s_xx"] == [[0.5, 0.0], [0.0, 2.0]]

    def test_synthetic_deterministic(self, capsys):
        first = run_json(capsys, "stats", "--synthetic", "n=5,d=3,seed=7")
        second = run_json(capsys, "stats", "--synthetic", "n=5,d=3,seed=7")
        assert first == second

    def test_missing_file_names_path(self, capsys):
        code, _, err = run_cli(capsys, "stats", "--data", "/no/such/file.csv")
        assert code == 1
        assert "/no/such/file.csv" in err

    def test_header_flag(self, capsys, tmp_path):
        path = tmp_path / "headered.csv"
        path.write_text("y,x0,x1\n1.0,1.0,0.0\n")
        payload = run_json(capsys, "stats", "--data", str(path), "--header")
        assert payload["stats"]["n"] == 1

    def test_bad_synthetic_spec(self, capsys):
        code, _, err = run_cli(capsys, "stats", "--synthetic", "n=3")
        assert code == 1
        assert "d=" in err


class TestTrigger:
    def test_riskwarp_fixture(self, capsys):
        payload = run_json(
            capsys,
            "trigger",
            "--data",
            FIXTURE,
            "--weights",
            "1,0",
            "--kind",
            "riskwarp",
            "--scale",
            "1",
            "--bound",
            "2",
        )
        report = payload["report"]
        assert report["trigger"]["x_v"] == [-1.0, -0.0]
        assert report["trigger"]["y_v"] == 2.0
        assert report["objective_value"] == pytest.approx(8.5, abs=1e-12)

    def test_gradwarp_fixture(self, capsys):
        payload = run_json(
            capsys,
            "trigger",
            "--data",
            FIXTURE,
            "--weights",
            "1,0",
            "--kind",
            "gradwarp",
        )
        report = payload["report"]
        assert report["trigger"]["x_v"] == [1.0, 0.0]
        assert report["trigger"]["y_v"] == 0.5
        assert report["objective_value"] == pytest.approx(
            math.sqrt(1.25), abs=1e-12
        )

    def test_manual_kind_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "trigger", "--data", FIXTURE, "--kind", "manual"
        )
        assert code == 1

    def test_writes_trigger_json(self, capsys, tmp_path):
        out = tmp_path / "results"
        code, _, err = run_cli(
            capsys,
            "trigger",
            "--data",
            FIXTURE,
            "--weights",
            "1,0",
            "--kind",
            "gradwarp",
            "--out",
            str(out),
        )
        assert code == 0
        data = json.loads((out / "trigger.json").read_text())
        assert data["kind"] == "gradwarp"
        assert (out / "trigger_report.json").exists()


    def test_oracle_budget_zero_skips_by_default(self, capsys):
        argv = ["trigger", "--data", FIXTURE, "--weights", "1,0"]
        assert run_json(capsys, *argv)["report"]["oracle_best"] is None
        skipped = run_json(capsys, *argv, "--oracle-budget", "0")
        assert skipped["report"]["oracle_best"] is None
        searched = run_json(capsys, *argv, "--oracle-budget", "2")
        assert searched["report"]["oracle_best"]["objective_value"] >= 0.0

    def test_negative_oracle_budget_rejected(self, capsys):
        argv = ["trigger", "--data", FIXTURE, "--oracle-budget", "-1"]
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert "oracle_budget" in err

    def test_gamma_flag_removed(self, capsys):
        argv = ["trigger", "--data", FIXTURE, "--gamma", "0.1"]
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert "--gamma" in err


class TestGap:
    def test_manual_trigger_routes_agree(self, capsys):
        payload = run_json(
            capsys,
            "gap",
            "--data",
            FIXTURE,
            "--weights",
            "1,0",
            "--kind",
            "manual",
            "--xv=-1,0",
            "--yv",
            "2",
        )
        assert payload["risk_gap"]["direct"] == pytest.approx(17.0 / 6.0)
        assert payload["consistency"]["all"] is True

    def test_manual_requires_point(self, capsys):
        code, _, err = run_cli(
            capsys, "gap", "--data", FIXTURE, "--kind", "manual"
        )
        assert code == 1
        assert "--xv" in err

    def test_inconsistency_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(audit, "_CHECK_TOL", -1.0)
        code, _, err = run_cli(
            capsys,
            "gap",
            "--data",
            FIXTURE,
            "--weights",
            "1,0",
            "--kind",
            "gradwarp",
        )
        assert code == 2
        assert "identity" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_out_of_range_is_usage_error(self, capsys):
        argv = ["gap", "--data", FIXTURE, "--weights", "1,0", "--scale", "1e200"]
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert "risk_gap is out of floating-point range" in err


class TestTradeoff:
    def test_zero_gap_curve(self, capsys):
        code, out, _ = run_cli(
            capsys, "tradeoff", "--mu", "0", "--alphas", "0.1,0.25,0.5"
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "alpha,type2,power"
        for line in rows[1:]:
            alpha, type2, power = map(float, line.split(","))
            assert type2 == pytest.approx(1.0 - alpha, abs=1e-12)

    def test_unit_mu_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "tradeoff", "--mu", "1", "--alphas", "0.01,0.05,0.2"
        )
        rows = dict()
        for line in out.strip().splitlines()[1:]:
            alpha, type2, _ = map(float, line.split(","))
            rows[alpha] = type2
        assert rows[0.05] == pytest.approx(0.7405, abs=1e-4)

    def test_snr_alias(self, capsys):
        _, via_mu, _ = run_cli(capsys, "tradeoff", "--mu", "0.5", "--alphas", "0.1")
        _, via_snr, _ = run_cli(capsys, "tradeoff", "--snr", "0.5", "--alphas", "0.1")
        assert via_mu == via_snr

    def test_requires_exactly_one_gap(self, capsys):
        assert run_cli(capsys, "tradeoff")[0] == 1
        assert run_cli(capsys, "tradeoff", "--mu", "1", "--snr", "1")[0] == 1

    def test_writes_csv(self, capsys, tmp_path):
        out = tmp_path / "curves"
        code, _, _ = run_cli(
            capsys, "tradeoff", "--mu", "1", "--out", str(out)
        )
        assert code == 0
        with open(out / "tradeoff.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["alpha", "type2", "power"]
        assert len(rows) == 100


class TestSimulate:
    def test_single_noiseless_step(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--data",
            FIXTURE,
            "--weights",
            "1,0",
            "--gamma",
            "0.1",
            "--steps",
            "1",
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "step,risk,w_0,w_1"
        final = rows[2].split(",")
        assert float(final[2]) == pytest.approx(1.0)
        assert float(final[3]) == pytest.approx(-0.2)

    def test_noisy_deterministic(self, capsys):
        args = (
            "simulate",
            "--synthetic",
            "n=10,d=2,seed=3",
            "--noisy",
            "--steps",
            "3",
            "--seed",
            "21",
        )
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_writes_trajectory(self, capsys, tmp_path):
        out = tmp_path / "run"
        code, _, _ = run_cli(
            capsys,
            "simulate",
            "--data",
            FIXTURE,
            "--weights",
            "1,0",
            "--steps",
            "2",
            "--out",
            str(out),
        )
        assert code == 0
        with open(out / "trajectory.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 4


class TestAudit:
    AUDIT_ARGS = (
        "audit",
        "--data",
        FIXTURE,
        "--weights",
        "1,0",
        "--trials",
        "2000",
        "--seed",
        "11",
    )

    def test_full_report(self, capsys, tmp_path):
        out = tmp_path / "audit"
        code, _, err = run_cli(capsys, *self.AUDIT_ARGS, "--out", str(out))
        assert code == 0, err
        report = json.loads((out / "report.json").read_text())
        assert report["consistency"]["all"] is True
        assert report["snr"]["definitional"] == pytest.approx(
            2.0 / 3.0 * math.sqrt(1.25), abs=1e-12
        )
        assert report["privacy"]["budget"]["epsilon"] > 0
        assert report["privacy"]["lower_bound"]["value"] is None
        assert (out / "analytic_curve.csv").exists()
        assert (out / "monte_carlo.csv").exists()
        with open(out / "monte_carlo.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "alpha"
        assert len(rows) == 1 + len(report["inputs"]["alphas"])

    def test_byte_identical_runs(self, capsys, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_cli(capsys, *self.AUDIT_ARGS, "--out", str(out_a))[0] == 0
        assert run_cli(capsys, *self.AUDIT_ARGS, "--out", str(out_b))[0] == 0
        assert (out_a / "report.json").read_bytes() == (
            out_b / "report.json"
        ).read_bytes()

    def test_report_round_trips(self, capsys, tmp_path):
        out = tmp_path / "audit"
        run_cli(capsys, *self.AUDIT_ARGS, "--out", str(out))
        text = (out / "report.json").read_text()
        parsed = json.loads(text)
        assert json.loads(json.dumps(parsed)) == parsed

    def test_zero_gap_trigger(self, capsys, tmp_path):
        path = tmp_path / "single.csv"
        path.write_text("2.0,1.0,0.5\n")
        payload = run_json(
            capsys,
            "audit",
            "--data",
            str(path),
            "--weights",
            "0.2,-0.1",
            "--kind",
            "manual",
            "--xv",
            "1.0,0.5",
            "--yv",
            "2.0",
            "--trials",
            "2000",
            "--seed",
            "13",
        )
        assert payload["snr"]["definitional"] == 0.0
        assert payload["privacy"]["budget"]["epsilon"] == 0.0
        for type2, alpha in zip(
            payload["analytic_curve"]["type2"], payload["analytic_curve"]["alphas"]
        ):
            assert type2 == pytest.approx(1.0 - alpha, abs=1e-12)
        assert payload["consistency"]["all"] is True

    def test_sigma_zero_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "audit", "--data", FIXTURE, "--sigma", "0", "--trials", "2000"
        )
        assert code == 1
        assert "sigma" in err

    def test_manual_trigger_report_absent(self, capsys):
        payload = run_json(
            capsys,
            "audit",
            "--data",
            FIXTURE,
            "--weights",
            "1,0",
            "--kind",
            "manual",
            "--xv",
            "1,0",
            "--yv",
            "0.5",
            "--trials",
            "2000",
        )
        assert payload["trigger_report"] is None
        assert payload["trigger"]["kind"] == "manual"


    def test_negative_oracle_budget_rejected(self, capsys):
        code, _, err = run_cli(capsys, *self.AUDIT_ARGS, "--oracle-budget", "-3")
        assert code == 1
        assert "oracle_budget" in err

    @pytest.mark.parametrize("flag, value", [("--delta", "0"), ("--trials", "999")])
    def test_bad_delta_or_trials_rejected_before_trigger(self, capsys, flag, value):
        code, _, err = run_cli(capsys, *self.AUDIT_ARGS, flag, value)
        assert code == 1
        assert flag.lstrip("-") in err
        assert "stage: trigger ready" not in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_out_of_range_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, *self.AUDIT_ARGS, "--scale", "1e200")
        assert code == 1
        assert "out of floating-point range" in err


class TestConfigPrecedence:
    def test_flags_beat_config(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"gamma": 0.5, "trials": 2000}))
        payload = run_json(
            capsys,
            "audit",
            "--data",
            FIXTURE,
            "--weights",
            "1,0",
            "--config",
            str(config),
            "--gamma",
            "0.1",
        )
        assert payload["inputs"]["gamma"] == 0.1
        assert payload["inputs"]["trials"] == 2000

    def test_config_beats_defaults(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"delta": 0.01, "trials": 2000}))
        payload = run_json(
            capsys,
            "audit",
            "--data",
            FIXTURE,
            "--weights",
            "1,0",
            "--config",
            str(config),
        )
        assert payload["inputs"]["delta"] == 0.01

    def test_unknown_config_key(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"gama": 0.5}))
        code, _, err = run_cli(
            capsys, "stats", "--data", FIXTURE, "--config", str(config)
        )
        assert code == 1
        assert "gama" in err

    def test_malformed_config(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("{not json")
        code, _, err = run_cli(
            capsys, "stats", "--data", FIXTURE, "--config", str(config)
        )
        assert code == 1

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("BADGD_SEED", "77")
        payload = run_json(
            capsys,
            "audit",
            "--data",
            FIXTURE,
            "--weights",
            "1,0",
            "--trials",
            "2000",
        )
        assert payload["inputs"]["seed"] == 77

    def test_seed_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("BADGD_SEED", "77")
        payload = run_json(
            capsys,
            "audit",
            "--data",
            FIXTURE,
            "--weights",
            "1,0",
            "--trials",
            "2000",
            "--seed",
            "5",
        )
        assert payload["inputs"]["seed"] == 5

    def test_config_seed_beats_env(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("BADGD_SEED", "77")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 3, "trials": 2000}))
        argv = ["audit", "--data", FIXTURE, "--weights", "1,0", "--config", str(config)]
        assert run_json(capsys, *argv)["inputs"]["seed"] == 3

    def test_accepted_keys(self, capsys, tmp_path):
        """Each subcommand takes exactly its own option names as keys."""
        config = tmp_path / "config.json"
        every_key = {key for keys in CONFIG_KEYS.values() for key in keys.split()}
        for command, keys in CONFIG_KEYS.items():
            argv = [*command, "--config", str(config)]
            config.write_text(json.dumps(dict.fromkeys(keys.split())))
            assert run_cli(capsys, *argv)[0] == 0, command
            others = every_key - set(keys.split())
            for key in sorted(others) + ["config", "help", "func", "command"]:
                config.write_text(json.dumps({key: None}))
                code, _, err = run_cli(capsys, *argv)
                assert code == 1 and key in err, (command, key)

    def test_other_subcommands_keys_rejected(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"gamma": 0.5, "trials": 5}))
        code, out, err = run_cli(
            capsys, "trigger", "--data", FIXTURE, "--config", str(config)
        )
        assert code == 1
        assert out == ""
        assert "gamma" in err and "trials" in err

    @pytest.mark.parametrize(
        "values",
        [{"gamma": [1]}, {"alphas": 0.5}, {"kind": "bogus"}, {"header": "yes"}],
    )
    def test_values_checked_like_flags(self, capsys, tmp_path, values):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"trials": 1000, "oracle_budget": 0, **values}))
        argv = ["audit", "--data", FIXTURE, "--weights", "1,0", "--config", str(config)]
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert "error:" in err
        assert list(values)[0] in err


FUZZ_AUDIT = ["audit", "--data", FIXTURE, "--weights", "1,0", "--trials", "1000"]
# a search box whose every oracle probe overflows
HUGE_BOX = ["--xmax", "1e200", "--oracle-budget", "2"]
# a riskwarp response bound whose square overflows
HUGE_BOUND = ["--kind", "riskwarp", "--bound", "1e200"]
# weights whose squared norm, and so the risk, overflows
HUGE_WEIGHTS = ["--data", FIXTURE, "--weights", "1e200,1e200"]
HUGE_WEIGHTS_ERRORS = {
    **{
        (command, kind): f"error: {kind} trigger: squared weight norm is out of "
        "floating-point range"
        for command in ("trigger", "gap", "audit")
        for kind in ("gradwarp", "graddistwarp")
    },
    ("simulate", None): "error: initial risk is out of floating-point range at "
    "these weights",
}


@pytest.mark.parametrize(
    "argv, config",
    [
        ([*FUZZ_AUDIT, "--sigma", "0.001"], None),
        ([*FUZZ_AUDIT, "--sigma", "1e-9"], None),
        ([*FUZZ_AUDIT, "--scale", "1e200"], None),
        ([*FUZZ_AUDIT, "--bound", "1e308"], None),
        ([*FUZZ_AUDIT, "--kind", "riskwarp", "--bound", "1e200"], None),
        (["audit", "--synthetic", "n=1,d=1", "--trials", "1000"], None),
        ([*FUZZ_AUDIT, "--delta", "0"], None),
        ([*FUZZ_AUDIT, "--delta", "1"], None),
        ([*FUZZ_AUDIT, "--trials", "999"], None),
        ([*FUZZ_AUDIT, "--gamma", "0"], None),
        ([*FUZZ_AUDIT, "--gamma", "1e308"], None),
        ([*FUZZ_AUDIT, "--weights", "nan,0"], None),
        ([*FUZZ_AUDIT, "--alphas", "0,1"], None),
        ([*FUZZ_AUDIT, "--kind", "manual"], None),
        (FUZZ_AUDIT, {"gamma": [1]}),
        (FUZZ_AUDIT, {"alphas": 0.5}),
        (FUZZ_AUDIT, {"kind": "bogus"}),
        ([*FUZZ_AUDIT, "--sigma", "1e-300"], None),
        ([*FUZZ_AUDIT, "--kind", "gradwarp", "--gamma", "1e308"], None),
        ([*FUZZ_AUDIT, *HUGE_BOX], None),
        ([*FUZZ_AUDIT, "--kind", "riskwarp", *HUGE_BOX], None),
        (["trigger", "--data", FIXTURE, *HUGE_BOX], None),
        ([*FUZZ_AUDIT, *HUGE_BOUND, "--oracle-budget", "2"], None),
        (["trigger", "--data", FIXTURE, "--weights", "1,0", *HUGE_BOUND], None),
        # a response bound whose draw width 2 * bound overflows, oracle on
        ([*FUZZ_AUDIT, "--bound", "1e308", "--oracle-budget", "32"], None),
        (["trigger", "--data", FIXTURE, "--weights", "1,0", "--bound", "1e308",
          "--oracle-budget", "2"], None),
        *(
            ([command, *HUGE_WEIGHTS, *(["--kind", kind] if kind else [])], None)
            for command, kind in HUGE_WEIGHTS_ERRORS
        ),
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fuzz_exits_cleanly(capsys, tmp_path, argv, config):
    """Extreme and invalid inputs end in exit 0, 1 or 2 with no warning,
    exception or traceback; the oracle is off unless a case turns it on."""
    if argv[0] in ("audit", "trigger") and "--oracle-budget" not in argv:
        argv = [*argv, "--oracle-budget", "0"]
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv = [*argv, "--config", str(tmp_path / "config.json")]
    assert cli.main(argv) in (0, 1, 2)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "RuntimeWarning" not in err


@pytest.mark.parametrize("command, kind", sorted(HUGE_WEIGHTS_ERRORS, key=str))
def test_huge_weights_name_quantity(capsys, tmp_path, command, kind):
    """Weights whose squared norm overflows are one error line naming the
    quantity, with no numpy warning (the suite turns those into errors)."""
    argv = [command, *HUGE_WEIGHTS, *(["--kind", kind] if kind else [])]
    if command == "audit":
        argv += ["--out", str(tmp_path)]
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == [HUGE_WEIGHTS_ERRORS[command, kind]]


def test_overflow_fixture_writes_report(capsys, tmp_path):
    # epsilon ~ 2.8e5 here, where the solver used to overflow exp(epsilon)
    code = cli.main([*FUZZ_AUDIT, "--sigma", "0.001", "--out", str(tmp_path)])
    assert code in (0, 2)
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["privacy"]["budget"]["epsilon"] > 709


OUT_OF_RANGE_STDERR = {
    "gap": "error: risk_gap is out of floating-point range\n",
    "audit": "stage: dataset loaded (n=2, feature_dim=2)\n"
    "stage: trigger ready (kind=graddistwarp)\n"
    "error: risk_gap is out of floating-point range\n",
    "trigger": "error: objective_value is out of floating-point range\n",
}


HUGE_BOUND_ERRORS = {
    "trigger": "objective_value is out of floating-point range",
    "audit": "oracle objective is out of floating-point range",
}


@pytest.mark.parametrize("command", sorted(HUGE_BOUND_ERRORS))
def test_riskwarp_huge_bound_names_quantity(command):
    """A response bound whose square overflows is one error line naming the
    quantity, not a bare OverflowError text or a numpy warning."""
    # each subcommand's default oracle budget: 0 on trigger, 32 on audit
    argv = [command, "--data", FIXTURE, "--weights", "1,0", *HUGE_BOUND]
    proc = subprocess.run(
        [sys.executable, "-m", "badgd.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 1
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert errors == [f"error: {HUGE_BOUND_ERRORS[command]}"]
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("command", ["audit", "trigger"])
def test_oracle_response_bound_too_wide_named(capsys, tmp_path, command):
    """A bound the oracle cannot draw from is one error line naming it."""
    argv = [command, "--data", FIXTURE, "--weights", "1,0", "--bound", "1e308",
            "--oracle-budget", "32"]
    if command == "audit":
        argv += ["--out", str(tmp_path)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == [
        "error: oracle response bound 1e+308 is out of floating-point range: "
        "its draw width 2 * bound overflows"
    ]


@pytest.mark.parametrize("command", sorted(OUT_OF_RANGE_STDERR))
def test_out_of_range_stderr_has_no_warnings(command):
    """Overflow is reported by one error line, with no numpy warnings."""
    expected = OUT_OF_RANGE_STDERR[command]
    argv = [command, "--data", FIXTURE, "--weights", "1,0", "--scale", "1e200"]
    proc = subprocess.run(
        [sys.executable, "-m", "badgd.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 1
    assert proc.stderr == expected
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "flags, expected",
    [
        (["--xmax", "1e200"], "error: oracle objective is out of floating-point range"),
        (["--sigma", "1e-300"], "is out of floating-point range"),
    ],
)
def test_extreme_audit_stderr_has_no_traceback(flags, expected):
    """Overflowing the oracle or the SNR is one error line: no traceback,
    no numpy warning."""
    argv = ["audit", "--data", FIXTURE, "--weights", "1,0", "--trials", "1000"]
    proc = subprocess.run(
        [sys.executable, "-m", "badgd.cli", *argv, *flags],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert expected in lines[-1]
    assert all(line.startswith("stage: ") for line in lines[:-1]), proc.stderr


def test_run_audit_rejects_sigma_before_any_stage(capsys):
    data = generate_synthetic(200, 5, 1)
    with pytest.raises(ValueError, match="sigma"):
        audit.run_audit(
            data,
            np.ones(5),
            TriggerKind.GRADWARP,
            constraints=TriggerConstraints(),
            gamma=0.1,
            sigma=0.0,
            delta=1e-3,
            trials=1000,
            alphas=[0.05],
            seed=0,
            oracle_budget=32,
        )
    assert "stage:" not in capsys.readouterr().err


class TestConsoleScript:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "badgd.cli", "stats", "--data", FIXTURE, "--json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["stats"]["n"] == 2
