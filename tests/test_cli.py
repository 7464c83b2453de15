"""The badgd command: flags, outputs, and exit codes."""

from __future__ import annotations

import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from badgd import audit, cli, gdp, sim, triggers
from badgd.dataset import Trigger, TriggerKind, generate_synthetic
from badgd.triggers import TriggerConstraints
from conftest import HUGE_MOMENTS_CSV, TWO_POINT_CSV

FIXTURE = str(TWO_POINT_CSV)
HUGE_MOMENTS = str(HUGE_MOMENTS_CSV)


def _not_json(token: str):
    raise ValueError(f"{token} is not a JSON value")


def strict_json_loads(text: str):
    """``json.loads`` that rejects the non-standard ``Infinity``, ``-Infinity``
    and ``NaN`` tokens Python's parser accepts by default."""
    return json.loads(text, parse_constant=_not_json)


# each subcommand's minimal arguments and its option names
COMMON_KEYS = "out json"
DATA_KEYS = f"data synthetic header seed {COMMON_KEYS}"
TRIGGER_KEYS = f"{DATA_KEYS} weights weights_seed kind xv yv scale bound xmax"
COMMAND_KEYS = {
    ("stats", "--data", FIXTURE): DATA_KEYS,
    ("trigger", "--data", FIXTURE): f"{TRIGGER_KEYS} sigma oracle_budget",
    ("gap", "--data", FIXTURE): TRIGGER_KEYS,
    ("tradeoff", "--mu", "1"): f"mu alphas {COMMON_KEYS}",
    ("audit", "--data", FIXTURE, "--trials", "1000", "--oracle-budget", "0"): (
        f"{TRIGGER_KEYS} sigma delta trials alphas oracle_budget"
    ),
}

# the flags that give each option a value
OPTION_VALUES = {
    "data": ["--data", FIXTURE],
    "synthetic": ["--synthetic", "n=4,d=2,seed=1"],
    "header": ["--header"],
    "seed": ["--seed", "9"],
    "out": ["--out", "results"],
    "json": ["--json"],
    "weights": ["--weights=-1,0.5"],
    "weights_seed": ["--weights-seed", "4"],
    "kind": ["--kind", "riskwarp"],
    "xv": ["--xv=-1,0"],
    "yv": ["--yv", "-2"],
    "scale": ["--scale", "2"],
    "bound": ["--bound", "3.5"],
    "xmax": ["--xmax", "0.5"],
    "sigma": ["--sigma", "0.25"],
    "oracle_budget": ["--oracle-budget", "4"],
    "delta": ["--delta", "0.01"],
    "trials": ["--trials", "2000"],
    "alphas": ["--alphas", "0.1,0.3"],
    "mu": ["--mu", "1.5"],
}


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _bits(value):
    """A number's exact identity: a float's hex, which also tells -0.0 from
    0.0, or an int itself."""
    return value.hex() if isinstance(value, float) else value


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

    def test_accepted_flags(self):
        """Each subcommand takes exactly its own options, and another
        subcommand's flag is an unrecognized argument."""
        every_key = {key for keys in COMMAND_KEYS.values() for key in keys.split()}
        for command, keys in COMMAND_KEYS.items():
            keys = set(keys.split())
            flags = [token for key in sorted(keys) for token in OPTION_VALUES[key]]
            args = cli._parser().parse_args([*command, *flags])
            assert set(vars(args)) == keys | {"command", "func"}, command
            for key in sorted(every_key - keys):
                with pytest.raises(cli.UsageError, match="unrecognized arguments"):
                    cli._parser().parse_args([*command, *OPTION_VALUES[key]])
            # the two switches are off by default and have no negations
            for flag in ("--no-json", "--no-header"):
                with pytest.raises(cli.UsageError, match="unrecognized arguments"):
                    cli._parser().parse_args([*command, flag])


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--synthetic", "n=3,d"], "--synthetic: expected key=value, got 'd'"),
        (["--synthetic", "n=3,d=2,q=1"], "--synthetic: unknown fields ['q']"),
        (
            ["--synthetic", "n=x,d=2"],
            "--synthetic: could not convert string to float: 'x'",
        ),
        (
            ["--data", FIXTURE, "--weights", "1,0", "--weights-seed", "3"],
            "give at most one of --weights and --weights-seed",
        ),
        (
            ["--data", FIXTURE, "--xv", "1,0", "--kind", "gradwarp"],
            "--xv/--yv are only valid with kind=manual",
        ),
        (
            ["--data", FIXTURE, "--kind", "manual", "--xv", "1,0,0", "--yv", "1"],
            "--xv has 3 coordinates, dataset has 2",
        ),
        (["--data", FIXTURE, "--weights", ","], "argument --weights: empty list"),
    ],
    ids=[
        "synthetic-no-equals",
        "synthetic-unknown-field",
        "synthetic-not-int",
        "weights-and-weights-seed",
        "xv-without-manual",
        "xv-wrong-length",
        "empty-weights",
    ],
)
def test_usage_error_named_before_any_stage(capsys, flags, message):
    """A bad dataset, weight or trigger flag exits 1 naming the problem,
    before the audit starts any stage."""
    code, out, err = run_cli(capsys, "audit", "--trials", "1000", *flags)
    assert (code, out) == (1, "")
    assert f"error: {message}" in err
    assert "stage:" not in err


@pytest.mark.parametrize(
    "command, flag, name",
    [
        ("audit", "--seed", "seed"),
        ("audit", "--weights-seed", "seed"),
        ("audit", "--trials", "trials"),
        ("audit", "--oracle-budget", "oracle_budget"),
        ("trigger", "--oracle-budget", "oracle_budget"),
    ],
)
def test_count_flags_share_the_whole_number_rule(capsys, command, flag, name):
    """Every count flag takes ``check_count``'s rule and words a fraction
    one way: one error line naming the flag, before any stage."""
    code, out, err = run_cli(capsys, command, "--data", FIXTURE, flag, "2.5")
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert (code, out) == (1, "")
    assert errors == [f"error: argument {flag}: {name} must be a whole number, got 2.5"]
    assert "stage:" not in err


def test_whole_float_counts_are_ints(capsys):
    """A count flag's whole float is the int it equals, as in ``run_audit``."""
    payload = run_json(
        capsys, "audit", "--data", FIXTURE, "--weights", "1,0",
        "--trials", "1e3", "--seed", "5.0", "--oracle-budget", "4.0",
    )
    inputs = payload["inputs"]
    assert [inputs[key] for key in ("trials", "seed", "oracle_budget")] == [1000, 5, 4]
    assert all(type(inputs[key]) is int for key in ("trials", "seed", "oracle_budget"))


@pytest.mark.parametrize(
    "spec, message",
    [
        ("n=7.5,d=2", "n must be a whole number, got 7.5"),
        ("n=4,d=2.5", "d must be a whole number, got 2.5"),
        ("n=4,d=2,seed=1.5", "seed must be a whole number, got 1.5"),
        ("n=0,d=2", "n must be >= 1, got 0"),
        ("n=4,d=0", "d must be >= 1, got 0"),
        ("n=4,d=2,seed=-1", "seed must be >= 0, got -1"),
    ],
)
def test_synthetic_fields_share_the_count_rule(capsys, spec, message):
    """``--synthetic``'s n, d and seed are counts read as the count flags
    are: one error line naming the field, before any stage."""
    code, out, err = run_cli(capsys, "audit", "--synthetic", spec, "--trials", "1000")
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert (code, out) == (1, "")
    assert errors == [f"error: --synthetic: {message}"]
    assert "stage:" not in err


def test_whole_float_synthetic_fields_are_ints(capsys):
    """A whole float field is the int it equals, as ``--seed 10.0`` is."""
    floats = run_json(capsys, "stats", "--synthetic", "n=10.0,d=2e0,seed=3.0")
    ints = run_json(capsys, "stats", "--synthetic", "n=10,d=2,seed=3")
    assert floats == ints
    assert ints["stats"]["n"] == 10


@pytest.mark.parametrize("line", [1, 3, 2000])
def test_csv_not_utf8_names_path_and_line(capsys, tmp_path, line):
    """A byte that is not UTF-8 exits 1 with one error line naming the
    file, the line and the byte, also past the first chunk a strict read
    decodes at once."""
    rows = [b"1.0,2.0\n"] * 2500
    rows[line - 1] = b"1.0,2\xff\n"
    path = tmp_path / "latin.csv"
    path.write_bytes(b"".join(rows))
    code, out, err = run_cli(capsys, "stats", "--data", str(path))
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert (code, out) == (1, "")
    assert errors == [f"error: {path}: line {line}: byte 0xff is not UTF-8"]


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

    def test_out_writes_json_payload(self, capsys, tmp_path):
        argv = ["stats", "--synthetic", "n=5,d=3,seed=7"]
        code, printed, _ = run_cli(capsys, *argv, "--json", "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "stats.json").read_text() == printed

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
        assert [path.name for path in out.iterdir()] == ["trigger_report.json"]
        report = json.loads((out / "trigger_report.json").read_text())
        assert report["trigger"]["kind"] == "gradwarp"


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
        # one step's learning rate cancels from everything these report,
        # and no subcommand takes many steps
        code, out, err = run_cli(
            capsys, "simulate", "--data", FIXTURE, "--weights", "1,0"
        )
        assert (code, out) == (1, "")
        assert "invalid choice: 'simulate'" in err
        for argv in (["trigger", "--data", FIXTURE], FUZZ_AUDIT):
            code, out, err = run_cli(capsys, *argv, "--gamma", "0.1")
            assert (code, out) == (1, "")
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

    def test_zero_gap_on_large_data_holds(self, capsys, tmp_path):
        """A risk gap of 0 next to a risk near 1.3e8: the routes differ by
        about one roundoff unit of the risk, far above 1e-9, and the check
        still holds."""
        rng = np.random.default_rng(4)
        xs, ys = 1e4 * rng.standard_normal((50, 2)), 1e4 * rng.standard_normal(50)
        path = tmp_path / "big.csv"
        np.savetxt(path, np.column_stack([ys, xs]), delimiter=",", fmt="%.17g")
        # the response is the square root of the clean risk
        argv = ["gap", "--data", str(path), "--weights", "0.5,-0.25", "--kind",
                "manual", "--xv", "0,0", "--yv", "11309.263950733297", "--json"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        r_gap = strict_json_loads(out)["risk_gap"]
        assert abs(r_gap["direct"] - r_gap["closed_form"]) > 1e-8

    @pytest.mark.parametrize("kind", ["riskwarp", "gradwarp", "graddistwarp"])
    def test_constructed_trigger_is_not_scored(self, capsys, monkeypatch, kind):
        """``gap`` builds a constructed trigger without binding or
        evaluating its objective."""
        goal = triggers._GOALS[TriggerKind(kind)]

        def unbindable(*args):
            raise AssertionError("gap bound the objective")

        monkeypatch.setitem(
            triggers._GOALS, TriggerKind(kind), goal._replace(bind=unbindable)
        )
        argv = ["gap", "--data", FIXTURE, "--weights", "1,0", "--kind", kind]
        payload = run_json(capsys, *argv)
        assert payload["trigger"]["kind"] == kind
        assert payload["consistency"]["all"] is True

    def test_manual_requires_point(self, capsys):
        code, _, err = run_cli(
            capsys, "gap", "--data", FIXTURE, "--kind", "manual"
        )
        assert code == 1
        assert "--xv" in err

    def test_inconsistency_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(audit, "_CHECK_TOL", -1.0)
        monkeypatch.setattr(audit, "_ROUNDING_UNITS", 0)
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

    @pytest.mark.parametrize("tol, expected", [(None, 0), (-1.0, 2)])
    def test_out_writes_json_payload(
        self, capsys, monkeypatch, tmp_path, tol, expected
    ):
        """``--out`` writes the ``--json`` payload to gap.json, on a
        failed check too."""
        if tol is not None:
            monkeypatch.setattr(audit, "_CHECK_TOL", tol)
            monkeypatch.setattr(audit, "_ROUNDING_UNITS", 0)
        argv = ["gap", "--data", FIXTURE, "--weights", "1,0", "--out", str(tmp_path)]
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == expected
        written = (tmp_path / "gap.json").read_text()
        assert written == out
        assert strict_json_loads(written)["consistency"]["all"] is (expected == 0)
        # without --json the same file is written and the lines are printed
        (tmp_path / "gap.json").unlink()
        code, out, _ = run_cli(capsys, *argv)
        assert code == expected
        assert (tmp_path / "gap.json").read_text() == written
        assert out.startswith("risk_gap direct=")

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
        """--snr, once a second name for --mu, is gone, as is a --seed that
        tradeoff never read."""
        for flag in ("--snr", "--seed"):
            code, out, err = run_cli(capsys, "tradeoff", "--mu", "0.5", flag, "1")
            assert (code, out) == (1, "")
            assert f"unrecognized arguments: {flag} 1" in err

    def test_requires_exactly_one_gap(self, capsys):
        code, out, err = run_cli(capsys, "tradeoff")
        assert (code, out) == (1, "")
        assert "the following arguments are required: --mu" in err

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


def test_json_writer_rejects_non_finite():
    """A non-finite value that reaches an output is an error, not the
    ``Infinity`` token."""
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._json({"risks": [0.5, value]})


@pytest.mark.parametrize(
    "argv, name",
    [
        (["tradeoff", "--mu", "1.3"], "tradeoff.csv"),
    ],
    ids=["tradeoff"],
)
def test_out_csv_is_printed_table(capsys, tmp_path, argv, name):
    """With ``--out`` a table command writes, with CR LF line ends, exactly
    the table it prints without ``--out``, and prints nothing."""
    code, table, _ = run_cli(capsys, *argv)
    assert code == 0
    assert table.startswith("alpha,")
    code, printed, _ = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert (code, printed) == (0, "")
    assert (tmp_path / name).read_bytes() == table.replace("\n", "\r\n").encode()


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
        assert list(report) == [
            "inputs",
            "sufficient_stats",
            "trigger",
            "trigger_report",
            "risk_gap",
            "gradient_gap",
            "mixture_identity",
            "snr",
            "analytic_curve",
            "monte_carlo",
            "privacy",
            "consistency",
        ]
        assert list(report["inputs"]) == [
            "source",
            "weights",
            "trigger_kind",
            "constraints",
            "sigma",
            "delta",
            "trials",
            "alphas",
            "seed",
            "oracle_budget",
        ]
        assert report["consistency"]["all"] is True
        assert report["snr"]["definitional"] == pytest.approx(
            2.0 / 3.0 * math.sqrt(1.25), abs=1e-12
        )
        assert report["privacy"]["budget"]["epsilon"] > 0
        assert report["consistency"]["budget_routes"] is True
        assert "epsilon_dual" in report["privacy"]
        assert (out / "analytic_curve.csv").exists()
        assert (out / "monte_carlo.csv").exists()
        with open(out / "monte_carlo.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "alpha"
        assert len(rows) == 1 + len(report["inputs"]["alphas"])

    def test_csvs_read_back_report_entries(self, capsys, tmp_path):
        """Every cell of the CSV sidecars reads back bit for bit equal to
        the report entry it came from, under the report's own names."""
        out = tmp_path / "audit"
        assert run_cli(capsys, *self.AUDIT_ARGS, "--out", str(out))[0] == 0
        report = json.loads((out / "report.json").read_text())
        curve = report["analytic_curve"]
        mc = report["monte_carlo"]
        tables = {
            "analytic_curve.csv": (
                ["alpha", "type2", "power"],
                zip(curve["alphas"], curve["type2"], curve["power"]),
            ),
            "monte_carlo.csv": (
                ["alpha", "threshold", "est_type1", "est_type2", "std_err", "trials"],
                (r.values() for r in mc),
            ),
        }
        assert list(mc[0]) == tables["monte_carlo.csv"][0]
        for name, (header, entries) in tables.items():
            with open(out / name, newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == header
            entries = [list(entry) for entry in entries]
            assert len(rows) == 1 + len(entries) == 1 + len(report["inputs"]["alphas"])
            for row, entry in zip(rows[1:], entries):
                read = [type(v)(cell) for cell, v in zip(row, entry, strict=True)]
                assert list(map(_bits, read)) == list(map(_bits, entry))

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

    def test_report_size_is_linear_in_d(self, capsys, tmp_path):
        """The report's ``sufficient_stats`` are the O(d) moments that
        ``stats`` prints, without its d x d ``s_xx``, so the report grows
        linearly in d: 2.5 times the bytes at d=60 as at d=15, against 9.5
        times with ``s_xx``."""
        sizes = {}
        for d in (15, 60):
            spec = f"n=200,d={d},seed=3"
            out = tmp_path / f"d{d}"
            code, _, err = run_cli(
                capsys, "audit", "--synthetic", spec, "--weights-seed", "1",
                "--trials", "1000", "--out", str(out),
            )
            assert code == 0, err
            moments = json.loads((out / "report.json").read_text())["sufficient_stats"]
            assert set(moments) == {"n", "feature_dim", "s_y", "s_yx"}
            stats = run_json(capsys, "stats", "--synthetic", spec)["stats"]
            assert moments == {key: stats[key] for key in moments}
            sizes[d] = (out / "report.json").stat().st_size
        assert sizes[60] < 6 * sizes[15], sizes

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

    def test_subnormal_delta_rejected(self, capsys):
        """Below the smallest normal float the two budget routes can differ
        on correct code, so such a delta is a usage error before any stage;
        the smallest normal deltas still audit with agreeing routes."""
        code, _, err = run_cli(capsys, *self.AUDIT_ARGS, "--delta", "1e-318")
        assert code == 1
        assert "delta 1e-318 is too small" in err
        assert "stage:" not in err
        report = run_json(capsys, *self.AUDIT_ARGS, "--delta", "2.3e-308")
        assert report["consistency"]["budget_routes"] is True

    def test_budget_out_of_range_rejected_before_monte_carlo(self, capsys):
        """The budget needs only the SNR, so an epsilon past its range is a
        usage error before the Monte Carlo run spends its trials."""
        code, _, err = run_cli(
            capsys, "audit", "--data", FIXTURE, "--weights", "1,0",
            "--trials", "100000", "--sigma", "1e-6",
        )
        assert code == 1
        assert "epsilon exceeds 1e+06" in err.splitlines()[-1]
        assert "monte carlo complete" not in err

    def test_large_rank_deficient_features(self, capsys, tmp_path):
        """Features of size 1e3 with an exact linear dependence: s_xx is
        singular up to rounding at the scale of its entries, not of 1."""
        rng = np.random.default_rng(1)
        x = 1000 * rng.standard_normal((200, 10))
        x[:, 1] = 3 * x[:, 0] + x[:, 2]
        y = rng.standard_normal(200)
        path = tmp_path / "dependent.csv"
        np.savetxt(path, np.column_stack([y, x]), delimiter=",")
        code, _, err = run_cli(capsys, "stats", "--data", str(path))
        assert code == 0, err
        report = run_json(
            capsys, "audit", "--data", str(path), "--trials", "1000", "--sigma", "1e5"
        )
        assert report["consistency"]["all"] is True

    def test_planted_solver_bug_fails_budget_routes(self, capsys, monkeypatch):
        """A delta(epsilon) that drops its e^eps Phi(-eps/mu - mu/2) term
        overstates the budget; the bisection and snr_to_budget's cover
        check both use it, so only the tradeoff route can catch it."""

        def buggy(epsilon, mu):
            return gdp.std_normal_cdf(-epsilon / mu + 0.5 * mu)

        monkeypatch.setattr(gdp, "delta_of_epsilon", buggy)
        code, out, err = run_cli(capsys, *self.AUDIT_ARGS, "--json")
        assert code == 2
        assert "consistency checks failed: ['budget_routes']" in err
        privacy = json.loads(out)["privacy"]
        assert privacy["budget"]["epsilon"] > privacy["epsilon_dual"] + 0.1
        assert privacy["epsilon_dual"] == pytest.approx(2.189, abs=1e-3)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_out_of_range_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, *self.AUDIT_ARGS, "--scale", "1e200")
        assert code == 1
        assert "out of floating-point range" in err


class TestSeed:
    AUDIT_ARGS = ("audit", "--data", FIXTURE, "--weights", "1,0", "--trials", "2000")

    def test_seed_flag(self, capsys):
        assert run_json(capsys, *self.AUDIT_ARGS)["inputs"]["seed"] == 0
        payload = run_json(capsys, *self.AUDIT_ARGS, "--seed", "5")
        assert payload["inputs"]["seed"] == 5

    @pytest.mark.parametrize("flag", ["--seed", "--weights-seed"])
    def test_negative_seed_names_its_flag(self, capsys, flag):
        """A seed NumPy cannot take is a usage error naming its flag, raised
        before any stage."""
        argv = ["audit", "--data", FIXTURE, "--trials", "1000", flag, "-1"]
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert f"error: argument {flag}: seed must be >= 0, got -1" in err
        assert "stage:" not in err

    def test_no_config_file_or_environment_seed(self, capsys, monkeypatch):
        """The command line is the only input: --config is an unknown flag,
        and BADGD_SEED leaves the seed at its default."""
        code, out, err = run_cli(capsys, *self.AUDIT_ARGS, "--config", "x.json")
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --config x.json" in err
        monkeypatch.setenv("BADGD_SEED", "77")
        assert run_json(capsys, *self.AUDIT_ARGS)["inputs"]["seed"] == 0


@pytest.fixture
def parser_builds(monkeypatch):
    """Empties the parser cache and records each build_parser call."""
    builds = []
    real = cli.build_parser

    def counting():
        builds.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    yield builds
    cli._parser.cache_clear()


class TestParserOnce:
    def test_built_once_across_calls(self, capsys, parser_builds):
        """One parser serves 30 calls, and no call's flags reach the next."""

        def seed_of(*flags):
            payload = run_json(capsys, "stats", "--synthetic", "n=3,d=2", *flags)
            return payload["source"]["seed"]

        for i in range(15):
            assert seed_of("--seed", str(i + 1)) == i + 1
            assert seed_of() == 0
        assert len(parser_builds) == 1

    def test_dash_value_reaches_flag_check(self, capsys):
        """A value starting with '-', given as --flag=value, is the flag's
        value, not an option."""
        argv = ["gap", "--data", FIXTURE]
        assert cli._parser().parse_args([*argv, "--weights=-1,0"]).weights == [-1, 0]
        code, _, err = run_cli(capsys, *argv, "--weights=-1,-x")
        assert code == 1
        assert "argument --weights: could not convert string to float: '-x'" in err


FUZZ_AUDIT = ["audit", "--data", FIXTURE, "--weights", "1,0", "--trials", "1000"]
# a search box whose every oracle probe overflows
HUGE_BOX = ["--xmax", "1e200", "--oracle-budget", "2"]
# a riskwarp response bound whose square overflows
HUGE_BOUND = ["--kind", "riskwarp", "--bound", "1e200"]
# a gradwarp trigger whose scale times the squared weight norm underflows
UNDERFLOW_GRADWARP = ["--weights", "1e-100,0", "--scale", "1e-300", "--kind", "gradwarp"]
# ... and one whose product is subnormal, not 0, so the response would overflow
SUBNORMAL_GRADWARP = ["--scale", "1e-300", "--kind", "gradwarp"]
SUBNORMAL_WEIGHTS = {"trigger": "1e-10,0", "gap": "1e-5,0", "audit": "1e-5,0"}
# weights whose squared norm, and so the risk, overflows
HUGE_WEIGHTS = ["--data", FIXTURE, "--weights", "1e200,1e200"]
# a gradwarp response near 5e204 to 5e299 whose square overflows (the
# trigger's objective does not square it)
OVERFLOWING_WARP = ["--data", FIXTURE, "--weights", "1e-5,0", "--kind", "gradwarp"]
OVERFLOWING_WARP_RESPONSE = [
    (["gap", *OVERFLOWING_WARP], "1e-200"),
    (["gap", *OVERFLOWING_WARP], "1e-250"),
    (["gap", *OVERFLOWING_WARP], "1e-295"),
    (["audit", *OVERFLOWING_WARP, "--trials", "1000"], "1e-200"),
    (["trigger", *OVERFLOWING_WARP], "1e-295"),
]
HUGE_WEIGHTS_ERRORS = {
    (command, kind): f"error: {kind} trigger: squared weight norm is out of "
    "floating-point range"
    for command in ("trigger", "gap", "audit")
    for kind in ("gradwarp", "graddistwarp")
}


@pytest.mark.parametrize(
    "argv, message",
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
        # a flag of the deleted descent path
        ([*FUZZ_AUDIT, "--gamma", "0"], None),
        # the trigger scale times the squared weight norm underflows to 0
        ([*FUZZ_AUDIT, *UNDERFLOW_GRADWARP], None),
        ([*FUZZ_AUDIT, "--weights", "nan,0"], None),
        ([*FUZZ_AUDIT, "--alphas", "0,1"], None),
        ([*FUZZ_AUDIT, "--kind", "manual"], None),
        ([*FUZZ_AUDIT, "--sigma", "1,0"], ("--sigma", "invalid float value: '1,0'")),
        ([*FUZZ_AUDIT, "--config", "c.json"], ("unrecognized arguments", "--config")),
        ([*FUZZ_AUDIT, "--kind", "bogus"], ("--kind", "invalid TriggerKind value")),
        ([*FUZZ_AUDIT, "--sigma", "1e-300"], None),
        (["trigger", "--data", FIXTURE, *UNDERFLOW_GRADWARP], None),
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
            ([command, *HUGE_WEIGHTS, "--kind", kind], None)
            for command, kind in HUGE_WEIGHTS_ERRORS
        ),
        # riskwarp at the same weights; the oracle binds its w' s_xx w, which
        # overflows here
        (["trigger", *HUGE_WEIGHTS, "--kind", "riskwarp"], None),
        (["audit", *HUGE_WEIGHTS, "--kind", "riskwarp", "--oracle-budget", "32"],
         None),
        (["gap", *HUGE_WEIGHTS, "--kind", "riskwarp"], None),
        (["audit", *HUGE_WEIGHTS, "--kind", "riskwarp"], None),
        # data whose second moments overflow
        (["stats", "--data", HUGE_MOMENTS], None),
        # levels whose 1 - alpha rounds to 1.0, accepted like any other
        (["tradeoff", "--mu", "40", "--alphas", "1e-300"], None),
        ([*FUZZ_AUDIT, "--alphas", "1e-17"], None),
        *(
            ([command, "--data", HUGE_MOMENTS, "--weights", "1"], None)
            for command in ("trigger", "gap", "audit")
        ),
        # seeds NumPy cannot take, and a seed for tradeoff, which draws nothing
        ([*FUZZ_AUDIT, "--seed", "-1"], None),
        (["audit", "--data", FIXTURE, "--trials", "1000", "--weights-seed", "-1"],
         None),
        (["tradeoff", "--mu", "1", "--seed", "3"],
         ("unrecognized arguments", "--seed")),
        # the trigger scale times the squared weight norm is subnormal
        (["trigger", "--data", FIXTURE, "--weights", SUBNORMAL_WEIGHTS["trigger"],
          *SUBNORMAL_GRADWARP], None),
        ([*FUZZ_AUDIT, "--weights", SUBNORMAL_WEIGHTS["audit"], *SUBNORMAL_GRADWARP],
         None),
        (["gap", "--data", FIXTURE, "--weights", SUBNORMAL_WEIGHTS["gap"],
          *SUBNORMAL_GRADWARP], None),
        # a normal but tiny warp denominator: the response is finite, its
        # square loss is not
        *(
            ([*argv, "--scale", scale], None)
            for argv, scale in OVERFLOWING_WARP_RESPONSE
        ),
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fuzz_exits_cleanly(capsys, tmp_path, argv, message):
    """Extreme and invalid inputs end in exit 0, 1 or 2 with no warning,
    exception or traceback; the oracle is off unless a case turns it on.
    A case with ``message`` fragments exits 1 and names each on stderr.
    Run again with ``--json --out``, the same exit code follows and every
    JSON printed or written parses strictly."""
    if argv[0] in ("audit", "trigger") and "--oracle-budget" not in argv:
        argv = [*argv, "--oracle-budget", "0"]
    code = cli.main(argv)
    assert code in (0, 1, 2)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "RuntimeWarning" not in err
    if message is not None:
        assert code == 1
        assert all(part in err for part in message), err

    out = tmp_path / "out"
    assert cli.main([*argv, "--json", "--out", str(out)]) == code
    stdout, err = capsys.readouterr()
    assert "Traceback" not in err
    assert "RuntimeWarning" not in err
    if code != 1 or stdout:
        strict_json_loads(stdout)
    for path in out.glob("*.json") if out.exists() else ():
        strict_json_loads(path.read_text())


@pytest.mark.parametrize(
    "argv, level",
    [
        (["tradeoff", "--mu", "40", "--alphas", "0.05,1e-300"], "1e-300"),
        ([*FUZZ_AUDIT, "--alphas", "1e-17"], "1e-17"),
    ],
)
def test_tiny_level_named(capsys, argv, level):
    """A level whose 1 - alpha rounds to 1.0 is accepted like any other:
    exit 0, with its row in the analytic curve."""
    payload = run_json(capsys, *argv)
    curve = payload.get("analytic_curve", payload)
    assert float(level) in curve["alphas"]


def test_smallest_level_accepted(capsys):
    # 1 - 2**-53 is the largest float below 1.0
    code, out, _ = run_cli(capsys, "tradeoff", "--mu", "40", "--alphas", repr(2.0**-53))
    assert code == 0
    assert out.splitlines()[1].startswith(f"{2.0**-53!r},")


@pytest.mark.parametrize(
    "module, name, argv",
    [
        (sim, "_block_scores", FUZZ_AUDIT),
        (triggers, "oracle_search", ["trigger", "--data", FIXTURE, "--weights", "1,0",
                                     "--oracle-budget", "2"]),
    ],
    ids=["trials", "oracle-budget"],
)
def test_memory_error_exits_one(capsys, monkeypatch, module, name, argv):
    """An input too large to allocate is one error line and exit 1. The
    MemoryError is planted where NumPy raises it; nothing large is
    allocated."""
    calls = []

    def out_of_memory(*args, **kwargs):
        calls.append(name)
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr(module, name, out_of_memory)
    code, out, err = run_cli(capsys, *argv)
    assert calls == [name]
    assert (code, out) == (1, "")
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == ["error: Unable to allocate 74.5 GiB for an array"]
    assert err.splitlines()[-1] == errors[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("command, kind", sorted(HUGE_WEIGHTS_ERRORS))
def test_huge_weights_name_quantity(capsys, tmp_path, command, kind):
    """Weights whose squared norm overflows are one error line naming the
    quantity, with no numpy warning (the suite turns those into errors)."""
    argv = [command, *HUGE_WEIGHTS, "--kind", kind]
    if command == "audit":
        argv += ["--out", str(tmp_path)]
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == [HUGE_WEIGHTS_ERRORS[command, kind]]


@pytest.mark.parametrize("command", ["trigger", "gap", "audit"])
def test_underflowing_warp_denominator_named(capsys, command):
    """A trigger scale times squared weight norm that underflows to 0 is one
    error line naming both factors."""
    code, out, err = run_cli(capsys, command, "--data", FIXTURE, *UNDERFLOW_GRADWARP)
    assert (code, out) == (1, "")
    errors = [line for line in err.splitlines() if not line.startswith("stage: ")]
    assert errors == [
        "error: gradwarp trigger: trigger scale 1e-300 times the squared weight "
        "norm 1e-200 underflows to 0"
    ]


@pytest.mark.parametrize("command", ["trigger", "gap", "audit"])
def test_subnormal_warp_denominator_named(capsys, command):
    """A trigger scale times squared weight norm that is subnormal is named
    before the trigger is built, not as the overflow it would cause."""
    weights = SUBNORMAL_WEIGHTS[command]
    argv = [command, "--data", FIXTURE, "--weights", weights, *SUBNORMAL_GRADWARP]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    norm_sq, product = {"1e-10,0": ("1.0000000000000001e-20", "1e-320"),
                        "1e-5,0": ("1.0000000000000002e-10", "1e-310")}[weights]
    errors = [line for line in err.splitlines() if not line.startswith("stage: ")]
    assert errors == [
        f"error: gradwarp trigger: trigger scale 1e-300 times the squared weight "
        f"norm {norm_sq} underflows to the subnormal {product}"
    ]


@pytest.mark.parametrize("command", ["stats", "trigger", "gap", "audit"])
def test_huge_moments_named(capsys, command):
    """Data whose second moments overflow is one error line naming them."""
    weights = [] if command == "stats" else ["--weights", "1"]
    code, out, err = run_cli(capsys, command, "--data", HUGE_MOMENTS, *weights)
    assert code == 1
    assert out == ""
    errors = [line for line in err.splitlines() if not line.startswith("stage: ")]
    assert errors == ["error: dataset's second moments are out of floating-point range"]


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
        # the budget stage, before the Monte Carlo, meets the huge SNR first
        (["--sigma", "1e-300"], "error: epsilon exceeds 1e+06"),
        # an SNR out of floating-point range names the sigma at fault
        (["--sigma", "5e-324"], "error: sigma 5e-324 is too small"),
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
            sigma=0.0,
            delta=1e-3,
            trials=1000,
            alphas=[0.05],
            seed=0,
            oracle_budget=32,
        )
    assert "stage:" not in capsys.readouterr().err


def test_run_audit_rejects_seed_before_any_stage(capsys):
    data = generate_synthetic(200, 5, 1)
    with pytest.raises(ValueError, match="seed"):
        audit.run_audit(
            data,
            np.ones(5),
            TriggerKind.GRADWARP,
            constraints=TriggerConstraints(),
            sigma=1.0,
            delta=1e-3,
            trials=1000,
            alphas=[0.05],
            seed=-1,
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


@pytest.mark.parametrize(
    "argv, scale",
    OVERFLOWING_WARP_RESPONSE,
    ids=[f"{argv[0]}-{scale}" for argv, scale in OVERFLOWING_WARP_RESPONSE],
)
def test_overflowing_warp_response_named(capsys, argv, scale):
    """A finite response whose square loss overflows is named, with its
    value, by the gap stage; ``trigger`` never squares it and exits 0."""
    code, out, err = run_cli(capsys, *argv, "--scale", scale)
    # <w, s_yx> / (scale * ||w||^2), with s_yx = [0.5, -1] on the fixture
    y_v = (1e-5 * 0.5) / (float(scale) * (1e-5 * 1e-5))
    if argv[0] == "trigger":
        assert (code, err) == (0, "")
        assert f"y_v={y_v!r}" in out
        return
    assert (code, out) == (1, "")
    errors = [line for line in err.splitlines() if not line.startswith("stage: ")]
    assert errors == [
        f"error: risk_gap is out of floating-point range: the trigger's "
        f"response y_v={y_v!r} overflows its square loss"
    ]


def test_trigger_records_are_points_and_constraints_echoed_once(capsys, tmp_path):
    """Every trigger record is its kind and point, which ``Trigger(**d)``
    rebuilds; the box it was built in is echoed once per output, under
    ``constraints``."""
    data = ["--data", FIXTURE, "--weights", "1,0"]
    box = ["--scale", "1.5", "--bound", "2", "--xmax", "3"]
    report = run_json(capsys, "audit", *data, *box, "--trials", "1000",
                      "--oracle-budget", "2")
    records = [
        report["trigger"],
        report["trigger_report"]["trigger"],
        report["trigger_report"]["oracle_best"]["trigger"],
    ]
    for record in records:
        assert set(record) == {"kind", "x_v", "y_v"}
        assert Trigger(**record).to_json_dict() == record
    echoed = {"x_norm_max": 3.0, "response_bound": 2.0, "trigger_scale": 1.5}
    assert report["inputs"]["constraints"] == echoed
    assert "constraints" not in report["trigger_report"]
    assert run_json(capsys, "gap", *data, *box)["constraints"] == echoed
    out = tmp_path / "trigger"
    payload = run_json(capsys, "trigger", *data, *box, "--out", str(out))
    assert payload["report"]["constraints"] == echoed
    written = json.loads((out / "trigger_report.json").read_text())
    assert written == payload["report"]
