"""Dataset construction, triggers, sufficient statistics, and ingestion."""

from __future__ import annotations

import json

import numpy as np
import pytest

from badgd.dataset import (
    Dataset,
    SufficientStats,
    Trigger,
    TriggerKind,
    generate_synthetic,
    load_csv,
    make_bad_dataset,
    save_csv,
    sufficient_stats,
)
from conftest import corpus


class TestExample:
    """How the examples (rows) of a dataset are stored and validated."""

    def test_stores_readonly_copy(self):
        x = np.array([[1.0, 2.0]])
        y = np.array([3.0])
        d = Dataset(x, y)
        x[0, 0] = 99.0
        y[0] = 99.0
        assert d.x_matrix()[0, 0] == 1.0
        assert d.y_vector()[0] == 3.0
        with pytest.raises(ValueError):
            d.x_matrix()[0, 0] = 5.0
        with pytest.raises(ValueError):
            d.y_vector()[0] = 5.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Dataset([[1.0, np.nan]], [0.0])
        with pytest.raises(ValueError, match="finite"):
            Dataset([[1.0]], [np.inf])

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="2-D"):
            Dataset([[[1.0, 2.0]]], [0.0])

    def test_feature_dim(self):
        assert Dataset([[1.0, 2.0, 3.0]], [0.0]).feature_dim == 3


class TestDataset:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one example"):
            Dataset(np.empty((0, 2)), [])
        with pytest.raises(ValueError, match="at least one feature"):
            Dataset(np.empty((2, 0)), [0.0, 0.0])

    def test_mixed_dims_rejected(self):
        # numpy rejects ragged rows: "... inhomogeneous shape ..."
        with pytest.raises(ValueError, match="shape"):
            Dataset([[1.0], [1.0, 2.0]], [0.0, 0.0])

    def test_matrix_views(self, two_point):
        assert two_point.n == 2
        assert two_point.feature_dim == 2
        np.testing.assert_array_equal(
            two_point.x_matrix(), [[1.0, 0.0], [0.0, 2.0]]
        )
        np.testing.assert_array_equal(two_point.y_vector(), [1.0, -1.0])

    def test_constructor_shape_errors(self):
        with pytest.raises(ValueError, match="2-D"):
            Dataset([1.0, 2.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="shape"):
            Dataset([[1.0], [2.0]], [0.0])


class TestTrigger:
    def test_riskwarp_requires_bound(self):
        with pytest.raises(ValueError, match="response_bound"):
            Trigger(x_v=[1.0], y_v=0.5, kind=TriggerKind.RISKWARP)

    def test_riskwarp_bound_enforced(self):
        with pytest.raises(ValueError, match="y_v"):
            Trigger(
                x_v=[1.0],
                y_v=3.0,
                kind=TriggerKind.RISKWARP,
                response_bound=2.0,
            )
        v = Trigger(
            x_v=[1.0], y_v=2.0, kind=TriggerKind.RISKWARP, response_bound=2.0
        )
        assert v.y_v == 2.0

    def test_manual_unbounded(self):
        v = Trigger(x_v=[1.0], y_v=100.0)
        assert v.kind is TriggerKind.MANUAL
        assert v.response_bound is None

    def test_json_round_trip(self):
        v = Trigger(
            x_v=[-1.5, 2.0],
            y_v=2.0,
            kind=TriggerKind.RISKWARP,
            trigger_scale=1.5,
            response_bound=2.0,
        )
        back = Trigger(**json.loads(json.dumps(v.to_json_dict())))
        assert back.kind is TriggerKind.RISKWARP
        assert back.y_v == v.y_v
        assert back.trigger_scale == v.trigger_scale
        assert back.response_bound == v.response_bound
        np.testing.assert_array_equal(back.x_v, v.x_v)

    def test_json_fields(self):
        v = Trigger(x_v=[1.0], y_v=0.0)
        data = json.loads(json.dumps(v.to_json_dict()))
        assert set(data) == {"kind", "x_v", "y_v", "trigger_scale", "response_bound"}
        assert data["response_bound"] is None


class TestSufficientStats:
    def test_two_point_values(self, two_point_stats):
        s = two_point_stats
        assert s.s_y == 1.0
        np.testing.assert_array_equal(s.s_yx, [0.5, -1.0])
        np.testing.assert_array_equal(s.s_xx, [[0.5, 0.0], [0.0, 2.0]])
        assert s.n == 2

    def test_all_zero_point(self):
        s = sufficient_stats(Dataset([[0.0, 0.0]], [0.0]))
        assert s.s_y == 0.0
        np.testing.assert_array_equal(s.s_yx, [0.0, 0.0])
        np.testing.assert_array_equal(s.s_xx, np.zeros((2, 2)))

    def test_single_point(self):
        x = np.array([2.0, -3.0])
        y = 1.5
        s = sufficient_stats(Dataset([x], [y]))
        assert s.s_y == y * y
        np.testing.assert_allclose(s.s_yx, y * x)
        np.testing.assert_allclose(s.s_xx, np.outer(x, x))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="asymmetry"):
            SufficientStats(
                s_y=1.0, s_yx=[0.0, 0.0], s_xx=[[1.0, 0.1], [0.0, 1.0]], n=1
            )

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="semidefinite"):
            SufficientStats(
                s_y=1.0, s_yx=[0.0, 0.0], s_xx=[[1.0, 2.0], [2.0, 1.0]], n=1
            )

    def test_rejects_negative_s_y(self):
        with pytest.raises(ValueError, match="s_y"):
            SufficientStats(s_y=-0.1, s_yx=[0.0], s_xx=[[1.0]], n=1)

    def test_incremental_update_matches_recompute(self):
        # the backdoored moments are the clean ones plus a rank-one trigger term
        for _, d, v in corpus(50, seed=101):
            clean = sufficient_stats(d)
            recomputed = sufficient_stats(make_bad_dataset(d, v))
            m = d.n + 1
            s_y = (d.n * clean.s_y + v.y_v**2) / m
            s_yx = (d.n * clean.s_yx + v.y_v * v.x_v) / m
            s_xx = (d.n * clean.s_xx + np.outer(v.x_v, v.x_v)) / m
            assert abs(s_y - recomputed.s_y) <= 1e-12 * (1 + abs(recomputed.s_y))
            np.testing.assert_allclose(s_yx, recomputed.s_yx, rtol=0, atol=1e-10)
            np.testing.assert_allclose(s_xx, recomputed.s_xx, rtol=0, atol=1e-10)
            assert recomputed.n == m


class TestMakeBadDataset:
    def test_appends_trigger_last(self):
        d0 = Dataset([[1.0, 0.0]], [1.0])
        v = Trigger(x_v=[0.0, 1.0], y_v=3.0)
        d1 = make_bad_dataset(d0, v)
        assert d1.n == 2
        assert d1.y_vector()[-1] == 3.0
        np.testing.assert_array_equal(d1.x_matrix()[-1], [0.0, 1.0])

    def test_clean_unmodified_and_pure(self, two_point):
        v = Trigger(x_v=[1.0, 1.0], y_v=0.0)
        first = make_bad_dataset(two_point, v)
        second = make_bad_dataset(two_point, v)
        assert two_point.n == 2
        assert first.n == second.n == 3
        np.testing.assert_array_equal(two_point.x_matrix(), [[1.0, 0.0], [0.0, 2.0]])
        np.testing.assert_array_equal(two_point.y_vector(), [1.0, -1.0])
        np.testing.assert_array_equal(first.x_matrix(), second.x_matrix())
        np.testing.assert_array_equal(first.y_vector(), second.y_vector())

    def test_dimension_mismatch(self):
        d0 = Dataset([[1.0]], [0.0])
        with pytest.raises(ValueError, match="feature_dim"):
            make_bad_dataset(d0, Trigger(x_v=[1.0, 1.0], y_v=0.0))


class TestLoadCsv:
    def test_fixture_values(self, fixture_csv):
        d = load_csv(fixture_csv)
        assert d.n == 2
        np.testing.assert_array_equal(d.y_vector(), [1.0, -1.0])
        np.testing.assert_array_equal(d.x_matrix(), [[1.0, 0.0], [0.0, 2.0]])

    def test_column_convention(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("1.0,2.0,3.0\n")
        d = load_csv(path)
        assert d.y_vector()[0] == 1.0
        np.testing.assert_array_equal(d.x_matrix()[0], [2.0, 3.0])

    def test_header_skip(self, tmp_path):
        path = tmp_path / "headered.csv"
        path.write_text("y,x_0\n2.0,4.0\n")
        d = load_csv(path, skip_header=True)
        assert d.y_vector()[0] == 2.0
        with pytest.raises(ValueError, match="line 1"):
            load_csv(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n1.0,oops\n")
        with pytest.raises(ValueError, match="line 2"):
            load_csv(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("1.0,nan\n")
        with pytest.raises(ValueError, match="non-finite"):
            load_csv(path)

    def test_width_mismatch(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n1.0,2.0,3.0\n")
        with pytest.raises(ValueError, match="expected 2 fields"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(path)

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"1.0,2.0,3.0\r\n\r\n4.0,5.0,6.0\r\n")
        d = load_csv(path)
        np.testing.assert_array_equal(d.y_vector(), [1.0, 4.0])
        np.testing.assert_array_equal(d.x_matrix(), [[2.0, 3.0], [5.0, 6.0]])
        path.write_bytes(b"1.0,2.0\r\n\r\n1.0,oops\r\n")
        with pytest.raises(ValueError, match="line 3:"):
            load_csv(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blanks.csv"
        path.write_text('\n   \n1.0,2.0\n,\n , ,\t\n\t\n"",""\n3.0,4.0\n\n')
        d = load_csv(path)
        np.testing.assert_array_equal(d.y_vector(), [1.0, 3.0])
        np.testing.assert_array_equal(d.x_matrix(), [[2.0], [4.0]])

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("1.0,oops", "could not convert"),
            ("1.0,2.0,3.0", "expected 2 fields, got 3"),
            ("1.0,inf", "non-finite value in row"),
        ],
    )
    @pytest.mark.parametrize("skip_header", [False, True])
    def test_error_line_numbers_count_skipped_lines(
        self, tmp_path, bad, message, skip_header
    ):
        header = "y,x_0\n" if skip_header else ""
        path = tmp_path / "late.csv"
        path.write_text(f"{header}\n1.0,2.0\n,\n  \n3.0,4.0\n{bad}\n5.0,6.0\n")
        line = 7 if skip_header else 6
        with pytest.raises(ValueError, match=f"line {line}: {message}"):
            load_csv(path, skip_header=skip_header)

    def test_first_bad_line_is_named(self, tmp_path):
        # a non-finite row before a malformed one is the error reported
        path = tmp_path / "two_faults.csv"
        path.write_text("1.0,2.0\n1.0,nan\n1.0,oops\n")
        with pytest.raises(ValueError, match="line 2: non-finite"):
            load_csv(path)
        path.write_text("1.0,2.0\n1.0,nan\n1.0,2.0,3.0\n")
        with pytest.raises(ValueError, match="line 2: non-finite"):
            load_csv(path)

    def test_quoted_numeric_fields(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('"1.5",2.0,"-3e2"\n" 4.0 ","5",6\n')
        d = load_csv(path)
        np.testing.assert_array_equal(d.y_vector(), [1.5, 4.0])
        np.testing.assert_array_equal(d.x_matrix(), [[2.0, -300.0], [5.0, 6.0]])

    def test_quoted_comma_is_one_bad_field(self, tmp_path):
        path = tmp_path / "quoted_comma.csv"
        path.write_text('1.0,2.0\n"3,5",4.0\n')
        with pytest.raises(ValueError, match="line 2: could not convert string '3,5'"):
            load_csv(path)

    def test_float_tokens_parse_bit_equal(self, tmp_path):
        rng = np.random.default_rng(2024)
        bits = rng.integers(0, 2**64, size=3000, dtype=np.uint64).view(np.float64)
        values = [float(v) for v in bits if np.isfinite(v)]
        values += [5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
        values += [0.0, -0.0, 0.5, -0.5, 1e5, -1e-5]
        values += (rng.standard_normal(500) * 10.0 ** rng.integers(-320, 300, 500)).tolist()
        tokens = [repr(v) for v in values]
        tokens += [f"{v:.17e}" for v in rng.standard_normal(300).tolist()]
        # '.5' forms without the leading zero, with and without a sign
        tokens += [repr(v).replace("0.", ".", 1) for v in rng.uniform(-1, 1, 400).tolist()]
        # integer mantissas with exponents: '1e5', '+3E-7'
        tokens += [
            f"{sign}{int(m)}{e}{int(x)}"
            for sign, m, e, x in zip(
                rng.choice(["", "+", "-"], 400),
                rng.integers(0, 10**6, 400),
                rng.choice(["e", "E"], 400),
                rng.integers(-300, 300, 400),
            )
        ]
        spaces = [" ", "\t", "  "]
        tokens += [
            f"{spaces[i % 3]}{repr(v)}{spaces[(i + 1) % 3]}"
            for i, v in enumerate(rng.standard_normal(500).tolist())
        ]
        tokens = tokens[:5000]
        assert len(tokens) == 5000
        width = 5
        rows = [tokens[i : i + width] for i in range(0, len(tokens), width)]
        path = tmp_path / "tokens.csv"
        path.write_text("".join(",".join(row) + "\n" for row in rows))
        d = load_csv(path)
        parsed = np.column_stack([d.y_vector(), d.x_matrix()]).ravel()
        expected = np.array([float(t) for t in tokens])
        np.testing.assert_array_equal(parsed.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("token", ["1_000", "\u0661"])
    def test_tokens_numpy_rejects_name_line(self, tmp_path, token):
        # float() reads digit separators and non-ASCII digits; NumPy does not
        path = tmp_path / "python_only.csv"
        path.write_text(f"1.0,2.0\n{token},2.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2: could not convert"):
            load_csv(path)

    def test_save_round_trip(self, tmp_path, two_point):
        path = tmp_path / "out.csv"
        save_csv(two_point, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.x_matrix(), two_point.x_matrix())
        np.testing.assert_array_equal(back.y_vector(), two_point.y_vector())


class TestGenerateSynthetic:
    def test_deterministic(self):
        a = generate_synthetic(5, 3, seed=7)
        b = generate_synthetic(5, 3, seed=7)
        np.testing.assert_array_equal(a.x_matrix(), b.x_matrix())
        np.testing.assert_array_equal(a.y_vector(), b.y_vector())

    def test_documented_draw_order(self):
        d = generate_synthetic(4, 2, seed=13)
        rng = np.random.default_rng(13)
        w_true = rng.standard_normal(2)
        x = rng.standard_normal((4, 2))
        noise = rng.standard_normal(4)
        np.testing.assert_array_equal(d.x_matrix(), x)
        np.testing.assert_array_equal(d.y_vector(), x @ w_true + noise)

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="n must be"):
            generate_synthetic(0, 2, seed=1)
        with pytest.raises(ValueError, match="feature_dim"):
            generate_synthetic(2, 0, seed=1)
        with pytest.raises(ValueError, match="seed"):
            generate_synthetic(2, 2, seed=-1)
