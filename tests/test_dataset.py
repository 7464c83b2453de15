"""Dataset construction, triggers, sufficient statistics, and ingestion."""

from __future__ import annotations

import json
import os
import re
import sys
import threading
import warnings

import numpy as np
import pytest

from badgd import dataset
from badgd.dataset import (
    Dataset,
    SufficientStats,
    Trigger,
    TriggerKind,
    generate_synthetic,
    load_csv,
    make_bad_dataset,
    sufficient_stats,
)
from conftest import corpus


# a faulty second line, and the words its error names it with
PIPE_FAULTS = [
    (b"1.0,oops\n", "could not convert string 'oops'"),
    (b"1.0,nan\n", "non-finite value in row"),
    (b"1.0,2.0,3.0\n", "expected 2 fields, got 3"),
    (b"1.0,2\xff\n", "byte 0xff is not UTF-8"),
]
PIPE_FAULT_IDS = ["bad-value", "nan", "ragged", "not-utf8"]


def fault_at(path, message: str) -> str:
    """The pattern of ``load_csv``'s error for ``path`` that says ``message``."""
    return f"^{re.escape(str(path))}: {message}"


def load_from_fifo(tmp_path, data: bytes):
    """``load_csv`` of a named pipe that ``data`` is written to once, in
    another thread: the dataset, or the ValueError it raised."""
    path = tmp_path / "pipe.csv"
    os.mkfifo(path)
    outcome = []

    def read():
        try:
            outcome.append(load_csv(path))
        except ValueError as exc:
            outcome.append(exc)

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    try:
        # blocks until the reader opens the pipe
        with open(path, "wb") as fh:
            fh.write(data)
    except BrokenPipeError:
        pass
    # a second open would wait for a writer that never comes
    reader.join(timeout=10)
    assert not reader.is_alive()
    return outcome[0]


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

    def test_own_keeps_arrays_after_the_same_checks(self):
        """The builders' path freezes their fresh arrays in place and
        rejects what the public constructor rejects."""
        x, y = np.array([[1.0, 2.0]]), np.array([3.0])
        d = Dataset._own(x, y)
        assert d.x_matrix() is x and d.y_vector() is y
        assert not (x.flags.writeable or y.flags.writeable)
        with pytest.raises(ValueError, match="finite"):
            Dataset._own(np.array([[np.nan]]), np.array([0.0]))
        with pytest.raises(ValueError, match="shape"):
            Dataset._own(np.ones((2, 1)), np.ones(3))

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
    def test_json_round_trip(self):
        v = Trigger(x_v=[-1.5, 2.0], y_v=2.0, kind=TriggerKind.RISKWARP)
        back = Trigger(**json.loads(json.dumps(v.to_json_dict())))
        assert back.kind is TriggerKind.RISKWARP
        assert back.y_v == v.y_v
        np.testing.assert_array_equal(back.x_v, v.x_v)

    def test_json_fields(self):
        v = Trigger(x_v=[1.0], y_v=0.0)
        data = json.loads(json.dumps(v.to_json_dict()))
        assert set(data) == {"kind", "x_v", "y_v"}
        assert data["kind"] == "manual"


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

    def test_large_rank_deficient_features(self):
        """Features of size 1e3 with one exact linear dependence: the
        rounding in s_xx (entries near 1e7) gives eigenvalues a few 1e-9
        below 0, well inside the tolerance scaled by max|s_xx|."""
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x = 1000 * rng.standard_normal((200, 10))
            x[:, 1] = 3 * x[:, 0] + x[:, 2]
            s = sufficient_stats(Dataset(x, rng.standard_normal(200)))
            assert np.linalg.eigvalsh(s.s_xx)[0] < 1e-6 * np.max(s.s_xx)
        # scaled tolerances still reject violations at the entries' scale
        for s_xx, match in (
            ([[1e6, 1e3], [0.0, 1e6]], "asymmetry"),
            ([[1e6, 2e6], [2e6, 1e6]], "semidefinite"),
        ):
            with pytest.raises(ValueError, match=match):
                SufficientStats(s_y=1.0, s_yx=[0.0, 0.0], s_xx=s_xx, n=1)

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

    def test_owns_readonly_rows(self, two_point, tmp_path):
        """The first backdoored dataset of a loaded or generated dataset is
        the clean rows' memory plus the spare row; any other backdoored
        dataset holds rows of its own. All are read-only."""
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
        v = Trigger(x_v=[1.0, 1.0], y_v=0.0)
        for clean, spare in (
            (load_csv(path), True),
            (generate_synthetic(5, 2, 1), True),
            (two_point, False),
        ):
            first, second = make_bad_dataset(clean, v), make_bad_dataset(clean, v)
            for bad, shared in ((first, spare), (second, False)):
                for rows, clean_rows in (
                    (bad.x_matrix(), clean.x_matrix()),
                    (bad.y_vector(), clean.y_vector()),
                ):
                    assert np.shares_memory(rows, clean_rows) == shared
                    assert not rows.flags.writeable
                    with pytest.raises(ValueError, match="read-only"):
                        rows[0] = 5.0

    def test_second_trigger_leaves_clean_and_first_unchanged(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n7.0,8.0,9.0\n")
        for clean in (load_csv(path), generate_synthetic(3, 2, 4)):
            x0, y0 = clean.x_matrix().copy(), clean.y_vector().copy()
            first = make_bad_dataset(clean, Trigger(x_v=[1.0, 2.0], y_v=3.0))
            x1, y1 = first.x_matrix().copy(), first.y_vector().copy()
            second = make_bad_dataset(clean, Trigger(x_v=[-4.0, 5.0], y_v=-6.0))
            assert clean.n == 3 and first.n == second.n == 4
            np.testing.assert_array_equal(clean.x_matrix(), x0)
            np.testing.assert_array_equal(clean.y_vector(), y0)
            np.testing.assert_array_equal(first.x_matrix(), x1)
            np.testing.assert_array_equal(first.y_vector(), y1)
            np.testing.assert_array_equal(first.x_matrix()[-1], [1.0, 2.0])
            np.testing.assert_array_equal(second.x_matrix()[-1], [-4.0, 5.0])
            assert (first.y_vector()[-1], second.y_vector()[-1]) == (3.0, -6.0)

    def test_threads_take_the_spare_row_once(self):
        """Eight threads backdoor one dataset at once, each with its own
        trigger: one takes the spare row, and each gets its trigger."""
        workers, interval = 8, sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(30):
                clean = generate_synthetic(50, 2, seed)
                triggers = [Trigger(x_v=[i, -i], y_v=i) for i in range(workers)]
                results: list = [None] * workers
                start = threading.Barrier(workers)

                def backdoor(i):
                    start.wait(timeout=10)
                    results[i] = make_bad_dataset(clean, triggers[i])

                threads = [
                    threading.Thread(target=backdoor, args=(i,)) for i in range(workers)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                    assert not t.is_alive()
                shared = [np.shares_memory(b.x_matrix(), clean.x_matrix()) for b in results]
                assert sum(shared) == 1
                for bad, v in zip(results, triggers):
                    np.testing.assert_array_equal(bad.x_matrix()[:-1], clean.x_matrix())
                    np.testing.assert_array_equal(bad.x_matrix()[-1], v.x_v)
                    assert bad.y_vector()[-1] == v.y_v
        finally:
            sys.setswitchinterval(interval)


class TestLoadCsv:
    def test_loads_under_a_trace_function(self, fixture_csv):
        """A trace function that reads frame locals, as a debugger does,
        holds a second reference to the parsed table, so before Python
        3.13 it cannot grow in place; the dataset then has no spare row."""

        def tracer(frame, event, arg):
            frame.f_locals
            return tracer

        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            d = load_csv(fixture_csv)
        finally:
            sys.settrace(previous)
        np.testing.assert_array_equal(d.x_matrix(), [[1.0, 0.0], [0.0, 2.0]])
        np.testing.assert_array_equal(d.y_vector(), [1.0, -1.0])
        bad = make_bad_dataset(d, Trigger(x_v=[3.0, 4.0], y_v=5.0))
        np.testing.assert_array_equal(bad.x_matrix(), [[1.0, 0.0], [0.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(bad.y_vector(), [1.0, -1.0, 5.0])

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
        # NumPy never sees a skipped header, so the one-pass read refuses it
        path.write_bytes(b"y,x_\xff\n2.0,4.0\n")
        with pytest.raises(ValueError, match="line 1: byte 0xff is not UTF-8"):
            load_csv(path, skip_header=True)

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

    @pytest.mark.parametrize("skip_header", [False, True])
    def test_clean_file_takes_one_pass(self, monkeypatch, tmp_path, skip_header):
        """A clean file is parsed by NumPy alone: the per-line pass never runs."""

        def refuse(*args):
            raise AssertionError("the per-line pass ran on a clean file")

        monkeypatch.setattr(dataset, "_first_bad_line", refuse)
        path = tmp_path / "clean.csv"
        path.write_text(("y,x_0,x_1\n" if skip_header else "") + "1.0,2.0,3.0\n\n4.0,5.0,6.0\n")
        d = load_csv(path, skip_header=skip_header)
        np.testing.assert_array_equal(d.y_vector(), [1.0, 4.0])
        np.testing.assert_array_equal(d.x_matrix(), [[2.0, 3.0], [5.0, 6.0]])
        # the spare row is there: the first backdoored dataset takes it
        assert len(d._spare) == 1

    @pytest.mark.parametrize(
        "text, message",
        [("", "no data rows"), ("\n\n", "no data rows"), (' \n,\n""\n', "line 1: need y")],
        ids=["empty", "blank", "separators"],
    )
    def test_no_rows_warns_nothing(self, tmp_path, text, message):
        # a line of only whitespace is a row, one field wide
        path = tmp_path / "no_rows.csv"
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=fault_at(path, message)):
                load_csv(path)
        assert caught == []

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_named_pipe_is_read_once(self, tmp_path):
        """A pipe cannot be read twice: a clean one is read once."""
        loaded = load_from_fifo(tmp_path, b"1.0,2.0\n3.0,4.0\n")
        np.testing.assert_array_equal(loaded.y_vector(), [1.0, 3.0])
        np.testing.assert_array_equal(loaded.x_matrix(), [[2.0], [4.0]])

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize("line, message", PIPE_FAULTS, ids=PIPE_FAULT_IDS)
    def test_named_pipe_fault_names_its_line(self, tmp_path, line, message):
        """Each pass reads the lines the one open read: no pass waits in a
        second open for a writer that never comes."""
        fault = load_from_fifo(tmp_path, b"1.0,2.0\n" + line + b"5.0,6.0\n")
        assert isinstance(fault, ValueError)
        assert f"line 2: {message}" in str(fault)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    @pytest.mark.parametrize("line, message", PIPE_FAULTS, ids=PIPE_FAULT_IDS)
    def test_dev_fd_pipe_fault_names_its_line(self, line, message):
        """A pipe opened by its descriptor's path, as ``--data <(...)``
        gives it, names the line at fault like a file."""
        r, w = os.pipe()
        try:
            os.write(w, b"1.0,2.0\n" + line + b"5.0,6.0\n")
            os.close(w)
            with pytest.raises(ValueError, match=f"^/dev/fd/{r}: line 2: {message}"):
                load_csv(f"/dev/fd/{r}")
        finally:
            os.close(r)

    @pytest.mark.parametrize(
        "text",
        [b"1.0,2.0\n3.0,4.0\n", b"1.0,2.0\n1.0,oops\n", b"1.0,nan\n", b"1.0,2\xff\n"],
        ids=["clean", "bad-value", "nan", "not-utf8"],
    )
    def test_path_is_opened_once(self, monkeypatch, tmp_path, text):
        """Every pass, and every pass that names a fault, reads the one
        handle that the one open gave."""
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(dataset, "open", counting_open, raising=False)
        path = tmp_path / "once.csv"
        path.write_bytes(text)
        try:
            load_csv(path)
        except ValueError:
            pass
        assert opened == [path]

    def test_quoted_field_never_spans_lines(self, tmp_path):
        # '"' is no quote character: no field spans a line end, and the
        # first line holding one is named
        path = tmp_path / "spanning.csv"
        path.write_text('1.0,2.0\n"\n3.0",4.0\n')
        with pytest.raises(ValueError, match="line 2: expected 2 fields, got 1"):
            load_csv(path)
        path.write_text('1,"2\n"\n3,4\n')
        with pytest.raises(ValueError, match="line 1: could not convert string '\"2'"):
            load_csv(path)

    def test_blank_lines_skipped(self, tmp_path):
        # only empty lines are skipped; a line of whitespace, commas or
        # quotes is a row, named where it is not one of floats
        path = tmp_path / "blanks.csv"
        path.write_text("\n\n1.0,2.0\n\n3.0,4.0\n\n")
        d = load_csv(path)
        np.testing.assert_array_equal(d.y_vector(), [1.0, 3.0])
        np.testing.assert_array_equal(d.x_matrix(), [[2.0], [4.0]])
        for blank, reason in [
            ("   ", "expected 2 fields, got 1"),
            ("\t", "expected 2 fields, got 1"),
            (",", "could not convert string ''"),
            (" ,\t", "could not convert string ' '"),
            ('"",""', "could not convert string '\"\"'"),
        ]:
            path.write_text(f"\n1.0,2.0\n\n{blank}\n3.0,4.0\n")
            with pytest.raises(ValueError, match=fault_at(path, f"line 4: {reason}")):
                load_csv(path)

    def test_leading_separator_lines_skipped(self, tmp_path):
        # a separator line before the first row is that row, not skipped
        path = tmp_path / "leading.csv"
        path.write_text("\n , \n1.0,2.0\n")
        with pytest.raises(
            ValueError, match=fault_at(path, "line 2: could not convert string ' '")
        ):
            load_csv(path)
        path.write_text("\n  \n1.0,2.0\n")
        with pytest.raises(
            ValueError, match=fault_at(path, "line 2: need y plus at least one feature")
        ):
            load_csv(path)

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
        # the header and empty lines are skipped, and counted
        header = "y,x_0\n" if skip_header else ""
        path = tmp_path / "late.csv"
        path.write_text(f"{header}\n1.0,2.0\n\n\r\n3.0,4.0\n{bad}\n5.0,6.0\n")
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
        path.write_bytes(b"1.0,2.0\n1.0,oops\n3.0,4.0\n5.0,6.0\n7.0,\xff\n")
        with pytest.raises(ValueError, match="line 2: could not convert string 'oops'"):
            load_csv(path)

    def test_quoted_numeric_fields(self, tmp_path):
        # no quote character: a quoted number is a value that does not parse
        path = tmp_path / "quoted.csv"
        path.write_text('1.5,2.0,-3e2\n" 4.0 ","5",6\n')
        with pytest.raises(
            ValueError, match=fault_at(path, "line 2: could not convert string '\" 4.0 \"'")
        ):
            load_csv(path)
        path.write_text('"1.5",2.0,"-3e2"\n')
        with pytest.raises(
            ValueError, match=fault_at(path, "line 1: could not convert string '\"1.5\"'")
        ):
            load_csv(path)

    def test_quoted_comma_is_one_bad_field(self, tmp_path):
        # the comma inside the quotes separates fields: the row is too wide
        path = tmp_path / "quoted_comma.csv"
        path.write_text('1.0,2.0\n"3,5",4.0\n')
        with pytest.raises(
            ValueError, match=fault_at(path, "line 2: expected 2 fields, got 3")
        ):
            load_csv(path)
        path.write_text('1.0,2.0,3.0\n"3,5",4.0\n')
        with pytest.raises(
            ValueError, match=fault_at(path, "line 2: could not convert string '\"3'")
        ):
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

    def test_leading_byte_order_mark_is_ignored(self, tmp_path):
        # a spreadsheet's "CSV UTF-8" export starts with one
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(b"1.0,0.0,1.0\n-1.0,0.0,2.0\n")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        a, b = load_csv(plain), load_csv(marked)
        for u, v in [(a.x_matrix(), b.x_matrix()), (a.y_vector(), b.y_vector())]:
            np.testing.assert_array_equal(u.view(np.uint64), v.view(np.uint64))
        # a mark past the file's start is a value that does not parse
        marked.write_bytes(plain.read_bytes() + b"\xef\xbb\xbf3.0,4.0,5.0\n")
        message = re.escape("line 3: could not convert string '\\ufeff3.0'")
        with pytest.raises(ValueError, match=message):
            load_csv(marked)

    def test_byte_order_mark_is_not_named_in_a_fault(self, tmp_path):
        data = b"\xef\xbb\xbfoops,0.0,1.0\n-1.0,0.0,2.0\n"
        path = tmp_path / "marked.csv"
        path.write_bytes(data)
        r, w = os.pipe()
        try:
            os.write(w, data)
            os.close(w)
            for source in (path, f"/dev/fd/{r}"):
                with pytest.raises(ValueError) as caught:
                    load_csv(source)
                message = str(caught.value)
                assert message.startswith(f"{source}: line 1: could not convert string 'oops'")
                assert "\ufeff" not in message and "ufeff" not in message
        finally:
            os.close(r)

    def test_every_refusal_names_a_line(self, tmp_path):
        """Random small files: each loads, or its error names the first
        line at fault, or says it has no data rows; the lines before the
        named one load, and those up to it are refused at it."""
        rng = np.random.default_rng(3401)
        pieces = [b"1.5", b"-2e3", b" 0.25", b"nan", b"oops", b'"4"', b"\xff", b""]
        blanks = [b"", b"", b"  ", b"\t", b",", b" , ", b'"']
        path = tmp_path / "fuzz.csv"

        def outcome(lines, end, skip_header):
            path.write_bytes(b"".join(line + end for line in lines))
            try:
                return load_csv(path, skip_header=skip_header)
            except ValueError as exc:
                return str(exc)

        named = 0
        for _ in range(2000):
            width = int(rng.integers(1, 4))
            lines = [
                blanks[rng.integers(len(blanks))]
                if rng.random() < 0.25
                else b",".join(
                    pieces[rng.integers(len(pieces))]
                    if rng.random() < 0.1
                    else b"%r" % rng.random()
                    for _ in range(width + (rng.random() < 0.1))
                )
                for _ in range(rng.integers(0, 6))
            ]
            end = b"\r\n" if rng.random() < 0.3 else b"\n"
            for skip_header in (False, True):
                got = outcome(lines, end, skip_header)
                if isinstance(got, Dataset) or got == f"{path}: no data rows":
                    continue
                match = re.match(rf"{re.escape(str(path))}: line (\d+): ", got)
                assert match, got
                n = int(match[1])
                before = outcome(lines[: n - 1], end, skip_header)
                assert isinstance(before, Dataset) or before == f"{path}: no data rows", before
                assert outcome(lines[:n], end, skip_header).startswith(f"{path}: line {n}: ")
                named += 1
        # the faults above are common enough that most files name one
        assert named > 1000


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
        assert not (d.x_matrix().flags.writeable or d.y_vector().flags.writeable)

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="n must be"):
            generate_synthetic(0, 2, seed=1)
        with pytest.raises(ValueError, match="feature_dim"):
            generate_synthetic(2, 0, seed=1)
        with pytest.raises(ValueError, match="seed"):
            generate_synthetic(2, 2, seed=-1)
        with pytest.raises(ValueError, match="seed must be a whole number"):
            generate_synthetic(2, 2, seed=1.5)
