import ast
import decimal
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import _counted, assert_no_child_left, blas_threads_env, returns_ranges, usable_cpus

import nestbench
from nestbench import (
    BetaVector,
    ClassificationTree,
    ReturnsPanel,
    SyntheticSpec,
    generate,
    load_classification_csv,
    load_returns_csv,
    tree_from_labels,
    validate_tree,
    write_classification_csv,
    write_returns_csv,
)
from nestbench import data_model
from nestbench.data_model import _MIN_RANGE_BYTES, _load_returns_slowly, _parse_cells, _range_count, write_csv
from nestbench.errors import (
    DuplicateTicker,
    InconsistentNesting,
    InputError,
    InsufficientObservations,
    InvalidBeta,
    MissingInputFile,
    NonNumericCell,
    UnmappedStock,
)


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _outcome(load, path):
    """The panel's labels and value bytes, or the error's type and message."""
    try:
        panel = load(path)
    except InputError as exc:
        return type(exc), str(exc)
    return panel.tickers, panel.dates, panel.values.tobytes()


def _assert_same_as_slow_parse(path):
    assert _outcome(load_returns_csv, path) == _outcome(_load_returns_slowly, path)


_ACCEPTED = {
    "blank lines": (
        "ticker,d1,d2\n\nA,0.1,0.2\n\n\nB,0.3,0.4\n\n",
        ("A", "B"), [[0.1, 0.2], [0.3, 0.4]],
    ),
    "quoted ticker": (
        'ticker,d1,d2\n"A,""x""",0.1,0.2\nB,0.3,0.4\n',
        ('A,"x"', "B"), [[0.1, 0.2], [0.3, 0.4]],
    ),
    "bare carriage returns end lines": (
        "ticker,d1,d2\rA,0.1,0.2\rB,0.3,0.4\r",
        ("A", "B"), [[0.1, 0.2], [0.3, 0.4]],
    ),
    "underscore and Arabic-Indic digit": (
        "ticker,d1,d2\nA,1_0,\u0661\nB,0.3,0.4\n",
        ("A", "B"), [[10.0, 1.0], [0.3, 0.4]],
    ),
    "leading space in a cell": (
        "ticker,d1,d2\nA, 0.1,0.2\nB,0.3,0.4\n",
        ("A", "B"), [[0.1, 0.2], [0.3, 0.4]],
    ),
}

_REJECTED = {
    "comment character": (
        "ticker,d1,d2\nA,0.1,1.5#x\nB,0.3,0.4\n",
        NonNumericCell, "data row 1, column 2: '1.5#x'",
    ),
    # float() refuses the ASCII information separators numpy strips as blanks
    "information separator": (
        "ticker,d1,d2\nA,0.1,0.2\nB,0.3,0.4\x1c\n",
        NonNumericCell, "data row 2, column 2: '0.4\\x1c'",
    ),
    # the csv module ends a line at a bare carriage return
    "bare carriage return in a ticker": (
        "ticker,d1,d2\nA\rX,0.1,0.2\nB,0.3,0.4\n",
        InputError, "row 1 has 1 fields, expected 3",
    ),
    "ticker-only row": (
        "ticker,d1,d2\nA\nB,0.3,0.4\n",
        InputError, "row 1 has 1 fields, expected 3",
    ),
    "ticker-only rows alone": (
        "ticker,d1,d2\nA\nB,\n",
        InputError, "row 1 has 1 fields, expected 3",
    ),
    "one extra field": (
        "ticker,d1,d2\nA,0.1,0.2\nB,0.3,0.4,0.5\n",
        InputError, "row 2 has 4 fields, expected 3",
    ),
    "ragged rows of the right total": (
        "ticker,d1,d2\nA,0.1,0.2,0.3\nB,0.4\n",
        InputError, "row 1 has 4 fields, expected 3",
    ),
    "header only": ("ticker,d1,d2\n", InputError, "at least 2 data rows"),
    # numbers numpy's integer reader would read in part, or as 0
    **{
        f"malformed number {cell}": (
            f"ticker,d1,d2\nA,0.1,0.2\nB,{cell},4\n", NonNumericCell, f"data row 2, column 1: '{cell}'",
        )
        for cell in ("1e5.0", "1e1.0", "1.5e", "+-1", "1.2.3", "1e+", ".-5", "-", "e5", "1e5e3")
    },
    # junk after a number in the file's last cell, where a reader that
    # stops at it has already counted every cell
    **{
        f"junk after the last number {cell}": (
            f"ticker,d1,d2\nA,0.1,0.2\nB,0.3,{cell}\n", NonNumericCell, f"data row 2, column 2: '{cell}'",
        )
        for cell in ("4-", "0.5-", "1-2", "1e5+", "0.5x")
    },
}


class TestLoadReturns:
    def test_basic_parse(self, tmp_path):
        path = _write(tmp_path / "r.csv", "ticker,d1,d2,d3\nA,0.01,0.02,-0.01\nB,0.00,0.01,0.03\n")
        panel = load_returns_csv(path)
        assert panel.tickers == ("A", "B")
        assert panel.dates == ("d1", "d2", "d3")
        assert panel.n_stocks == 2 and panel.n_periods == 3
        np.testing.assert_allclose(panel.values, [[0.01, 0.02, -0.01], [0.0, 0.01, 0.03]])

    def test_duplicate_ticker(self, tmp_path):
        path = _write(tmp_path / "r.csv", "ticker,d1,d2\nA,0.01,0.02\nA,0.0,0.0\n")
        with pytest.raises(DuplicateTicker) as err:
            load_returns_csv(path)
        assert err.value.ticker == "A"

    def test_duplicate_date_is_named(self, tmp_path):
        path = _write(tmp_path / "r.csv", "ticker,d1,d2,d3,d2,d1\nA,0.1,0.2,0.3,0.4,0.5\nB,0,0,0,0,0\n")
        for load in (load_returns_csv, _load_returns_slowly):
            with pytest.raises(InputError, match=re.escape(f"{path}: duplicate date label: 'd2'")):
                load(path)

    def test_duplicate_ticker_names_the_file(self, tmp_path):
        path = _write(tmp_path / "r.csv", "ticker,d1,d2\nA,0.01,0.02\nB,0,0\nA,0.0,0.0\n")
        for load in (load_returns_csv, _load_returns_slowly):
            with pytest.raises(DuplicateTicker, match=re.escape(f"{path}: duplicate ticker 'A'")):
                load(path)

    def test_non_numeric_cell(self, tmp_path):
        path = _write(tmp_path / "r.csv", "ticker,d1,d2\nA,0.01,abc\nB,0.0,0.0\n")
        with pytest.raises(NonNumericCell) as err:
            load_returns_csv(path)
        assert (err.value.row, err.value.col) == (1, 2)

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_bytes(b"ticker,d1,d2\nS\xe9,0.1,0.2\nB,0.3,0.4\n")
        with pytest.raises(InputError, match="UTF-8"):
            load_returns_csv(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingInputFile):
            load_returns_csv(tmp_path / "nope.csv")

    def test_too_few_periods(self, tmp_path):
        path = _write(tmp_path / "r.csv", "ticker,d1\nA,0.01\nB,0.0\n")
        with pytest.raises(InsufficientObservations):
            load_returns_csv(path)

    def test_nan_is_hard_error(self):
        with pytest.raises(InputError):
            ReturnsPanel(("A", "B"), ("d1", "d2"), np.array([[0.1, np.nan], [0.0, 0.0]]))

    def test_panel_keeps_a_read_only_view(self):
        values = np.full((2, 2), 0.01)
        panel = ReturnsPanel(("A", "B"), ("d1", "d2"), values)
        assert np.shares_memory(panel.values, values)
        assert not panel.values.flags.writeable and values.flags.writeable

    def test_finiteness_check_allocates_no_mask(self):
        n, t = 1000, 500
        values = np.random.default_rng(0).normal(0.0, 0.02, (n, t))
        tickers, dates = tuple(f"T{i}" for i in range(n)), tuple(f"D{s}" for s in range(t))
        tracemalloc.start()
        try:
            ReturnsPanel(tickers, dates, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < values.nbytes / 20, f"peak {peak / values.nbytes:.3f}x the array"

    @pytest.mark.parametrize("row, col, value", [(1, 2, -np.inf), (0, 1, np.inf)])
    def test_infinite_return_is_named(self, row, col, value):
        values = np.zeros((2, 3))
        values[row, col] = value
        with pytest.raises(InputError, match=re.escape(f"non-finite return for {'AB'[row]!r} at 'd{col + 1}'")):
            ReturnsPanel(("A", "B"), ("d1", "d2", "d3"), values)

    def test_byte_order_mark(self, tmp_path):
        text = "\n".join([_HEADER, *_ROWS, ""])
        plain = _outcome(load_returns_csv, _write(tmp_path / "plain.csv", text))
        for name, body in (("fast", text), ("quoted", text.replace("S1,", '"S1",'))):
            path = tmp_path / f"{name}.csv"
            path.write_text(body, encoding="utf-8-sig")
            assert path.read_bytes().startswith(b"\xef\xbb\xbf")
            assert _outcome(load_returns_csv, str(path)) == plain
            assert _outcome(_load_returns_slowly, str(path)) == plain

    def test_roundtrip(self, tmp_path):
        instance = generate(SyntheticSpec(n=8, t=30, clusters=(3,), rho=(0.4,), seed=3))
        path = tmp_path / "r.csv"
        write_returns_csv(instance.panel, path)
        back = load_returns_csv(path)
        assert back.tickers == instance.panel.tickers
        assert back.dates == instance.panel.dates
        np.testing.assert_array_equal(back.values, instance.panel.values)

    def test_crlf_file_as_written(self, tmp_path):
        path = tmp_path / "r.csv"
        write_csv(path, ("ticker", "d1", "d2"), (("A", "B"), (0.1, -0.0), (5e-324, 2.5)))
        assert path.read_bytes().count(b"\r\n") == 3
        panel = load_returns_csv(path)
        assert panel.tickers == ("A", "B") and panel.dates == ("d1", "d2")
        assert panel.values.tobytes() == np.array([[0.1, 5e-324], [-0.0, 2.5]]).tobytes()
        _assert_same_as_slow_parse(path)

    @pytest.mark.parametrize("case", sorted(_ACCEPTED))
    def test_accepted_edge_cases(self, tmp_path, case):
        text, tickers, values = _ACCEPTED[case]
        path = _write(tmp_path / "r.csv", text)
        panel = load_returns_csv(path)
        assert panel.tickers == tickers
        assert panel.values.tobytes() == np.array(values).tobytes()
        _assert_same_as_slow_parse(path)

    @pytest.mark.parametrize("case", sorted(_REJECTED))
    def test_rejected_edge_cases(self, tmp_path, case):
        text, error, message = _REJECTED[case]
        path = _write(tmp_path / "r.csv", text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=re.escape(message)):
                load_returns_csv(path)
        _assert_same_as_slow_parse(path)

    def test_peak_memory_stays_near_the_array(self, tmp_path):
        n, t = 1000, 500
        values = np.random.default_rng(0).normal(0.0, 0.02, (n, t))
        # the writer quotes a ticker that holds a comma, so the per-cell
        # parse reads the second file, one row at a time
        for first in ("T0", "T0,x"):
            tickers = (first, *(f"T{i}" for i in range(1, n)))
            panel = ReturnsPanel(tickers, tuple(f"D{s}" for s in range(t)), values)
            path = tmp_path / "r.csv"
            write_returns_csv(panel, path)
            tracemalloc.start()
            try:
                assert load_returns_csv(path).tickers[0] == first
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 3 * values.nbytes, f"{first!r}: peak {peak / values.nbytes:.1f}x the array"

    def test_panel_rules_need_no_per_cell_parse(self, tmp_path, monkeypatch):
        # ReturnsPanel alone checks the panel's rules, and the fast parse
        # hands it the file's name; the per-cell parse is for syntax alone
        files = {
            "ticker,d1,d2\nA,0.01,0.02\nB,0,0\nA,0.0,0.0\n": (DuplicateTicker, "duplicate ticker 'A'"),
            "ticker,d1,d2,d3,d2,d1\nA,0.1,0.2,0.3,0.4,0.5\nB,0,0,0,0,0\n": (InputError, "duplicate date label: 'd2'"),
            "ticker,d1,d2\nA,0.01,0.02\n": (InputError, "at least 2 data rows"),
        }

        def refuse(path):
            raise AssertionError(f"per-cell parse of {path}")

        monkeypatch.setattr(data_model, "_load_returns_slowly", refuse)
        for i, (text, (error, message)) in enumerate(files.items()):
            path = _write(tmp_path / f"r{i}.csv", text)
            with pytest.raises(error, match=re.escape(f"{path}: ") + ".*" + re.escape(message)) as err:
                load_returns_csv(path)
            assert type(err.value) is error
        monkeypatch.undo()
        # the per-cell parse checks no rule of the panel: it hands every
        # syntactically sound file to ReturnsPanel
        panels = []
        monkeypatch.setattr(data_model, "ReturnsPanel", lambda *args: panels.append(args))
        for i in range(len(files)):
            _load_returns_slowly(str(tmp_path / f"r{i}.csv"))
        assert [(len(tickers), len(dates)) for tickers, dates, _ in panels] == [(3, 2), (2, 5), (1, 2)]


_HEADER = "ticker,d1,d2,d3"
_ROWS = [f"S{i},0.{i}1,-0.{i}2,{i}e-3" for i in range(1, 7)]


def _ranged(path, k):
    """The outcome of a load cut into ``k`` ranges, the workers it forked and
    the per-cell parses it ran; no worker is left behind."""
    with returns_ranges(k) as calls:
        outcome = _outcome(load_returns_csv, path)
    assert_no_child_left()
    return outcome, calls["_fork_worker"], calls["_load_returns_slowly"]


@pytest.mark.parametrize("k", [1, 2, 3])
class TestParallelParse:
    def test_bad_cell_in_first_or_last_range(self, tmp_path, k):
        for row in (0, len(_ROWS) - 1):
            rows = list(_ROWS)
            rows[row] = rows[row].rsplit(",", 1)[0] + ",abc"
            path = _write(tmp_path / f"r{row}.csv", "\n".join([_HEADER, *rows, ""]))
            outcome, forked, slow = _ranged(path, k)
            assert outcome == (NonNumericCell, f"non-numeric cell at data row {row + 1}, column 3: 'abc'")
            assert outcome == _outcome(_load_returns_slowly, path)
            assert (forked, slow) == (k - 1, 1)

    def test_blank_or_crlf_line_at_every_cut(self, tmp_path, k):
        clean = _outcome(_load_returns_slowly, _write(tmp_path / "clean.csv", "\n".join([_HEADER, *_ROWS, ""])))
        for at in range(1, len(_ROWS) + 1):
            blank = _write(tmp_path / f"blank{at}.csv", "\n".join([_HEADER, *_ROWS[:at], "", *_ROWS[at:], ""]))
            assert _ranged(blank, k) == (clean, k - 1, 0)
            lines = [_HEADER, *_ROWS, ""]
            lines[at] += "\r"
            crlf = _write(tmp_path / f"crlf{at}.csv", "\n".join(lines))
            assert _ranged(crlf, k) == (clean, k - 1, 0)

    def test_crlf_only_line_at_every_cut(self, tmp_path, k):
        clean = _outcome(_load_returns_slowly, _write(tmp_path / "clean.csv", "\n".join([_HEADER, *_ROWS, ""])))
        for at in range(1, len(_ROWS) + 1):
            path = _write(tmp_path / f"r{at}.csv", "\n".join([_HEADER, *_ROWS[:at], "\r", *_ROWS[at:], ""]))
            assert _ranged(path, k) == (clean, k - 1, 0)

    def test_trailing_blank_lines(self, tmp_path, k):
        clean = _outcome(_load_returns_slowly, _write(tmp_path / "clean.csv", "\n".join([_HEADER, *_ROWS, ""])))
        for end in ("\n", "\r\n", "\n\r\n\n"):
            path = _write(tmp_path / "r.csv", "\n".join([_HEADER, *_ROWS, ""]) + end)
            assert _ranged(path, k) == (clean, k - 1, 0)

    def test_crlf_only_line_across_a_read(self, tmp_path, k):
        # the blank line's carriage return ends the first 64 KiB read of
        # _line_offsets, and its line feed starts the second, a full one
        rows = [f"S{i},0.{i}1,-0.{i}2,{i}e-3" for i in range(1, 8001)]
        head = "\n".join([_HEADER, *rows[:2000]]) + "\n"
        rows[1999] = "x" * ((1 << 16) - 1 - len(head)) + rows[1999]
        head = "\n".join([_HEADER, *rows[:2000]]) + "\n"
        assert len(head) == (1 << 16) - 1
        tail = "\n".join(rows[2000:]) + "\n"
        clean, blank = _write(tmp_path / "clean.csv", head + tail), _write(tmp_path / "r.csv", head + "\r\n" + tail)
        for path in (clean, blank):
            with open(path, "rb") as handle:
                assert len(data_model._line_offsets(handle, os.path.getsize(path))) == len(rows) + 2
        assert _ranged(blank, k) == (_outcome(_load_returns_slowly, clean), k - 1, 0)

    def test_one_number_rows_in_last_range(self, tmp_path, k):
        # rows of one number would broadcast across a range's three columns
        rows = [*_ROWS[:3], *(f"S{i}{'x' * 12},0.5" for i in range(4, 7))]
        assert len({len(row) for row in rows}) == 1  # so two ranges cut at row 4
        path = _write(tmp_path / "r.csv", "\n".join([_HEADER, *rows, ""]))
        outcome, forked, slow = _ranged(path, k)
        assert outcome == (InputError, f"{path}: row 4 has 2 fields, expected 4")
        assert outcome == _outcome(_load_returns_slowly, path)
        assert (forked, slow) == (k - 1, 1)

    def test_quoted_ticker_only_in_last_range(self, tmp_path, k):
        rows = [*_ROWS[:-1], '"S,6"' + _ROWS[-1][2:]]
        path = _write(tmp_path / "r.csv", "\n".join([_HEADER, *rows, ""]))
        outcome, forked, slow = _ranged(path, k)
        assert outcome[0][-1] == "S,6"
        assert outcome == _outcome(_load_returns_slowly, path)
        assert (forked, slow) == (k - 1, 1)

    def test_non_utf8_byte_in_last_range(self, tmp_path, k):
        path = tmp_path / "r.csv"
        path.write_bytes("\n".join([_HEADER, *_ROWS, ""]).encode().replace(b"S6", b"S\xe9"))
        outcome, forked, slow = _ranged(str(path), k)
        assert outcome[0] is InputError and "UTF-8" in outcome[1]
        assert outcome == _outcome(_load_returns_slowly, str(path))
        assert (forked, slow) == (k - 1, 1)

    def test_header_only(self, tmp_path, k):
        path = _write(tmp_path / "r.csv", _HEADER + "\n")
        outcome, forked, slow = _ranged(path, k)
        assert outcome == _outcome(_load_returns_slowly, path)
        assert (forked, slow) == (0, 1)


def _returns_file(path, data_bytes):
    """A returns file whose rows after the header take at least ``data_bytes``."""
    rng = np.random.default_rng(0)
    lines = ["ticker," + ",".join(f"D{j}" for j in range(40))]
    size = 0
    while size < data_bytes:
        lines.append(f"T{len(lines)}," + ",".join(map(repr, rng.normal(0.0, 0.02, 40).tolist())))
        size += len(lines[-1]) + 1
    return _write(path, "\n".join(lines) + "\n")


class TestShippedRangeFloor:
    # only the CPU count is patched: these pin the floor the loader ships with

    def test_file_just_over_two_floors_forks_one_worker(self, tmp_path):
        path = _returns_file(tmp_path / "r.csv", 2 * _MIN_RANGE_BYTES + 50_000)
        with usable_cpus(1) as calls:
            alone = _outcome(load_returns_csv, path)
        assert (calls["_fork_worker"], calls["_load_returns_slowly"]) == (0, 0)
        with usable_cpus(2) as calls:
            assert _outcome(load_returns_csv, path) == alone
        assert_no_child_left()
        assert (calls["_fork_worker"], calls["_load_returns_slowly"]) == (1, 0)

    def test_blank_line_in_a_file_just_over_two_floors(self, tmp_path):
        path = _returns_file(tmp_path / "r.csv", 2 * _MIN_RANGE_BYTES + 50_000)
        with open(path) as handle:
            lines = handle.read().split("\n")
        clean = _outcome(load_returns_csv, path)
        lines.insert(len(lines) // 2, "")
        _write(tmp_path / "r.csv", "\n".join(lines))
        with usable_cpus(2) as calls:
            assert _outcome(load_returns_csv, path) == clean
        assert_no_child_left()
        assert (calls["_fork_worker"], calls["_load_returns_slowly"]) == (1, 0)

    def test_small_file_forks_none(self, tmp_path):
        path = _returns_file(tmp_path / "r.csv", 1_300_000)
        with usable_cpus(2) as calls:
            panel = load_returns_csv(path)
        assert panel.values.shape[1] == 40
        assert (calls["_fork_worker"], calls["_load_returns_slowly"]) == (0, 0)

    @pytest.mark.parametrize("cpus, data_mb, k", [
        (1, 1.3, 1), (1, 15.4, 1), (1, 80.0, 1),
        (2, 1.3, 1), (2, 15.4, 2), (2, 80.0, 2),
        (64, 80.0, 38),
    ])
    def test_range_count(self, monkeypatch, cpus, data_mb, k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert _range_count(round(data_mb * 1e6)) == k


def test_small_panel_parses_in_whole_chunks(tmp_path):
    # pins the chunk size the loader ships with, however small the panel:
    # every call of _parse_cells but the last takes at least _CHUNK_BYTES
    n = t = 250
    values = np.random.default_rng(0).normal(0.0, 0.02, (n, t))
    path = tmp_path / "r.csv"
    write_returns_csv(ReturnsPanel(tuple(f"T{i}" for i in range(n)), tuple(f"D{s}" for s in range(t)), values), path)
    with open(path, "rb") as handle:
        data_bytes = os.path.getsize(path) - len(handle.readline())
    assert 1_200_000 < data_bytes < 1_400_000
    with usable_cpus(2) as calls, pytest.MonkeyPatch.context() as patch:
        patch.setattr(data_model, "_parse_cells", _counted(data_model._parse_cells, "_parse_cells", calls))
        np.testing.assert_array_equal(load_returns_csv(path).values, values)
    assert (calls["_fork_worker"], calls["_load_returns_slowly"]) == (0, 0)
    assert calls["_parse_cells"] <= math.ceil(data_bytes / (64 << 10)) + 1, calls


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
def test_peak_resident_memory_stays_near_the_array(tmp_path):
    # tracemalloc does not see the shared array, and a child's ru_maxrss
    # starts from its parent's peak, so the loader's own process reads its
    # high-water mark before and after the load
    n, t = 1000, 1000
    values = np.random.default_rng(0).normal(0.0, 0.02, (n, t))
    path = tmp_path / "r.csv"
    write_returns_csv(ReturnsPanel(tuple(f"T{i}" for i in range(n)), tuple(f"D{s}" for s in range(t)), values), path)
    script = (
        "import sys\n"
        "from nestbench import load_returns_csv\n"
        "def hwm():\n"
        "    with open('/proc/self/status') as status:\n"
        "        return next(int(line.split()[1]) for line in status if line.startswith('VmHWM:'))\n"
        "before = hwm()\n"
        "panel = load_returns_csv(sys.argv[1])\n"
        "print((hwm() - before) * 1024, float(panel.values.sum()))\n"
    )
    done = subprocess.run([sys.executable, "-c", script, str(path)], env=blas_threads_env(1),
                          check=True, capture_output=True, text=True, timeout=300)
    growth, total = done.stdout.split()
    assert float(total) == float(values.sum())
    assert int(growth) < 2 * values.nbytes, f"growth {int(growth) / values.nbytes:.2f}x the array"


# the writer quotes labels with commas, quotes or line breaks, which sends the
# file through the per-cell parse; files without them take numpy's parser
_PLAIN, _QUOTABLE = "Ab \x1c", 'Ab ,"\r\n\x1c'

_CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _panels(draw):
    n, t = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    labels = st.text(alphabet=draw(st.sampled_from([_PLAIN, _QUOTABLE])), max_size=3)
    tickers = draw(st.lists(labels, min_size=n, max_size=n, unique=True))
    dates = draw(st.lists(labels, min_size=t, max_size=t, unique=True))
    values = draw(st.lists(_CELLS, min_size=n * t, max_size=n * t))
    return ReturnsPanel(tuple(tickers), tuple(dates), np.reshape(values, (n, t)))


def _refused_by_float(text):
    try:
        float(text)
    except ValueError:
        return True
    return False


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_panels())
def test_returns_roundtrip_bit_for_bit(tmp_path_factory, panel):
    path = tmp_path_factory.mktemp("returns") / "r.csv"
    write_returns_csv(panel, path)
    back = load_returns_csv(path)
    assert back.tickers == panel.tickers
    assert back.dates == panel.dates
    assert back.values.tobytes() == panel.values.tobytes()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_panels())
def test_returns_roundtrip_in_three_ranges(tmp_path_factory, panel):
    path = tmp_path_factory.mktemp("returns") / "r.csv"
    write_returns_csv(panel, path)
    with returns_ranges(3):
        back = load_returns_csv(path)
    assert_no_child_left()
    assert back.tickers == panel.tickers
    assert back.dates == panel.dates
    assert back.values.tobytes() == panel.values.tobytes()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_panels(), st.data())
def test_corrupt_cell_is_named(tmp_path_factory, panel, data):
    row = data.draw(st.integers(0, panel.n_stocks - 1))
    col = data.draw(st.integers(0, panel.n_periods - 1))
    bad = data.draw(
        st.one_of(
            st.sampled_from([
                "", "abc", "1.5#x", "1\x1c", "0x1p3", "1,5", '"1"', "1e5.0", "1.5e", "+-1", "1e+", ".", "1.2.3", "1e5e3",
            ]),
            st.text(max_size=4),
        )
        .filter(_refused_by_float)
    )
    cells = [[repr(v) for v in values] for values in panel.values.tolist()]
    cells[row][col] = bad
    path = tmp_path_factory.mktemp("returns") / "r.csv"
    write_csv(path, ("ticker",) + panel.dates, (panel.tickers, *zip(*cells)))
    with pytest.raises(NonNumericCell) as err:
        load_returns_csv(path)
    assert (err.value.row, err.value.col, err.value.text) == (row + 1, col + 1, bad)


_DOUBLES = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.floats(-1e22, 1e22))


@st.composite
def _near_midpoints(draw):
    """The decimal of 16-18 digits nearest the midpoint of a double and the
    next one up: the cells where a second rounding can go wrong."""
    low = draw(_DOUBLES)
    high = math.nextafter(low, math.inf)
    assume(math.isfinite(high))
    with decimal.localcontext(decimal.Context(prec=1100)):  # exact for any two doubles
        middle = (decimal.Decimal(low) + decimal.Decimal(high)) / 2
    return f"{middle:.{draw(st.integers(15, 17))}e}"


@st.composite
def _spellings(draw):
    """Numbers as float reads them: signs, a dot anywhere or none, e or E
    with a signed exponent up to 40, and mantissas of up to 21 digits."""
    digits = str(draw(st.one_of(st.integers(0, 10**6), st.integers(10**16, 10**21 - 1))))
    dot = draw(st.one_of(st.none(), st.integers(0, len(digits))))
    mantissa = digits if dot is None else f"{digits[:dot]}.{digits[dot:]}"
    exponent = draw(st.one_of(
        st.just(""),
        st.builds("{}{}{}".format, st.sampled_from("eE"), st.sampled_from(["", "+", "-"]), st.integers(0, 40)),
    ))
    return draw(st.sampled_from(["", "+", "-"])) + mantissa + exponent


_DECIMAL_CELLS = st.one_of(
    _DOUBLES.map(repr),
    _near_midpoints(),
    _spellings(),
    st.sampled_from(["+1", ".5", "5.", "-.5e-3", "-0", "0e5", "-0.0E+00", "1e-27", "1e27", "1e28"]),
    # long doubles on the tie above a power of two
    st.sampled_from(["9.31322574615478619E-10", "8.11296384146066907E+31", "-5.44451787073501602E+39"]),
)


@pytest.mark.parametrize("exact_long_double", [
    pytest.param(True, marks=pytest.mark.skipif(
        not data_model._EXACT_LONG_DOUBLE, reason="long double holds no 64-bit significand here"
    )),
    False,  # the fallback to numpy's float reader
])
@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.tuples(st.integers(1, 3), st.integers(1, 12)).flatmap(lambda shape: st.lists(
    st.lists(_DECIMAL_CELLS, min_size=shape[1], max_size=shape[1]), min_size=shape[0], max_size=shape[0]
)))
def test_cells_parse_to_the_bits_of_float(exact_long_double, table):
    text = "".join(",".join(row) + "\n" for row in table).encode()
    out = np.empty((len(table), len(table[0])))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data_model, "_EXACT_LONG_DOUBLE", exact_long_double)
        _parse_cells(text, out)
    assert out.tobytes() == np.array([[float(cell) for cell in row] for row in table]).tobytes()


@pytest.mark.parametrize("exact_long_double", [data_model._EXACT_LONG_DOUBLE, False])
@pytest.mark.parametrize("text", [b"1,2,3\n4\n", b"1\n2,3,4\n", b"1,2\n3,4", b"1,2\n3 ,4\n", b"1,2\n3,inf\n"])
def test_cells_refuse_rows_of_another_shape_or_alphabet(exact_long_double, text):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data_model, "_EXACT_LONG_DOUBLE", exact_long_double)
        with pytest.raises(ValueError):
            _parse_cells(text, np.empty((2, 2)))


def _reader_before_numpy_2_4(text, dtype, sep):
    """``np.fromstring`` as numpy before 2.4 has it, which warns of a
    malformed string and returns what it read: here, as the worst case, a
    number for every cell."""
    try:
        return _FROMSTRING(text, dtype=dtype, sep=sep)
    except ValueError:
        warnings.warn("string could not be read to its end due to unmatched data", DeprecationWarning)
        return np.ones(text.count(sep.encode()), dtype=dtype)


_FROMSTRING = np.fromstring


@pytest.mark.parametrize("exact_long_double", [data_model._EXACT_LONG_DOUBLE, False])
@pytest.mark.parametrize("reader", [_FROMSTRING, _reader_before_numpy_2_4])
@pytest.mark.parametrize("cell", ["4-", "4x", "0.5-", "1-2", "1e5+"])
def test_cells_refuse_junk_after_the_last_number(exact_long_double, reader, cell):
    text = f"1,2\n3,{cell}\n".encode()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data_model, "_EXACT_LONG_DOUBLE", exact_long_double)
        patch.setattr(np, "fromstring", reader)
        with pytest.raises(ValueError):
            _parse_cells(text, np.empty((2, 2)))


class TestLoadClassification:
    def _panel(self, tickers):
        n = len(tickers)
        return ReturnsPanel(tuple(tickers), ("d1", "d2"), np.zeros((n, 2)) + np.eye(n, 2) * 0.01)

    def test_basic_parse(self, tmp_path):
        panel = self._panel(["A", "B", "C", "D"])
        path = _write(
            tmp_path / "c.csv",
            "ticker,sub,sector\nA,s1,S\nB,s1,S\nC,s2,S\nD,s3,R\n",
        )
        tree = load_classification_csv(path, panel)
        assert tree.n_levels == 2
        assert tree.cluster_counts == (3, 2)
        assert tree.level_names[0] == ("s1", "s2", "s3")
        assert tree.level_names[1] == ("S", "R")
        np.testing.assert_array_equal(tree.parent_maps[0], [0, 0, 1, 2])
        np.testing.assert_array_equal(tree.parent_maps[1], [0, 0, 1])

    def test_inconsistent_nesting(self, tmp_path):
        panel = self._panel(["A", "B"])
        path = _write(tmp_path / "c.csv", "ticker,sub,sector\nA,s1,S\nB,s1,R\n")
        with pytest.raises(InconsistentNesting):
            load_classification_csv(path, panel)

    def test_inconsistent_nesting_names_the_file(self, tmp_path):
        panel = self._panel(["A", "B"])
        path = _write(tmp_path / "c.csv", "ticker,sub,sector\nA,s1,S\nB,s1,R\n")
        with pytest.raises(InconsistentNesting, match=re.escape(f"{path}: level-1 cluster 's1' maps to")) as err:
            load_classification_csv(path, panel)
        assert (err.value.level, err.value.cluster, err.value.parents) == (1, "s1", {"S", "R"})

    def test_singleton_subindustry_is_valid(self, tmp_path):
        panel = self._panel(["A", "B", "C"])
        path = _write(tmp_path / "c.csv", "ticker,sub\nA,s1\nB,s1\nC,s3\n")
        tree = load_classification_csv(path, panel)
        warnings = validate_tree(tree, panel)
        assert [(w.level, w.cluster) for w in warnings] == [(1, "s3")]

    def test_missing_ticker(self, tmp_path):
        panel = self._panel(["A", "B"])
        path = _write(tmp_path / "c.csv", "ticker,sub\nA,s1\n")
        with pytest.raises(UnmappedStock) as err:
            load_classification_csv(path, panel)
        assert err.value.ticker == "B"

    def test_repeated_ticker_names_the_file(self, tmp_path):
        panel = self._panel(["A", "B"])
        path = _write(tmp_path / "c.csv", "ticker,sub\nA,s1\nB,s1\nA,s2\n")
        with pytest.raises(DuplicateTicker, match=re.escape(f"{path}: duplicate ticker 'A'")):
            load_classification_csv(path, panel)

    def test_empty_label(self, tmp_path):
        panel = self._panel(["A", "B"])
        path = _write(tmp_path / "c.csv", "ticker,sub\nA,s1\nB,\n")
        with pytest.raises(InputError):
            load_classification_csv(path, panel)

    def test_byte_order_mark(self, tmp_path):
        panel = self._panel(["A", "B", "C", "D"])
        text = "ticker,sub,sector\nA,s1,S\nB,s1,S\nC,s2,S\nD,s3,R\n"
        plain = load_classification_csv(_write(tmp_path / "plain.csv", text), panel)
        path = tmp_path / "c.csv"
        path.write_text(text, encoding="utf-8-sig")
        tree = load_classification_csv(path, panel)
        assert tree.level_names == plain.level_names
        for got, expected in zip(tree.parent_maps, plain.parent_maps):
            assert got.tolist() == expected.tolist()

    def test_extra_rows_ignored(self, tmp_path):
        panel = self._panel(["A", "B"])
        path = _write(tmp_path / "c.csv", "ticker,sub\nA,s1\nB,s2\nZ,s9\n")
        tree = load_classification_csv(path, panel)
        assert tree.tickers == ("A", "B")
        assert tree.cluster_counts == (2,)

    def test_roundtrip(self, tmp_path):
        instance = generate(SyntheticSpec(n=20, t=10, clusters=(7, 3, 2), rho=(0.5, 0.3, 0.2), seed=11))
        path = tmp_path / "c.csv"
        write_classification_csv(instance.tree, path)
        panel = instance.panel
        back = load_classification_csv(path, panel)
        assert back.cluster_counts == instance.tree.cluster_counts
        assert back.level_names == instance.tree.level_names
        for got, expected in zip(back.parent_maps, instance.tree.parent_maps):
            np.testing.assert_array_equal(got, expected)

    def test_composed_map_total_and_single_valued(self):
        instance = generate(SyntheticSpec(n=24, t=10, clusters=(8, 4, 2), rho=(0.5, 0.3, 0.2), seed=5))
        tree = instance.tree
        for level in range(1, tree.n_levels + 1):
            composed = tree.stock_clusters(level)
            assert composed.shape == (24,)
            assert set(composed.tolist()) == set(range(tree.cluster_counts[level - 1]))


class TestValidateTree:
    def test_clean_tree_has_no_warnings(self):
        instance = generate(SyntheticSpec(n=24, t=10, clusters=(8, 4, 2), rho=(0.5, 0.3, 0.2), seed=5))
        assert validate_tree(instance.tree, instance.panel) == []

    def test_ticker_mismatch_raises(self):
        instance = generate(SyntheticSpec(n=8, t=10, clusters=(3,), rho=(0.4,), seed=1))
        other = ReturnsPanel(("X1", "X2"), ("d1", "d2"), np.eye(2) * 0.01 + 0.001)
        with pytest.raises(UnmappedStock):
            validate_tree(instance.tree, other)


class TestBetaVector:
    def test_zero_entry_rejected(self):
        with pytest.raises(InvalidBeta):
            BetaVector(("A", "B"), np.array([1.0, 0.0]))

    def test_negative_rejected(self):
        with pytest.raises(InvalidBeta):
            BetaVector(("A", "B"), np.array([1.0, -0.2]))


def test_tree_from_labels_counts_never_increase():
    labels = [("a", "X"), ("b", "X"), ("c", "Y"), ("d", "Y")]
    tree = tree_from_labels(("A", "B", "C", "D"), labels)
    assert tree.cluster_counts == (4, 2)
    # more level-2 than level-1 clusters leaves a level-2 cluster empty
    with pytest.raises(InputError, match="empty level-2"):
        ClassificationTree(("A", "B"), (("a", "b"), ("X", "Y", "Z")), (np.array([0, 1]), np.array([0, 1])))


@st.composite
def _nested_labels(draw):
    """Per-stock label tuples of a consistent nesting, most granular first:
    each level's label is a function of the label one level finer."""
    n, p = draw(st.integers(2, 12)), draw(st.integers(1, 3))
    codes = [draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))]
    for _ in range(1, p):
        parent = draw(st.lists(st.integers(0, 3), min_size=6, max_size=6))
        codes.append([parent[c] for c in codes[-1]])
    return [tuple(f"L{lvl + 1}_{codes[lvl][i]}" for lvl in range(p)) for i in range(n)]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_nested_labels())
def test_tree_from_labels_invariants(tmp_path_factory, labels):
    tickers = tuple(f"S{i}" for i in range(len(labels)))
    tree = tree_from_labels(tickers, labels)
    assert tree.tickers == tickers
    for level in range(1, tree.n_levels + 1):
        column = [row[level - 1] for row in labels]
        assert tree.level_names[level - 1] == tuple(dict.fromkeys(column))  # first appearance
        names = np.asarray(tree.level_names[level - 1])
        assert names[tree.stock_clusters(level)].tolist() == column
    counts = tree.cluster_counts
    assert all(counts[i] >= counts[i + 1] for i in range(len(counts) - 1))

    panel = ReturnsPanel(tickers, ("d1", "d2"), np.eye(len(tickers), 2) + 0.01)
    path = tmp_path_factory.mktemp("tree") / "c.csv"
    write_classification_csv(tree, path)
    back = load_classification_csv(path, panel)
    assert back.level_names == tree.level_names
    for got, expected in zip(back.parent_maps, tree.parent_maps):
        assert got.tolist() == expected.tolist()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_nested_labels(), st.data())
def test_tree_from_labels_detects_inconsistent_nesting(labels, data):
    p = len(labels[0])
    assume(p >= 2)
    level = data.draw(st.integers(1, p - 1))  # the finer of the two levels
    shared = [i for i, row in enumerate(labels) if sum(r[level - 1] == row[level - 1] for r in labels) > 1]
    assume(shared)
    stock = data.draw(st.sampled_from(shared))
    broken = list(labels)
    broken[stock] = labels[stock][:level] + ("elsewhere",) + labels[stock][level + 1:]
    with pytest.raises(InconsistentNesting) as err:
        tree_from_labels(tuple(f"S{i}" for i in range(len(labels))), broken)
    assert err.value.level == level
    assert err.value.cluster == labels[stock][level - 1]
    assert err.value.parents == {labels[stock][level], "elsewhere"}


@pytest.mark.parametrize("header", [
    ("ticker", "expected_return"), ("ticker", "beta"), ("date", "value"), ("ticker", "weight"),
])
def test_keyed_files_with_a_byte_order_mark(tmp_path, header):
    text = f"{','.join(header)}\nA,0.5\nB,-1e-3\n"
    path = tmp_path / "k.csv"
    path.write_text(text, encoding="utf-8-sig")
    assert data_model.read_keyed_csv(path, header) == [("A", 0.5), ("B", -1e-3)]


def test_only_data_model_touches_files():
    package = os.path.dirname(nestbench.__file__)
    offenders = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name == "data_model.py":
            continue
        with open(os.path.join(package, name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            if any(m.split(".")[0] in ("csv", "json") for m in modules):
                offenders.append(f"{name}:{node.lineno} imports {modules}")
            if isinstance(node, ast.Call) and (
                (isinstance(node.func, ast.Name) and node.func.id == "open")
                or (isinstance(node.func, ast.Attribute) and node.func.attr == "open")
            ):
                offenders.append(f"{name}:{node.lineno} calls open")
    assert not offenders, offenders
