"""Labeled return panels, multilevel classification trees, and every file
format the package reads or writes.

The ticker order of the returns panel is canonical: every downstream vector
and matrix is aligned to it. Classification levels are stored most granular
first (level 1), with parent maps linking each level to the next coarser one.
No other module opens a file: they go through ``read_keyed_csv``,
``write_csv``, ``read_json`` and ``write_json``.
"""

from __future__ import annotations

import array
import bisect
import csv
import json
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DuplicateTicker,
    InconsistentNesting,
    InputError,
    InsufficientObservations,
    InvalidBeta,
    MissingInputFile,
    NonNumericCell,
    UnmappedStock,
    in_file,
    require_each,
)


@dataclass(frozen=True)
class ReturnsPanel:
    """N tickers by T periods of per-period returns."""

    tickers: tuple[str, ...]
    dates: tuple[str, ...]
    values: np.ndarray  # N x T

    def __post_init__(self):
        # a float64 C-contiguous array is kept as a read-only view, not copied
        values = np.ascontiguousarray(self.values, dtype=float).view()
        object.__setattr__(self, "values", values)
        n, t = len(self.tickers), len(self.dates)
        if values.shape != (n, t):
            raise InputError(f"returns shape {values.shape} does not match labels ({n}, {t})")
        if n < 2:
            raise InputError(f"need at least 2 data rows, got {n}")
        if t < 2:
            raise InsufficientObservations(t)
        if (tic := _first_repeat(self.tickers)) is not None:
            raise DuplicateTicker(tic)
        if (date := _first_repeat(self.dates)) is not None:
            raise InputError(f"duplicate date label: {date!r}")
        # a NaN propagates through both, and neither allocates an N x T mask
        if not (math.isfinite(values.min()) and math.isfinite(values.max())):
            i, s = np.argwhere(~np.isfinite(values))[0]
            raise InputError(f"non-finite return for {self.tickers[i]!r} at {self.dates[s]!r}")
        values.setflags(write=False)

    @property
    def n_stocks(self) -> int:
        return len(self.tickers)

    @property
    def n_periods(self) -> int:
        return len(self.dates)


def _first_repeat(labels):
    """The first label that appears a second time, or None."""
    seen = set()
    for label in labels:
        if label in seen:
            return label
        seen.add(label)
    return None


@dataclass(frozen=True)
class ClassificationTree:
    """Nested stock-to-cluster maps for P levels, most granular first.

    ``parent_maps[0]`` maps stock index -> level-1 cluster index; for l >= 1,
    ``parent_maps[l]`` maps level-l cluster index -> level-(l+1) cluster
    index. ``level_names[l-1]`` holds the cluster labels of level l.
    """

    tickers: tuple[str, ...]
    level_names: tuple[tuple[str, ...], ...]
    parent_maps: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self):
        maps = [np.array(m) for m in self.parent_maps]  # cast to int64 once checked integral
        p = len(self.level_names)
        if p < 1:
            raise InputError("classification needs at least one level")
        if len(maps) != p:
            raise InputError("parent_maps and level_names lengths differ")
        units = (self.tickers, *self.level_names)  # what each map maps: stocks, then each level's clusters
        for lvl, m in enumerate(maps):
            k = len(units[lvl + 1])
            if m.shape != (len(units[lvl]),):
                raise InputError(f"level-{lvl} map has length {m.shape}, expected {len(units[lvl])}")
            require_each(np.isfinite(m) & (m == np.round(m)), lambda i: InputError(
                f"level-{lvl} map entry {m[i]} of {units[lvl][i]!r} is not a level-{lvl + 1} cluster index"))
            maps[lvl] = m = m.astype(np.int64)
            require_each((0 <= m) & (m < k), lambda i: UnmappedStock(self.tickers[i]) if lvl == 0 else InputError(
                f"level-{lvl} cluster {units[lvl][i]!r} maps to {m[i]}, outside the {k} level-{lvl + 1} clusters"))
            require_each(np.bincount(m, minlength=k) > 0,
                         lambda a: InputError(f"empty level-{lvl + 1} cluster {units[lvl + 1][a]!r}"))
            m.setflags(write=False)
        object.__setattr__(self, "parent_maps", tuple(maps))

    @property
    def n_levels(self) -> int:
        return len(self.level_names)

    @property
    def cluster_counts(self) -> tuple[int, ...]:
        """K per level, most granular first."""
        return tuple(len(names) for names in self.level_names)

    def stock_clusters(self, level: int) -> np.ndarray:
        """Composed map: stock index -> level-``level`` cluster index."""
        m = self.parent_maps[0]
        for lvl in range(1, level):
            m = self.parent_maps[lvl][m]
        return m


def cluster_members(clusters: np.ndarray, k: int) -> list[np.ndarray]:
    """Member indices, ascending, of each of the ``k`` clusters that the
    unit -> cluster map ``clusters`` names."""
    order = np.argsort(clusters, kind="stable")
    bounds = np.searchsorted(clusters[order], np.arange(k + 1))
    return [order[bounds[a]:bounds[a + 1]] for a in range(k)]


@dataclass(frozen=True)
class BetaVector:
    """Strictly positive stock betas aligned with a returns panel."""

    tickers: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (len(self.tickers),):
            raise InvalidBeta(f"length {values.shape} does not match {len(self.tickers)} tickers")
        require_each((0.0 < values) & (values < np.inf),
                     lambda i: InvalidBeta(f"beta of {self.tickers[i]!r} must be finite and positive, got {values[i]}"))
        values.setflags(write=False)


@dataclass(frozen=True)
class SingletonCluster:
    """Warning record: a cluster containing a single member."""

    level: int
    cluster: str


def load_returns_csv(path: str | os.PathLike) -> ReturnsPanel:
    """Load a returns panel from ``ticker,<date1>,...,<dateT>`` CSV.

    The cells go through a vectorized decimal parser (``_parse_cells``)
    that gives each exactly ``float``'s bits. A large file is cut into line-
    aligned byte ranges, one per usable core, parsed at once by forked
    workers into one shared array; the values are the same bits whatever the
    number of ranges. Lines holding only a line end are skipped wherever they
    stand. A file that parser does not take whole (quoted labels, ragged
    rows, a cell holding anything but digits, signs, a dot or an exponent, a
    malformed number) is parsed again cell by cell, so it loads, or fails
    naming its first bad cell, as the per-cell parse alone would have it.
    On both paths ``ReturnsPanel`` alone refuses repeats and short panels.
    """
    tickers: list[str] = []
    try:
        with open(path, "rb") as handle:
            offsets = _line_offsets(handle, os.fstat(handle.fileno()).st_size)
            header = next(_lines(handle, offsets), b"").decode("utf-8")
            if '"' in header or header.count(",") < 2:
                raise ValueError("quoted header or fewer than 2 dates")
            dates = tuple(header.split(",")[1:])
            data = offsets[bisect.bisect_left(offsets, handle.tell()):]
            values = _parse_ranges(path, handle, data, len(dates), tickers)
    except (OSError, ValueError):  # ValueError includes UnicodeDecodeError
        return _load_returns_slowly(path)
    return in_file(path, ReturnsPanel, tuple(tickers), dates, values)


# The smallest range that repays its fork. Files cut from bench-wide's, of
# 2.1-5.1 MB, parsed in one and in two ranges on a 2-CPU host, 21 shuffled
# rounds: two ranges were 13-30% faster at every size, and faster in 16 of
# 21 rounds at 2.1 MB and in 18-20 from 3.1 MB. Before this parser, ranges
# under 2 MiB gained in quiet timings but lost up to 34% under 23% steal,
# so the floor stays. A fork costs its parent 1.7 ms (5-11 ms with its
# reap); a 2 MiB range parses in 30-42 ms.
_MIN_RANGE_BYTES = 2 << 20


def _range_count(data_bytes: int) -> int:
    """How many ranges to parse at once: one per usable CPU, each of at
    least ``_MIN_RANGE_BYTES``; one where the platform lacks ``os.fork`` or
    ``os.sched_getaffinity``.

    The parent forks the k - 1 workers one after another, then parses its
    own range, so it starts (k - 1) x 1.7 ms late (measured on a 2-CPU host
    that parses 12 ms per MB of a large file, 20 of a 2 MB one). On 2 CPUs
    a 15.4 MB file spends 1.7 ms forking against about 120 ms per range.
    On 64 CPUs an 80 MB file gets k = 38, 63 ms of forks against 25 ms per
    range, so there the forks are most of the load. By the same sums the
    load takes 88 ms, against 120 ms for the 9 ranges an 8 MiB floor gave
    and 79 ms at that model's best k, sqrt(80 MB x 12 ms/MB / 1.7 ms) = 24.
    No such host was measured, and its fork cost may differ.
    """
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), data_bytes // _MIN_RANGE_BYTES))


def _line_offsets(handle, size: int) -> list[int]:
    """Byte offsets of the open file's lines, each line's first byte, and
    of its end, ``size``. A line of only ``\\n`` or ``\\r\\n`` has none: it
    ends the line before it, or is skipped at the start of the file."""
    offsets = [0]
    handle.seek(0)
    chunk = bytearray(1 << 16)
    at = last = 0  # last: the byte that ended the previous read
    while at < size and (n := handle.readinto(chunk)):
        end = chunk.find(b"\n", 0, n)
        while end >= 0:  # one find per line runs at memchr speed
            length = at + end - offsets[-1]  # without its line feed
            if length == 0 or length == 1 and (chunk[end - 1] if end else last) == ord("\r"):
                offsets[-1] = at + end + 1
            else:
                offsets.append(at + end + 1)
            end = chunk.find(b"\n", end + 1, n)
        last = chunk[n - 1]
        at += n
    del offsets[bisect.bisect_left(offsets, size):]
    offsets.append(size)
    return offsets


def _lines(handle, offsets: list[int]):
    """The lines of the open file between consecutive ``offsets``, as bytes
    without their line ends. A carriage return inside a line raises
    ValueError: the ``csv`` module would end the line there."""
    handle.seek(offsets[0])
    for start, stop in zip(offsets, offsets[1:]):
        line = handle.read(stop - start).rstrip(b"\r\n")
        if b"\r" in line:
            raise ValueError("carriage return inside a line")
        yield line


def _parse_ranges(path, handle, offsets: list[int], width: int, tickers: list[str]) -> np.ndarray:
    """Parse the lines between ``offsets`` of the open file into one N x
    ``width`` array, in up to ``_range_count`` line-aligned ranges of about
    equal size; in anonymous shared memory where there is more than one.

    Each line is one row. The parent parses the first range; a forked
    worker parses each other one into its rows and sends back its tickers.
    A row of other than ``width`` cells or any failed worker raises
    ValueError, and every worker is reaped before this returns or raises.
    """
    n = len(offsets) - 1
    if n < 1:
        raise ValueError("no data rows")
    start, stop = offsets[0], offsets[-1]
    k = _range_count(stop - start)
    cuts = {bisect.bisect_left(offsets, start + (stop - start) * j // k) for j in range(1, k)}
    bounds = sorted(cuts | {0, n})  # row bounds; the set drops empty ranges
    rows = list(zip(bounds, bounds[1:]))
    if len(rows) == 1:
        values = np.empty((n, width))
    else:  # imported here, as the CLI's start-up and one-range loads would pay for them
        import mmap
        import signal  # used only where there are workers
        values = np.frombuffer(mmap.mmap(-1, n * width * 8), dtype=float).reshape(n, width)
    workers: list[tuple[int, int]] = []  # (pid, read end of its ticker pipe)
    failed = True
    try:
        for first, end in rows[1:]:
            workers.append(_fork_worker(path, offsets[first:end + 1], values[first:end]))
        first, end = rows[0]
        _fill(values[first:end], _lines(handle, offsets[first:end + 1]), tickers)
        sent = []
        for _, fd in workers:
            with open(fd, "rb", closefd=False) as pipe:
                sent.append(pipe.read())
        failed = False
    finally:
        codes = []
        for pid, fd in workers:
            os.close(fd)
            if failed:
                os.kill(pid, signal.SIGKILL)
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    if any(codes):
        raise ValueError("a parse worker failed")
    for text in sent:
        tickers.extend(text.decode("utf-8").split("\n"))
    return values


# Bytes of cells parsed in one call of _parse_cells. Its temporaries, about
# four times its text, should stay in a core's cache: on a 2-CPU host with
# 2 MiB of L2 per core, 64 KiB chunks took 209-225 ns per cell of bench-long's
# rows and 216-219 of bench-wide's, 256 KiB ones 214-237 and 232-345.
_CHUNK_BYTES = 64 << 10


def _fill(out: np.ndarray, lines, tickers: list[str]) -> None:
    """Parse ``lines``, one per row of ``out``, into ``out``, about
    ``_CHUNK_BYTES`` at a time, and append their tickers. A quoted ticker or
    a row of other than ``out``'s width raises ValueError: the ``csv``
    module would read those differently."""
    row, chunk, size = 0, [], 0
    for line in lines:
        ticker, _, numbers = line.partition(b",")
        if b'"' in ticker:
            raise ValueError(f"row {len(tickers) + 1} has a quoted ticker")
        tickers.append(ticker.decode("utf-8"))
        chunk.append(numbers)
        size += len(numbers)
        if size >= _CHUNK_BYTES:
            _parse_cells(b"\n".join([*chunk, b""]), out[row:row + len(chunk)])
            row, chunk, size = row + len(chunk), [], 0
    if chunk:
        _parse_cells(b"\n".join([*chunk, b""]), out[row:row + len(chunk)])


def _fork_worker(path, offsets: list[int], out: np.ndarray) -> tuple[int, int]:
    """Fork a worker that parses the lines between ``offsets`` of ``path``
    into ``out`` and writes its tickers, one per line, to a pipe; return its
    pid and the pipe's read end. Tickers on the fast path hold no line feed.

    The worker runs numpy only, never BLAS, so the threads a BLAS library
    may have started in the parent are not needed in it. It leaves by
    ``os._exit`` on every path, so it never returns into its caller, and
    exits 1 on any error.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid:
        os.close(write_end)
        return pid, read_end
    code = 1
    try:
        os.close(read_end)
        tickers: list[str] = []
        with open(path, "rb") as handle:  # its own offset: the parent's fd shares one
            _fill(out, _lines(handle, offsets), tickers)
        with open(write_end, "wb") as pipe:
            pipe.write("\n".join(tickers).encode("utf-8"))
        code = 0
    finally:
        os._exit(code)


# Clinger's fast path: with m and 10^s exact, m * 10^s and m / 10^s are one
# correctly rounded operation each. A 64-bit significand holds |m| < 10^18
# and 10^s up to s = 27 (5^27 < 2^63). The sum fails where long double is
# double, or where the x87 unit is set to round to 53 bits.
_EXACT_LONG_DOUBLE = bool(np.longdouble(1) + np.longdouble(2) ** -63 != 1)
_MAX_MANTISSA, _MAX_SCALE = 10**18, 27
_POW10 = np.multiply.accumulate(np.r_[1, np.full(_MAX_SCALE, 10)].astype(np.longdouble))
_POW10_OF_SCALE = np.r_[_POW10[:0:-1], _POW10]  # 10^|s| at s + _MAX_SCALE
# Every byte a row may hold on the fast path; the csv module and float read
# anything else, blanks and quotes among it, cell by cell.
_NUMERIC = b"0123456789.eE+-,\n"
# For numpy's integer reader: an exponent or a row's end starts a number,
# and a byte outside _NUMERIC becomes one the reader stops at
_TO_INTEGERS = bytes(c if c in b"0123456789+-," else ord(",") if c in b"eE\n" else ord("x") for c in range(256))
_COMMA, _DOT, _E, _LF = b",.e\n"
_IS_DIGIT, _IS_SIGN = np.zeros((2, 256), dtype=bool)
_IS_DIGIT[48:58] = True
_IS_SIGN[list(b"+-")] = True


def _parse_cells(text: bytes, out: np.ndarray) -> None:
    """Parse ``text``, the rows of the 2-d ``out`` with their cells
    separated by commas and each row ended by a line feed, into ``out``
    with exactly ``float``'s bits. A cell ``float`` refuses, a byte outside
    ``_NUMERIC`` or a row of other than ``out``'s width raises ValueError.

    Each cell is read as a decimal m x 10^s: m is its digits with the dot
    dropped, s its exponent less the digits after the dot. The long double
    result is narrowed to a double, which is exact unless it fell on a tie
    between two doubles. ``float`` reads those cells again, and the cells
    off the fast path: m = 0 (for its sign), |m| >= 10^18 and |s| > 27.
    On the fast path every result lies within 10^-27 <= |m x 10^s| < 10^45,
    so none overflows or falls subnormal.
    """
    b = np.frombuffer(text, dtype=np.uint8)
    ends = ((b == _COMMA) | (b == _LF)).nonzero()[0]
    if len(ends) != out.size or not (b[ends[out.shape[1] - 1::out.shape[1]]] == _LF).all():
        raise ValueError("a row of other than out's width")
    out = out.reshape(-1)
    if not _EXACT_LONG_DOUBLE:
        if text.translate(None, _NUMERIC):
            raise ValueError("a byte outside the numeric rows' alphabet")
        out[...] = _read_numbers(text.replace(b"\n", b","), float, out.size)
        return
    exps = (b | 0x20 == _E).nonzero()[0]
    exp_cells = np.searchsorted(ends, exps)
    scale = _dot_scales(b, ends, exps, exp_cells)
    numbers = _read_numbers(text.translate(_TO_INTEGERS, b"."), np.int64, len(ends) + len(exps))
    if len(exps):
        exponents = exp_cells + np.arange(1, len(exps) + 1)
        scale[exp_cells] += numbers[exponents]
        numbers = np.delete(numbers, exponents)
    # the reader saturates an overflow, at either end, to one of int64's
    slow = (numbers >= _MAX_MANTISSA) | (numbers <= -_MAX_MANTISSA) | (numbers == 0)
    slow |= (scale > _MAX_SCALE) | (scale < -_MAX_SCALE)
    exact = numbers.astype(np.longdouble)
    power = _POW10_OF_SCALE.take(scale + _MAX_SCALE, mode="clip")
    down = scale < 0
    if down.all():
        np.divide(exact, power, out=exact)
    else:
        np.divide(exact, power, out=exact, where=down)
        np.multiply(exact, power, out=exact, where=~down)
    out[...] = exact
    slow |= _narrowed_from_a_tie(exact, out)
    for cell in slow.nonzero()[0].tolist():
        out[cell] = float(text[ends[cell - 1] + 1 if cell else 0:ends[cell]])


def _dot_scales(b: np.ndarray, ends: np.ndarray, exps: np.ndarray, exp_cells: np.ndarray) -> np.ndarray:
    """Minus the digits after the dot of each cell of ``b``; ValueError
    where the dots, signs and exponents do not fit ``float``'s syntax in a
    way numpy's integer reader lets through."""
    if (exp_cells[1:] <= exp_cells[:-1]).any():
        raise ValueError("two exponents in a cell")
    dots = (b == _DOT).nonzero()[0]
    mantissa_ends = ends.copy()
    mantissa_ends[exp_cells] = exps
    if len(dots) == len(ends) and (dots < mantissa_ends).all() and (dots[1:] > ends[:-1]).all():
        scale = dots + 1 - mantissa_ends  # the common case: one dot in each cell's mantissa
    else:
        dot_cells = np.searchsorted(ends, dots)
        if (dot_cells[1:] <= dot_cells[:-1]).any():
            raise ValueError("two dots in a cell")
        scale = np.zeros(len(ends), dtype=np.int64)
        scale[dot_cells] = dots + 1 - mantissa_ends[dot_cells]
        if (scale > 0).any():
            raise ValueError("a dot after the exponent")
    # the reader takes a lone sign as 0: so no sign may follow a dot, and an
    # exponent needs a digit after its sign
    after = b[exps + 1]
    if _IS_SIGN[b[dots + 1]].any() or not (
        _IS_DIGIT[after] | (_IS_SIGN[after] & _IS_DIGIT[b.take(exps + 2, mode="clip")])
    ).all():
        raise ValueError("a sign out of place or an exponent without digits")
    return scale


def _narrowed_from_a_tie(exact: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Where narrowing the long doubles ``exact`` to ``out`` may have rounded
    wrongly. It rounds a second time, which goes wrong only from a tie: then
    exact - out is half the spacing of out, or a quarter of it below a
    power of two. Overwrites ``exact``."""
    exact -= out
    ratio = exact.astype(float)  # exact: a few bits below out's last
    ratio /= np.spacing(out)  # exact: the spacing is a power of two
    np.abs(ratio, out=ratio)
    return (ratio == 0.5) | (ratio == 0.25)


def _read_numbers(text: bytes, dtype, count: int) -> np.ndarray:
    """numpy's reader over comma-separated ``text``, which must yield
    exactly ``count`` numbers."""
    with warnings.catch_warnings():
        # numpy before 2.4 returns what it read of a malformed string, with
        # a DeprecationWarning, where later numpy raises ValueError. Junk
        # after the last number leaves the count whole, so the warning
        # refuses the text too.
        warnings.simplefilter("error", DeprecationWarning)
        try:
            numbers = np.fromstring(text, dtype=dtype, sep=",")
        except DeprecationWarning:
            raise ValueError("a cell numpy's reader stops at") from None
    if len(numbers) != count:
        raise ValueError("a cell numpy's reader stops at")
    return numbers


def _load_returns_slowly(path) -> ReturnsPanel:
    """The reference parse: the ``csv`` module, one row at a time, and one
    ``float`` per cell. It checks syntax alone; ``ReturnsPanel`` the rest."""
    rows = _read_csv(path)
    dates = tuple(next(rows, [])[1:])
    tickers: list[str] = []
    cells = array.array("d")  # grows in place, where a list of rows would be copied once more
    for r, row in enumerate(rows, start=1):
        if len(row) != len(dates) + 1:
            raise InputError(f"{path}: row {r} has {len(row)} fields, expected {len(dates) + 1}")
        tickers.append(row[0])
        for c, cell in enumerate(row[1:], start=1):
            try:
                cells.append(float(cell))
            except ValueError:
                raise NonNumericCell(r, c, cell) from None
    return in_file(path, ReturnsPanel, tuple(tickers), dates, np.frombuffer(cells).reshape(len(tickers), len(dates)))


def load_classification_csv(path: str | os.PathLike, panel: ReturnsPanel) -> ClassificationTree:
    """Load a tree from ``ticker,level1,...,levelP`` CSV (most granular first).

    Nesting is inferred column to column; a level-l cluster appearing under
    two distinct level-(l+1) labels is an error. Rows for tickers outside the
    panel are ignored. A nesting refusal names the file.
    """
    rows = _read_csv(path)
    p = len(next(rows, [])) - 1
    if p < 1:
        raise InputError(f"{path}: expected header 'ticker,level1,...'")
    by_ticker: dict[str, tuple[str, ...]] = {}
    for r, row in enumerate(rows, start=1):
        if len(row) != p + 1:
            raise InputError(f"{path}: row {r} has {len(row)} fields, expected {p + 1}")
        if row[0] in by_ticker:
            raise DuplicateTicker(row[0], path)
        for c, cell in enumerate(row[1:]):
            if cell == "":
                raise InputError(f"{path}: empty level-{c + 1} label on row {r}")
        by_ticker[row[0]] = tuple(row[1:])
    mapped = np.array([ticker in by_ticker for ticker in panel.tickers])
    in_file(path, require_each, mapped, lambda i: UnmappedStock(panel.tickers[i]))
    return in_file(path, tree_from_labels, panel.tickers, [by_ticker[t] for t in panel.tickers])


def tree_from_labels(tickers, labels) -> ClassificationTree:
    """Build a tree from per-stock label tuples, most granular first.

    Cluster indices follow first appearance in stock order, which makes the
    construction (and round-trips through CSV) deterministic.
    """
    tickers = tuple(tickers)
    p = len(labels[0])
    require_each(np.array([len(row) == p for row in labels]), lambda i: InputError(
        f"classification rows have differing level counts: {tickers[i]!r} has {len(labels[i])}, expected {p}"))
    level_names: list[tuple[str, ...]] = []
    parent_maps: list[np.ndarray] = []
    # a level's units: the stocks at level 1, else the clusters of the level below
    unit_names, unit_of_stock = tickers, np.arange(len(tickers))
    for lvl in range(p):
        assigned: list[str | None] = [None] * len(unit_names)
        for u, row in zip(unit_of_stock.tolist(), labels, strict=True):
            if assigned[u] is None:
                assigned[u] = row[lvl]
            elif assigned[u] != row[lvl]:
                raise InconsistentNesting(lvl, unit_names[u], {assigned[u], row[lvl]})
        index: dict[str, int] = {}
        mapping = np.array([index.setdefault(label, len(index)) for label in assigned], dtype=np.int64)
        unit_names, unit_of_stock = tuple(index), mapping[unit_of_stock]
        level_names.append(unit_names)
        parent_maps.append(mapping)
    return ClassificationTree(tickers, tuple(level_names), tuple(parent_maps))


def write_returns_csv(panel: ReturnsPanel, path: str | os.PathLike) -> None:
    """Write the panel back to its CSV form (inverse of the loader)."""
    write_csv(path, ("ticker",) + panel.dates, (panel.tickers, *panel.values.T))


def write_classification_csv(tree: ClassificationTree, path: str | os.PathLike) -> None:
    """Write the tree back to its CSV form (inverse of the loader)."""
    levels = range(1, tree.n_levels + 1)
    labels = [np.asarray(tree.level_names[lvl - 1])[tree.stock_clusters(lvl)] for lvl in levels]
    write_csv(path, ("ticker", *(f"level{lvl}" for lvl in levels)), (tree.tickers, *labels))


def validate_tree(tree: ClassificationTree, panel: ReturnsPanel) -> list[SingletonCluster]:
    """Cross-check tree and panel; return warnings for singleton clusters.

    Hard invariant violations (ticker mismatch, broken maps) raise; small
    clusters only warn because they are legal but statistically fragile.
    """
    if tree.tickers != panel.tickers:
        in_tree = set(tree.tickers)
        require_each(np.array([t in in_tree for t in panel.tickers]), lambda i: UnmappedStock(panel.tickers[i]))
        raise InputError("tree and panel tickers differ (order or extras)")
    return [
        SingletonCluster(lvl, tree.level_names[lvl - 1][a])
        for lvl, clusters in enumerate(tree.parent_maps, start=1)
        for a in np.flatnonzero(np.bincount(clusters) == 1)
    ]


def read_keyed_csv(path, header: tuple[str, str]) -> list[tuple[str, float]]:
    """Rows of a ``key,value`` CSV in file order. The header matches
    case-insensitively, further columns are ignored, and a missing,
    non-numeric or non-finite value is an ``InputError`` naming the key."""
    rows = _read_csv(path)
    if tuple(c.lower() for c in next(rows, [])[:2]) != header:
        raise InputError(f"{path}: expected header '{','.join(header)}'")
    pairs = []
    for row in rows:
        try:
            value = float(row[1])
        except (IndexError, ValueError):
            raise InputError(f"{path}: non-numeric {header[1]} for {row[0]!r}") from None
        if not math.isfinite(value):
            raise InputError(f"{path}: non-finite {header[1]} for {row[0]!r}")
        pairs.append((row[0], value))
    return pairs


def write_csv(path, header, columns) -> None:
    """Write equal-length ``columns`` under ``header``, one row per entry.
    Numeric columns are written as ``repr(float)``, so they read back
    exactly; label columns are written as given."""
    cells = [  # lazy, so a wide panel streams row by row
        map(float.__repr__, np.asarray(column, dtype=float)) if np.asarray(column).dtype.kind in "biuf" else column
        for column in columns
    ]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(zip(*cells, strict=True))


def read_json(path):
    """Parsed JSON; a missing file or malformed JSON is an ``InputError``."""
    if not os.path.exists(path):
        raise MissingInputFile(path)
    with open(path, encoding="utf-8-sig") as handle:  # drops a byte-order mark, as _read_csv does
        try:
            return json.load(handle)
        except ValueError as exc:
            raise InputError(f"{path}: not valid JSON ({exc})") from None


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _read_csv(path):
    """The non-empty rows of a CSV file, one at a time; a missing file, text
    not UTF-8 or a field over the ``csv`` limit is refused naming the file."""
    if not os.path.exists(path):
        raise MissingInputFile(path)
    # utf-8-sig drops the byte-order mark that spreadsheets write before "CSV UTF-8"
    with open(path, newline="", encoding="utf-8-sig") as handle:
        try:
            yield from filter(None, csv.reader(handle))
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:  # a field over the csv module's size limit, say
            raise InputError(f"{path}: not readable as CSV ({exc})") from None
