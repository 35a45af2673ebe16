"""Labeled return panels, multilevel classification trees, and every file
format the package reads or writes.

The ticker order of the returns panel is canonical: every downstream vector
and matrix is aligned to it. Classification levels are stored most granular
first (level 1), with parent maps linking each level to the next coarser one.
No other module opens a file: they go through ``read_keyed_csv``,
``write_csv``, ``read_json`` and ``write_json``.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
import os
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
            raise InputError(f"need at least 2 tickers, got {n}")
        if t < 2:
            raise InsufficientObservations(t)
        seen: set[str] = set()
        for tic in self.tickers:
            if tic in seen:
                raise DuplicateTicker(tic)
            seen.add(tic)
        if len(set(self.dates)) != t:
            raise InputError("duplicate date labels")
        if not np.all(np.isfinite(values)):
            i, s = np.argwhere(~np.isfinite(values))[0]
            raise InputError(f"non-finite return for {self.tickers[i]!r} at {self.dates[s]!r}")
        values.setflags(write=False)

    @property
    def n_stocks(self) -> int:
        return len(self.tickers)

    @property
    def n_periods(self) -> int:
        return len(self.dates)


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
        maps = tuple(np.array(m, dtype=np.int64) for m in self.parent_maps)
        object.__setattr__(self, "parent_maps", maps)
        p = len(self.level_names)
        if p < 1:
            raise InputError("classification needs at least one level")
        if len(maps) != p:
            raise InputError("parent_maps and level_names lengths differ")
        sizes = [len(self.tickers)] + [len(names) for names in self.level_names]
        for lvl, m in enumerate(maps):
            k = sizes[lvl + 1]
            if m.shape != (sizes[lvl],):
                raise InputError(f"level-{lvl} map has length {m.shape}, expected {sizes[lvl]}")
            if np.any(m < 0) or np.any(m >= k):
                if lvl == 0:
                    bad = int(np.argmax((m < 0) | (m >= k)))
                    raise UnmappedStock(self.tickers[bad])
                raise InputError(f"level-{lvl} map has out-of-range cluster indices")
            if np.count_nonzero(np.bincount(m, minlength=k)) != k:
                missing = sorted(set(range(k)) - set(m.tolist()))
                raise InputError(f"empty level-{lvl + 1} cluster(s): {missing}")
            m.setflags(write=False)
        counts = self.cluster_counts
        if any(counts[i] < counts[i + 1] for i in range(len(counts) - 1)):
            raise InputError(f"cluster counts must not increase with level: {counts}")

    @property
    def n_levels(self) -> int:
        return len(self.level_names)

    @property
    def cluster_counts(self) -> tuple[int, ...]:
        """K per level, most granular first."""
        return tuple(len(names) for names in self.level_names)

    def children(self, level: int) -> list[np.ndarray]:
        """Member indices of each level-``level`` cluster; members are units
        of the level below (stocks for level 1)."""
        return cluster_members(self.parent_maps[level - 1], self.cluster_counts[level - 1])

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
        if not np.all(np.isfinite(values)):
            raise InvalidBeta("non-finite entries")
        if np.any(values <= 0.0):
            bad = self.tickers[int(np.argmax(values <= 0.0))]
            raise InvalidBeta(f"non-positive beta for {bad!r}")
        values.setflags(write=False)


@dataclass(frozen=True)
class SingletonCluster:
    """Warning record: a cluster containing a single member."""

    level: int
    cluster: str


def load_returns_csv(path: str | os.PathLike) -> ReturnsPanel:
    """Load a returns panel from ``ticker,<date1>,...,<dateT>`` CSV.

    The numbers go through numpy's C parser. A large file is cut into line-
    aligned byte ranges, one per usable core, parsed at once by forked
    workers into one shared array; the values are the same bits whatever the
    number of ranges. A file the parser would read differently from the
    ``csv`` module and ``float`` (quoted labels, ragged rows, a cell it
    refuses) is parsed again cell by cell, so every file loads, or fails
    naming its first bad cell, exactly as the per-cell parse alone would have
    it.
    """
    tickers: list[str] = []
    try:
        with open(path, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            lines = _text_lines(handle, size)
            header = next(filter(None, lines), "")
            if '"' in header or header.count(",") < 2:
                raise ValueError("quoted header or fewer than 2 dates")
            dates = tuple(header.split(",")[1:])
            start = handle.tell()
            k = _range_count(size - start)
            if k > 1:
                values = _parse_in_parallel(path, handle, (start, size), k, len(dates), tickers)
            else:
                values = _parse(filter(None, lines), tickers)
    except (OSError, ValueError):  # ValueError includes UnicodeDecodeError
        return _load_returns_slowly(path)
    if values.shape != (len(tickers), len(dates)) or min(values.shape) < 2:
        return _load_returns_slowly(path)
    return ReturnsPanel(tuple(tickers), dates, values)


# The smallest range that repays its fork. Bench files of 0.5-15.4 MB, cut
# in two on a 2-CPU host: two 2.1 MB ranges parsed 16-35% faster than one in
# each of three timings, one of them under 23% steal; smaller ranges gained
# up to 36% in quiet timings but lost up to 34% under steal. A fork costs its
# parent 1.7 ms (5-11 ms with its reap); a 2 MiB range parses in about 50 ms.
_MIN_RANGE_BYTES = 2 << 20


def _range_count(data_bytes: int) -> int:
    """How many ranges to parse at once: one per usable CPU, each of at
    least ``_MIN_RANGE_BYTES``; one where the platform lacks ``os.fork`` or
    ``os.sched_getaffinity``.

    The parent forks the k - 1 workers one after another, then parses its
    own range, so it starts (k - 1) x 1.7 ms late (measured on a 2-CPU host
    that parses about 25 ms per MB). That is under a quarter of a range's
    parse up to k = 8: on 2 CPUs a 15.4 MB file spends 1.7 ms forking
    against 190 ms per range. On 64 CPUs an 80 MB file gets k = 38, 63 ms of
    forks against 53 ms per range, so there the forks are not well under a
    range. By the same sums the load still takes half the 236 ms of the 9
    ranges an 8 MiB floor gave, and k is near that model's best,
    sqrt(80 MB x 25 ms/MB / 1.7 ms) = 34. No such host was measured, and its
    fork cost may differ.
    """
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), data_bytes // _MIN_RANGE_BYTES))


def _text_lines(handle, stop: int):
    """Decoded lines from the handle's position to byte ``stop``, without
    their line ends. A carriage return inside a line raises ValueError: the
    ``csv`` module would end the line there."""
    at = handle.tell()
    while at < stop and (line := handle.readline()):
        at += len(line)
        line = line.rstrip(b"\r\n")
        if b"\r" in line:
            raise ValueError("carriage return inside a line")
        yield line.decode("utf-8")


def _parse(lines, tickers: list[str]) -> np.ndarray:
    return np.loadtxt(_numeric_fields(lines, tickers), delimiter=",", comments=None, ndmin=2)


def _line_starts(handle, start: int, stop: int) -> list[int]:
    """Byte offsets of the lines in [start, stop): ``start`` and every byte
    after a line feed."""
    starts = [start]
    handle.seek(start)
    chunk = bytearray(1 << 20)
    while start < stop and (n := handle.readinto(chunk)):
        end = chunk.find(b"\n", 0, n)
        while end >= 0:  # one find per line runs at memchr speed
            starts.append(start + end + 1)
            end = chunk.find(b"\n", end + 1, n)
        start += n
    del starts[bisect.bisect_left(starts, stop):]
    return starts


def _parse_in_parallel(path, handle, span: tuple[int, int], k: int, width: int, tickers: list[str]) -> np.ndarray:
    """Parse bytes [start, stop) of the open file in up to ``k`` line-aligned
    ranges of about equal size, into one N x ``width`` array in anonymous
    shared memory.

    The parent parses the first range; a forked worker parses each other one
    into its rows and sends back its tickers. A range that parses to other
    than one row per line (a blank line, say), a width other than ``width``,
    or any failed worker raises ValueError, and every worker is reaped
    before this returns or raises.
    """
    import mmap  # imported here, as the CLI's start-up would pay for them at module level
    import signal

    start, stop = span
    starts = _line_starts(handle, start, stop)
    cuts = {bisect.bisect_left(starts, start + (stop - start) * j // k) for j in range(1, k)}
    bounds = sorted(cuts | {0, len(starts)})  # row bounds; the set drops empty ranges
    rows = list(zip(bounds, bounds[1:]))
    offsets = [*starts, stop]
    values = np.frombuffer(mmap.mmap(-1, len(starts) * width * 8), dtype=float).reshape(len(starts), width)
    workers: list[tuple[int, int]] = []  # (pid, read end of its ticker pipe)
    failed = True
    try:
        for first, end in rows[1:]:
            workers.append(_fork_worker(path, offsets[first], offsets[end], values[first:end]))
        first, end = rows[0]
        handle.seek(offsets[first])
        _fill(values[first:end], _text_lines(handle, offsets[end]), tickers)
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


def _fill(out: np.ndarray, lines, tickers: list[str]) -> None:
    """Parse ``lines`` into ``out``, which must take exactly one row per line."""
    parsed = _parse(lines, tickers)
    if parsed.shape != out.shape or len(tickers) != len(out):
        raise ValueError("range rows do not match its lines")
    out[...] = parsed


def _fork_worker(path, start: int, stop: int, out: np.ndarray) -> tuple[int, int]:
    """Fork a worker that parses bytes [start, stop) of ``path`` into
    ``out`` and writes its tickers, one per line, to a pipe; return its pid
    and the pipe's read end. Tickers on the fast path hold no line feed.

    The worker runs numpy's parser only, never BLAS, so the threads a BLAS
    library may have started in the parent are not needed in it. It leaves
    by ``os._exit`` on every path, so it never returns into its caller, and
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
            handle.seek(start)
            _fill(out, _text_lines(handle, stop), tickers)
        with open(write_end, "wb") as pipe:
            pipe.write("\n".join(tickers).encode("utf-8"))
        code = 0
    finally:
        os._exit(code)


# float() refuses these ASCII separators, which numpy's parser strips as blanks
_INFORMATION_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _numeric_fields(lines, tickers: list[str]):
    """Yield each row's text after its ticker and append the ticker.

    Raises ValueError where ``np.loadtxt`` would part from the per-cell
    parse: a quoted ticker, a row with no numeric text (loadtxt skips it),
    a cell holding an information separator, or no rows at all (loadtxt
    warns on empty input).
    """
    for line in lines:
        ticker, _, numbers = line.partition(",")
        if '"' in ticker or not numbers or any(c in numbers for c in _INFORMATION_SEPARATORS):
            raise ValueError(f"row {len(tickers) + 1} needs the per-cell parse")
        tickers.append(ticker)
        yield numbers
    if not tickers:
        raise ValueError("no data rows")


def _load_returns_slowly(path) -> ReturnsPanel:
    """The reference parse: the ``csv`` module and one ``float`` per cell."""
    rows = _read_csv(path)
    if len(rows) < 3:
        raise InputError(f"{path}: expected a header row of dates and at least 2 data rows")
    if len(rows[0]) < 3:
        raise InsufficientObservations(len(rows[0]) - 1)
    dates = tuple(rows[0][1:])
    tickers: list[str] = []
    values = np.empty((len(rows) - 1, len(dates)))
    for r, row in enumerate(rows[1:]):
        if len(row) != len(dates) + 1:
            raise InputError(f"{path}: row {r + 1} has {len(row)} fields, expected {len(dates) + 1}")
        tickers.append(row[0])
        for c, cell in enumerate(row[1:]):
            try:
                values[r, c] = float(cell)
            except ValueError:
                raise NonNumericCell(r + 1, c + 1, cell) from None
    return ReturnsPanel(tuple(tickers), dates, values)


def load_classification_csv(path: str | os.PathLike, panel: ReturnsPanel) -> ClassificationTree:
    """Load a tree from ``ticker,level1,...,levelP`` CSV (most granular first).

    Nesting is inferred column to column; a level-l cluster appearing under
    two distinct level-(l+1) labels is an error. Rows for tickers outside the
    panel are ignored.
    """
    rows = _read_csv(path)
    if not rows or len(rows[0]) < 2:
        raise InputError(f"{path}: expected header 'ticker,level1,...'")
    p = len(rows[0]) - 1
    by_ticker: dict[str, tuple[str, ...]] = {}
    for r, row in enumerate(rows[1:]):
        if len(row) != p + 1:
            raise InputError(f"{path}: row {r + 1} has {len(row)} fields, expected {p + 1}")
        if row[0] in by_ticker:
            raise DuplicateTicker(row[0])
        for c, cell in enumerate(row[1:]):
            if cell == "":
                raise InputError(f"{path}: empty level-{c + 1} label on row {r + 1}")
        by_ticker[row[0]] = tuple(row[1:])
    for ticker in panel.tickers:
        if ticker not in by_ticker:
            raise UnmappedStock(ticker)
    labels = [by_ticker[t] for t in panel.tickers]
    return tree_from_labels(panel.tickers, labels)


def tree_from_labels(tickers, labels) -> ClassificationTree:
    """Build a tree from per-stock label tuples, most granular first.

    Cluster indices follow first appearance in stock order, which makes the
    construction (and round-trips through CSV) deterministic.
    """
    tickers = tuple(tickers)
    p = len(labels[0])
    if any(len(row) != p for row in labels):
        raise InputError("classification rows have differing level counts")
    level_names: list[tuple[str, ...]] = []
    parent_maps: list[np.ndarray] = []
    child_of_stock = np.zeros(len(tickers), dtype=np.int64)
    for lvl in range(p):
        names: list[str] = []
        index: dict[str, int] = {}
        if lvl == 0:
            mapping = np.empty(len(tickers), dtype=np.int64)
            for i, row in enumerate(labels):
                label = row[0]
                if label not in index:
                    index[label] = len(names)
                    names.append(label)
                mapping[i] = index[label]
        else:
            k_prev = len(level_names[-1])
            assigned: list[str | None] = [None] * k_prev
            for i, row in enumerate(labels):
                c = int(child_of_stock[i])
                if assigned[c] is None:
                    assigned[c] = row[lvl]
                elif assigned[c] != row[lvl]:
                    raise InconsistentNesting(lvl, level_names[-1][c], {assigned[c], row[lvl]})
            mapping = np.empty(k_prev, dtype=np.int64)
            for c in range(k_prev):
                label = assigned[c]
                if label not in index:
                    index[label] = len(names)
                    names.append(label)
                mapping[c] = index[label]
        level_names.append(tuple(names))
        parent_maps.append(mapping)
        child_of_stock = mapping[child_of_stock] if lvl > 0 else mapping.copy()
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
        missing = set(panel.tickers) - set(tree.tickers)
        if missing:
            raise UnmappedStock(sorted(missing)[0])
        raise InputError("tree and panel tickers differ (order or extras)")
    warnings: list[SingletonCluster] = []
    for lvl in range(1, tree.n_levels + 1):
        for a, members in enumerate(tree.children(lvl)):
            if len(members) == 1:
                warnings.append(SingletonCluster(lvl, tree.level_names[lvl - 1][a]))
    return warnings


def read_keyed_csv(path, header: tuple[str, str]) -> list[tuple[str, float]]:
    """Rows of a ``key,value`` CSV in file order. The header matches
    case-insensitively, further columns are ignored, and a missing,
    non-numeric or non-finite value is an ``InputError`` naming the key."""
    rows = _read_csv(path)
    if not rows or tuple(c.lower() for c in rows[0][:2]) != header:
        raise InputError(f"{path}: expected header '{','.join(header)}'")
    pairs = []
    for row in rows[1:]:
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
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except ValueError as exc:
            raise InputError(f"{path}: not valid JSON ({exc})") from None


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _read_csv(path) -> list[list[str]]:
    if not os.path.exists(path):
        raise MissingInputFile(path)
    with open(path, newline="", encoding="utf-8") as handle:
        try:
            return [row for row in csv.reader(handle) if row]
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:  # a field over the csv module's size limit, say
            raise InputError(f"{path}: not readable as CSV ({exc})") from None
