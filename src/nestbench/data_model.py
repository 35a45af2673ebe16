"""Labeled return panels, multilevel classification trees, and every file
format the package reads or writes.

The ticker order of the returns panel is canonical: every downstream vector
and matrix is aligned to it. Classification levels are stored most granular
first (level 1), with parent maps linking each level to the next coarser one.
No other module opens a file: they go through ``read_keyed_csv``,
``write_csv``, ``read_json`` and ``write_json``.
"""

from __future__ import annotations

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
        values = np.array(self.values, dtype=float)
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
            if len(np.unique(m)) != k:
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
        m = self.parent_maps[level - 1]
        k = self.cluster_counts[level - 1]
        order = np.argsort(m, kind="stable")
        bounds = np.searchsorted(m[order], np.arange(k + 1))
        return [order[bounds[a]:bounds[a + 1]] for a in range(k)]

    def stock_clusters(self, level: int) -> np.ndarray:
        """Composed map: stock index -> level-``level`` cluster index."""
        m = self.parent_maps[0]
        for lvl in range(1, level):
            m = self.parent_maps[lvl][m]
        return m


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

    The numbers go through numpy's C parser in one streamed pass. A file it
    would read differently from the ``csv`` module and ``float`` (quoted
    labels, ragged rows, a cell it refuses) is parsed again cell by cell, so
    every file loads, or fails naming its first bad cell, exactly as the
    per-cell parse alone would have it.
    """
    tickers: list[str] = []
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            lines = filter(None, (line.rstrip("\r\n") for line in handle))
            header = next(lines, "")
            if '"' in header:
                raise ValueError("quoted header")
            values = np.loadtxt(_numeric_fields(lines, tickers), delimiter=",", comments=None, ndmin=2)
    except (OSError, ValueError):  # ValueError includes UnicodeDecodeError
        return _load_returns_slowly(path)
    dates = tuple(header.split(",")[1:])
    if values.shape != (len(tickers), len(dates)) or min(values.shape) < 2:
        return _load_returns_slowly(path)
    return ReturnsPanel(tuple(tickers), dates, values)


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
