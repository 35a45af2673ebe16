import ast
import os

import numpy as np
import pytest

import nestbench
from nestbench import (
    BetaVector,
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

    def test_roundtrip(self, tmp_path):
        instance = generate(SyntheticSpec(n=8, t=30, clusters=(3,), rho=(0.4,), seed=3))
        path = tmp_path / "r.csv"
        write_returns_csv(instance.panel, path)
        back = load_returns_csv(path)
        assert back.tickers == instance.panel.tickers
        assert back.dates == instance.panel.dates
        np.testing.assert_array_equal(back.values, instance.panel.values)


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

    def test_empty_label(self, tmp_path):
        panel = self._panel(["A", "B"])
        path = _write(tmp_path / "c.csv", "ticker,sub\nA,s1\nB,\n")
        with pytest.raises(InputError):
            load_classification_csv(path, panel)

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
