import csv
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from conftest import assert_no_child_left, blas_threads_env, past_one_upper_bound, returns_ranges, wrong_at_stock_0

import nestbench.cli
import nestbench.overlay
from nestbench.cli import main
from nestbench.errors import MissingInputFile
from nestbench.risk_model import ThetaFitConfig, load_model, save_model


def run(*argv):
    return main(list(argv))


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def _synth(tmp_path, name="fix", seed="7", n="16", t="250", clusters="4,2", rho="0.5,0.3"):
    out = tmp_path / name
    code = run(
        "synth", "--n", n, "--t", t, "--clusters", clusters, "--rho", rho,
        "--market-rho", "0.1", "--seed", seed, "--out", str(out),
    )
    assert code == 0
    return out


def _write_signal(panel_csv, path, value="0.0", jitter=None):
    with open(panel_csv, newline="") as handle:
        tickers = [row[0] for row in csv.reader(handle)][1:]
    rng = np.random.default_rng(3)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["ticker", "expected_return"])
        for ticker in tickers:
            v = value if jitter is None else repr(rng.normal(0.0, jitter))
            writer.writerow([ticker, v])
    return path


class TestSynth:
    def test_writes_fixture(self, tmp_path):
        out = _synth(tmp_path)
        assert (out / "returns.csv").exists()
        assert (out / "classification.csv").exists()
        assert (out / "synth.json").exists()

    def test_byte_identical_across_runs(self, tmp_path):
        a = _synth(tmp_path, "a")
        b = _synth(tmp_path, "b")
        assert _read(a / "returns.csv") == _read(b / "returns.csv")
        assert _read(a / "classification.csv") == _read(b / "classification.csv")

    def test_too_small_universe_is_input_error(self, tmp_path):
        code = run("synth", "--n", "3", "--clusters", "4", "--rho", "0.4",
                   "--out", str(tmp_path / "x"))
        assert code == 2


class TestBenchmark:
    def test_end_to_end(self, tmp_path, capsys):
        fix = _synth(tmp_path)
        out = tmp_path / "bench"
        code = run(
            "benchmark", "--returns", str(fix / "returns.csv"),
            "--classification", str(fix / "classification.csv"), "--out", str(out),
        )
        assert code == 0
        assert "sigma_F2" in capsys.readouterr().out
        rows = list(csv.DictReader(open(out / "weights.csv")))
        weights = np.array([float(r["weight"]) for r in rows])
        betas = np.array([float(r["beta"]) for r in rows])
        assert np.all(weights > 0)
        assert abs(weights @ betas - 1.0) <= 1e-12
        sidecar = json.loads((out / "benchmark.json").read_text())
        assert sidecar["sigma_f2"] > 0
        assert sidecar["config"]["z_min"] == 0.1

    def test_deterministic_outputs(self, tmp_path):
        fix = _synth(tmp_path)
        out1, out2 = tmp_path / "b1", tmp_path / "b2"
        for out in (out1, out2):
            assert run(
                "benchmark", "--returns", str(fix / "returns.csv"),
                "--classification", str(fix / "classification.csv"), "--out", str(out),
            ) == 0
        assert _read(out1 / "weights.csv") == _read(out2 / "weights.csv")

    def test_malformed_cell_is_input_error(self, tmp_path, capsys):
        fix = _synth(tmp_path)
        bad = tmp_path / "bad.csv"
        text = (fix / "returns.csv").read_text().splitlines()
        fields = text[1].split(",")
        fields[2] = "abc"
        text[1] = ",".join(fields)
        bad.write_text("\n".join(text) + "\n")
        code = run(
            "benchmark", "--returns", str(bad),
            "--classification", str(fix / "classification.csv"),
            "--out", str(tmp_path / "o"),
        )
        assert code == 2
        assert "row 1" in capsys.readouterr().err

    def test_overlong_label_is_input_error(self, tmp_path, capsys):
        # the csv module refuses fields over 131,072 characters
        fix = _synth(tmp_path)
        classification = fix / "classification.csv"
        lines = classification.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + "," + "x" * 140_000
        classification.write_text("\n".join(lines) + "\n")
        code = run("benchmark", "--returns", str(fix / "returns.csv"),
                   "--classification", str(classification), "--out", str(tmp_path / "o"))
        assert code == 2
        assert str(classification) in capsys.readouterr().err

    def test_same_bytes_from_one_or_two_parse_ranges(self, tmp_path):
        fix = _synth(tmp_path)
        for k in (1, 2):
            with returns_ranges(k) as calls:
                assert run("benchmark", "--returns", str(fix / "returns.csv"),
                           "--classification", str(fix / "classification.csv"), "--out", str(tmp_path / f"k{k}")) == 0
            assert_no_child_left()
            assert (calls["_fork_worker"], calls["_load_returns_slowly"]) == (k - 1, 0)
        for name in ("weights.csv", "model.json"):
            assert _read(tmp_path / "k1" / name) == _read(tmp_path / "k2" / name), name

    def test_missing_returns_flag(self, tmp_path):
        assert run("benchmark", "--out", str(tmp_path / "o")) == 2

    def test_beta_dispersion_is_model_error(self, tmp_path, capsys):
        fix = _synth(tmp_path)
        rows = list(csv.reader(open(fix / "returns.csv")))
        tickers = [r[0] for r in rows[1:]]
        beta_file = tmp_path / "beta.csv"
        with open(beta_file, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["ticker", "beta"])
            for i, ticker in enumerate(tickers):
                writer.writerow([ticker, "1.0" if i else "50.0"])
        code = run(
            "benchmark", "--returns", str(fix / "returns.csv"),
            "--classification", str(fix / "classification.csv"),
            "--beta-mode", "explicit", "--beta-file", str(beta_file),
            "--out", str(tmp_path / "o"),
        )
        assert code == 3
        assert tickers[0] in capsys.readouterr().err

    def test_unit_sum_weight_scale(self, tmp_path):
        fix = _synth(tmp_path)
        out = tmp_path / "bench_sum"
        code = run(
            "benchmark", "--returns", str(fix / "returns.csv"),
            "--classification", str(fix / "classification.csv"),
            "--weight-scale", "sum", "--out", str(out),
        )
        assert code == 0
        rows = list(csv.DictReader(open(out / "weights.csv")))
        weights = np.array([float(r["weight"]) for r in rows])
        assert abs(weights.sum() - 1.0) <= 1e-12

    def test_config_file_and_flag_precedence(self, tmp_path):
        fix = _synth(tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "returns": str(fix / "returns.csv"),
            "classification": str(fix / "classification.csv"),
            "z_min": 0.2,
            "out": str(tmp_path / "from_config"),
        }))
        assert run("--config", str(config), "benchmark") == 0
        sidecar = json.loads((tmp_path / "from_config" / "benchmark.json").read_text())
        assert sidecar["config"]["z_min"] == 0.2
        assert run("--config", str(config), "benchmark",
                   "--z-min", "0.15", "--out", str(tmp_path / "flag_wins")) == 0
        sidecar = json.loads((tmp_path / "flag_wins" / "benchmark.json").read_text())
        assert sidecar["config"]["z_min"] == 0.15

    def test_malformed_config_is_input_error(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text('{"z_min": 0.2,')
        assert run("--config", str(config), "benchmark", "--out", str(tmp_path / "o")) == 2
        assert str(config) in capsys.readouterr().err

    def test_unknown_weight_scale_fails_before_loading(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"weight_scale": "bogus-scale"}))
        missing = tmp_path / "missing.csv"
        assert run(
            "--config", str(config), "benchmark", "--returns", str(missing),
            "--classification", str(missing), "--out", str(tmp_path / "o"),
        ) == 2
        err = capsys.readouterr().err
        assert "bogus-scale" in err and str(missing) not in err


class TestOverlay:
    def test_unknown_constraint_mode_fails_before_loading(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert run(
            "overlay", "--returns", str(missing), "--classification", str(missing),
            "--expected-returns", str(missing),
            "--constraints", "dollar-neutral,bogus-mode", "--out", str(tmp_path / "o"),
        ) == 2
        err = capsys.readouterr().err
        assert "bogus-mode" in err and str(missing) not in err

    def test_zero_signal_returns_benchmark(self, tmp_path):
        fix = _synth(tmp_path)
        signal = _write_signal(fix / "returns.csv", tmp_path / "e.csv", value="0.0")
        out = tmp_path / "ov"
        code = run(
            "overlay", "--returns", str(fix / "returns.csv"),
            "--classification", str(fix / "classification.csv"),
            "--expected-returns", str(signal), "--out", str(out),
        )
        assert code == 0
        rows = list(csv.DictReader(open(out / "overlay.csv")))
        w_prime = np.array([float(r["w_prime"]) for r in rows])
        w_star = np.array([float(r["w_star"]) for r in rows])
        combined = np.array([float(r["w_combined"]) for r in rows])
        np.testing.assert_array_equal(w_prime, 0.0)
        np.testing.assert_array_equal(combined, w_star)
        sidecar = json.loads((out / "overlay.json").read_text())
        assert sidecar["sharpe_opt"] == 0.0

    def test_residualize_tunes_the_residual_signal(self, tmp_path):
        fix = _synth(tmp_path)
        signal = _write_signal(fix / "returns.csv", tmp_path / "e.csv", jitter=0.01)
        out = tmp_path / "ov"
        assert run("overlay", "--returns", str(fix / "returns.csv"), "--classification",
                   str(fix / "classification.csv"), "--expected-returns", str(signal), "--residualize",
                   "--out", str(out)) == 0
        w_prime = np.array([float(r["w_prime"]) for r in csv.DictReader(open(out / "overlay.csv"))])
        panel = nestbench.load_returns_csv(fix / "returns.csv")
        tree = nestbench.load_classification_csv(fix / "classification.csv", panel)
        model = nestbench.build_russian_doll(panel, tree, nestbench.make_betas(panel))
        w_star = nestbench.benchmark_weights(model).weights
        e = np.array([float(r["expected_return"]) for r in csv.DictReader(open(signal))])
        tuned = {}
        for name, values in (("raw", e), ("residual", nestbench.residualize(e, w_star / w_star.sum()))):
            tuned[name] = nestbench.tune_gamma(nestbench.make_overlay_problem(values, model, w_star)).w_prime
        assert w_prime.tobytes() == tuned["residual"].tobytes()
        assert w_prime.any() and w_prime.tobytes() != tuned["raw"].tobytes()

    def test_zero_signal_under_correlation_constraint_writes_finite_rows(self, tmp_path):
        fix = _synth(tmp_path)
        signal = _write_signal(fix / "returns.csv", tmp_path / "e.csv", value="0.0")
        out = tmp_path / "ov"
        code = run(
            "overlay", "--returns", str(fix / "returns.csv"),
            "--classification", str(fix / "classification.csv"),
            "--expected-returns", str(signal),
            "--constraints", "dollar-neutral,zero-expected-correlation",
            "--out", str(out),
        )
        assert code == 0
        rows = list(csv.DictReader(open(out / "overlay.csv")))
        np.testing.assert_array_equal([float(r["w_prime"]) for r in rows], 0.0)
        np.testing.assert_array_equal([float(r["w_combined"]) for r in rows],
                                      [float(r["w_star"]) for r in rows])
        sidecar = json.loads((out / "overlay.json").read_text())
        assert sidecar["sharpe_opt"] == 0.0
        assert 0.0 < sidecar["gamma_prime_opt"] < 1.0

    def test_planted_signal_improves_sharpe(self, tmp_path):
        fix = _synth(tmp_path)
        signal = _write_signal(fix / "returns.csv", tmp_path / "e.csv", jitter=0.01)
        out = tmp_path / "ov"
        code = run(
            "overlay", "--returns", str(fix / "returns.csv"),
            "--classification", str(fix / "classification.csv"),
            "--expected-returns", str(signal),
            "--constraints", "dollar-neutral,zero-expected-correlation",
            "--out", str(out),
        )
        assert code == 0
        sidecar = json.loads((out / "overlay.json").read_text())
        assert sidecar["sharpe_opt"] >= sidecar["sharpe_zero"] - 1e-12
        rows = list(csv.DictReader(open(out / "overlay.csv")))
        combined = np.array([float(r["w_combined"]) for r in rows])
        w_prime = np.array([float(r["w_prime"]) for r in rows])
        assert np.all(combined >= -1e-15)
        assert abs(w_prime.sum()) <= 1e-10

    def test_sleeve_that_fails_its_certificate_exits_4(self, tmp_path, capsys, monkeypatch):
        fix = _synth(tmp_path)
        signal = _write_signal(fix / "returns.csv", tmp_path / "e.csv", jitter=0.01)
        monkeypatch.setattr(nestbench.overlay, "optimize_mvo",
                            past_one_upper_bound(nestbench.overlay.optimize_mvo))
        out = tmp_path / "ov"
        assert run(
            "overlay", "--returns", str(fix / "returns.csv"),
            "--classification", str(fix / "classification.csv"),
            "--expected-returns", str(signal), "--out", str(out),
        ) == 4
        assert "fails its KKT check" in capsys.readouterr().err
        assert not (out / "overlay.csv").exists()

    def test_optimizer_that_does_not_converge_exits_4(self, tmp_path, capsys, monkeypatch):
        fix = _synth(tmp_path)
        signal = _write_signal(fix / "returns.csv", tmp_path / "e.csv", jitter=0.01)
        monkeypatch.setattr(nestbench.overlay, "_wrong_signs", wrong_at_stock_0)
        out = tmp_path / "ov"
        assert run(
            "overlay", "--returns", str(fix / "returns.csv"),
            "--classification", str(fix / "classification.csv"),
            "--expected-returns", str(signal), "--out", str(out),
        ) == 4
        assert "did not converge within 1700 iterations" in capsys.readouterr().err
        assert not (out / "overlay.csv").exists()

    def test_infeasible_custom_bounds(self, tmp_path):
        fix = _synth(tmp_path)
        signal = _write_signal(fix / "returns.csv", tmp_path / "e.csv", jitter=0.01)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "lower_bounds": [0.0] * 16,
            "upper_bounds": [-0.01] * 16,
        }))
        code = run(
            "--config", str(config),
            "overlay", "--returns", str(fix / "returns.csv"),
            "--classification", str(fix / "classification.csv"),
            "--expected-returns", str(signal), "--out", str(tmp_path / "o"),
        )
        assert code == 2

    def test_zero_width_boxes_leave_one_free_stock(self, tmp_path):
        # fifteen zero-width boxes and two constraint columns: one free
        # stock, a singular KKT matrix, and w' = 0 as the only feasible point
        fix = _synth(tmp_path)
        signal = _write_signal(fix / "returns.csv", tmp_path / "e.csv", jitter=0.01)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "lower_bounds": [0.0] * 15 + [-0.01],
            "upper_bounds": [0.0] * 15 + [0.01],
        }))
        out = tmp_path / "ov"
        code = run(
            "--config", str(config),
            "overlay", "--returns", str(fix / "returns.csv"),
            "--classification", str(fix / "classification.csv"),
            "--expected-returns", str(signal),
            "--constraints", "dollar-neutral,orthogonal-to-benchmark",
            "--out", str(out),
        )
        assert code == 0
        rows = list(csv.DictReader(open(out / "overlay.csv")))
        w_prime = np.array([float(r["w_prime"]) for r in rows])
        np.testing.assert_allclose(w_prime, 0.0, rtol=0, atol=1e-15)

    def test_pipeline_composition(self, tmp_path):
        # feeding the benchmark CSV back in must match the inline run
        fix = _synth(tmp_path)
        bench = tmp_path / "bench"
        assert run(
            "benchmark", "--returns", str(fix / "returns.csv"),
            "--classification", str(fix / "classification.csv"), "--out", str(bench),
        ) == 0
        signal = _write_signal(fix / "returns.csv", tmp_path / "e.csv", jitter=0.01)
        inline, staged = tmp_path / "inline", tmp_path / "staged"
        common = [
            "--returns", str(fix / "returns.csv"),
            "--classification", str(fix / "classification.csv"),
            "--expected-returns", str(signal),
        ]
        assert run("overlay", *common, "--out", str(inline)) == 0
        assert run("overlay", *common, "--weights", str(bench / "weights.csv"),
                   "--out", str(staged)) == 0
        assert _read(inline / "overlay.csv") == _read(staged / "overlay.csv")


class TestBetas:
    def test_standalone_betas(self, tmp_path):
        fix = _synth(tmp_path)
        out = tmp_path / "betas"
        assert run("betas", "--returns", str(fix / "returns.csv"), "--out", str(out)) == 0
        rows = list(csv.DictReader(open(out / "betas.csv")))
        assert len(rows) == 16
        assert all(float(r["beta"]) > 0 for r in rows)
        config = json.loads((out / "betas.json").read_text())["config"]
        assert sorted(config) == ["beta_file", "beta_mode", "index_returns", "kappa_max", "kappa_min",
                                  "out", "returns"]


def _write_rows(path, rows):
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows(rows)
    return path


def _returns_rows(fix):
    with open(fix / "returns.csv", newline="") as handle:
        return list(csv.reader(handle))


class TestKeyedInputs:
    def test_index_date_mismatch(self, tmp_path, capsys):
        fix = _synth(tmp_path)
        dates = _returns_rows(fix)[0][1:]
        rows = [["date", "value"]] + [[d, "0.01"] for d in dates]
        rows[5][0] = "not-a-date"
        index = _write_rows(tmp_path / "index.csv", rows)
        code = run("betas", "--returns", str(fix / "returns.csv"), "--beta-mode", "observed-capped",
                   "--index-returns", str(index), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "not-a-date" in capsys.readouterr().err

    def test_index_non_numeric_value(self, tmp_path, capsys):
        fix = _synth(tmp_path)
        dates = _returns_rows(fix)[0][1:]
        rows = [["date", "value"]] + [[d, "0.01"] for d in dates]
        rows[3][1] = "n/a"
        index = _write_rows(tmp_path / "index.csv", rows)
        code = run("betas", "--returns", str(fix / "returns.csv"), "--beta-mode", "observed-capped",
                   "--index-returns", str(index), "--out", str(tmp_path / "o"))
        assert code == 2
        assert repr(dates[2]) in capsys.readouterr().err

    def test_beta_file_missing_ticker(self, tmp_path, capsys):
        fix = _synth(tmp_path)
        tickers = [r[0] for r in _returns_rows(fix)[1:]]
        beta_file = _write_rows(tmp_path / "beta.csv", [["ticker", "beta"]] + [[t, "1.0"] for t in tickers[1:]])
        code = run("betas", "--returns", str(fix / "returns.csv"), "--beta-mode", "explicit",
                   "--beta-file", str(beta_file), "--out", str(tmp_path / "o"))
        assert code == 2
        assert tickers[0] in capsys.readouterr().err

    def test_expected_returns_wrong_header(self, tmp_path, capsys):
        fix = _synth(tmp_path)
        signal = _write_signal(fix / "returns.csv", tmp_path / "e.csv", value="0.01")
        text = signal.read_text().replace("ticker,expected_return", "ticker,alpha", 1)
        signal.write_text(text)
        code = run("overlay", "--returns", str(fix / "returns.csv"),
                   "--classification", str(fix / "classification.csv"),
                   "--expected-returns", str(signal), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "ticker,expected_return" in capsys.readouterr().err

    def test_nan_expected_return_names_file_and_ticker(self, tmp_path, capsys):
        fix = _synth(tmp_path)
        rows = [["ticker", "expected_return"]] + [[r[0], "0.01"] for r in _returns_rows(fix)[1:]]
        rows[3][1] = "nan"
        signal = _write_rows(tmp_path / "e.csv", rows)
        code = run("overlay", "--returns", str(fix / "returns.csv"),
                   "--classification", str(fix / "classification.csv"),
                   "--expected-returns", str(signal), "--out", str(tmp_path / "o"))
        assert code == 2
        err = capsys.readouterr().err
        assert str(signal) in err and "'S0003'" in err

    def test_infinite_beta_names_file_and_ticker(self, tmp_path, capsys):
        fix = _synth(tmp_path)
        rows = [["ticker", "beta"]] + [[r[0], "1.0"] for r in _returns_rows(fix)[1:]]
        rows[3][1] = "inf"
        beta_file = _write_rows(tmp_path / "beta.csv", rows)
        code = run("betas", "--returns", str(fix / "returns.csv"), "--beta-mode", "explicit",
                   "--beta-file", str(beta_file), "--out", str(tmp_path / "o"))
        assert code == 2
        err = capsys.readouterr().err
        assert str(beta_file) in err and "'S0003'" in err

    def test_repeated_ticker_in_beta_file(self, tmp_path, capsys):
        fix = _synth(tmp_path)
        rows = [["ticker", "beta"]] + [[r[0], "1.0"] for r in _returns_rows(fix)[1:]]
        rows.append([rows[3][0], "2.0"])  # a later row would overwrite the first
        beta_file = _write_rows(tmp_path / "beta.csv", rows)
        code = run("betas", "--returns", str(fix / "returns.csv"), "--beta-mode", "explicit",
                   "--beta-file", str(beta_file), "--out", str(tmp_path / "o"))
        assert code == 2
        err = capsys.readouterr().err
        assert str(beta_file) in err and "duplicate ticker 'S0003'" in err
        assert not (tmp_path / "o").exists()

    def test_repeated_ticker_in_expected_returns(self, tmp_path, capsys):
        fix = _synth(tmp_path)
        rows = [["ticker", "expected_return"]] + [[r[0], "0.01"] for r in _returns_rows(fix)[1:]]
        rows.insert(2, [rows[5][0], "0.5"])
        signal = _write_rows(tmp_path / "e.csv", rows)
        code = run("overlay", "--returns", str(fix / "returns.csv"),
                   "--classification", str(fix / "classification.csv"),
                   "--expected-returns", str(signal), "--out", str(tmp_path / "o"))
        assert code == 2
        err = capsys.readouterr().err
        assert str(signal) in err and "duplicate ticker 'S0005'" in err


class TestWeightsFile:
    @pytest.mark.parametrize("edit", [
        lambda rows: rows[2].__setitem__(1, "heavy"),
        lambda rows: rows.__setitem__(2, rows[2][:1]),
        lambda rows: rows[2].__setitem__(1, "nan"),
        lambda rows: rows.insert(1, rows.pop(2)),
    ], ids=["non-numeric", "ticker-only", "nan", "out-of-order"])
    def test_bad_weights_file_is_input_error(self, tmp_path, capsys, edit):
        fix = _synth(tmp_path)
        inputs = ("--returns", str(fix / "returns.csv"), "--classification", str(fix / "classification.csv"))
        assert run("benchmark", *inputs, "--out", str(tmp_path / "b")) == 0
        rows = list(csv.reader((tmp_path / "b" / "weights.csv").read_text().splitlines()))
        ticker = rows[2][0]  # every edit leaves this one's row at fault
        edit(rows)
        weights = _write_rows(tmp_path / "weights.csv", rows)
        signal = _write_signal(fix / "returns.csv", tmp_path / "e.csv", value="0.01")
        capsys.readouterr()
        code = run("overlay", *inputs, "--expected-returns", str(signal),
                   "--weights", str(weights), "--out", str(tmp_path / "o"))
        assert code == 2
        err = capsys.readouterr().err
        assert str(weights) in err and repr(ticker) in err
        assert not (tmp_path / "o").exists()

    def test_blank_lines_header_case_and_extra_columns_are_read(self, tmp_path):
        fix = _synth(tmp_path)
        inputs = ("--returns", str(fix / "returns.csv"), "--classification", str(fix / "classification.csv"))
        signal = _write_signal(fix / "returns.csv", tmp_path / "e.csv", jitter=0.01)
        assert run("benchmark", *inputs, "--out", str(tmp_path / "b")) == 0
        assert run("overlay", *inputs, "--expected-returns", str(signal), "--out", str(tmp_path / "inline")) == 0
        text = (tmp_path / "b" / "weights.csv").read_text()
        text = text.replace("ticker,weight", "Ticker,WEIGHT", 1).replace("\n", "\n\n", 3)
        (tmp_path / "b" / "weights.csv").write_text(text)
        assert run("overlay", *inputs, "--expected-returns", str(signal),
                   "--weights", str(tmp_path / "b" / "weights.csv"), "--out", str(tmp_path / "loaded")) == 0
        assert _read(tmp_path / "inline" / "overlay.csv") == _read(tmp_path / "loaded" / "overlay.csv")


    def test_byte_order_marks_are_read(self, tmp_path):
        # spreadsheets saving "CSV UTF-8" start the file with one
        fix = _synth(tmp_path)
        inputs = ("--returns", str(fix / "returns.csv"), "--classification", str(fix / "classification.csv"))
        signal = _write_signal(fix / "returns.csv", tmp_path / "e.csv", jitter=0.01)
        assert run("benchmark", *inputs, "--out", str(tmp_path / "b")) == 0
        assert run("overlay", *inputs, "--expected-returns", str(signal), "--weights",
                   str(tmp_path / "b" / "weights.csv"), "--out", str(tmp_path / "plain")) == 0
        for path in (signal, tmp_path / "b" / "weights.csv", fix / "returns.csv", fix / "classification.csv"):
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert run("overlay", *inputs, "--expected-returns", str(signal), "--weights",
                   str(tmp_path / "b" / "weights.csv"), "--out", str(tmp_path / "bom")) == 0
        assert _read(tmp_path / "plain" / "overlay.csv") == _read(tmp_path / "bom" / "overlay.csv")

    def test_json_byte_order_marks_are_read(self, tmp_path):
        fix = _synth(tmp_path)
        config = tmp_path / "cfg.json"
        config.write_bytes(b"\xef\xbb\xbf" + json.dumps({
            "returns": str(fix / "returns.csv"), "classification": str(fix / "classification.csv"),
        }).encode())
        assert run("--config", str(config), "benchmark", "--out", str(tmp_path / "b")) == 0
        model = tmp_path / "b" / "model.json"
        model.write_bytes(b"\xef\xbb\xbf" + model.read_bytes())
        save_model(load_model(model), tmp_path / "again.json")
        assert b"\xef\xbb\xbf" + _read(tmp_path / "again.json") == _read(model)


def test_model_json_repeats_one_band(tmp_path):
    # model.json keeps one configs entry per level and one for the market,
    # all equal, and a model read from it writes the same bytes
    fix = _synth(tmp_path)
    assert run("benchmark", "--returns", str(fix / "returns.csv"), "--classification",
               str(fix / "classification.csv"), "--z-min", "0.2", "--z-max", "0.85", "--out", str(tmp_path / "b")) == 0
    path = tmp_path / "b" / "model.json"
    assert json.loads(_read(path))["configs"] == [{"z_min": 0.2, "z_max": 0.85}] * 3
    model = load_model(path)
    assert model.cfg == ThetaFitConfig(0.2, 0.85)
    save_model(model, tmp_path / "again.json")
    assert _read(tmp_path / "again.json") == _read(path)


def test_load_model_missing_file(tmp_path):
    with pytest.raises(MissingInputFile):
        load_model(tmp_path / "absent.json")


def _cli_with_threads(threads, cwd, *argv):
    subprocess.run([sys.executable, "-m", "nestbench", *argv], cwd=cwd,
                   env=blas_threads_env(threads), check=True, capture_output=True, timeout=300)


def test_benchmark_bytes_independent_of_blas_threads(tmp_path):
    # the same relative --out keeps the config echoed into the sidecars equal
    for threads in (1, 2):
        (tmp_path / f"t{threads}").mkdir()
        _cli_with_threads(threads, tmp_path / f"t{threads}", "synth", "--n", "1200", "--t", "300",
                          "--clusters", "120,12,3", "--rho", "0.4,0.25,0.1", "--market-rho", "0.05",
                          "--seed", "11", "--out", "fix")
    for name in ("returns.csv", "classification.csv"):
        assert _read(tmp_path / "t1" / "fix" / name) == _read(tmp_path / "t2" / "fix" / name), name
    fix = tmp_path / "t1" / "fix"
    for threads in (1, 2):
        _cli_with_threads(threads, tmp_path / f"t{threads}", "benchmark",
                          "--returns", str(fix / "returns.csv"),
                          "--classification", str(fix / "classification.csv"), "--out", "out")
    for name in ("weights.csv", "model.json", "benchmark.json"):
        assert _read(tmp_path / "t1" / "out" / name) == _read(tmp_path / "t2" / "out" / name), name


def test_overlay_bytes_independent_of_blas_threads(tmp_path):
    fix = tmp_path / "fix"
    _cli_with_threads(1, tmp_path, "synth", "--n", "250", "--t", "250", "--clusters", "25,5",
                      "--rho", "0.4,0.2", "--market-rho", "0.1", "--seed", "1", "--out", str(fix))
    signal = _write_signal(fix / "returns.csv", tmp_path / "e.csv", jitter=0.01)
    # the same relative --out keeps the config echoed into overlay.json equal
    for threads in (1, 2):
        (tmp_path / f"t{threads}").mkdir()
        _cli_with_threads(threads, tmp_path / f"t{threads}", "overlay",
                          "--returns", str(fix / "returns.csv"),
                          "--classification", str(fix / "classification.csv"),
                          "--expected-returns", str(signal),
                          "--constraints", "dollar-neutral,zero-expected-correlation", "--out", "out")
    for name in ("overlay.csv", "overlay.json"):
        assert _read(tmp_path / "t1" / "out" / name) == _read(tmp_path / "t2" / "out" / name), name


def test_cli_import_starts_no_process_pool_module():
    # a module-level multiprocessing import costs start-up time on every run
    code = "import sys, nestbench.cli; print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env=blas_threads_env(1),
                          check=True, capture_output=True, text=True, timeout=300)
    assert done.stdout.strip() == "[]"


def test_benchmark_imports_no_masked_arrays(tmp_path):
    # np.unique imports numpy.ma on first use, about 16 ms and 1.4 MiB a run
    fix = _synth(tmp_path)
    code = ("import sys; from nestbench.cli import main; "
            f"code = main(['benchmark', '--returns', {str(fix / 'returns.csv')!r}, "
            f"'--classification', {str(fix / 'classification.csv')!r}, '--out', {str(tmp_path / 'out')!r}]); "
            "print(code, 'numpy.ma' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=blas_threads_env(1),
                          check=True, capture_output=True, text=True, timeout=300)
    assert done.stdout.split()[-2:] == ["0", "False"]


def _index_returns(fix, path):
    """The equal-weighted mean of the fixture's returns as an index file."""
    rows = _returns_rows(fix)
    mean = np.array([[float(x) for x in row[1:]] for row in rows[1:]]).mean(axis=0)
    return _write_rows(path, [["date", "value"]] + [[d, repr(float(v))] for d, v in zip(rows[0][1:], mean)])


def _imported_by(tmp_path, command, module):
    """Run one command in a child process: its exit code and whether it
    imported ``module``, as the last two words it prints."""
    fix = _synth(tmp_path)
    returns = ["--returns", str(fix / "returns.csv")]
    classification = ["--classification", str(fix / "classification.csv")]
    capped = ["--beta-mode", "observed-capped", "--index-returns", str(_index_returns(fix, tmp_path / "index.csv"))]
    argv = {
        "benchmark-observed-capped": ["benchmark", *returns, *classification, *capped],
        "betas-observed-capped": ["betas", *returns, *capped],
        "overlay": ["overlay", *returns, *classification,
                    "--expected-returns", str(_write_signal(fix / "returns.csv", tmp_path / "e.csv", jitter=0.01))],
        "synth": ["synth", "--n", "16", "--t", "250", "--clusters", "4,2", "--rho", "0.5,0.3",
                  "--market-rho", "0.1", "--seed", "7"],
    }[command] + ["--out", str(tmp_path / "out")]
    code = f"import sys; from nestbench.cli import main; print(main({argv!r}), {module!r} in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=blas_threads_env(1),
                          check=True, capture_output=True, text=True, timeout=300)
    return done.stdout.split()[-2:]


@pytest.mark.parametrize("command", ["benchmark-observed-capped", "betas-observed-capped", "overlay", "synth"])
def test_command_imports_no_masked_arrays(tmp_path, command):
    # numpy.ma costs about 17 ms on first import; test_benchmark_imports_no_masked_arrays
    # covers the benchmark with its default betas
    assert _imported_by(tmp_path, command, "numpy.ma") == ["0", "False"]


@pytest.mark.parametrize("command", ["benchmark-observed-capped", "betas-observed-capped", "overlay"])
def test_command_imports_no_generator(tmp_path, command):
    # only synth runs synthetic.py; compiling it costs every other command's start-up
    assert _imported_by(tmp_path, command, "nestbench.synthetic") == ["0", "False"]


def test_package_import_loads_no_submodule():
    code = "import sys, nestbench; print(sorted(m for m in sys.modules if m.startswith('nestbench.')))"
    done = subprocess.run([sys.executable, "-c", code], env=blas_threads_env(1),
                          check=True, capture_output=True, text=True, timeout=300)
    assert done.stdout.strip() == "[]"


# the public names, each with the module that defines it
_PUBLIC_NAMES = {
    "benchmark": {"BenchmarkResult", "BetaSpec", "benchmark_weights", "make_betas", "serial_betas"},
    "data_model": {"BetaVector", "ClassificationTree", "ReturnsPanel", "SingletonCluster", "load_classification_csv",
                   "load_returns_csv", "tree_from_labels", "validate_tree", "write_classification_csv",
                   "write_returns_csv"},
    "overlay": {"CombinedPortfolio", "KKTReport", "OverlayProblem", "OverlayResult", "build_constraints", "combine",
                "default_gamma_max", "kkt_check", "make_overlay_problem", "optimize_mvo", "residualize",
                "sharpe_ratio", "tune_gamma"},
    "risk_model": {"RussianDollModel", "ThetaFitConfig", "build_russian_doll", "fit_theta", "load_model",
                   "model_from_dict", "model_to_dict", "save_model"},
    "synthetic": {"SyntheticInstance", "SyntheticSpec", "generate"},
}


def test_public_names_resolve_to_their_modules():
    expected = {name: home for home, names in _PUBLIC_NAMES.items() for name in names}
    assert len(expected) == 39
    assert sorted(nestbench.__all__) == sorted(expected)
    for name, home in expected.items():
        assert getattr(nestbench, name).__module__ == "nestbench." + home, name
    namespace = {}
    exec("from nestbench import *", namespace)
    assert set(expected) <= set(namespace)
    assert set(expected) <= set(dir(nestbench))
    with pytest.raises(AttributeError):
        nestbench.no_such_name


def _load_by_path(*parts):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location("_under_test_" + parts[-1][:-3], os.path.join(root, *parts))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("command, config", [
    ("overlay", {"tol": "abc"}),
    ("benchmark", {"z_min": "x"}),
    ("synth", {"clusters": [4, "a"]}),
    ("benchmark", {"mkt_fac": "false"}),
    ("overlay", {"residualize": "false"}),
    ("synth", {"n": 16.5}),
    ("overlay", {"band_z": True}),
    ("benchmark", {"returns": 3}),
    ("betas", {"beta_mode": "bogus"}),
    ("benchmark", {"z_mn": 0.2}),
])
def test_config_value_of_wrong_type_is_input_error(tmp_path, capsys, command, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert run("--config", str(path), command, "--out", str(tmp_path / "o")) == 2
    assert repr(next(iter(config))) in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    *((key, value) for key in ("tol", "gamma_max", "band_z", "kappa_max") for value in ("nan", "inf", "-inf")),
    ("upper_bounds", [0.01] * 15 + [float("inf")]),  # a config file's Infinity
])
def test_non_finite_option_is_input_error(tmp_path, capsys, key, value):
    fix = _synth(tmp_path)
    signal = _write_signal(fix / "returns.csv", tmp_path / "e.csv", jitter=0.01)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({key: value} if isinstance(value, list) else {}))
    flags = [] if isinstance(value, list) else [f"--{key.replace('_', '-')}={value}"]  # = lets -inf through
    assert run("--config", str(config), "overlay", "--returns", str(fix / "returns.csv"),
               "--classification", str(fix / "classification.csv"), "--expected-returns", str(signal),
               *flags, "--out", str(tmp_path / "o")) == 2
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("key", [key for key, (_, default, _) in nestbench.cli._OPTIONS.items() if default is not None])
def test_null_for_a_key_with_a_default_is_input_error(tmp_path, capsys, key):
    command = next(command for command, (_, _, keys) in nestbench.cli._COMMANDS.items() if key in keys)
    fix = _synth(tmp_path)
    inputs = {"synth": [], "benchmark": ["--returns", str(fix / "returns.csv"),
                                         "--classification", str(fix / "classification.csv")]}
    inputs["overlay"] = [*inputs["benchmark"], "--expected-returns",
                         str(_write_signal(fix / "returns.csv", tmp_path / "e.csv", jitter=0.01))]
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"out": str(tmp_path / "o"), key: None}))
    capsys.readouterr()
    assert run("--config", str(config), command, *inputs[command]) == 2
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("config, named", [
    ({"upper_bounds": [0.01] * 23 + [-0.01]}, "stock 'S0024' "),
    ({"lower_bounds": [-0.01] * 23 + [0.01]}, "stock 'S0024' "),
    ({"lower_bounds": [-5.0] * 24}, "stock 'S0001' "),
    ({"weights": [0.05] * 4 + [-0.01] + [0.05] * 19}, "stock 'S0005' "),
    ({"band_z": 0.0, "lower_bounds": [-0.01] * 24}, "band"),
    ({"band_z": -0.5, "lower_bounds": [-0.01] * 24}, "band"),
], ids=["negative-upper", "positive-lower", "short-past-benchmark", "negative-weight", "zero-band", "negative-band"])
def test_overlay_refusal_names_the_stock_or_band(tmp_path, capsys, config, named):
    fix = _synth(tmp_path, n="24", t="50", clusters="6,2")
    if "weights" in config:
        tickers = [row[0] for row in _returns_rows(fix)[1:]]
        weights = _write_rows(tmp_path / "w.csv", [["ticker", "weight"], *zip(tickers, config["weights"])])
        config = {"weights": str(weights)}
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    signal = _write_signal(fix / "returns.csv", tmp_path / "e.csv", jitter=0.01)
    capsys.readouterr()
    assert run("--config", str(tmp_path / "cfg.json"), "overlay", "--returns", str(fix / "returns.csv"),
               "--classification", str(fix / "classification.csv"), "--expected-returns", str(signal),
               "--out", str(tmp_path / "o")) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_zero_fitted_variance_names_the_cluster(tmp_path, capsys):
    # at z_max = 1 a singleton's fitted variance (1 - z_max^2) d / b^2 is 0
    fix = _synth(tmp_path, n="24", t="50", clusters="6,2")
    rows = list(csv.reader((fix / "classification.csv").read_text().splitlines()))
    rows[5][1] = "solo"
    classification = _write_rows(tmp_path / "c.csv", rows)
    capsys.readouterr()
    assert run("benchmark", "--returns", str(fix / "returns.csv"), "--classification", str(classification),
               "--z-max", "1.0", "--out", str(tmp_path / "o")) == 3
    error = capsys.readouterr().err.splitlines()[-1]  # the line above warns of the singleton
    assert error.startswith("error: ") and "level-1 cluster 'solo'" in error


_MODEL_FLAGS = {"--returns", "--beta-mode", "--index-returns", "--beta-file", "--kappa-max", "--kappa-min",
                "--classification", "--z-min", "--z-max", "--mkt-fac", "--no-mkt-fac"}


@pytest.mark.parametrize("command, flags", [
    ((), {"--config"}),
    (("benchmark",), _MODEL_FLAGS | {"--weight-scale", "--out"}),
    (("overlay",), _MODEL_FLAGS | {"--expected-returns", "--weights", "--constraints", "--band-z", "--gamma-max",
                                   "--tol", "--residualize", "--no-residualize", "--out"}),
    (("synth",), {"--n", "--t", "--clusters", "--rho", "--market-rho", "--seed", "--out"}),
    (("betas",), {"--returns", "--beta-mode", "--index-returns", "--beta-file", "--kappa-max", "--kappa-min",
                  "--out"}),
])
def test_help_lists_each_flag(command, flags):
    done = subprocess.run([sys.executable, "-m", "nestbench", *command, "--help"], env=blas_threads_env(1),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", done.stdout)) == flags | {"--help"}


def test_traced_names_resolve():
    # perfbench/trace_layers.py wraps these names with getattr; a program
    # module that stops providing one breaks every traced benchmark run
    trace_layers = _load_by_path("perfbench", "trace_layers.py")
    cli = importlib.import_module("nestbench.cli")
    missing = [f"nestbench.cli.{attr}" for attr, _ in trace_layers._CLI_STAGES if not hasattr(cli, attr)]
    missing += [f"{module}.{attr}" for module, attr, _ in trace_layers._INNER
                if not hasattr(importlib.import_module(module), attr)]
    assert not missing, missing


def test_reference_port_loads_without_the_package(monkeypatch):
    # perfbench/checks.py loads tests/_reference.py in a process that cannot
    # import nestbench
    monkeypatch.setitem(sys.modules, "nestbench", None)
    assert callable(_load_by_path("tests", "_reference.py").reference_weights)
