import subprocess
import sys

import numpy as np
import pytest

from conftest import blas_threads_env
from _dense import DegeneratePortfolioVariance, betas_from_weights

from nestbench import (
    CovarianceMatrix,
    ReturnsPanel,
    sample_covariance,
    serial_betas,
)
from nestbench.errors import DegenerateBenchmark


def _panel(values, tickers=None):
    values = np.asarray(values, dtype=float)
    n, t = values.shape
    tickers = tuple(tickers or (f"S{i}" for i in range(n)))
    return ReturnsPanel(tickers, tuple(f"d{s}" for s in range(t)), values)


class TestSampleCovariance:
    def test_hand_computed_two_by_two(self):
        # rows (0.01, 0.03) and (0.02, 0.02): demeaned first row (-0.01, 0.01)
        # gives 2e-4 with the T-1 denominator; the constant row gives zeros
        cov = sample_covariance(_panel([[0.01, 0.03], [0.02, 0.02]]))
        np.testing.assert_allclose(cov.values, [[2e-4, 0.0], [0.0, 0.0]], atol=1e-18)

    def test_constant_row_is_zero(self):
        # dyadic constant so demeaning is exact
        cov = sample_covariance(_panel([[0.0625, 0.0625, 0.0625], [0.01, 0.02, 0.00]]))
        assert np.all(cov.values[0] == 0.0)
        assert np.all(cov.values[:, 0] == 0.0)

    def test_duplicate_row_symmetry(self):
        row = [0.01, -0.02, 0.03, 0.0]
        cov = sample_covariance(_panel([row, row]))
        assert cov.values[0, 0] == cov.values[1, 1] == cov.values[0, 1]

    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        values = rng.normal(0, 0.02, (5, 40))
        cov = sample_covariance(_panel(values))
        np.testing.assert_allclose(cov.values, np.cov(values), rtol=1e-13)


class TestSerialBetas:
    def test_identity_case(self):
        f = np.array([0.01, -0.02, 0.03, 0.0])
        beta = serial_betas(_panel([f, f, f]), f)
        np.testing.assert_allclose(beta, 1.0, rtol=1e-14)

    def test_affine_case(self):
        f = np.array([0.01, -0.02, 0.03, 0.0])
        beta = serial_betas(_panel([2 * f + 0.01, 2 * f + 0.01]), f)
        np.testing.assert_allclose(beta, 2.0, rtol=1e-13)

    def test_against_two_pass_covariance(self):
        rng = np.random.default_rng(42)
        values = rng.normal(0, 0.02, (3, 10))
        f = rng.normal(0, 0.015, 10)
        beta = serial_betas(_panel(values), f)
        # independent oracle: explicit two-pass covariance per stock
        f_mean = sum(f) / len(f)
        var_f = sum((x - f_mean) ** 2 for x in f)
        for i in range(3):
            r_mean = sum(values[i]) / len(f)
            cov_rf = sum((values[i, s] - r_mean) * (f[s] - f_mean) for s in range(len(f)))
            assert abs(beta[i] - cov_rf / var_f) <= 1e-12 * abs(beta[i])

    def test_degenerate_benchmark(self):
        with pytest.raises(DegenerateBenchmark):
            serial_betas(_panel([[0.01, 0.02], [0.0, 0.01]]), np.array([0.05, 0.05]))


class TestBetasFromWeights:
    def test_identity_covariance(self):
        cov = CovarianceMatrix(("A", "B"), np.eye(2))
        beta, sigma2 = betas_from_weights(cov, np.array([0.5, 0.5]))
        assert sigma2 == pytest.approx(0.5, rel=1e-15)
        np.testing.assert_allclose(beta, [1.0, 1.0], rtol=1e-15)

    def test_diagonal_covariance(self):
        cov = CovarianceMatrix(("A", "B"), np.diag([1.0, 4.0]))
        beta, sigma2 = betas_from_weights(cov, np.array([0.5, 0.5]))
        assert sigma2 == pytest.approx(1.25, rel=1e-15)
        np.testing.assert_allclose(beta, [0.4, 1.6], rtol=1e-15)

    def test_single_stock_benchmark(self):
        values = np.array([[2.0, 0.5, 0.1], [0.5, 1.0, 0.2], [0.1, 0.2, 3.0]])
        cov = CovarianceMatrix(("A", "B", "C"), values)
        beta, _ = betas_from_weights(cov, np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(beta, values[:, 0] / values[0, 0], rtol=1e-14)

    def test_nonpositive_variance(self):
        cov = CovarianceMatrix(("A", "B"), np.array([[1.0, -1.0], [-1.0, 1.0]]))
        with pytest.raises(DegeneratePortfolioVariance):
            betas_from_weights(cov, np.array([0.5, 0.5]))

    def test_weighted_betas_sum_to_one(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(7, 7))
        cov = CovarianceMatrix(tuple(f"S{i}" for i in range(7)), a @ a.T)
        w = rng.uniform(0.1, 1.0, 7)
        beta, _ = betas_from_weights(cov, w)
        assert abs(w @ beta - 1.0) <= 1e-12


def test_serial_and_weight_betas_agree():
    # regressing on the portfolio's own return series must reproduce the
    # covariance-based formula
    rng = np.random.default_rng(17)
    for _ in range(10):
        n, t = int(rng.integers(3, 12)), int(rng.integers(20, 80))
        values = rng.normal(0, 0.02, (n, t))
        panel = _panel(values)
        w = rng.uniform(0.2, 1.0, n)
        from_reg = serial_betas(panel, w @ values)
        from_cov, _ = betas_from_weights(sample_covariance(panel), w)
        np.testing.assert_allclose(from_reg, from_cov, rtol=1e-10)


def test_serial_betas_bytes_independent_of_blas_threads():
    # a panel large enough for BLAS to split a matrix-vector product across threads
    code = (
        "import sys, numpy as np\n"
        "from nestbench import ReturnsPanel, serial_betas\n"
        "rng = np.random.default_rng(0)\n"
        "n, t = 1500, 2500\n"
        "panel = ReturnsPanel(tuple(f'S{i}' for i in range(n)), tuple(f'd{s}' for s in range(t)),\n"
        "                     rng.normal(0.0, 0.02, (n, t)))\n"
        "sys.stdout.write(serial_betas(panel, rng.normal(0.0, 0.01, t)).tobytes().hex())\n"
    )
    outputs = [
        subprocess.run([sys.executable, "-c", code], env=blas_threads_env(threads), check=True,
                       capture_output=True, text=True, timeout=300).stdout
        for threads in (1, 2)
    ]
    assert outputs[0] == outputs[1]
