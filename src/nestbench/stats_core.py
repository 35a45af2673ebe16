"""Sample moments and the serial-regression beta machinery."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data_model import ReturnsPanel
from .errors import DegenerateBenchmark, InputError, InsufficientObservations

SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric N x N covariance with ticker labels."""

    tickers: tuple[str, ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        n = len(self.tickers)
        if values.shape != (n, n):
            raise InputError(f"covariance shape {values.shape} does not match {n} tickers")
        if not np.all(np.isfinite(values)):
            raise InputError("non-finite covariance entries")
        scale = np.abs(values).max() or 1.0
        if np.abs(values - values.T).max() > SYMMETRY_RTOL * scale:
            raise InputError("covariance is not symmetric")
        if np.any(np.diag(values) < 0.0):
            raise InputError("negative variance on the diagonal")
        values.setflags(write=False)

    @property
    def variances(self) -> np.ndarray:
        return np.diag(self.values)


def sample_covariance(panel: ReturnsPanel) -> CovarianceMatrix:
    """Sample covariance of the panel rows, T-1 denominator."""
    t = panel.n_periods
    if t < 2:
        raise InsufficientObservations(t)
    centered = panel.values - panel.values.mean(axis=1, keepdims=True)
    cov = centered @ centered.T / (t - 1)
    cov = 0.5 * (cov + cov.T)
    return CovarianceMatrix(panel.tickers, cov)


def serial_betas(panel: ReturnsPanel, bench_returns: np.ndarray) -> np.ndarray:
    """Slopes of each stock's return series regressed on ``bench_returns``
    with intercept."""
    f = np.asarray(bench_returns, dtype=float)
    if f.shape != (panel.n_periods,):
        raise InputError(f"benchmark series has length {f.shape}, expected {panel.n_periods}")
    f_centered = f - f.mean()
    # einsum sums in a fixed order; BLAS gemv/dot results change with the
    # BLAS thread count once the panel is large enough to be split
    var_f = float(np.einsum("s,s->", f_centered, f_centered))
    if var_f <= 0.0:
        raise DegenerateBenchmark("benchmark returns have zero sample variance")
    centered = panel.values - panel.values.mean(axis=1, keepdims=True)
    return np.einsum("is,s->i", centered, f_centered) / var_f

