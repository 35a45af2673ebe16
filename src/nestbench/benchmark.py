"""Benchmark weight construction.

A fitted nested model turns into strictly positive weights through one
nested pass, a product of per-level normalization factors. Beta
construction, serial-regression betas among it, lives here too.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .data_model import BetaVector, ReturnsPanel, write_csv
from .errors import DegenerateBenchmark, DegenerateModel, InputError, InvalidBeta, require_each
from .risk_model import RussianDollModel
from .risk_model import sample_covariance  # noqa: F401  (perfbench/trace_layers.py wraps this name here)

BETA_MODES = ("proportional-to-sigma", "observed-capped", "explicit")

# hard positivity floor for capped betas, as a fraction of the median
CAP_FLOOR_FRACTION = 0.05


@dataclass(frozen=True)
class BenchmarkResult:
    """Positive weights plus the quantities the construction ran through."""

    tickers: tuple[str, ...]
    weights: np.ndarray
    sigma_f2: float
    gamma: np.ndarray  # one normalization factor per level-1 cluster

    def __post_init__(self):
        weights = np.array(self.weights, dtype=float)
        object.__setattr__(self, "weights", weights)
        require_each(weights > 0.0, lambda i: DegenerateModel(
            f"benchmark weights must be strictly positive; {self.tickers[i]!r} has {weights[i]}"))
        if not self.sigma_f2 > 0.0:
            raise DegenerateModel("benchmark variance must be positive")
        weights.setflags(write=False)


@dataclass(frozen=True)
class BetaSpec:
    """How to produce betas: from volatilities, from capped observed betas,
    or passed through explicitly."""

    mode: str = "proportional-to-sigma"
    kappa_max: float = 1.0
    kappa_min: float = 1.0
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in BETA_MODES:
            raise InputError(f"unknown beta mode {self.mode!r}, expected one of {BETA_MODES}")
        if not (self.kappa_max > 0.0 and self.kappa_min > 0.0):  # refuses NaN too
            raise InputError("kappa_max and kappa_min must be positive")


def benchmark_weights(model: RussianDollModel) -> BenchmarkResult:
    """Weights of the long-only benchmark implied by a fitted model.

    Pure algebra on the model: w = sigma_f2 * Gamma^-1 beta with
    sigma_f2 = 1 / beta' Gamma^-1 beta, so the weighted betas sum to one.
    Gamma^-1 beta is the product formula: each stock's beta over its
    specific variance times ``gamma``, the product of one normalization
    factor per ancestor cluster, one value per level-1 cluster.
    """
    beta = model.beta.values
    g0 = beta / model.xi2
    _, gamma = model.cluster_factors(g0, g0[None])
    x = g0 * gamma[model.tree.parent_maps[0]]
    inv_sigma2 = float(np.einsum("i,i->", beta, x))
    if not inv_sigma2 > 0.0:
        raise DegenerateModel("implied benchmark variance is not positive")
    return BenchmarkResult(model.tree.tickers, x / inv_sigma2, 1.0 / inv_sigma2, gamma)


def serial_betas(panel: ReturnsPanel, bench_returns: np.ndarray) -> np.ndarray:
    """Slopes of each stock's return series regressed on ``bench_returns``
    with intercept."""
    f = np.asarray(bench_returns, dtype=float)
    if f.shape != (panel.n_periods,):
        raise InputError(f"benchmark series has length {f.shape}, expected {panel.n_periods}")
    f_centered = f - f.mean()
    # einsum sums in a fixed order, where BLAS gemv/dot results change with the thread count
    # once the panel is split; f_centered sums to zero, so the raw panel gives the centred numerator
    var_f = float(np.einsum("s,s->", f_centered, f_centered))
    if var_f <= 0.0:
        raise DegenerateBenchmark("benchmark returns have zero sample variance")
    return np.einsum("is,s->i", panel.values, f_centered) / var_f


def make_betas(
    panel: ReturnsPanel,
    spec: BetaSpec = BetaSpec(),
    index_returns: np.ndarray | None = None,
) -> BetaVector:
    """Produce a positive beta vector per the spec's mode.

    proportional-to-sigma sets beta to the sample volatility (standardized
    beta identically 1). observed-capped regresses on ``index_returns``,
    standardizes by volatility, clamps outliers to median +/- kappa * MAD
    (mean absolute deviation about the median) with a positivity floor, and
    rescales back. explicit passes ``spec.values`` through validation.
    """
    sigma = panel.values.std(axis=1, ddof=1)
    if spec.mode == "proportional-to-sigma":
        values = sigma
    elif spec.mode == "observed-capped":
        if index_returns is None:
            raise InputError("observed-capped mode requires index returns")
        require_each(sigma > 0.0, lambda i: InvalidBeta(f"zero sample volatility for {panel.tickers[i]!r}"))
        observed = serial_betas(panel, index_returns) / sigma
        median = _median(observed)
        if median <= 0.0:
            raise InvalidBeta(f"median standardized beta {median:.4g} is not positive")
        mad = float(np.mean(np.abs(observed - median)))
        lo = max(median - spec.kappa_min * mad, CAP_FLOOR_FRACTION * median)
        hi = median + spec.kappa_max * mad
        values = np.clip(observed, lo, hi) * sigma
    else:
        if spec.values is None:
            raise InputError("explicit mode requires spec.values")
        values = np.asarray(spec.values, dtype=float)
    return BetaVector(panel.tickers, values)


def _median(values: np.ndarray) -> float:
    """``np.median``'s bits, signed zeros too, without the ``numpy.ma`` import
    of its NaN check: the same partition, then the mean of the middle values."""
    lo, hi = (len(values) - 1) // 2, len(values) // 2
    return float(np.partition(values, [*range(lo, hi + 1), -1])[lo : hi + 1].mean())


def write_weights_csv(path: str | os.PathLike, result: BenchmarkResult, model: RussianDollModel) -> None:
    """Weights output: ticker, weight, beta, specific variance, cluster factor."""
    write_csv(
        path,
        ("ticker", "weight", "beta", "xi2", "gamma_cluster"),
        (result.tickers, result.weights, model.beta.values, model.xi2,
         result.gamma[model.tree.parent_maps[0]]),
    )
