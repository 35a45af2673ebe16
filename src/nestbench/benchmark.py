"""Benchmark weight construction.

The production path turns a fitted nested model into strictly positive
weights through a product of per-level normalization factors; two independent
oracles (a dense symmetric solve and the general factor-model inverse) back
it in tests. Beta construction helpers live here too.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from .data_model import BetaVector, ReturnsPanel
from .errors import (
    DegenerateModel,
    InputError,
    InvalidBeta,
    InvalidVariance,
    SingularCovariance,
    SingularFactorSystem,
)
from .risk_model import RussianDollModel
from .stats_core import CovarianceMatrix, serial_betas
from .stats_core import sample_covariance  # noqa: F401  (perfbench/trace_layers.py wraps this name here)

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
    lambdas: tuple[np.ndarray, ...]  # aggregated loadings, levels 1..P+1

    def __post_init__(self):
        weights = np.array(self.weights, dtype=float)
        object.__setattr__(self, "weights", weights)
        if np.any(weights <= 0.0):
            raise DegenerateModel("benchmark weights must be strictly positive")
        if self.sigma_f2 <= 0.0:
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
        if self.kappa_max <= 0.0 or self.kappa_min <= 0.0:
            raise InputError("kappa_max and kappa_min must be positive")


def benchmark_weights(model: RussianDollModel) -> BenchmarkResult:
    """Weights of the long-only benchmark implied by a fitted model.

    Pure algebra on the model: per-cluster aggregated loadings are shrunk
    level by level, each stock's weight is beta over specific variance times
    the product of its ancestors' normalization factors, and the result is
    normalized so the weighted betas sum to one.
    """
    tree = model.tree
    beta = model.beta.values
    p = tree.n_levels

    lambdas: list[np.ndarray] = []
    lam = np.array([np.sum(beta[idx] ** 2 / model.xi2[idx]) for idx in tree.children(1)])
    lambdas.append(lam)
    for lvl in range(1, p + 1):
        shrunk = lam / (1.0 + model.zeta2[lvl - 1] * lam)
        if lvl < p:
            lam = np.array([shrunk[idx].sum() for idx in tree.children(lvl + 1)])
        else:
            lam = np.array([shrunk.sum()])
        lambdas.append(lam)

    k1 = tree.cluster_counts[0]
    ancestor = np.arange(k1)
    gamma = np.ones(k1)
    for lvl in range(1, p + 1):
        gamma /= 1.0 + model.zeta2[lvl - 1][ancestor] * lambdas[lvl - 1][ancestor]
        if lvl < p:
            ancestor = tree.parent_maps[lvl][ancestor]
    gamma = gamma / (1.0 + model.top_var * lambdas[p][0])

    inv_sigma2 = float(lambdas[0] @ gamma)
    if inv_sigma2 <= 0.0:
        raise DegenerateModel("implied benchmark variance is not positive")
    sigma_f2 = 1.0 / inv_sigma2
    weights = sigma_f2 * beta / model.xi2 * gamma[tree.parent_maps[0]]
    weights = weights / float(weights @ beta)
    return BenchmarkResult(tree.tickers, weights, sigma_f2, gamma, tuple(lambdas))


def benchmark_weights_oracle(
    gamma_cov: CovarianceMatrix | np.ndarray, beta: BetaVector | np.ndarray
) -> tuple[np.ndarray, float]:
    """Formal solution by a direct dense solve: w = sigma_f2 * Gamma^-1 beta.

    Deliberately ignorant of any factor structure; used to cross-check the
    factorized path.
    """
    g = gamma_cov.values if isinstance(gamma_cov, CovarianceMatrix) else np.asarray(gamma_cov, dtype=float)
    b = beta.values if isinstance(beta, BetaVector) else np.asarray(beta, dtype=float)
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise SingularCovariance("covariance is not positive-definite") from None
    x = np.linalg.solve(g, b)
    inv_sigma2 = float(b @ x)
    if inv_sigma2 <= 0.0:
        raise SingularCovariance("beta' Gamma^-1 beta is not positive")
    sigma_f2 = 1.0 / inv_sigma2
    return sigma_f2 * x, sigma_f2


@dataclass(frozen=True)
class GeneralFactorResult:
    """Weights for an explicit (loadings, factor covariance) model, with the
    intermediates the derivation runs through kept for verification."""

    weights: np.ndarray
    sigma_f2: float
    theta: float
    lam: np.ndarray
    q_matrix: np.ndarray = field(repr=False)
    upsilon: np.ndarray = field(repr=False)
    upsilon_tilde: np.ndarray = field(repr=False)


def general_factor_weights(
    xi2: np.ndarray,
    loadings: np.ndarray,
    factor_cov: np.ndarray,
    beta: BetaVector | np.ndarray,
) -> GeneralFactorResult:
    """Benchmark weights for Gamma = diag(xi2) + loadings @ factor_cov @ loadings'.

    Works entirely in factor space (K x K solves), so it doubles as an
    independent oracle for factorized constructions.
    """
    xi2 = np.asarray(xi2, dtype=float)
    b = beta.values if isinstance(beta, BetaVector) else np.asarray(beta, dtype=float)
    omega = np.asarray(loadings, dtype=float)
    if omega.ndim != 2 or omega.shape[0] != len(b):
        raise InputError(f"loadings shape {omega.shape} does not match {len(b)} stocks")
    if np.any(xi2 <= 0.0):
        raise InvalidVariance("specific variances must be strictly positive")
    n, k = omega.shape
    theta = float(np.sum(b**2 / xi2))
    if k == 0:
        sigma_f2 = 1.0 / theta
        weights = sigma_f2 * b / xi2
        empty = np.empty((0,))
        return GeneralFactorResult(weights, sigma_f2, theta, empty, np.empty((0, 0)), np.zeros(n), np.zeros(n))
    phi = np.asarray(factor_cov, dtype=float)
    if phi.shape != (k, k):
        raise InputError(f"factor covariance shape {phi.shape} does not match {k} factors")
    try:
        phi_inv = np.linalg.solve(phi, np.eye(k))
    except np.linalg.LinAlgError:
        raise SingularFactorSystem("factor covariance is singular") from None
    q = phi_inv + omega.T @ (omega / xi2[:, None])
    lam = omega.T @ (b / xi2)
    try:
        q_inv_lam = np.linalg.solve(q, lam)
    except np.linalg.LinAlgError:
        raise SingularFactorSystem("factor-space system Q is singular") from None
    upsilon = omega @ q_inv_lam
    inv_sigma2 = theta - float(lam @ q_inv_lam)
    if inv_sigma2 <= 0.0:
        raise DegenerateModel("implied benchmark variance is not positive")
    sigma_f2 = 1.0 / inv_sigma2
    weights = sigma_f2 * (b - upsilon) / xi2
    omega_tilde = (omega - np.outer(b, lam) / theta) / xi2[:, None]
    upsilon_tilde = omega_tilde @ q_inv_lam
    return GeneralFactorResult(weights, sigma_f2, theta, lam, q, upsilon, upsilon_tilde)


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
        if np.any(sigma <= 0.0):
            bad = panel.tickers[int(np.argmax(sigma <= 0.0))]
            raise InvalidBeta(f"zero sample volatility for {bad!r}")
        observed = serial_betas(panel, index_returns).beta / sigma
        median = float(np.median(observed))
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


def write_weights_csv(path: str | os.PathLike, result: BenchmarkResult, model: RussianDollModel) -> None:
    """Weights output: ticker, weight, beta, specific variance, cluster factor."""
    g0 = model.tree.parent_maps[0]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["ticker", "weight", "beta", "xi2", "gamma_cluster"])
        for i, ticker in enumerate(result.tickers):
            writer.writerow(
                [
                    ticker,
                    repr(float(result.weights[i])),
                    repr(float(model.beta.values[i])),
                    repr(float(model.xi2[i])),
                    repr(float(result.gamma[g0[i]])),
                ]
            )


def load_weights_csv(path: str | os.PathLike) -> tuple[tuple[str, ...], np.ndarray]:
    """Read back the ticker and weight columns of a weights CSV."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0][:2] != ["ticker", "weight"]:
        raise InputError(f"{path}: expected a weights CSV header")
    tickers = tuple(row[0] for row in rows[1:])
    weights = np.array([float(row[1]) for row in rows[1:]])
    return tickers, weights
