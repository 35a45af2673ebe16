"""Dense references the tests check the program against.

They know nothing of the nested structure: a direct solve for the benchmark
weights, the general factor-model inverse, betas from explicit weights, a
dense stand-in for the nested model's ``matvec``/``solve`` interface, the
level fit on one cluster given by its covariance block, and the overlay's
monotone walk from w = 0 alone, which the active-set solver must match. They
live apart from ``_reference.py``, which the benchmark loads on its own,
without the package on the path.
"""

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from nestbench import BetaVector, ThetaFitConfig, fit_theta
from nestbench.errors import (
    DegenerateModel,
    InputError,
    InvalidVariance,
    ModelError,
    NoConvergence,
    SingularCovariance,
)
from nestbench.overlay import _cold_start, _solve_equality_qp, _wrong_signs


class DegeneratePortfolioVariance(ModelError):
    """w'Cw <= 0; only possible for non-positive-semidefinite input."""


def benchmark_weights_oracle(gamma_cov: np.ndarray, beta: BetaVector | np.ndarray) -> tuple[np.ndarray, float]:
    """Formal solution by a direct dense solve: w = sigma_f2 * Gamma^-1 beta.

    Deliberately ignorant of any factor structure; used to cross-check the
    factorized path.
    """
    g = np.asarray(gamma_cov, dtype=float)
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
        raise SingularCovariance("factor covariance is singular") from None
    q = phi_inv + omega.T @ (omega / xi2[:, None])
    lam = omega.T @ (b / xi2)
    try:
        q_inv_lam = np.linalg.solve(q, lam)
    except np.linalg.LinAlgError:
        raise SingularCovariance("factor-space system Q is singular") from None
    upsilon = omega @ q_inv_lam
    inv_sigma2 = theta - float(lam @ q_inv_lam)
    if inv_sigma2 <= 0.0:
        raise DegenerateModel("implied benchmark variance is not positive")
    sigma_f2 = 1.0 / inv_sigma2
    weights = sigma_f2 * (b - upsilon) / xi2
    omega_tilde = (omega - np.outer(b, lam) / theta) / xi2[:, None]
    upsilon_tilde = omega_tilde @ q_inv_lam
    return GeneralFactorResult(weights, sigma_f2, theta, lam, q, upsilon, upsilon_tilde)


def betas_from_weights(cov: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, float]:
    """Betas of every stock against the portfolio ``weights`` holds.

    Returns ``(beta, sigma_f2)`` with ``beta = C w / (w' C w)`` and the
    portfolio variance ``sigma_f2 = w' C w``.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(cov),):
        raise InputError(f"weights have length {w.shape}, expected {len(cov)}")
    cw = cov @ w
    sigma_f2 = float(w @ cw)
    if sigma_f2 <= 0.0:
        raise DegeneratePortfolioVariance(f"portfolio variance {sigma_f2} is not positive")
    return cw / sigma_f2, sigma_f2


def fit_block(block, loadings, cfg=ThetaFitConfig()) -> float:
    """``fit_theta`` on one cluster whose members' covariance block is ``block``."""
    x = np.atleast_2d(np.asarray(block, dtype=float))
    one_cluster = np.zeros(len(x), dtype=np.int64)
    return float(fit_theta(np.linalg.cholesky(x), np.diag(x), loadings, one_cluster, cfg)[0])


class DenseCovariance:
    """An explicit covariance behind the nested model's ``matvec`` and
    ``solve`` interface, so the overlay runs on hand-written matrices. Its
    ``tree`` labels stock i as ``S<i>``, so refusals name a ticker."""

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=float)
        self.tree = SimpleNamespace(tickers=tuple(f"S{i}" for i in range(len(self.matrix))))

    @property
    def n_stocks(self) -> int:
        return self.matrix.shape[0]

    def matvec(self, v):
        return self.matrix @ np.asarray(v, dtype=float)

    def solve(self, v, free=None):
        v = np.asarray(v, dtype=float)
        if free is None:
            return np.linalg.solve(self.matrix, v)
        out = np.zeros(v.shape)
        out[free] = np.linalg.solve(self.matrix[np.ix_(free, free)], v[free])
        return out


def dense_of(model) -> np.ndarray:
    """The covariance behind ``model`` as an explicit matrix, one matvec per
    column."""
    return np.column_stack([model.matvec(col) for col in np.eye(model.n_stocks)])


def monotone_walk(problem, gamma_prime: float) -> np.ndarray:
    """Iterative active-set clamping from w = 0: solve the equality-constrained
    quadratic on the free set; while its solution breaks bounds, step toward
    it from the current feasible point, clamp every coordinate that hits its
    bound, and re-solve; once feasible, release the active bound with the
    worst wrong-signed multiplier and repeat until the active set is stable.
    The stepping keeps the objective monotone, which rules out cycling."""
    n = problem.n_stocks
    curvature = 2.0 / gamma_prime  # the Hessian is curvature * Gamma
    e = problem.expected_returns
    q = problem.constraints
    lower, upper, near, at_lower, at_upper = _cold_start(problem)
    max_iter = 100 * (n + 1)
    w = np.zeros(n)  # always feasible: bounds straddle zero and Q'0 = 0
    iterations = 0
    while True:
        while True:
            iterations += 1
            if iterations > max_iter:
                raise NoConvergence(max_iter)
            free = ~(at_lower | at_upper)
            w_fixed = np.where(at_lower, lower, 0.0) + np.where(at_upper, upper, 0.0)
            target, mu, null = _solve_equality_qp(problem.model, curvature, e, q, free, w_fixed)
            viol_lo = free & (target < lower - near)
            viol_hi = free & (target > upper + near)
            if not viol_lo.any() and not viol_hi.any():
                w = target
                break
            step = target - w
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio_lo = np.where(viol_lo, (lower - w) / step, np.inf)
                ratio_hi = np.where(viol_hi, (upper - w) / step, np.inf)
            alpha = max(0.0, min(1.0, float(np.minimum(ratio_lo, ratio_hi).min())))
            w = w + alpha * step
            hit_lo = free & (step < 0.0) & (w - lower <= near)
            hit_hi = free & (step > 0.0) & (upper - w <= near)
            if not hit_lo.any() and not hit_hi.any():
                # roundoff left the blocking coordinate marginally inside;
                # clamp the worst violator outright
                excess = np.where(viol_lo, lower - target, 0.0) + np.where(viol_hi, target - upper, 0.0)
                worst = int(np.argmax(excess))
                hit_lo[worst] = viol_lo[worst]
                hit_hi[worst] = viol_hi[worst]
            at_lower |= hit_lo
            at_upper |= hit_hi
            w = np.where(hit_lo, lower, w)
            w = np.where(hit_hi, upper, w)

        wrong = _wrong_signs(problem, curvature, w, mu, null, at_lower, at_upper)
        if not wrong.any():
            return w
        worst = int(np.argmax(wrong))
        at_lower[worst] = False
        at_upper[worst] = False
