"""Market-outperformance overlay.

A dollar-neutral sleeve is optimized against the nested risk model under
box bounds and homogeneous linear constraints, its risk-aversion scale tuned
by golden-section search on the combined portfolio's expected Sharpe ratio,
and the sleeve added to the benchmark so the total stays long-only. The
model enters only through its O(N + P K1) ``matvec`` and ``solve``; no N x N
matrix is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateConstraints,
    DegenerateRegression,
    InputError,
    LongOnlyViolation,
    NoConvergence,
    SingularCovariance,
    SolverError,
    require_each,
)
from .risk_model import RussianDollModel

CONSTRAINT_MODES = ("dollar-neutral", "zero-expected-correlation", "orthogonal-to-benchmark")

INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

_BOUND_TOL = 1e-12

# eigenvalues of the equilibrated Schur matrix below this share of the largest
# count as zero: those constraint combinations vanish on the free rows
_RANK_TOL = 1e-12

# an active set whose free rows cannot meet Q'w = 0 on their own must meet it
# to this share of the sum of its terms' magnitudes: with boxes a few
# _FEAS_TOL wide, one that misses can still come within _FEAS_TOL, at a
# point a box width from the optimum
_EQ_RTOL = 1e-12

# kkt_check: optimality relative to the gradient scale, feasibility absolute
_KKT_TOL = 1e-8
_FEAS_TOL = 1e-10
_ACTIVE_TOL = 1e-9  # share of the box width
_GAMMA_MAX_MULTIPLE = 100.0  # default_gamma_max: bracket end over first bind


@dataclass(frozen=True)
class OverlayProblem:
    """One optimization instance: signal, risk model, benchmark, box, constraints."""

    expected_returns: np.ndarray
    model: RussianDollModel = field(repr=False)
    w_star: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    constraints: np.ndarray = field(repr=False)  # N x p, first column all ones

    def __post_init__(self):
        e = np.array(self.expected_returns, dtype=float)
        w_star = np.array(self.w_star, dtype=float)
        lower = np.array(self.lower, dtype=float)
        upper = np.array(self.upper, dtype=float)
        q = np.array(self.constraints, dtype=float)
        n = len(e)
        if self.model.n_stocks != n:
            raise InputError(f"model has {self.model.n_stocks} stocks, expected {n}")
        for name, arr in (("w_star", w_star), ("lower", lower), ("upper", upper)):
            if arr.shape != (n,):
                raise InputError(f"{name} has shape {arr.shape}, expected {(n,)}")
        if q.ndim != 2 or q.shape[0] != n or q.shape[1] < 1:
            raise InputError(f"constraint matrix has shape {q.shape}, expected ({n}, p)")
        tickers = self.model.tree.tickers
        for name, arr in (("expected return", e), ("benchmark weight", w_star),
                          ("lower bound", lower), ("upper bound", upper)):
            require_each(np.isfinite(arr), lambda i: InputError(f"{name} of stock {tickers[i]!r} is not finite"))
        require_each(w_star > 0.0,
                     lambda i: InputError(f"benchmark weight of stock {tickers[i]!r} is not strictly positive"))
        if abs(w_star.sum() - 1.0) > 1e-8:
            raise InputError("benchmark weights must sum to 1 (renormalize first)")
        require_each((lower <= 0.0) & (upper >= 0.0),
                     lambda i: InputError(f"bounds of stock {tickers[i]!r} break lower <= 0 <= upper"))
        require_each(lower >= -w_star - 1e-12, lambda i: InputError(
            f"lower bound of stock {tickers[i]!r} is below minus its benchmark weight"))
        if not np.allclose(q[:, 0], 1.0):
            raise InputError("first constraint column must be the unit vector (dollar neutrality)")
        svals = np.linalg.svd(q, compute_uv=False)
        if q.shape[1] > n or svals[-1] <= 1e-10 * svals[0]:  # more columns than stocks: dependent
            raise DegenerateConstraints("constraint columns are linearly dependent")
        for name, arr in (("expected_returns", e), ("w_star", w_star),
                          ("lower", lower), ("upper", upper), ("constraints", q)):
            object.__setattr__(self, name, arr)
            arr.setflags(write=False)

    @property
    def n_stocks(self) -> int:
        return len(self.expected_returns)

    @property
    def pinned(self) -> np.ndarray:
        """Boxes no wider than the bound tolerance: these weights never move."""
        return self.upper - self.lower <= _BOUND_TOL


@dataclass(frozen=True)
class KKTReport:
    """Post-hoc optimality certificate for one solve."""

    ok: bool
    stationarity: float
    multiplier_violation: float
    eq_residual: float
    bound_violation: float
    active_lower: tuple[int, ...]
    active_upper: tuple[int, ...]
    worst: str = ""  # the residual with the largest share of its tolerance, and both


@dataclass(frozen=True)
class CombinedPortfolio:
    weights: np.ndarray
    rho: float | None


@dataclass(frozen=True)
class OverlayResult:
    """Tuned overlay: sleeve, combined weights and tuning diagnostics."""

    w_prime: np.ndarray
    gamma_prime: float
    combined: np.ndarray
    sharpe_zero: float
    sharpe_opt: float
    rho: float | None
    bracket_saturated: bool
    active_lower: tuple[int, ...]
    active_upper: tuple[int, ...]
    eq_residual: float


def check_modes(modes) -> None:
    """Raise ``InputError`` naming every mode outside ``CONSTRAINT_MODES``."""
    unknown = set(modes) - set(CONSTRAINT_MODES)
    if unknown:
        raise InputError(f"unknown constraint modes: {sorted(unknown)}")


def build_constraints(modes, model: RussianDollModel, w_star: np.ndarray) -> np.ndarray:
    """Assemble the constraint matrix for the requested neutrality modes:
    the dollar-neutrality unit column first, Gamma w_star for zero expected
    correlation, w_star for benchmark orthogonality. ``OverlayProblem``
    refuses columns that are linearly dependent."""
    modes = set(modes)
    check_modes(modes)
    w = np.asarray(w_star, dtype=float)
    columns = [np.ones(len(w))]
    if "zero-expected-correlation" in modes:
        columns.append(model.matvec(w))
    if "orthogonal-to-benchmark" in modes:
        columns.append(w)
    return np.column_stack(columns)


def make_overlay_problem(
    expected_returns: np.ndarray,
    model: RussianDollModel,
    w_star: np.ndarray,
    band: float = 0.5,
    lower: np.ndarray | None = None,
    upper: np.ndarray | None = None,
    modes=("dollar-neutral",),
) -> OverlayProblem:
    """Normalize the benchmark, default the bounds to a percentage band of
    it, assemble constraints, and validate the lot."""
    w = np.asarray(w_star, dtype=float)
    if w.shape != (model.n_stocks,):
        raise InputError(f"w_star has shape {w.shape}, expected {(model.n_stocks,)}")
    # checked before normalizing, which spreads a NaN and makes all-negative weights positive
    require_each((0.0 < w) & (w < math.inf), lambda i: InputError(
        f"benchmark weight of stock {model.tree.tickers[i]!r} is not finite and strictly positive"))
    w = w / w.sum()
    if (lower is None or upper is None) and not 0.0 < band < math.inf:
        raise InputError(f"band must be positive and finite, got {band}")
    if lower is None:
        lower = -band * w if band < 1.0 else -w
    if upper is None:
        upper = band * w
    q = build_constraints(modes, model, w)
    return OverlayProblem(np.asarray(expected_returns, dtype=float), model, w, lower, upper, q)


def residualize(expected_returns: np.ndarray, w_star: np.ndarray) -> np.ndarray:
    """Residuals of a no-intercept regression of the signal on the benchmark
    weights; kills the component that would correlate the sleeve with the
    benchmark."""
    e = np.asarray(expected_returns, dtype=float)
    w = np.asarray(w_star, dtype=float)
    denom = float(_dot(w, w))
    if denom <= 0.0:
        raise DegenerateRegression("sum of squared benchmark weights is not positive")
    return e - float(_dot(w, e)) / denom * w


def optimize_mvo(problem: OverlayProblem, gamma_prime: float, start: np.ndarray | None = None) -> np.ndarray:
    """Maximize E'w - (1/gamma') w'Gamma w over the box, subject to Q'w = 0.

    Each iteration solves on the free set with the active coordinates at
    their bounds, and stops once no free coordinate breaks its box and no
    active bound has a wrong-signed multiplier. The first steps are
    primal-dual active-set steps (Hintermueller, Ito and Kunisch, SIAM J.
    Optim. 13, 2002), which clamp and release in blocks. They begin from the
    active set of w = 0, or, given ``start`` (say the solution at a nearby
    gamma'), with every coordinate of ``start`` that sits exactly on a bound
    active there; the result depends on the final active set alone. Gamma
    is not an M-matrix, so if the steps revisit an active set, or stop on
    one where Q'w = 0 is out of reach, the loop walks from ``start`` if it is
    feasible, else from w = 0: it steps toward a solution that breaks bounds
    only as far as the first bound it hits, and once feasible releases the
    single worst wrong-signed bound, so the objective rises monotonically and
    no set recurs. Both rules share 100 (N + 1) iterations, then NoConvergence.
    """
    if gamma_prime <= 0.0:
        raise InputError("gamma_prime must be positive")
    curvature = 2.0 / gamma_prime  # the Hessian is curvature * Gamma
    q = problem.constraints
    lower, upper, near, at_lower, at_upper = _cold_start(problem)
    feasible_start = None  # neither the box nor Q'w = 0 depends on gamma'
    if start is not None:
        at_lower |= start == lower
        at_upper = (start == upper) & ~at_lower
        if np.all((lower <= start) & (start <= upper)) and np.abs(_dot(q, start)).max() <= _FEAS_TOL:
            feasible_start = (start, at_lower.copy(), at_upper.copy())
    max_iter = 100 * (problem.n_stocks + 1)
    seen, walking = set(), False
    for _ in range(max_iter):
        if not walking:
            key = (at_lower.tobytes(), at_upper.tobytes())
            if key in seen:
                walking = True
                # else from w = 0, feasible as bounds straddle zero and Q'0 = 0
                w, at_lower, at_upper = feasible_start or (np.zeros(problem.n_stocks), *_cold_start(problem)[3:])
            seen.add(key)
        free = ~(at_lower | at_upper)
        w_fixed = np.where(at_lower, lower, 0.0) + np.where(at_upper, upper, 0.0)
        target, mu, null = _solve_equality_qp(problem.model, curvature, problem.expected_returns, q, free, w_fixed)
        clamp_lo, clamp_hi = free & (target < lower - near), free & (target > upper + near)
        if walking and (clamp_lo.any() or clamp_hi.any()):
            step = target - w
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio_lo = np.where(clamp_lo, (lower - w) / step, np.inf)
                ratio_hi = np.where(clamp_hi, (upper - w) / step, np.inf)
            alpha = max(0.0, min(1.0, float(np.minimum(ratio_lo, ratio_hi).min())))
            w = w + alpha * step
            hit_lo = free & (step < 0.0) & (w - lower <= near)
            hit_hi = free & (step > 0.0) & (upper - w <= near)
            if not hit_lo.any() and not hit_hi.any():
                # roundoff left the blocking coordinate marginally inside: clamp the worst violator
                excess = np.where(clamp_lo, lower - target, 0.0) + np.where(clamp_hi, target - upper, 0.0)
                worst = int(np.argmax(excess))
                hit_lo[worst], hit_hi[worst] = clamp_lo[worst], clamp_hi[worst]
            at_lower |= hit_lo
            at_upper |= hit_hi
            w = np.where(hit_lo, lower, np.where(hit_hi, upper, w))
            continue
        # the multipliers are read only where this step may stop or release
        wrong = _wrong_signs(problem, curvature, target, mu, null, at_lower, at_upper)
        release = wrong > 0.0
        if not (release | clamp_lo | clamp_hi).any() and (walking or _meets_constraints(q, target, null, w_fixed)):
            return target
        if walking:
            w = target
            worst = int(np.argmax(wrong))
            at_lower[worst] = at_upper[worst] = False
        else:
            at_lower = (at_lower & ~release) | clamp_lo
            at_upper = (at_upper & ~release) | clamp_hi
    raise NoConvergence(max_iter)


def _cold_start(problem: OverlayProblem):
    """The solvers' bounds, the distance within which each counts as reached,
    and the lower- and upper-active sets at w = 0.

    Pinned weights hold at 0, which keeps w = 0 feasible however their box
    straddles it. A bound counts as reached within _BOUND_TOL of the box
    width: an absolute tolerance would move coordinates of narrow boxes by a
    good share of their width on clamping, and that drift breaks Q'w = 0
    when too few coordinates are free to absorb it.
    """
    lower = np.where(problem.pinned, 0.0, problem.lower)
    upper = np.where(problem.pinned, 0.0, problem.upper)
    near = _BOUND_TOL * (upper - lower)
    return lower, upper, near, problem.pinned.copy(), np.zeros(problem.n_stocks, dtype=bool)


def _meets_constraints(q, w, null, w_fixed):
    """Whether Q'w = 0 holds within _FEAS_TOL and, where the free rows leave
    directions of mu open (``null``) so that the fixed rows must meet it on
    their own, also to rounding. Fixed rows that all hold 0 add nothing to
    Q'w; w is then often zero only to rounding, where no relative test can
    pass."""
    residual = np.abs(_dot(q, w))
    return residual.max() <= _FEAS_TOL and (
        not null.shape[1] or not w_fixed.any()
        or bool(np.all(residual <= _EQ_RTOL * _dot(np.abs(q), np.abs(w)))))


def _wrong_signs(problem, curvature, w, mu, null, at_lower, at_upper):
    """|reduced gradient| at the active bounds whose multipliers have the
    wrong sign, which releasing would improve; 0 everywhere else."""
    e = problem.expected_returns
    q = problem.constraints
    hw = curvature * problem.model.matvec(w)
    grad = e - hw
    reduced = grad - np.einsum("ij,j->i", q, mu)
    if null.shape[1]:
        # the free rows leave these multipliers open: fit them to the
        # active rows, so no bound is released for want of a better mu
        rows = (at_lower | at_upper) & ~problem.pinned
        fit, *_ = np.linalg.lstsq(np.einsum("ij,jk->ik", q[rows], null), reduced[rows], rcond=None)
        reduced = grad - np.einsum("ij,j->i", q, mu + np.einsum("ij,j->i", null, fit))
    tiny = 1e-11 * max(1.0, float(np.abs(e).max()), float(np.abs(hw).max()))
    wrong = (at_lower & (reduced > tiny)) | (at_upper & (reduced < -tiny))
    return np.where(wrong & ~problem.pinned, np.abs(reduced), 0.0)


def _solve_equality_qp(model, curvature, e, q, free, w_fixed):
    """Minimize the quadratic over the free coordinates with the active ones
    fixed, subject to Q'w = 0, with H = curvature * Gamma.

    w_F = a - Y mu, with a = H_FF^-1 (e - H w_fixed)_F and Y = H_FF^-1 Q_F
    from one nested solve, leaves the p x p Schur system S mu = Q'(a + w_fixed),
    S = Q_F' Y. The eigenpairs of D S D, D = diag(S)^-1/2, give B = D V with
    B'SB = diag(lam) by construction, so S^-1 = B diag(1/lam) B' needs no
    solve. Directions with lam zero to rounding, left open by the free rows
    of Q, are returned as ``null``; one refinement pass restores Q'w = 0.
    """
    p = q.shape[1]
    if not free.any():
        return w_fixed.copy(), np.zeros(p), np.eye(p)
    r = e - curvature * model.matvec(w_fixed)
    ay = model.solve(np.column_stack([r, q]), free) / curvature
    a, y = ay[:, 0], ay[:, 1:]
    schur = np.einsum("ij,ik->jk", q, y)
    scale = 1.0 / np.sqrt(np.diag(schur))
    lam, vec = np.linalg.eigh(scale[:, None] * schur * scale)
    keep = lam > _RANK_TOL * lam[-1]
    basis = scale[:, None] * vec
    inverse = np.einsum("ik,k,jk->ij", basis[:, keep], 1.0 / lam[keep], basis[:, keep])
    mu = np.einsum("ij,j->i", inverse, _dot(q, a + w_fixed))
    w = w_fixed + a - np.einsum("ij,j->i", y, mu)
    refine = np.einsum("ij,j->i", inverse, _dot(q, w))
    return w - np.einsum("ij,j->i", y, refine), mu + refine, basis[:, ~keep]


def _dot(u, v):
    """u' v for an N-vector v and an N-vector or N x p matrix u, with every
    N-long sum in a fixed order, whatever the BLAS thread count."""
    return np.einsum("i...,i->...", u, v)


def kkt_check(problem: OverlayProblem, gamma_prime: float, w_prime: np.ndarray) -> KKTReport:
    """Verify the optimality certificate of a candidate solution.

    On the free set the objective gradient must lie in the constraint span;
    at an upper-active coordinate the reduced gradient must be >= 0, at a
    lower-active one <= 0. A coordinate is active within _ACTIVE_TOL of
    its box width from a bound, so narrow boxes do not count interior
    coordinates as active; zero-width boxes are pinned and carry no sign.
    """
    w = np.asarray(w_prime, dtype=float)
    grad = problem.expected_returns - (2.0 / gamma_prime) * problem.model.matvec(w)
    q = problem.constraints
    scale = max(1.0, float(np.abs(grad).max()))
    width = problem.upper - problem.lower
    pinned = problem.pinned
    at_lower = pinned | (w - problem.lower <= _ACTIVE_TOL * width)
    at_upper = pinned | (problem.upper - w <= _ACTIVE_TOL * width)
    free = ~(at_lower | at_upper)
    fit = free if free.any() else ~pinned
    mu, *_ = np.linalg.lstsq(q[fit, :], grad[fit], rcond=None)
    reduced = grad - np.einsum("ij,j->i", q, mu)
    stationarity = float(np.abs(reduced[free]).max()) if free.any() else 0.0
    lo_viol = np.where(at_lower & ~pinned, np.maximum(reduced, 0.0), 0.0)
    hi_viol = np.where(at_upper & ~pinned, np.maximum(-reduced, 0.0), 0.0)
    multiplier_violation = float(np.maximum(lo_viol, hi_viol).max())
    eq_residual = float(np.abs(_dot(q, w)).max())
    bound_violation = float(
        np.maximum(np.maximum(problem.lower - w, w - problem.upper), 0.0).max()
    )
    residuals = {  # name: (value, tolerance)
        "stationarity": (stationarity, _KKT_TOL * scale),
        "multiplier violation": (multiplier_violation, _KKT_TOL * scale),
        "equality residual": (eq_residual, _FEAS_TOL),
        "bound violation": (bound_violation, _FEAS_TOL),
    }
    worst = max(residuals, key=lambda name: residuals[name][0] / residuals[name][1])
    return KKTReport(
        all(value <= tol for value, tol in residuals.values()),
        stationarity,
        multiplier_violation,
        eq_residual,
        bound_violation,
        tuple(np.flatnonzero(at_lower & ~pinned)),
        tuple(np.flatnonzero(at_upper & ~pinned)),
        "{} {:.3g} against a tolerance of {:.3g}".format(worst, *residuals[worst]),
    )


def sharpe_ratio(problem: OverlayProblem, w_prime: np.ndarray) -> float:
    """Expected Sharpe ratio of benchmark plus sleeve under the overlay model."""
    w = problem.w_star + w_prime
    variance = float(_dot(w, problem.model.matvec(w)))
    if variance <= 0.0:
        raise SingularCovariance("combined portfolio variance is not positive")
    return float(_dot(problem.expected_returns, w)) / math.sqrt(variance)


def default_gamma_max(problem: OverlayProblem) -> float:
    """Bracket upper end: the bound-free sleeve grows linearly with the
    risk-aversion scale, so take _GAMMA_MAX_MULTIPLE times the scale at
    which the first bound binds."""
    free = np.ones(problem.n_stocks, dtype=bool)
    direction, *_ = _solve_equality_qp(problem.model, 2.0, problem.expected_returns,
                                      problem.constraints, free, np.zeros(problem.n_stocks))
    tiny = 1e-14 * max(1.0, float(np.abs(direction).max()))
    rising = (direction > tiny) & (problem.upper > 0.0)
    falling = (direction < -tiny) & (problem.lower < 0.0)
    blocking = ~problem.pinned & (rising | falling)
    if not blocking.any():
        return 1.0
    bound = np.where(rising, problem.upper, problem.lower)
    return _GAMMA_MAX_MULTIPLE * float((bound[blocking] / direction[blocking]).min())


def tune_gamma(
    problem: OverlayProblem,
    gamma_max: float | None = None,
    tol: float = 1e-4,
) -> OverlayResult:
    """Golden-section search of the combined Sharpe ratio over (0, gamma_max].

    The search stops once the bracket is narrower than ``tol`` times
    gamma_max. Ties keep the left interval, so a flat curve walks toward
    small scales and the final bracket midpoint is returned. If the right
    edge never moves the curve is still rising at gamma_max: the result is
    gamma_max with the saturation flag set. The first probe solves from
    w = 0; each later one starts from the solution of the nearest probe
    solved so far, whose active set is usually final or one step from it.
    A tuned sleeve that fails ``kkt_check`` raises SolverError naming the
    residual furthest past its tolerance.
    """
    if gamma_max is None:
        gamma_max = default_gamma_max(problem)
    if not 0.0 < gamma_max < math.inf:
        raise InputError("gamma_max must be positive and finite")
    if not 0.0 < tol < math.inf:
        raise InputError("tol must be positive and finite")

    cache: dict[float, tuple[np.ndarray, float]] = {}

    def probe(gamma: float) -> float:
        if gamma not in cache:
            nearest = min(cache, key=lambda g: abs(g - gamma), default=None)
            w = optimize_mvo(problem, gamma, None if nearest is None else cache[nearest][0])
            cache[gamma] = (w, sharpe_ratio(problem, w))
        return cache[gamma][1]

    a, b = 0.0, float(gamma_max)
    x1 = b - INV_GOLDEN * (b - a)
    x2 = a + INV_GOLDEN * (b - a)
    f1, f2 = probe(x1), probe(x2)
    right_edge_moved = False
    while b - a > tol * gamma_max:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + INV_GOLDEN * (b - a)
            f2 = probe(x2)
        else:
            right_edge_moved = True
            b, x2, f2 = x2, x1, f1
            x1 = b - INV_GOLDEN * (b - a)
            f1 = probe(x1)

    saturated = not right_edge_moved
    gamma_opt = float(gamma_max) if saturated else 0.5 * (a + b)
    sharpe_opt = probe(gamma_opt)
    w_opt = cache[gamma_opt][0]

    sharpe_zero = sharpe_ratio(problem, np.zeros(problem.n_stocks))
    if sharpe_zero > sharpe_opt + 1e-12 * max(1.0, abs(sharpe_zero)):
        gamma_opt, w_opt, sharpe_opt, saturated = 0.0, np.zeros(problem.n_stocks), sharpe_zero, False

    combined = combine(problem.w_star, w_opt, problem.model)
    report = (
        kkt_check(problem, gamma_opt, w_opt)
        if gamma_opt > 0.0
        else KKTReport(True, 0.0, 0.0, 0.0, 0.0, (), ())
    )
    if not report.ok:
        raise SolverError(f"the tuned sleeve fails its KKT check: {report.worst}")
    return OverlayResult(
        w_prime=w_opt,
        gamma_prime=gamma_opt,
        combined=combined.weights,
        sharpe_zero=sharpe_zero,
        sharpe_opt=sharpe_opt,
        rho=combined.rho,
        bracket_saturated=saturated,
        active_lower=report.active_lower,
        active_upper=report.active_upper,
        eq_residual=report.eq_residual,
    )


def combine(w_star: np.ndarray, w_prime: np.ndarray, model: RussianDollModel) -> CombinedPortfolio:
    """Add the sleeve to the benchmark; fail loudly if long-only is broken.

    Reports the expected correlation between benchmark and sleeve under the
    overlay model, absent when the sleeve carries no risk.
    """
    w_star = np.asarray(w_star, dtype=float)
    w_prime = np.asarray(w_prime, dtype=float)
    require_each(np.isfinite(w_prime),
                 lambda i: InputError(f"sleeve weight of stock {model.tree.tickers[i]!r} is not finite"))
    total = w_star + w_prime
    if np.any(total < -1e-12):
        bad = int(np.argmin(total))
        raise LongOnlyViolation(model.tree.tickers[bad], float(total[bad]))
    if abs(total.sum() - w_star.sum()) > 1e-10 * max(1.0, abs(w_star.sum())):
        raise InputError("sleeve is not dollar-neutral: combined scale drifted")
    total = np.maximum(total, 0.0)
    gw_star = model.matvec(w_star)
    vol_star = math.sqrt(_dot(w_star, gw_star))
    vol_prime = math.sqrt(max(_dot(w_prime, model.matvec(w_prime)), 0.0))
    rho = None if vol_prime == 0.0 else float(_dot(w_prime, gw_star)) / (vol_star * vol_prime)
    return CombinedPortfolio(total, rho)
