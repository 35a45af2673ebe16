"""Output checks that share no code with the program.

Everything here is recomputed from the generated arrays (``inputs.py``) with
plain numpy: sample moments, the capped-beta rule, a nested matrix-vector
product over the fitted model as ``model.json`` stores it, and, for the
overlay, a dense covariance fitted by the benchmark's own port of the
level-by-level routine. Each check returns a list of ``(name, message)``
failures; an empty list means the outputs passed.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import os

import numpy as np

from inputs import level_labels, tickers

Z_MIN, Z_MAX = 0.1, 0.9
KAPPA = 1.0
CAP_FLOOR = 0.05

# Relative tolerances. The program and these checks sum in different
# orders, so agreement is to rounding: measured below 1e-15 on every workload.
TOL_EXACT = 1e-12
TOL_KKT = 1e-8


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = [row for row in csv.reader(handle) if row]
    return rows[0], rows[1:]


def _rel(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


def sample_variances(returns: np.ndarray) -> np.ndarray:
    centered = returns - returns.mean(axis=1, keepdims=True)
    return np.einsum("ij,ij->i", centered, centered) / (returns.shape[1] - 1)


def capped_betas(returns: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Observed betas on the index, standardized by volatility, clipped to
    median +/- kappa * (mean absolute deviation about the median) with a
    floor at 5% of the median, then scaled back by volatility."""
    sigma = np.sqrt(sample_variances(returns))
    f = index - index.mean()
    centered = returns - returns.mean(axis=1, keepdims=True)
    observed = (centered @ f) / (f @ f) / sigma
    median = np.median(observed)
    mad = np.mean(np.abs(observed - median))
    lo = max(median - KAPPA * mad, CAP_FLOOR * median)
    return np.clip(observed, lo, median + KAPPA * mad) * sigma


def expected_betas(arrays: dict, beta_mode: str) -> np.ndarray:
    if beta_mode == "observed-capped":
        return capped_betas(arrays["returns"], arrays["index"])
    return np.sqrt(sample_variances(arrays["returns"]))


def stock_maps(arrays: dict) -> list[np.ndarray]:
    """Stock -> cluster index per level, most granular first."""
    return [arrays[f"level{lvl}"] for lvl in range(1, sum(k.startswith("level") for k in arrays) + 1)]


# --- the nested model as model.json stores it -------------------------------


def nested_matvec(model: dict, v: np.ndarray) -> np.ndarray:
    """Gamma @ v for Gamma = diag(xi2) + B (M1 C1 M1') B, where the level-l
    cluster covariance is C_l = diag(zeta2_l) + chi_l^2 E_l C_{l+1} E_l' and
    the top is the scalar market variance. O(N * P); ``chi`` defaults to 1."""
    maps = [np.asarray(m) for m in model["parent_maps"]]
    beta = np.asarray(model["beta"])
    zeta2 = [np.asarray(z) for z in model["zeta2"]]
    p = len(maps)
    chi = model.get("chi") or [1.0] * p
    sums = [np.bincount(maps[0], weights=beta * v, minlength=len(zeta2[0]))]
    for lvl in range(1, p):
        sums.append(np.bincount(maps[lvl], weights=sums[-1], minlength=len(zeta2[lvl])))
    y = zeta2[p - 1] * sums[p - 1] + chi[p - 1] ** 2 * model["top_var"] * sums[p - 1].sum()
    for lvl in range(p - 2, -1, -1):
        y = zeta2[lvl] * sums[lvl] + chi[lvl] ** 2 * y[maps[lvl + 1]]
    return np.asarray(model["xi2"]) * v + beta * y[maps[0]]


def nested_diagonal(model: dict) -> np.ndarray:
    maps = [np.asarray(m) for m in model["parent_maps"]]
    zeta2 = [np.asarray(z) for z in model["zeta2"]]
    p = len(maps)
    chi = model.get("chi") or [1.0] * p
    d = zeta2[p - 1] + chi[p - 1] ** 2 * model["top_var"]
    for lvl in range(p - 2, -1, -1):
        d = zeta2[lvl] + chi[lvl] ** 2 * d[maps[lvl + 1]]
    beta = np.asarray(model["beta"])
    return np.asarray(model["xi2"]) + beta**2 * d[maps[0]]


# --- benchmark workloads -----------------------------------------------------


def load_reference(root: str):
    """``reference_weights`` from the repository's independent port of the
    published routine (``tests/_reference.py``)."""
    path = os.path.join(root, "tests", "_reference.py")
    spec = importlib.util.spec_from_file_location("_perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.reference_weights


def prepare_benchmark(arrays: dict, beta_mode: str, reference=None) -> dict:
    """What the benchmark outputs must match; computed once per run."""
    beta = expected_betas(arrays, beta_mode)
    maps = stock_maps(arrays)
    expected = {
        "tickers": tickers(len(beta)),
        "beta": beta,
        "variances": sample_variances(arrays["returns"]),
        "labels": [level_labels(lvl + 1, m) for lvl, m in enumerate(maps)],
    }
    if reference is not None:
        members = [np.eye(int(m.max()) + 1)[m] for m in maps]
        expected["reference_weights"] = reference(arrays["returns"], members, beta)
    return expected


def check_benchmark(outdir: str, expected: dict) -> list[tuple[str, str]]:
    fail = []
    header, rows = _read_csv(os.path.join(outdir, "weights.csv"))
    with open(os.path.join(outdir, "model.json"), encoding="utf-8") as handle:
        model = json.load(handle)
    with open(os.path.join(outdir, "benchmark.json"), encoding="utf-8") as handle:
        sidecar = json.load(handle)
    if header[:3] != ["ticker", "weight", "beta"] or [r[0] for r in rows] != expected["tickers"]:
        return [("layout", "weights.csv header or ticker order differs from the inputs")]
    if model["tickers"] != expected["tickers"]:
        return [("layout", "model.json tickers differ from the inputs")]
    w = np.array([float(r[1]) for r in rows])
    beta = np.array([float(r[2]) for r in rows])

    names = np.asarray(model["level_names"][0])[np.asarray(model["parent_maps"][0])]
    composed = [names.tolist()]
    m = np.asarray(model["parent_maps"][0])
    for lvl in range(1, len(model["parent_maps"])):
        m = np.asarray(model["parent_maps"][lvl])[m]
        composed.append(np.asarray(model["level_names"][lvl])[m].tolist())
    if composed != expected["labels"]:
        fail.append(("tree", "model.json clusters differ from the classification input"))
    if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
        fail.append(("positive", f"{int(np.sum(~(w > 0.0)))} weights are not positive"))
    if _rel(beta, expected["beta"]) > TOL_EXACT or _rel(model["beta"], expected["beta"]) > TOL_EXACT:
        fail.append(("beta", f"betas differ from the recomputed ones by {_rel(beta, expected['beta']):.3g}"))
    if abs(float(w @ beta) - 1.0) > TOL_EXACT:
        fail.append(("unit_beta", f"sum(w * beta) = {float(w @ beta)!r}"))
    sigma_f2 = float(sidecar["sigma_f2"])
    residual = _rel(nested_matvec(model, w), sigma_f2 * beta)
    if residual > TOL_EXACT:
        fail.append(("gamma_w", f"Gamma w differs from sigma_F^2 beta by {residual:.3g}"))
    diag = _rel(nested_diagonal(model), expected["variances"])
    if diag > TOL_EXACT:
        fail.append(("diagonal", f"diag(Gamma) differs from the sample variances by {diag:.3g}"))
    if "reference_weights" in expected:
        parity = _rel(w, expected["reference_weights"])
        if parity > TOL_EXACT:
            fail.append(("reference", f"weights differ from reference_weights by {parity:.3g}"))
    return fail


# --- overlay workload --------------------------------------------------------


def _theta(block: np.ndarray, load: np.ndarray) -> float:
    """Clamped least-squares factor variance of one block (published rule)."""
    d = np.diag(block)
    if len(load) == 1:
        return (1.0 - Z_MAX**2) * d[0] / load[0] ** 2
    s = np.sqrt(d)
    corr = block / np.outer(s, s)
    b = load / s
    off = corr * np.outer(b, b)
    t = (off.sum() - np.trace(off)) / (np.sum(b**2) ** 2 - np.sum(b**4))
    return min(max(t, (1.0 - Z_MAX**2) / np.min(b**2)), (1.0 - Z_MIN**2) / np.max(b**2))


def fit_dense_gamma(returns: np.ndarray, maps: list[np.ndarray], beta: np.ndarray) -> np.ndarray:
    """Dense N x N covariance of the nested model, fitted level by level on
    the sample covariance (market factor on, default band)."""
    n = returns.shape[0]
    centered = returns - returns.mean(axis=1, keepdims=True)
    x = centered @ centered.T / (returns.shape[1] - 1)
    # unit -> cluster maps level by level, then one market cluster on top
    unit_maps = [maps[0]]
    for lvl in range(1, len(maps)):
        child = np.zeros(int(maps[lvl - 1].max()) + 1, dtype=np.int64)
        child[maps[lvl - 1]] = maps[lvl]
        unit_maps.append(child)
    unit_maps.append(np.zeros(int(maps[-1].max()) + 1, dtype=np.int64))
    load = beta.copy()
    specific = []
    for m in unit_maps:
        k = int(m.max()) + 1
        g = np.array([_theta(x[np.ix_(m == a, m == a)], load[m == a]) for a in range(k)])
        specific.append(np.diag(x) - load**2 * g[m])
        e = np.eye(k)[m]
        agg = e.T @ x @ e
        u = np.sqrt(g / np.diag(agg))
        x = agg * np.outer(u, u)
        load = np.ones(k)
    top = g[0]
    c = np.full((1, 1), top)
    for lvl in range(len(unit_maps) - 1, 0, -1):
        e = np.eye(c.shape[0])[unit_maps[lvl]]
        c = np.diag(specific[lvl]) + e @ c @ e.T
    e = np.eye(c.shape[0])[unit_maps[0]]
    return np.diag(specific[0]) + np.outer(beta, beta) * (e @ c @ e.T)


def prepare_overlay(arrays: dict, band: float) -> dict:
    returns = arrays["returns"]
    beta = np.sqrt(sample_variances(returns))
    gamma = fit_dense_gamma(returns, stock_maps(arrays), beta)
    w_star = np.linalg.solve(gamma, beta)
    w_star /= w_star.sum()
    return {
        "tickers": tickers(len(beta)),
        "gamma": gamma,
        "w_star": w_star,
        "signal": arrays["signal"],
        "band": band,
    }


def _sharpe(e, gamma, w) -> float:
    return float(e @ w / np.sqrt(w @ gamma @ w))


def check_overlay(outdir: str, expected: dict) -> list[tuple[str, str]]:
    fail = []
    header, rows = _read_csv(os.path.join(outdir, "overlay.csv"))
    with open(os.path.join(outdir, "overlay.json"), encoding="utf-8") as handle:
        sidecar = json.load(handle)
    if header != ["ticker", "w_star", "w_prime", "w_combined"] or [r[0] for r in rows] != expected["tickers"]:
        return [("layout", "overlay.csv header or ticker order differs from the inputs")]
    w_star, w_prime, combined = (np.array([float(r[c]) for r in rows]) for c in (1, 2, 3))
    gamma, e = expected["gamma"], expected["signal"]
    upper = expected["band"] * expected["w_star"]
    lower = -upper

    if _rel(w_star, expected["w_star"]) > 1e-10:
        fail.append(("w_star", f"benchmark column differs from Gamma^-1 beta by {_rel(w_star, expected['w_star']):.3g}"))
    if abs(w_prime.sum()) > TOL_EXACT * np.abs(w_prime).sum():
        fail.append(("dollar_neutral", f"sum(w') = {float(w_prime.sum())!r}"))
    excess = float(np.max(np.maximum(lower - w_prime, w_prime - upper)))
    if excess > TOL_EXACT * upper.max():
        fail.append(("band", f"|w'| leaves the band by {excess:.3g}"))
    if np.any(combined < 0.0) or _rel(combined, np.maximum(expected["w_star"] + w_prime, 0.0)) > TOL_EXACT:
        fail.append(("combined", "w_combined is not w* + w' >= 0"))
    column = gamma @ expected["w_star"]
    corr = abs(float(column @ w_prime)) / (np.abs(column).max() * np.abs(w_prime).sum())
    if corr > TOL_EXACT:
        fail.append(("zero_correlation", f"(Gamma w*)' w' is {corr:.3g} of its scale"))
    s0 = _sharpe(e, gamma, expected["w_star"])
    s_opt = _sharpe(e, gamma, expected["w_star"] + w_prime)
    if s_opt < s0 - 1e-12 * abs(s0):
        fail.append(("sharpe_gain", f"S(opt) {s_opt!r} < S(0) {s0!r}"))
    if abs(s0 - sidecar["sharpe_zero"]) > 1e-9 * abs(s0) or abs(s_opt - sidecar["sharpe_opt"]) > 1e-9 * abs(s_opt):
        fail.append(("sharpe_report", "reported Sharpe ratios differ from the recomputed ones"))

    g = float(sidecar["gamma_prime_opt"])
    if g > 0.0:
        q = np.column_stack([np.ones(len(e)), column])
        grad = e - (2.0 / g) * gamma @ w_prime
        width = upper - lower
        at_lo = w_prime - lower <= 1e-9 * width
        at_hi = upper - w_prime <= 1e-9 * width
        free = ~(at_lo | at_hi)
        mu = np.linalg.lstsq(q[free] if free.any() else q, grad[free] if free.any() else grad, rcond=None)[0]
        reduced = grad - q @ mu
        scale = TOL_KKT * max(1.0, float(np.abs(grad).max()))
        stationary = float(np.abs(reduced[free]).max()) if free.any() else 0.0
        wrong_sign = float(max(np.max(reduced[at_lo], initial=0.0), np.max(-reduced[at_hi], initial=0.0)))
        if stationary > scale or wrong_sign > scale:
            fail.append(("kkt", f"stationarity {stationary:.3g}, wrong-signed multiplier {wrong_sign:.3g}"))
        if sidecar["active_bounds"] != int(at_lo.sum() + at_hi.sum()):
            fail.append(("active_bounds", f"{sidecar['active_bounds']} reported, {int(at_lo.sum() + at_hi.sum())} found"))
    elif np.any(w_prime != 0.0):
        fail.append(("kkt", "gamma' = 0 with a nonzero sleeve"))
    return fail
