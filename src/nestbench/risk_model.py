"""Nested multilevel factor-model construction.

Fits one factor variance per cluster, a whole level in one call, by least
squares on off-diagonal correlations (bounded by specific-risk fractions)
taken from the members' series sums, aggregates the return series level by
level without forming the N x N covariance or any cluster block, and applies
the fitted covariance and its inverse in O(N P). Stock loadings are the
betas; cluster loadings above level 0 are exactly 1 (any positive rescale is
absorbed by the parent covariance and changes nothing), so they are not
stored. ``sample_covariance`` and ``assemble_dense`` return a dense N x N
covariance as a plain array for the tests and the benchmark's tracer only;
``nestbench`` does not export them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data_model import BetaVector, ClassificationTree, ReturnsPanel, cluster_members, read_json, write_json
from .errors import InputError, InvalidVariance, NegativeSpecificVariance, in_file


@dataclass(frozen=True)
class ThetaFitConfig:
    """Allowed band [z_min, z_max] for the specific fraction of total risk."""

    z_min: float = 0.1
    z_max: float = 0.9

    def __post_init__(self):
        if not 0.0 <= self.z_min < self.z_max <= 1.0:
            raise InputError(f"need 0 <= z_min < z_max <= 1, got ({self.z_min}, {self.z_max})")

    @property
    def max_loading_dispersion(self) -> float:
        """Largest admissible max/min ratio of standardized loadings."""
        return float(np.sqrt((1.0 - self.z_min**2) / (1.0 - self.z_max**2)))


def fit_theta(
    series: np.ndarray,
    diag: np.ndarray,
    loadings: np.ndarray,
    clusters: np.ndarray,
    cfg: ThetaFitConfig = ThetaFitConfig(),
) -> np.ndarray:
    """One factor variance per cluster of a level.

    ``series`` holds one row per unit, with ``series @ series.T`` the units'
    covariance and ``diag`` its diagonal; ``clusters`` maps each unit to its
    cluster, and every index up to the largest must hold a member. Each
    cluster's value is the least-squares fit of its members' off-diagonal
    correlations by an outer product of standardized loadings, clamped into
    the band implied by ``cfg``. The clamp is applied as
    min(max(. , lower), upper) so that when the bounds conflict the upper
    bound wins and specific variances stay positive. With u = b / d, the
    weighted off-diagonal sum is |sum_i u_i s_i|^2 - sum_i u_i^2 d_i, so no
    member block is formed. A single-member cluster has no off-diagonal
    information and gets the minimal factor share consistent with z_max,
    which is zero at z_max = 1.
    """
    b = np.asarray(loadings, dtype=float)
    d = np.asarray(diag, dtype=float)
    clusters = np.asarray(clusters)
    if not np.all(np.isfinite(b)) or np.any(b == 0.0):
        raise InvalidVariance("loadings must be finite and nonzero")
    if not np.all(d > 0.0) or not np.all(np.isfinite(d)):
        raise InvalidVariance("variances must be strictly positive and finite")
    counts = np.bincount(clusters)
    k = len(counts)
    if not counts.all():
        raise InputError(f"cluster {int(np.argmin(counts))} of the cluster map has no members")
    groups = cluster_members(clusters, k)
    b2 = b**2 / d  # squared standardized loadings, u_i^2 d_i
    t_min, t_max = _theta_bounds(b2, clusters, k, cfg)
    numer = -np.bincount(clusters, b2, minlength=k)
    u = b / d
    for a, idx in enumerate(groups):
        if len(idx) > 1:
            w = np.einsum("i,ij->j", u[idx], series[idx])
            numer[a] += np.einsum("j,j->", w, w)
    single = counts == 1
    denom = np.bincount(clusters, b2, minlength=k) ** 2 - np.bincount(clusters, b2**2, minlength=k)
    theta = np.minimum(np.maximum(numer / np.where(single, 1.0, denom), t_min), t_max)
    return np.where(single, np.bincount(clusters, (1.0 - cfg.z_max**2) * d / b**2, minlength=k), theta)


def _theta_bounds(b2: np.ndarray, clusters: np.ndarray, k: int, cfg: ThetaFitConfig):
    """Per-cluster clamp bounds (t_min, t_max) from the squared
    standardized loadings ``b2``."""
    lowest = np.full(k, np.inf)
    highest = np.zeros(k)
    np.minimum.at(lowest, clusters, b2)
    np.maximum.at(highest, clusters, b2)
    return (1.0 - cfg.z_max**2) / lowest, (1.0 - cfg.z_min**2) / highest


@dataclass(frozen=True)
class RussianDollModel:
    """Fully fitted nested factor model.

    ``zeta2[l-1]`` holds the specific variances of the level-l clusters,
    ``fitted_cluster_var[l-1]`` the fitted total variances the level-l fit
    produced, and ``top_var`` the single top-level variance (zero when the
    market factor is disabled). The covariance is positive definite by
    construction; ``matvec`` and ``solve`` apply it and its inverse.
    """

    tree: ClassificationTree
    beta: BetaVector
    xi2: np.ndarray
    zeta2: tuple[np.ndarray, ...]
    top_var: float
    fitted_cluster_var: tuple[np.ndarray, ...]
    mkt_fac: bool
    cfg: ThetaFitConfig = ThetaFitConfig()

    def __post_init__(self):
        xi2 = np.array(self.xi2, dtype=float)
        object.__setattr__(self, "xi2", xi2)
        zeta2 = tuple(np.array(z, dtype=float) for z in self.zeta2)
        object.__setattr__(self, "zeta2", zeta2)
        fitted = tuple(np.array(g, dtype=float) for g in self.fitted_cluster_var)
        object.__setattr__(self, "fitted_cluster_var", fitted)
        p = self.tree.n_levels
        counts = self.tree.cluster_counts
        n = len(self.tree.tickers)
        if self.beta.tickers != self.tree.tickers:
            raise InputError("beta and tree tickers differ")
        if xi2.shape != (n,) or np.any(xi2 <= 0.0) or not np.all(np.isfinite(xi2)):
            raise InvalidVariance("stock specific variances must be strictly positive")
        if len(zeta2) != p or len(fitted) != p:
            raise InputError(f"expected {p} levels of cluster data")
        # each rule is written so that NaN fails it
        for lvl in range(p):
            if zeta2[lvl].shape != (counts[lvl],) or not np.all((0.0 <= zeta2[lvl]) & (zeta2[lvl] < np.inf)):
                raise InvalidVariance(f"level-{lvl + 1} specific variances must be finite and nonnegative")
            if fitted[lvl].shape != (counts[lvl],):
                raise InputError(f"level-{lvl + 1} fitted variances have wrong length")
            if not np.all((0.0 <= fitted[lvl]) & (fitted[lvl] < np.inf)):
                raise InvalidVariance(f"level-{lvl + 1} fitted variances must be finite and nonnegative")
        if not 0.0 <= self.top_var < np.inf:
            raise InvalidVariance(f"top-level variance must be finite and nonnegative, got {self.top_var}")
        for z in zeta2:
            z.setflags(write=False)
        for g in fitted:
            g.setflags(write=False)
        xi2.setflags(write=False)

    @property
    def n_stocks(self) -> int:
        return len(self.tree.tickers)

    @cached_property
    def _levels(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(stock -> cluster map, cluster specific variances) per level, then
        the market as one cluster of every stock."""
        maps = [self.tree.stock_clusters(lvl) for lvl in range(1, self.tree.n_levels + 1)]
        market = (np.zeros(self.n_stocks, dtype=np.int64), np.array([self.top_var]))
        return tuple(zip(maps, self.zeta2)) + (market,)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Gamma v in O(N P), without forming Gamma."""
        v = np.asarray(v, dtype=float)
        beta = self.beta.values
        out = self.xi2 * v
        for clusters, zeta in self._levels:
            out += beta * (zeta * np.bincount(clusters, beta * v, minlength=len(zeta)))[clusters]
        return out

    def solve(self, v: np.ndarray, free: np.ndarray | None = None) -> np.ndarray:
        """Gamma^-1 v in O(N P), by the Woodbury identity level by level.

        With a boolean mask ``free``, the solve on the principal submatrix
        Gamma_FF, zero off F: a nested model without some stocks is nested
        again, so the recursion runs with their betas and entries zeroed.
        Each level divides by 1 + zeta * lambda >= 1, so clusters without
        free members need no special case. With ``v = beta`` this is the
        product formula of the benchmark weights.
        """
        beta = self.beta.values
        x = np.asarray(v, dtype=float) / self.xi2
        if free is not None:
            beta = np.where(free, beta, 0.0)
            x = np.where(free, x, 0.0)
        g = beta / self.xi2  # Gamma^-1 beta for the levels applied so far
        for clusters, zeta in self._levels:
            k = len(zeta)
            lam = np.bincount(clusters, beta * g, minlength=k)[clusters]
            s = np.bincount(clusters, beta * x, minlength=k)[clusters]
            shrink = 1.0 + zeta[clusters] * lam
            # x - g zeta s / shrink, written so that x = g (v = beta) divides
            # by the shrink factor exactly
            x = (x + zeta[clusters] * (lam * x - s * g)) / shrink
            g = g / shrink
        return x


def build_russian_doll(
    panel: ReturnsPanel,
    tree: ClassificationTree,
    beta: BetaVector,
    mkt_fac: bool = True,
    cfg: ThetaFitConfig = ThetaFitConfig(),
) -> RussianDollModel:
    """Fit the nested model level by level from a returns panel.

    Works on scaled, centred series s with s s' equal to the sample
    covariance, so no N x N matrix is formed. Each level is one ``fit_theta``
    call over all of its clusters; members' specific variances are what the
    fit leaves over. Each cluster's series is then the sum of its members'
    series, rescaled so that its variance equals the fitted value, before
    the next level. The final level fits one market variance when
    ``mkt_fac`` is set, otherwise it is pinned to zero.
    """
    if panel.tickers != tree.tickers or beta.tickers != tree.tickers:
        raise InputError("panel, tree and beta tickers must match")
    p = tree.n_levels
    t = panel.n_periods
    series = (panel.values - panel.values.mean(axis=1, keepdims=True)) / np.sqrt(t - 1)
    diag = np.einsum("ij,ij->i", series, series)
    if np.any(diag <= 0.0):
        bad = tree.tickers[int(np.argmax(diag <= 0.0))]
        raise InvalidVariance(f"stock {bad!r} has zero sample variance")
    b = np.array(beta.values, dtype=float)
    _check_admissible(cfg, tree, b**2 / diag)
    specific: list[np.ndarray] = []
    fitted: list[np.ndarray] = []
    levels = (*tree.parent_maps, np.zeros(tree.cluster_counts[-1], dtype=np.int64))
    for lvl, clusters in enumerate(levels, start=1):
        if lvl <= p or mkt_fac:
            g_fit = fit_theta(series, diag, b, clusters, cfg)
        else:
            g_fit = np.zeros(1)
        spec = diag - b**2 * g_fit[clusters]
        _check_positive_specific(spec, lvl - 1, tree)
        specific.append(spec)
        if lvl > p:
            break
        fitted.append(g_fit)
        if np.any(g_fit <= 0.0):  # only at z_max = 1: a singleton's fit, or one clamped to t_min, is 0
            bad = tree.level_names[lvl - 1][int(np.argmax(g_fit <= 0.0))]
            raise InvalidVariance(f"level-{lvl} cluster {bad!r} has zero fitted variance; set z_max below 1")
        # cluster series: member sums rescaled so their variances are the fits
        sums = np.stack([series[idx].sum(axis=0) for idx in cluster_members(clusters, len(g_fit))])
        agg_diag = np.einsum("ij,ij->i", sums, sums)
        if np.any(agg_diag <= 0.0):
            bad = tree.level_names[lvl - 1][int(np.argmax(agg_diag <= 0.0))]
            raise InvalidVariance(f"aggregated variance of cluster {bad!r} is not positive")
        series = sums * np.sqrt(g_fit / agg_diag)[:, None]
        diag = g_fit
        b = np.ones(len(g_fit))

    return RussianDollModel(
        tree=tree,
        beta=beta,
        xi2=specific[0],
        zeta2=tuple(specific[1:]),
        top_var=float(g_fit[0]),
        fitted_cluster_var=tuple(fitted),
        mkt_fac=mkt_fac,
        cfg=cfg,
    )


def _check_admissible(cfg, tree, b2):
    """Abort when a level-1 cluster's standardized betas are so dispersed
    that the fit bounds conflict; clamping would silently mask the modeling
    error. ``b2`` holds the stocks' squared standardized betas."""
    clusters = tree.parent_maps[0]
    t_min, t_max = _theta_bounds(b2, clusters, tree.cluster_counts[0], cfg)
    if np.all(t_min <= t_max):
        return
    cluster = int(np.argmax(t_min > t_max))
    idx = np.flatnonzero(clusters == cluster)
    b_hat = np.sqrt(b2[idx])
    limit = cfg.max_loading_dispersion
    cutoff_hi = b_hat.min() * limit
    offenders = [
        f"{tree.tickers[i]}(beta/sigma={b_hat[j]:.4g})"
        for j, i in enumerate(idx)
        if b_hat[j] > cutoff_hi or b_hat[j] * limit < b_hat.max()
    ]
    raise NegativeSpecificVariance(
        0,
        tree.level_names[0][cluster],
        f"beta/sigma dispersion {b_hat.max() / b_hat.min():.4g} exceeds the "
        f"admissible ratio {limit:.4g}; offending stocks: {', '.join(offenders)}",
    )


def _check_positive_specific(spec, level, tree):
    if not np.any(spec <= 0.0):
        return
    bad = int(np.argmax(spec <= 0.0))
    if level == 0:
        name = tree.tickers[bad]
    else:
        name = tree.level_names[level - 1][bad]
    raise NegativeSpecificVariance(level, name, f"specific variance {spec[bad]:.6g} is not positive")


# Dense N x N forms for the tests' checks; no command calls them. cli.py and
# benchmark.py import them only because perfbench/trace_layers.py wraps them
# there by name (ROADMAP item 0).


def sample_covariance(panel: ReturnsPanel) -> np.ndarray:
    """Sample covariance of the panel rows, T-1 denominator."""
    centered = panel.values - panel.values.mean(axis=1, keepdims=True)
    cov = centered @ centered.T / (panel.n_periods - 1)
    return 0.5 * (cov + cov.T)


def assemble_dense(model: RussianDollModel) -> np.ndarray:
    """Expand the nested recursion into a dense N x N covariance."""
    tree = model.tree
    p = tree.n_levels
    current = np.array([[model.top_var]])
    for lvl in range(p, 0, -1):
        if lvl < p:
            parent = tree.parent_maps[lvl]
        else:
            parent = np.zeros(tree.cluster_counts[p - 1], dtype=np.int64)
        block = current[np.ix_(parent, parent)]
        current = np.diag(model.zeta2[lvl - 1]) + block
    g0 = tree.parent_maps[0]
    beta = model.beta.values
    dense = np.diag(model.xi2) + np.outer(beta, beta) * current[np.ix_(g0, g0)]
    return 0.5 * (dense + dense.T)


def model_to_dict(model: RussianDollModel) -> dict:
    """JSON-serializable snapshot of a fitted model."""
    tree = model.tree
    return {
        "tickers": list(tree.tickers),
        "level_names": [list(names) for names in tree.level_names],
        "parent_maps": [m.tolist() for m in tree.parent_maps],
        "beta": model.beta.values.tolist(),
        "xi2": model.xi2.tolist(),
        "zeta2": [z.tolist() for z in model.zeta2],
        "top_var": model.top_var,
        "fitted_cluster_var": [g.tolist() for g in model.fitted_cluster_var],
        "mkt_fac": model.mkt_fac,
        "configs": [{"z_min": model.cfg.z_min, "z_max": model.cfg.z_max}] * (tree.n_levels + 1),
    }


_SNAPSHOT_KEYS = ("tickers", "level_names", "parent_maps", "beta", "xi2", "zeta2", "top_var",
                  "fitted_cluster_var", "mkt_fac", "configs")


def model_from_dict(data: dict) -> RussianDollModel:
    """Inverse of ``model_to_dict``. Also reads snapshots that still carry
    the former per-level cluster loadings ``chi``, which were always 1. A
    snapshot that lacks a key, or whose ``configs`` are not bands, is an
    ``InputError`` naming the key."""
    missing = [key for key in _SNAPSHOT_KEYS if key not in data]
    if missing:
        raise InputError(f"model snapshot lacks key {missing[0]!r}")
    configs = data["configs"]
    if not isinstance(configs, list) or not all(isinstance(c, dict) and {"z_min", "z_max"} <= c.keys()
                                                for c in configs):
        raise InputError(f"key 'configs' must list bands with keys 'z_min' and 'z_max', got {configs!r}")
    if any(float(c) != 1.0 for c in data.get("chi", ())):
        raise InputError(f"cluster loadings chi must all be 1, got {data['chi']}")
    bands = {(c["z_min"], c["z_max"]) for c in configs}
    if len(bands) != 1:
        raise InputError(f"configs must repeat one band (z_min, z_max), got {data['configs']}")
    tickers = tuple(data["tickers"])
    tree = ClassificationTree(
        tickers,
        tuple(tuple(names) for names in data["level_names"]),
        tuple(np.asarray(m, dtype=np.int64) for m in data["parent_maps"]),
    )
    return RussianDollModel(
        tree=tree,
        beta=BetaVector(tickers, np.asarray(data["beta"], dtype=float)),
        xi2=np.asarray(data["xi2"], dtype=float),
        zeta2=tuple(np.asarray(z, dtype=float) for z in data["zeta2"]),
        top_var=float(data["top_var"]),
        fitted_cluster_var=tuple(np.asarray(g, dtype=float) for g in data["fitted_cluster_var"]),
        mkt_fac=bool(data["mkt_fac"]),
        cfg=ThetaFitConfig(*bands.pop()),
    )


def save_model(model: RussianDollModel, path: str | os.PathLike) -> None:
    write_json(path, model_to_dict(model))


def load_model(path: str | os.PathLike) -> RussianDollModel:
    """The model ``save_model`` wrote to ``path``. A refusal of
    ``model_from_dict`` keeps its type and fields, and names the file."""
    return in_file(path, model_from_dict, read_json(path))
