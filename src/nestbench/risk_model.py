"""Nested multilevel factor-model construction.

Fits one factor variance per cluster, a whole level in one call, by least
squares on off-diagonal correlations (bounded by specific-risk fractions)
taken from the members' series sums, and aggregates the return series level
by level, without forming the N x N covariance or any cluster block. The
fitted covariance and its inverse apply in O(N + P K1) from level-1 cluster
sums. Stock loadings are the betas; cluster loadings above level 0 are
exactly 1 (any positive rescale is absorbed by the parent covariance), so
they are not stored. ``nestbench`` does not export the dense forms below.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data_model import BetaVector, ClassificationTree, ReturnsPanel, cluster_members, read_json, write_json
from .errors import InputError, InvalidVariance, NegativeSpecificVariance, in_file, require_each


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
    require_each(np.isfinite(b) & (b != 0.0),
                 lambda i: InvalidVariance(f"loadings must be finite and nonzero; unit {i} has {b[i]}"))
    require_each((0.0 < d) & (d < np.inf), lambda i: InvalidVariance(
        f"variances must be strictly positive and finite; unit {i} has {d[i]}"))
    counts = np.bincount(clusters)
    k = len(counts)
    require_each(counts > 0, lambda a: InputError(f"cluster {a} of the cluster map has no members"))
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
        zeta2 = tuple(np.array(z, dtype=float) for z in self.zeta2)
        fitted = tuple(np.array(g, dtype=float) for g in self.fitted_cluster_var)
        for key, value in (("xi2", xi2), ("zeta2", zeta2), ("fitted_cluster_var", fitted)):
            object.__setattr__(self, key, value)
        tree = self.tree
        if self.beta.tickers != tree.tickers:
            raise InputError("beta and tree tickers differ")
        if len(zeta2) != tree.n_levels or len(fitted) != tree.n_levels:
            raise InputError(f"expected {tree.n_levels} levels of cluster data")
        # (field, values, the names of its entries, what they are, the rule they keep)
        rules = [("xi2", xi2, tree.tickers, "stock specific variance", "positive")]
        for lvl, names in enumerate(tree.level_names, start=1):
            rules += [("zeta2", zeta2[lvl - 1], names, f"level-{lvl} specific variance", "nonnegative"),
                      ("fitted_cluster_var", fitted[lvl - 1], names, f"level-{lvl} fitted variance", "nonnegative")]
        for key, values, names, what, sign in rules:
            if values.shape != (len(names),):
                raise InputError(f"{what}s {key!r} have shape {values.shape}, expected {(len(names),)}")
            low_ok = values > 0.0 if sign == "positive" else values >= 0.0
            require_each(low_ok & (values < np.inf), lambda i: InvalidVariance(
                f"{what} of {names[i]!r} must be finite and {sign}, got {values[i]}"))
            values.setflags(write=False)
        if not 0.0 <= self.top_var < np.inf:
            raise InvalidVariance(f"top-level variance must be finite and nonnegative, got {self.top_var}")

    @property
    def n_stocks(self) -> int:
        return len(self.tree.tickers)

    @cached_property
    def _levels(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(level-1 cluster -> level-l cluster map, level-l specific variances) per level, then the market."""
        maps = [np.arange(self.tree.cluster_counts[0])]
        for parent in self.tree.parent_maps[1:]:
            maps.append(parent[maps[-1]])
        return tuple(zip(maps, self.zeta2)) + ((np.zeros_like(maps[0]), np.array([self.top_var])),)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Gamma v in O(N + P K1): every level reads the level-1 cluster sums of beta v."""
        beta, g1 = self.beta.values, self.tree.parent_maps[0]
        sums = np.bincount(g1, beta * v)
        return self.xi2 * v + beta * sum((zeta * np.bincount(m, sums))[m] for m, zeta in self._levels)[g1]

    def solve(self, v: np.ndarray, free: np.ndarray | None = None) -> np.ndarray:
        """Gamma^-1 v for an N-vector or N x k ``v``, in O(N k + P K1 k). With a
        boolean mask ``free``, the solve on the principal submatrix Gamma_FF,
        zero off F: a nested model without some stocks is nested again."""
        v = np.asarray(v, dtype=float)
        x0, g0 = v.reshape(len(v), -1).T / self.xi2, self.beta.values / self.xi2
        if free is not None:
            x0, g0 = np.where(free, x0, 0.0), np.where(free, g0, 0.0)
        a, _ = self.cluster_factors(g0, x0)
        return (x0 - g0 * a[:, self.tree.parent_maps[0]]).T.reshape(v.shape)

    def cluster_factors(self, g0: np.ndarray, x0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``a`` (k x K1) and ``b`` (K1) with Gamma^-1 v = x0 - g0 a[:, c] and
        Gamma^-1 beta = g0 b[c] on each level-1 cluster c, for g0 = beta / xi2
        and the k x N x0 = v' / xi2, zero off the stocks solved for: Woodbury
        level by level on level-1 sums, dividing by 1 + zeta lambda >= 1, so a
        cluster with no such stock needs no special case. ``b`` is the paper's product formula."""
        beta, g1 = self.beta.values, self.tree.parent_maps[0]
        lead, sums = np.bincount(g1, beta * g0), np.array([np.bincount(g1, beta * x) for x in x0])
        a, b = np.zeros_like(sums), np.ones(len(lead))
        for clusters, zeta in self._levels:
            shrink = 1.0 + zeta[clusters] * np.bincount(clusters, b * lead)[clusters]
            s = np.array([np.bincount(clusters, row) for row in sums - a * lead])[:, clusters]
            a, b = a + b * zeta[clusters] / shrink * s, b / shrink
        return a, b


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
    require_each(diag > 0.0, lambda i: InvalidVariance(f"stock {tree.tickers[i]!r} has zero sample variance"))
    b = np.array(beta.values, dtype=float)
    b2 = b**2 / diag  # squared standardized betas
    t_min, t_max = _theta_bounds(b2, tree.parent_maps[0], tree.cluster_counts[0], cfg)
    require_each(t_min <= t_max, lambda a: _too_dispersed(cfg, tree, b2, a))
    names = (tree.tickers, *tree.level_names)  # the units each level fits: stocks, then each level's clusters
    specific: list[np.ndarray] = []
    fitted: list[np.ndarray] = []
    levels = (*tree.parent_maps, np.zeros(tree.cluster_counts[-1], dtype=np.int64))
    for lvl, clusters in enumerate(levels, start=1):
        if lvl <= p or mkt_fac:
            g_fit = fit_theta(series, diag, b, clusters, cfg)
        else:
            g_fit = np.zeros(1)
        spec = diag - b**2 * g_fit[clusters]
        require_each(spec > 0.0, lambda i: NegativeSpecificVariance(
            lvl - 1, names[lvl - 1][i], f"specific variance {spec[i]:.6g} is not positive"))
        specific.append(spec)
        if lvl > p:
            break
        fitted.append(g_fit)
        # fails only at z_max = 1: a singleton's fit, or one clamped to t_min, is 0
        require_each(g_fit > 0.0, lambda a: InvalidVariance(
            f"level-{lvl} cluster {names[lvl][a]!r} has zero fitted variance; set z_max below 1"))
        # cluster series: member sums rescaled so their variances are the fits
        sums = np.stack([series[idx].sum(axis=0) for idx in cluster_members(clusters, len(g_fit))])
        agg_diag = np.einsum("ij,ij->i", sums, sums)
        require_each(agg_diag > 0.0, lambda a: InvalidVariance(
            f"aggregated variance of cluster {names[lvl][a]!r} is not positive"))
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


def _too_dispersed(cfg, tree, b2, cluster) -> NegativeSpecificVariance:
    """The refusal of a level-1 ``cluster`` whose standardized betas are so
    dispersed that the fit bounds conflict; clamping would silently mask the
    modeling error. ``b2`` holds the stocks' squared standardized betas."""
    idx = np.flatnonzero(tree.parent_maps[0] == cluster)
    b_hat = np.sqrt(b2[idx])
    limit = cfg.max_loading_dispersion
    cutoff_hi = b_hat.min() * limit
    offenders = [
        f"{tree.tickers[i]}(beta/sigma={b_hat[j]:.4g})"
        for j, i in enumerate(idx)
        if b_hat[j] > cutoff_hi or b_hat[j] * limit < b_hat.max()
    ]
    return NegativeSpecificVariance(
        0,
        tree.level_names[0][cluster],
        f"beta/sigma dispersion {b_hat.max() / b_hat.min():.4g} exceeds the "
        f"admissible ratio {limit:.4g}; offending stocks: {', '.join(offenders)}",
    )


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
# how many lists deep each key's entries sit, their exact JSON types, and what those are called
_NUMBER, _INTEGER, _STRING = ((int, float), "a number"), ((int,), "an integer"), ((str,), "a string")
_ENTRY_TYPES = {"tickers": (1, *_STRING), "level_names": (2, *_STRING), "parent_maps": (2, *_INTEGER),
                "beta": (1, *_NUMBER), "xi2": (1, *_NUMBER), "zeta2": (2, *_NUMBER), "top_var": (0, *_NUMBER),
                "fitted_cluster_var": (2, *_NUMBER), "mkt_fac": (0, (bool,), "true or false"), "chi": (1, *_NUMBER)}


def _check_entries(key, value, depth, types, kind) -> None:
    """Refuse, naming ``key``, a JSON ``value`` other than ``depth`` nested
    lists of entries whose exact type is one of ``types``."""
    entries = [value]
    for d in range(depth + 1):
        allowed, what = ((list,), "a list") if d < depth else (types, kind)
        for entry in entries:
            if type(entry) not in allowed:
                raise InputError(f"key {key!r} holds {entry!r:.40} where {what} belongs")
        if d < depth:
            entries = [item for entry in entries for item in entry]


def model_from_dict(data: dict) -> RussianDollModel:
    """Inverse of ``model_to_dict``. Also reads snapshots that still carry
    the former per-level cluster loadings ``chi``, which were always 1. A
    snapshot that lacks a key, holds an entry of the wrong JSON type, or
    whose ``configs`` are not bands, is an ``InputError`` naming the key."""
    missing = [key for key in _SNAPSHOT_KEYS if key not in data]
    if missing:
        raise InputError(f"model snapshot lacks key {missing[0]!r}")
    for key, (depth, types, kind) in _ENTRY_TYPES.items():
        if key in data:  # every key but the optional chi
            _check_entries(key, data[key], depth, types, kind)
    configs = data["configs"]
    if not isinstance(configs, list) or not all(isinstance(c, dict) and {"z_min", "z_max"} <= c.keys()
                                                for c in configs):
        raise InputError(f"key 'configs' must list bands with keys 'z_min' and 'z_max', got {configs!r}")
    _check_entries("configs", [c[z] for c in configs for z in ("z_min", "z_max")], 1, *_NUMBER)
    if any(c != 1.0 for c in data.get("chi", ())):
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
        mkt_fac=data["mkt_fac"],
        cfg=ThetaFitConfig(*bands.pop()),
    )


def save_model(model: RussianDollModel, path: str | os.PathLike) -> None:
    write_json(path, model_to_dict(model))


def load_model(path: str | os.PathLike) -> RussianDollModel:
    """The model ``save_model`` wrote to ``path``. A refusal of
    ``model_from_dict`` keeps its type and fields, and names the file."""
    return in_file(path, model_from_dict, read_json(path))
