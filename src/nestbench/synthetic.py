"""Deterministic synthetic fixtures with a planted nested factor model.

Stocks get log-normal volatilities and a classification tree; their returns
are sums of seeded series, one per cluster at every level plus a market
series and per-stock noise, so pairs sharing a finer cluster are more
correlated. That is a nested factor model, kept exactly as the instance's
``population_model``; no N x N array is formed. Everything is driven by one
seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import BetaVector, ClassificationTree, ReturnsPanel, tree_from_labels
from .errors import InputError
from .risk_model import RussianDollModel

# Stock volatilities are log-normal with these parameters.
VOL_LOG_MEAN = -3.9
VOL_LOG_SD = 0.35


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape and strength of the planted structure.

    ``clusters`` and ``rho`` run from the most granular level up: ``rho[l-1]``
    is the correlation of two stocks whose finest shared cluster is at level
    l, and ``market_rho`` that of pairs sharing no cluster. The ladder must
    not increase toward coarser levels and must stay nonnegative, so that
    each level carries a nonnegative share of the variance.
    """

    n: int
    t: int
    clusters: tuple[int, ...]
    rho: tuple[float, ...]
    market_rho: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "clusters", tuple(int(k) for k in self.clusters))
        object.__setattr__(self, "rho", tuple(float(r) for r in self.rho))
        if len(self.clusters) < 1:
            raise InputError("need at least one classification level")
        if len(self.rho) != len(self.clusters):
            raise InputError("need one correlation per level")
        if any(k < 1 for k in self.clusters):
            raise InputError("cluster counts must be positive")
        if any(self.clusters[i] < self.clusters[i + 1] for i in range(len(self.clusters) - 1)):
            raise InputError(f"cluster counts must not increase with level: {self.clusters}")
        if self.n < 2 * self.clusters[0]:
            raise InputError(f"need n >= 2 * K1 = {2 * self.clusters[0]}, got {self.n}")
        if self.t < 2:
            raise InputError("need at least 2 periods")
        ladder = list(self.rho) + [self.market_rho]
        if not all(-1.0 < r < 1.0 for r in ladder):
            raise InputError("correlations must lie in (-1, 1)")
        if any(ladder[i] < ladder[i + 1] for i in range(len(ladder) - 1)) or ladder[-1] < 0.0:
            raise InputError(f"correlation ladder must be nonincreasing and nonnegative: {ladder}")


@dataclass(frozen=True)
class SyntheticInstance:
    """A sampled panel, its tree, and the model the panel was drawn from:
    betas are the volatilities, so the model's correlations are the ladder."""

    panel: ReturnsPanel
    tree: ClassificationTree
    population_model: RussianDollModel


def generate(spec: SyntheticSpec) -> SyntheticInstance:
    """Sample one instance; identical specs produce identical instances at
    any BLAS thread count, since the O(N T) draw is elementwise."""
    rng = np.random.default_rng(spec.seed)
    tickers = tuple(f"S{i:04d}" for i in range(1, spec.n + 1))
    p = len(spec.clusters)

    sizes = (spec.n,) + spec.clusters
    m = np.arange(spec.n)  # stock -> cluster at the level reached
    labels = []
    for lvl in range(p):
        m = _balanced_assignment(sizes[lvl], sizes[lvl + 1], rng)[m]
        labels.append([f"L{lvl + 1}C{a + 1:03d}" for a in m])
    tree = tree_from_labels(tickers, list(zip(*labels)))

    sigma = rng.lognormal(VOL_LOG_MEAN, VOL_LOG_SD, spec.n)
    ladder = spec.rho + (spec.market_rho,)
    shares = [ladder[lvl] - ladder[lvl + 1] for lvl in range(p)]  # variance per level
    z = np.sqrt(1.0 - ladder[0]) * rng.standard_normal((spec.n, spec.t))
    for lvl, k in enumerate(spec.clusters):
        z += np.sqrt(shares[lvl]) * rng.standard_normal((k, spec.t))[tree.stock_clusters(lvl + 1)]
    z += np.sqrt(spec.market_rho) * rng.standard_normal(spec.t)
    dates = tuple(f"d{s:04d}" for s in range(1, spec.t + 1))
    panel = ReturnsPanel(tickers, dates, sigma[:, None] * z)

    model = RussianDollModel(
        tree=tree,
        beta=BetaVector(tickers, sigma),
        xi2=sigma**2 * (1.0 - ladder[0]),
        zeta2=tuple(np.full(k, share) for k, share in zip(spec.clusters, shares)),
        top_var=spec.market_rho,
        fitted_cluster_var=tuple(np.full(k, ladder[lvl]) for lvl, k in enumerate(spec.clusters)),
        mkt_fac=spec.market_rho > 0.0,
    )
    return SyntheticInstance(panel, tree, model)


def _balanced_assignment(n_units: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Random assignment of units to k groups with sizes as even as possible."""
    counts = np.full(k, n_units // k)
    counts[: n_units % k] += 1
    ids = np.repeat(np.arange(k), counts)
    return rng.permutation(ids)
