"""Shared generators for seeded random test instances."""

import contextlib
import os
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest

import nestbench
from nestbench import (
    BetaVector,
    ClassificationTree,
    OverlayProblem,
    ReturnsPanel,
    RussianDollModel,
    SyntheticSpec,
    benchmark_weights,
    build_russian_doll,
    data_model,
    generate,
    make_overlay_problem,
)
from nestbench.risk_model import sample_covariance


@dataclass
class Instance:
    panel: ReturnsPanel
    tree: ClassificationTree
    cov: np.ndarray
    beta: BetaVector
    model: RussianDollModel
    mkt_fac: bool


def random_instance(
    seed: int,
    n_range=(4, 50),
    t_range=(60, 260),
    p_range=(1, 3),
    mkt_fac: bool | None = None,
    beta_hat_range=(0.75, 1.45),
) -> Instance:
    """One fitted model on a synthetic panel with admissible beta dispersion."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    t = int(rng.integers(t_range[0], t_range[1] + 1))
    p = int(rng.integers(p_range[0], p_range[1] + 1))

    clusters = []
    k = max(1, n // int(rng.integers(2, 5)))
    for _ in range(p):
        clusters.append(k)
        k = max(1, k // int(rng.integers(2, 4)))
    clusters[0] = min(clusters[0], n // 2)
    for i in range(1, p):
        clusters[i] = min(clusters[i], clusters[i - 1])

    rho = []
    level_rho = float(rng.uniform(0.3, 0.6))
    for _ in range(p):
        rho.append(level_rho)
        level_rho *= float(rng.uniform(0.4, 0.9))
    market_rho = level_rho * float(rng.uniform(0.0, 0.8))

    spec = SyntheticSpec(
        n=n,
        t=t,
        clusters=tuple(clusters),
        rho=tuple(rho),
        market_rho=market_rho,
        seed=int(rng.integers(0, 2**31)),
    )
    instance = generate(spec)
    cov = sample_covariance(instance.panel)
    sigma = np.sqrt(np.diag(cov))
    beta_hat = rng.uniform(beta_hat_range[0], beta_hat_range[1], n)
    beta = BetaVector(instance.panel.tickers, beta_hat * sigma)
    if mkt_fac is None:
        mkt_fac = bool(rng.integers(0, 2))
    model = build_russian_doll(instance.panel, instance.tree, beta, mkt_fac=mkt_fac)
    return Instance(instance.panel, instance.tree, cov, beta, model, mkt_fac)


def panel_with_covariance(tickers, cov, seed: int = 0) -> ReturnsPanel:
    """A panel whose sample covariance equals ``cov`` (positive definite) to
    rounding: T = N + 1 periods whose centred rows are an orthonormal basis,
    from the QR of a centred Gaussian, mapped through the Cholesky factor."""
    c = np.asarray(cov, dtype=float)
    n = c.shape[0]
    g = np.random.default_rng(seed).standard_normal((n + 1, n))
    q, _ = np.linalg.qr(g - g.mean(axis=0))
    values = np.linalg.cholesky(c) @ q.T * np.sqrt(n)
    return ReturnsPanel(tuple(tickers), tuple(f"d{s}" for s in range(n + 1)), values)


def random_overlay_problem(
    seed: int,
    n_range=(4, 30),
    modes=("dollar-neutral",),
    band: float = 0.5,
) -> tuple[OverlayProblem, float]:
    """An overlay instance on a fitted model, plus a gamma' in the region
    where bounds start to matter."""
    from nestbench import default_gamma_max
    from nestbench.risk_model import assemble_dense

    rng = np.random.default_rng(seed + 900_000)
    inst = random_instance(seed + 900_000, n_range=n_range, t_range=(80, 160), p_range=(1, 2))
    w_star = benchmark_weights(inst.model).weights
    signal = rng.normal(0.0, 1.0, inst.panel.n_stocks) * np.sqrt(np.diag(assemble_dense(inst.model)))
    problem = make_overlay_problem(signal, inst.model, w_star, band=band, modes=modes)
    first_bind = default_gamma_max(problem) / 100.0
    gamma = first_bind * float(10.0 ** rng.uniform(-0.5, 1.0))
    return problem, gamma


def past_one_upper_bound(optimize):
    """``optimize_mvo``, with each sleeve pushed 1e-6 past the upper bound of
    the stock nearest that bound and the excess taken from the stock with the
    most room above its lower bound, so the sleeve stays dollar-neutral."""

    def optimize_past_bound(problem, gamma, start=None):
        w = np.array(optimize(problem, gamma, start))
        top = int(np.argmax(w - problem.upper))
        room = w - problem.lower
        room[top] = -np.inf
        shift = problem.upper[top] + 1e-6 - w[top]
        w[top] += shift
        w[int(np.argmax(room))] -= shift
        return w

    return optimize_past_bound


def memberships(tree: ClassificationTree) -> list[np.ndarray]:
    """Stock-level binary N x K membership matrices, most granular first."""
    out = []
    for level in range(1, tree.n_levels + 1):
        m = np.zeros((len(tree.tickers), tree.cluster_counts[level - 1]))
        m[np.arange(len(tree.tickers)), tree.stock_clusters(level)] = 1.0
        out.append(m)
    return out


def blas_threads_env(threads: int) -> dict:
    """Environment for a child Python that imports this checkout's nestbench
    with BLAS limited to ``threads`` threads."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(nestbench.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


@contextlib.contextmanager
def usable_cpus(k: int):
    """Make ``load_returns_csv`` run as on a host with ``k`` usable CPUs,
    with the range floor it ships with. Yields a Counter of the workers
    forked (``"_fork_worker"``) and of the per-cell parses run
    (``"_load_returns_slowly"``)."""
    calls = Counter()
    with pytest.MonkeyPatch.context() as patch:
        for name in ("_fork_worker", "_load_returns_slowly"):
            patch.setattr(data_model, name, _counted(getattr(data_model, name), name, calls))
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))
        yield calls


@contextlib.contextmanager
def returns_ranges(k: int):
    """``usable_cpus(k)``, with ``load_returns_csv`` cutting every returns
    file with data into up to ``k`` ranges, however small."""
    with usable_cpus(k) as calls, pytest.MonkeyPatch.context() as patch:
        patch.setattr(data_model, "_MIN_RANGE_BYTES", 1 if k > 1 else 1 << 62)
        yield calls


def _counted(fn, name, calls):
    def wrapper(*args):
        calls[name] += 1
        return fn(*args)

    return wrapper


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
