"""Seeded inputs for the benchmark workloads.

The generator is the benchmark's own: it does not import ``nestbench``, so a
change to the program cannot change what the program is fed. The hierarchy
is planted as a sum of per-level factor series (one series per cluster at
every level, plus a market series and a per-stock noise series), which costs
O(N*T) time and memory. Every array the checks need is saved next to the
CSVs as ``arrays.npz``; the CSVs carry the same float64 values written with
``repr``, so they parse back bit for bit.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np

# Share of a stock's standardized variance carried by the market series and
# by each level's cluster series, most granular level first; the rest is
# idiosyncratic noise.
MARKET_SHARE = 0.08
LEVEL_SHARES = {2: (0.22, 0.12), 3: (0.20, 0.10, 0.08)}

WORKLOADS = {
    # name: CLI command, stocks, periods, clusters per level (most granular
    # first), beta mode
    "bench-wide": dict(command="benchmark", n=6000, t=120, clusters=(600, 60, 6),
                       beta_mode="proportional-to-sigma"),
    "bench-long": dict(command="benchmark", n=1500, t=2500, clusters=(150, 15),
                       beta_mode="observed-capped"),
    "overlay-mid": dict(command="overlay", n=250, t=250, clusters=(25, 5),
                        beta_mode="proportional-to-sigma"),
}

# Cached input sets kept per workload; older seeds are deleted.
KEEP_SEEDS = 3


def _assign(n_children: int, n_parents: int, rng: np.random.Generator) -> np.ndarray:
    """Map each child to a parent so that every parent gets at least two
    children and sizes vary; the children are shuffled across parents."""
    base = np.repeat(np.arange(n_parents), 2)
    extra = rng.integers(0, n_parents, n_children - base.size)
    return rng.permutation(np.concatenate([base, extra]))


def make_arrays(n: int, t: int, clusters: tuple[int, ...], seed: int) -> dict[str, np.ndarray]:
    """Returns, cluster maps, index series and signal for one seed."""
    rng = np.random.default_rng(seed)
    shares = LEVEL_SHARES[len(clusters)]
    sizes = (n,) + tuple(clusters)
    maps = [_assign(sizes[lvl], sizes[lvl + 1], rng) for lvl in range(len(clusters))]
    stock_cluster = []
    m = maps[0]
    for lvl in range(len(clusters)):
        if lvl > 0:
            m = maps[lvl][m]
        stock_cluster.append(m)

    market = rng.standard_normal(t)
    # market loadings vary by stock, so observed betas on the index differ
    market_load = np.sqrt(MARKET_SHARE) * rng.uniform(0.8, 1.25, n)
    z = np.outer(market_load, market)
    for lvl, k in enumerate(clusters):
        series = rng.standard_normal((k, t))
        z += np.sqrt(shares[lvl]) * series[stock_cluster[lvl]]
    noise_share = 1.0 - MARKET_SHARE - sum(shares)
    z += np.sqrt(noise_share) * rng.standard_normal((n, t))
    vol = np.exp(rng.normal(-3.9, 0.35, n))
    returns = vol[:, None] * z + 2e-4 * rng.standard_normal(n)[:, None]

    index = 0.01 * market + 0.002 * rng.standard_normal(t)
    signal = 0.05 * vol * rng.standard_normal(n)
    arrays = {"returns": returns, "index": index, "signal": signal}
    for lvl, m in enumerate(stock_cluster):
        arrays[f"level{lvl + 1}"] = m
    return arrays


def tickers(n: int) -> list[str]:
    return [f"T{i:05d}" for i in range(n)]


def dates(t: int) -> list[str]:
    return [f"D{s:05d}" for s in range(t)]


def level_labels(level: int, clusters: np.ndarray) -> list[str]:
    return [f"L{level}_{c:04d}" for c in clusters.tolist()]


def write_inputs(directory: str, arrays: dict[str, np.ndarray]) -> None:
    returns = arrays["returns"]
    n, t = returns.shape
    names = tickers(n)
    days = dates(t)
    with open(os.path.join(directory, "returns.csv"), "w", encoding="utf-8") as out:
        out.write("ticker," + ",".join(days) + "\n")
        for name, row in zip(names, returns.tolist()):
            out.write(name + "," + ",".join(map(repr, row)) + "\n")
    levels = sorted(k for k in arrays if k.startswith("level"))
    labels = [level_labels(int(k[5:]), arrays[k]) for k in levels]
    with open(os.path.join(directory, "classification.csv"), "w", encoding="utf-8") as out:
        out.write("ticker," + ",".join(levels) + "\n")
        for i, name in enumerate(names):
            out.write(name + "," + ",".join(col[i] for col in labels) + "\n")
    with open(os.path.join(directory, "index.csv"), "w", encoding="utf-8") as out:
        out.write("date,value\n")
        for day, value in zip(days, arrays["index"].tolist()):
            out.write(f"{day},{value!r}\n")
    with open(os.path.join(directory, "signal.csv"), "w", encoding="utf-8") as out:
        out.write("ticker,expected_return\n")
        for name, value in zip(names, arrays["signal"].tolist()):
            out.write(f"{name},{value!r}\n")
    np.savez(os.path.join(directory, "arrays.npz"), **arrays)


def ensure_inputs(cache_root: str, workload: str, seed: int) -> str:
    """Directory holding the inputs of ``workload`` at ``seed``, generated on
    first use. A finished set is marked by ``done.json``; a set left half
    written by an interrupted run is regenerated."""
    spec = WORKLOADS[workload]
    directory = os.path.join(cache_root, f"{workload}-seed{seed}")
    marker = os.path.join(directory, "done.json")
    if os.path.exists(marker):
        os.utime(marker)
        return directory
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    arrays = make_arrays(spec["n"], spec["t"], spec["clusters"], seed)
    write_inputs(directory, arrays)
    with open(marker, "w", encoding="utf-8") as out:
        json.dump({"workload": workload, "seed": seed, **spec}, out)
    _prune(cache_root, workload, keep=directory)
    return directory


def _prune(cache_root: str, workload: str, keep: str) -> None:
    sets = []
    for entry in os.listdir(cache_root):
        path = os.path.join(cache_root, entry)
        marker = os.path.join(path, "done.json")
        if entry.startswith(workload + "-seed") and os.path.exists(marker) and path != keep:
            sets.append((os.path.getmtime(marker), path))
    for _, path in sorted(sets)[: max(0, len(sets) - (KEEP_SEEDS - 1))]:
        shutil.rmtree(path, ignore_errors=True)


def load_arrays(directory: str) -> dict[str, np.ndarray]:
    with np.load(os.path.join(directory, "arrays.npz")) as data:
        return {k: data[k] for k in data.files}
