import numpy as np
import pytest

from nestbench import SyntheticSpec, generate
from nestbench.data_model import cluster_members
from nestbench.errors import InputError
from nestbench.risk_model import assemble_dense


def test_deterministic_given_seed():
    spec = SyntheticSpec(n=10, t=40, clusters=(3,), rho=(0.4,), seed=99)
    a, b = generate(spec), generate(spec)
    np.testing.assert_array_equal(a.panel.values, b.panel.values)
    assert a.tree.level_names == b.tree.level_names
    for x, y in zip(a.tree.parent_maps, b.tree.parent_maps):
        np.testing.assert_array_equal(x, y)


def test_different_seeds_differ():
    base = dict(n=10, t=40, clusters=(3,), rho=(0.4,))
    a = generate(SyntheticSpec(seed=1, **base))
    b = generate(SyntheticSpec(seed=2, **base))
    assert not np.array_equal(a.panel.values, b.panel.values)


def test_planted_within_cluster_correlation_recovered():
    spec = SyntheticSpec(n=16, t=500, clusters=(4,), rho=(0.4,), seed=7)
    instance = generate(spec)
    corr = np.corrcoef(instance.panel.values)
    total = 0.0
    count = 0
    for members in cluster_members(instance.tree.parent_maps[0], 4):
        for i in members:
            for j in members:
                if i < j:
                    total += corr[i, j]
                    count += 1
    assert 0.3 <= total / count <= 0.5


def test_population_cov_matches_plan():
    spec = SyntheticSpec(n=8, t=10, clusters=(2,), rho=(0.5,), market_rho=0.1, seed=0)
    instance = generate(spec)
    sigma = instance.population_model.beta.values
    corr = assemble_dense(instance.population_model) / np.outer(sigma, sigma)
    composed = instance.tree.stock_clusters(1)
    for i in range(8):
        for j in range(8):
            if i == j:
                expected = 1.0
            elif composed[i] == composed[j]:
                expected = 0.5
            else:
                expected = 0.1
            assert corr[i, j] == pytest.approx(expected, rel=1e-12)


def test_invalid_specs_rejected():
    with pytest.raises(InputError):
        SyntheticSpec(n=3, t=40, clusters=(4,), rho=(0.4,))  # n < 2 * K1
    with pytest.raises(InputError):
        SyntheticSpec(n=16, t=40, clusters=(4, 6), rho=(0.4, 0.3))  # counts increase
    with pytest.raises(InputError):
        SyntheticSpec(n=16, t=40, clusters=(4, 2), rho=(0.3, 0.5))  # ladder increases
    with pytest.raises(InputError):
        SyntheticSpec(n=16, t=40, clusters=(4,), rho=(1.2,))  # out of range
    with pytest.raises(InputError):
        SyntheticSpec(n=16, t=1, clusters=(4,), rho=(0.4,))  # too few periods


def test_every_cluster_populated():
    spec = SyntheticSpec(n=30, t=20, clusters=(10, 4, 2), rho=(0.5, 0.3, 0.2), seed=13)
    instance = generate(spec)
    for level, k in enumerate(spec.clusters):
        sizes = [len(m) for m in cluster_members(instance.tree.parent_maps[level], k)]
        assert min(sizes) >= 1
    assert min(len(m) for m in cluster_members(instance.tree.parent_maps[0], 10)) >= 2


def test_generate_allocates_no_dense_covariance():
    import tracemalloc

    n = 3000
    spec = SyntheticSpec(n=n, t=60, clusters=(300, 30), rho=(0.4, 0.2), market_rho=0.05, seed=0)
    tracemalloc.start()
    try:
        generate(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8
