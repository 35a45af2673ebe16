import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nestbench
from conftest import panel_with_covariance, random_instance
from _dense import DenseCovariance, fit_block

from nestbench import (
    BetaVector,
    ClassificationTree,
    ReturnsPanel,
    RussianDollModel,
    SyntheticSpec,
    ThetaFitConfig,
    benchmark_weights,
    build_russian_doll,
    combine,
    default_gamma_max,
    fit_theta,
    generate,
    make_betas,
    make_overlay_problem,
    model_from_dict,
    model_to_dict,
    optimize_mvo,
    tree_from_labels,
)
from nestbench.errors import InputError, InvalidBeta, InvalidVariance, NegativeSpecificVariance, UnmappedStock
from nestbench.risk_model import assemble_dense

DEFAULT = ThetaFitConfig()


class TestFitTheta:
    def test_single_member_closed_form(self):
        assert fit_block(np.array([[0.04]]), np.array([2.0])) == (1 - 0.9**2) * 0.04 / 4.0

    def test_two_member_interior(self):
        x = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert fit_block(x, np.array([1.0, 1.0])) == pytest.approx(0.5, rel=1e-15)

    def test_two_member_clamped_low(self):
        x = np.array([[1.0, 0.05], [0.05, 1.0]])
        theta = fit_block(x, np.array([1.0, 1.0]))
        assert theta == pytest.approx(1 - 0.9**2, rel=1e-15)

    def test_conflicting_bounds_upper_wins(self):
        # standardized loadings (1, 3): lower bound 0.19 exceeds upper 0.11,
        # and the min(max(.)) order must land on the upper bound
        x = np.array([[1.0, 0.3], [0.3, 1.0]])
        b = np.array([1.0, 3.0])
        t_max = (1 - 0.1**2) / 9.0
        assert fit_block(x, b) == pytest.approx(t_max, rel=1e-15)

    def test_negative_average_correlation_clamps_to_lower(self):
        x = np.array([[1.0, -0.4], [-0.4, 1.0]])
        assert fit_block(x, np.array([1.0, 1.0])) == pytest.approx(0.19, rel=1e-12)

    def test_loading_sign_does_not_flip_fit(self):
        x = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert fit_block(x, np.array([1.0, 1.0])) == fit_block(x, np.array([-1.0, -1.0]))

    def test_errors(self):
        # a member with zero variance has no Cholesky factor; its series is 0
        with pytest.raises(InvalidVariance):
            fit_theta(np.zeros((1, 3)), np.array([0.0]), np.array([1.0]), np.zeros(1, dtype=np.int64))
        with pytest.raises(InvalidVariance):
            fit_block(np.eye(2), np.array([1.0, 0.0]))

    def test_gapped_cluster_map_names_the_empty_cluster(self):
        series = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]])
        with pytest.raises(InputError, match="cluster 1 "):
            fit_theta(series, np.ones(4), np.ones(4), np.array([0, 0, 2, 2]))

    def test_config_validation(self):
        with pytest.raises(InputError):
            ThetaFitConfig(z_min=0.9, z_max=0.1)

    def test_specific_fraction_band(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            m = int(rng.integers(1, 12))
            a = rng.normal(size=(m, m + 2))
            x = a @ a.T + 1e-6 * np.eye(m)
            b = rng.uniform(0.3, 3.0, m) * rng.choice([-1.0, 1.0], m)
            theta = fit_block(x, b, DEFAULT)
            frac = np.sqrt(1.0 - theta * b**2 / np.diag(x))
            assert np.all(frac >= DEFAULT.z_min - 1e-12)
            assert np.all(frac <= 1.0 + 1e-12)


def _two_cluster_tree(n=4):
    labels = [("c1",), ("c1",), ("c2",), ("c2",)][:n]
    return tree_from_labels(tuple(f"S{i}" for i in range(n)), labels)


class TestBuildRussianDoll:
    def test_symmetric_instance_diagonal_identity(self):
        inst = random_instance(0, n_range=(4, 4), p_range=(1, 1), mkt_fac=True)
        assert np.all(inst.model.xi2 > 0)
        dense = assemble_dense(inst.model)
        np.testing.assert_allclose(np.diag(dense), np.diag(inst.cov), rtol=1e-10)

    def test_inadmissible_dispersion_aborts(self):
        tree = _two_cluster_tree()
        panel = panel_with_covariance(tree.tickers, np.eye(4))
        beta = BetaVector(tree.tickers, np.array([1.0, 3.0, 1.0, 1.0]))
        with pytest.raises(NegativeSpecificVariance) as err:
            build_russian_doll(panel, tree, beta)
        assert err.value.level == 0
        assert "S0" in str(err.value) or "S1" in str(err.value)

    def test_block_diagonal_top_fit_clamps_to_lower_bound(self):
        # zero inter-cluster correlation: the top-level least squares is 0 and
        # must clamp to the lower bound (1 - z_max^2) * cluster variance
        block = np.array([[1.0, 0.5], [0.5, 1.0]])
        cov_values = np.zeros((4, 4))
        cov_values[:2, :2] = block
        cov_values[2:, 2:] = block
        tree = _two_cluster_tree()
        panel = panel_with_covariance(tree.tickers, cov_values)
        beta = BetaVector(tree.tickers, np.ones(4))
        model = build_russian_doll(panel, tree, beta, mkt_fac=True)
        np.testing.assert_allclose(model.fitted_cluster_var[0], [0.5, 0.5], rtol=1e-14)
        assert model.top_var == pytest.approx((1 - 0.9**2) * 0.5, rel=1e-12)
        np.testing.assert_allclose(model.xi2, 0.5, rtol=1e-14)

    def test_mkt_fac_false_pins_top_to_zero(self):
        inst = random_instance(5, n_range=(8, 16), p_range=(2, 2), mkt_fac=False)
        assert inst.model.top_var == 0.0

    def test_fit_allocates_no_dense_covariance(self):
        import tracemalloc

        n, t = 3000, 60
        rng = np.random.default_rng(0)
        values = rng.standard_normal((n, t)) + rng.standard_normal((300, t))[np.arange(n) % 300]
        even = [(f"a{i % 300}", f"b{i % 30}") for i in range(n)]
        # one level-1 cluster of 2000 stocks beside 100 small ones: a
        # 2000 x 2000 member block alone would be 22x the panel
        skewed = [("a0", "b0") if i < 2000 else (f"a{i % 100 + 1}", f"b{i % 10 + 1}") for i in range(n)]
        for labels in (even, skewed):
            tree = tree_from_labels(tuple(f"S{i}" for i in range(n)), labels)
            panel = ReturnsPanel(tree.tickers, tuple(f"d{s}" for s in range(t)), values)
            beta = BetaVector(tree.tickers, values.std(axis=1, ddof=1))
            tracemalloc.start()
            try:
                build_russian_doll(panel, tree, beta)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < n * n * 8
            assert peak < 3 * values.nbytes

    def test_zero_variance_stock_is_named(self):
        values = np.random.default_rng(0).normal(size=(4, 30))
        values[2] = 0.0
        tickers = ("S0", "S1", "S2", "S3")
        panel = ReturnsPanel(tickers, tuple(f"d{s}" for s in range(30)), values)
        beta = BetaVector(tickers, np.ones(4))
        for labels in ([("c1",), ("c1",), ("c2",), ("c3",)], [("c1",), ("c1",), ("c2",), ("c2",)]):
            with pytest.raises(InvalidVariance, match="'S2'"):
                build_russian_doll(panel, tree_from_labels(tickers, labels), beta)

    def test_non_positive_cluster_specific_variance_is_named(self):
        # a level-2 fit that takes the whole of one cluster's variance leaves
        # that cluster no specific variance
        inst = generate(SyntheticSpec(n=60, t=8, clusters=(6, 2), rho=(0.995, 0.5), market_rho=0.2, seed=11))
        with pytest.raises(NegativeSpecificVariance, match=re.escape(
                "level 2, cluster 'L2C002': specific variance 0 is not positive")) as err:
            build_russian_doll(inst.panel, inst.tree, make_betas(inst.panel), cfg=ThetaFitConfig(0.0, 0.9))
        assert (err.value.level, err.value.cluster) == (2, "L2C002")

    def test_cancelling_cluster_is_named(self):
        # two members whose returns cancel exactly sum to a series of zero variance
        values = np.random.default_rng(0).normal(size=(4, 30))
        values[1] = -values[0]
        tickers = ("S0", "S1", "S2", "S3")
        panel = ReturnsPanel(tickers, tuple(f"d{s}" for s in range(30)), values)
        tree = tree_from_labels(tickers, [("c1",), ("c1",), ("c2",), ("c2",)])
        with pytest.raises(InvalidVariance, match="aggregated variance of cluster 'c1' is not positive"):
            build_russian_doll(panel, tree, make_betas(panel))

    def test_misaligned_inputs(self):
        tree = _two_cluster_tree()
        panel = panel_with_covariance(("X0", "X1", "X2", "X3"), np.eye(4))
        beta = BetaVector(tree.tickers, np.ones(4))
        with pytest.raises(InputError):
            build_russian_doll(panel, tree, beta)


_TRUTH = dict(n=60, clusters=(6, 2), rho=(0.5, 0.3), market_rho=0.1)


def _planted_and_limit(seed, t):
    """A synthetic instance and the fit at its population limit: a panel
    whose sample covariance is the planted model's, to rounding."""
    instance = generate(SyntheticSpec(t=t, seed=seed, **_TRUTH))
    truth = instance.population_model
    panel = panel_with_covariance(instance.tree.tickers, assemble_dense(truth))
    return instance, build_russian_doll(panel, instance.tree, truth.beta)


def _max_rel_error(model, reference):
    def params(m):
        return np.concatenate(
            [m.xi2, *m.zeta2, *m.fitted_cluster_var, [m.top_var], benchmark_weights(m).weights]
        )

    return float(np.abs(params(model) / params(reference) - 1.0).max())


class TestKnownTruth:
    """The fit against the nested model a synthetic panel was drawn from.

    Only level 1 is recovered exactly at the population limit: each coarser
    level is fitted on member sums, whose member noise dilutes the planted
    correlations (theta_2 about 0.270 against 0.3 here)."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_population_limit_recovers_level_one(self, seed):
        instance, limit = _planted_and_limit(seed, t=2)
        truth = instance.population_model
        np.testing.assert_allclose(limit.fitted_cluster_var[0], _TRUTH["rho"][0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(limit.xi2, truth.xi2, rtol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_population_limit_weights_near_planted(self, seed):
        instance, limit = _planted_and_limit(seed, t=2)
        expected = benchmark_weights(instance.population_model).weights
        np.testing.assert_allclose(benchmark_weights(limit).weights, expected, rtol=1e-2)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sample_fit_approaches_population_limit(self, seed):
        errors = []
        for t in (1000, 16000):
            instance, limit = _planted_and_limit(seed, t)
            fit = build_russian_doll(instance.panel, instance.tree, instance.population_model.beta)
            errors.append(_max_rel_error(fit, limit))
        assert errors[1] < 0.1
        assert errors[1] < errors[0] / 2


class TestAssembleDense:
    def _model(self, tree, xi2, zeta2, top_var, beta=None):
        n = len(tree.tickers)
        beta = BetaVector(tree.tickers, np.ones(n) if beta is None else beta)
        return RussianDollModel(
            tree=tree,
            beta=beta,
            xi2=np.asarray(xi2, dtype=float),
            zeta2=tuple(np.asarray(z, dtype=float) for z in zeta2),
            top_var=top_var,
            fitted_cluster_var=tuple(np.ones(k) for k in tree.cluster_counts),
            mkt_fac=top_var > 0,
        )

    def test_zero_factor_risk_gives_diagonal(self):
        tree = _two_cluster_tree()
        xi2 = np.array([0.5, 0.7, 0.9, 1.1])
        model = self._model(tree, xi2, [np.zeros(2)], 0.0)
        np.testing.assert_array_equal(assemble_dense(model), np.diag(xi2))

    def test_single_cluster_rank_one(self):
        tree = tree_from_labels(("A", "B", "C"), [("c",), ("c",), ("c",)])
        xi2 = np.array([0.5, 0.6, 0.7])
        beta = np.array([1.0, 1.5, 0.8])
        model = self._model(tree, xi2, [np.zeros(1)], 0.3, beta=beta)
        expected = np.diag(xi2) + 0.3 * np.outer(beta, beta)
        np.testing.assert_allclose(assemble_dense(model), expected, rtol=1e-15)

    def test_fitted_models_match_sample_diagonal(self):
        for seed in range(5):
            inst = random_instance(seed, n_range=(6, 30))
            dense = assemble_dense(inst.model)
            rel = np.abs(np.diag(dense) - np.diag(inst.cov)) / np.diag(inst.cov)
            assert rel.max() <= 1e-10

    def test_positive_definite(self):
        for seed in range(5):
            inst = random_instance(seed + 50, n_range=(6, 30))
            np.linalg.cholesky(assemble_dense(inst.model))  # raises if not PD

    def test_rejects_variances_that_break_positive_definiteness(self):
        # the overlay relies on these checks: it takes the model, not a matrix
        tree = _two_cluster_tree()
        xi2 = np.array([0.5, 0.7, 0.9, 1.1])
        for bad_xi2, zeta2, top_var in (
            (np.array([0.5, 0.0, 0.9, 1.1]), np.zeros(2), 0.1),
            (xi2, np.array([0.2, -0.1]), 0.1),
            (xi2, np.zeros(2), -0.1),
        ):
            with pytest.raises(InvalidVariance):
                self._model(tree, bad_xi2, [zeta2], top_var)


def _masks(model, rng):
    """All free, one free stock, level-1 clusters without a free member,
    and a random half."""
    n = model.n_stocks
    one = np.zeros(n, dtype=bool)
    one[rng.integers(n)] = True
    odd_clusters = model.tree.parent_maps[0] % 2 == 1
    return [None, np.ones(n, dtype=bool), one, odd_clusters, rng.random(n) < 0.5]


def _assert_matches_dense(model, v, masks):
    dense = DenseCovariance(assemble_dense(model))

    def close(actual, expected):
        np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-12 * np.abs(expected).max())

    close(model.matvec(v), dense.matvec(v))
    for free in masks:
        x = model.solve(v, free)
        if free is None:
            close(x, dense.solve(v))
            continue
        close(x, dense.solve(v, free) if free.any() else np.zeros(model.n_stocks))
        assert np.all(x[~free] == 0.0)
    # k right sides in one solve, with level-1 cluster 0 left without a free member
    block = np.column_stack([v, np.ones_like(v), v[::-1]])
    free = model.tree.parent_maps[0] != 0
    close(model.solve(block, free), dense.solve(block, free) if free.any() else np.zeros(block.shape))


class TestNestedPrimitive:
    def test_matches_dense_on_fitted_models(self):
        for seed in range(60):
            model = random_instance(seed).model
            rng = np.random.default_rng(seed)
            _assert_matches_dense(model, rng.normal(size=model.n_stocks), _masks(model, rng))

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        n=st.integers(1, 12),
        levels=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        zero_zeta=st.lists(st.booleans(), min_size=3, max_size=3),
        zero_top=st.booleans(),
    )
    def test_matches_dense_on_hand_built_models(self, n, levels, seed, zero_zeta, zero_top):
        # cluster and market variances may be 0, which the fit never returns
        rng = np.random.default_rng(seed)
        sizes = [n]
        maps = []
        for _ in range(levels):
            k = int(rng.integers(1, sizes[-1] + 1))
            maps.append(rng.permutation(np.concatenate([np.arange(k), rng.integers(0, k, sizes[-1] - k)])))
            sizes.append(k)
        tickers = tuple(f"S{i}" for i in range(n))
        names = tuple(tuple(f"L{lvl}_{a}" for a in range(k)) for lvl, k in enumerate(sizes[1:]))
        tree = ClassificationTree(tickers, names, tuple(maps))
        zeta2 = tuple(
            np.zeros(k) if zero_zeta[lvl] else rng.uniform(0.0, 2.0, k) for lvl, k in enumerate(sizes[1:])
        )
        model = RussianDollModel(
            tree=tree,
            beta=BetaVector(tickers, rng.uniform(0.2, 2.0, n)),
            xi2=rng.uniform(0.05, 1.0, n),
            zeta2=zeta2,
            top_var=0.0 if zero_top else float(rng.uniform(0.0, 2.0)),
            fitted_cluster_var=tuple(np.ones(k) for k in sizes[1:]),
            mkt_fac=not zero_top,
        )
        _assert_matches_dense(model, rng.normal(size=n), _masks(model, rng))

    def test_overlay_allocates_no_dense_covariance(self):
        import tracemalloc

        n = 2000
        rng = np.random.default_rng(0)
        labels = [(f"a{i % 200}", f"b{i % 20}") for i in range(n)]
        tree = tree_from_labels(tuple(f"S{i}" for i in range(n)), labels)
        model = RussianDollModel(
            tree=tree,
            beta=BetaVector(tree.tickers, rng.uniform(0.5, 1.5, n)),
            xi2=rng.uniform(0.5, 2.0, n),
            zeta2=(rng.uniform(0.1, 0.5, 200), rng.uniform(0.1, 0.5, 20)),
            top_var=0.3,
            fitted_cluster_var=(np.ones(200), np.ones(20)),
            mkt_fac=True,
        )
        w_star = benchmark_weights(model).weights
        signal = rng.normal(0.0, 1.0, n)
        tracemalloc.start()
        try:
            problem = make_overlay_problem(signal, model, w_star,
                                           modes=("dollar-neutral", "zero-expected-correlation"))
            gamma = 2.0 * default_gamma_max(problem) / 100.0  # twice the first bind
            w = optimize_mvo(problem, gamma)
            combine(problem.w_star, w, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < np.sum((w == problem.lower) | (w == problem.upper)) < n // 10
        assert peak < n * n * 8


class TestScaleBehaviour:
    def test_rescaled_returns_rescale_the_model(self):
        inst = random_instance(33, n_range=(8, 20), p_range=(1, 3))
        c = 3.7
        scaled_panel = ReturnsPanel(inst.panel.tickers, inst.panel.dates, c * inst.panel.values)
        scaled_beta = BetaVector(inst.panel.tickers, c * inst.beta.values)
        scaled = build_russian_doll(scaled_panel, inst.tree, scaled_beta, mkt_fac=inst.mkt_fac)
        # admissibility is driven by beta/sigma, which is unchanged; the
        # assembled covariance picks up the c^2 while stock specific
        # variances carry it explicitly
        np.testing.assert_allclose(scaled.xi2, c**2 * inst.model.xi2, rtol=1e-12)
        np.testing.assert_allclose(
            assemble_dense(scaled), c**2 * assemble_dense(inst.model), rtol=1e-12
        )


class TestSerialization:
    def test_dict_roundtrip(self):
        inst = random_instance(7, n_range=(8, 20), p_range=(2, 3))
        back = model_from_dict(model_to_dict(inst.model))
        np.testing.assert_array_equal(back.xi2, inst.model.xi2)
        assert back.top_var == inst.model.top_var
        assert back.mkt_fac == inst.model.mkt_fac
        for a, b in zip(back.zeta2, inst.model.zeta2):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(
            assemble_dense(back), assemble_dense(inst.model)
        )

    def test_loads_snapshot_with_unit_chi(self):
        # snapshots written before chi was dropped carry "chi": [1.0, ...]
        inst = random_instance(7, n_range=(8, 20), p_range=(2, 3))
        data = model_to_dict(inst.model)
        assert "chi" not in data
        data["chi"] = [1.0] * inst.tree.n_levels
        back = model_from_dict(data)
        assert back.cfg == inst.model.cfg
        np.testing.assert_array_equal(
            assemble_dense(back), assemble_dense(inst.model)
        )

    def test_rejects_two_bands(self):
        inst = random_instance(7, n_range=(8, 20), p_range=(2, 3))
        data = model_to_dict(inst.model)
        assert data["configs"] == [{"z_min": 0.1, "z_max": 0.9}] * (inst.tree.n_levels + 1)
        data["configs"][-1] = {"z_min": 0.2, "z_max": 0.9}
        with pytest.raises(InputError, match="one band"):
            model_from_dict(data)

    def test_rejects_non_unit_chi(self):
        inst = random_instance(7, n_range=(8, 20), p_range=(2, 3))
        data = model_to_dict(inst.model)
        data["chi"] = [2.0] + [1.0] * (inst.tree.n_levels - 1)
        with pytest.raises(InputError):
            model_from_dict(data)

    def test_file_roundtrip(self, tmp_path):
        from nestbench import load_model, save_model

        inst = random_instance(8, n_range=(6, 12))
        path = tmp_path / "model.json"
        save_model(inst.model, path)
        back = load_model(path)
        np.testing.assert_array_equal(back.xi2, inst.model.xi2)
        assert back.cfg == inst.model.cfg

    @pytest.mark.parametrize("key, damage", [
        ("xi2", lambda data: data.pop("xi2")),
        ("z_max", lambda data: data.update(configs=data["configs"][:-1] + [{"z_min": 0.1}])),
        ("configs", lambda data: data.update(configs="z_min=0.1,z_max=0.9")),
        ("parent_maps", lambda data: data["parent_maps"][0].__setitem__(1, 0.7)),
        ("mkt_fac", lambda data: data.update(mkt_fac="false")),
        ("beta", lambda data: data["beta"].__setitem__(2, "1.2")),
        ("xi2", lambda data: data["xi2"].pop()),
        ("chi", lambda data: data.update(chi=["x"])),
        ("configs", lambda data: data.update(configs=[{"z_min": "0.1", "z_max": 0.9}] * len(data["configs"]))),
        ("tickers", lambda data: data.update(tickers="S0001")),
        ("level_names", lambda data: data["level_names"][0].__setitem__(0, 7)),
    ], ids=["xi2-missing", "entry-without-z_max", "configs-string", "map-entry-not-integer", "mkt_fac-string",
            "beta-string", "xi2-one-short", "chi-string", "z_min-string", "tickers-string", "level-name-number"])
    def test_broken_snapshot_names_file_and_key(self, tmp_path, key, damage):
        from nestbench import load_model

        data = model_to_dict(random_instance(8, n_range=(6, 12)).model)
        damage(data)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}: .*'{key}'"):
            load_model(path)

    @pytest.mark.parametrize("key, level", [("zeta2", "level-2 specific"), ("top_var", "top-level"),
                                            ("fitted_cluster_var", "level-1 fitted")])
    def test_nan_variance_is_refused_naming_the_file(self, tmp_path, key, level):
        # json reads NaN, which every rule of the model must fail
        data = model_to_dict(random_instance(8, n_range=(6, 12), p_range=(2, 2)).model)
        if key == "top_var":
            data[key] = float("nan")
        else:
            data[key][0 if key == "fitted_cluster_var" else 1][0] = float("nan")
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
        with pytest.raises(InvalidVariance, match=f"^{re.escape(str(path))}: {level} variance"):
            nestbench.load_model(path)

    def test_stock_map_past_the_last_cluster_keeps_its_type(self, tmp_path):
        data = model_to_dict(random_instance(8, n_range=(6, 12)).model)
        data["parent_maps"][0][-1] = len(data["level_names"][0])
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
        with pytest.raises(UnmappedStock, match=f"^{re.escape(str(path))}: stock ") as err:
            nestbench.load_model(path)
        assert err.value.ticker == data["tickers"][-1]

    @pytest.mark.parametrize("bad", [float("nan"), -1.0], ids=["nan", "negative"])
    @pytest.mark.parametrize("key, error", [("xi2", InvalidVariance), ("beta", InvalidBeta),
                                            ("zeta2", InvalidVariance), ("fitted_cluster_var", InvalidVariance)])
    def test_bad_entry_names_the_stock_or_cluster_and_the_file(self, tmp_path, key, error, bad):
        data = model_to_dict(random_instance(8, n_range=(6, 12), p_range=(2, 2)).model)
        per_stock = key in ("xi2", "beta")
        (data[key] if per_stock else data[key][0])[2] = bad
        name = (data["tickers"] if per_stock else data["level_names"][0])[2]
        path = _saved(tmp_path, data)
        with pytest.raises(error, match=f"^{re.escape(str(path))}: .*'{name}'"):
            nestbench.load_model(path)

    def test_level_2_map_entry_out_of_range_names_the_cluster_and_the_file(self, tmp_path):
        data = model_to_dict(random_instance(8, n_range=(6, 12), p_range=(2, 2)).model)
        data["parent_maps"][1][2] = len(data["level_names"][1])
        path = _saved(tmp_path, data)
        with pytest.raises(InputError, match=re.escape(f"{path}: level-1 cluster {data['level_names'][0][2]!r} maps")):
            nestbench.load_model(path)

    def test_empty_cluster_is_named_with_the_file(self, tmp_path):
        data = model_to_dict(random_instance(8, n_range=(6, 12), p_range=(2, 2)).model)
        data["parent_maps"][0] = [0 if c == 1 else c for c in data["parent_maps"][0]]
        path = _saved(tmp_path, data)
        with pytest.raises(InputError, match=re.escape(f"{path}: empty level-1 cluster {data['level_names'][0][1]!r}")):
            nestbench.load_model(path)


def _saved(tmp_path, data):
    """``data`` written as ``model.json`` under ``tmp_path``; its path."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    return path


def test_dense_helpers_are_not_public_names():
    # the dense N x N forms serve only checks, so the package does not offer them
    dense = {"CovarianceMatrix", "sample_covariance", "assemble_dense"}
    assert not dense & (set(dir(nestbench)) | set(nestbench.__all__))
