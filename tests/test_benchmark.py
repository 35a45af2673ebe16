import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _dense import benchmark_weights_oracle, betas_from_weights, general_factor_weights
from _reference import reference_weights
from conftest import memberships, panel_with_covariance, random_instance

from nestbench import (
    BetaSpec,
    BetaVector,
    ReturnsPanel,
    RussianDollModel,
    ThetaFitConfig,
    benchmark_weights,
    build_russian_doll,
    make_betas,
    tree_from_labels,
)
from nestbench.benchmark import _median, write_weights_csv
from nestbench.data_model import read_keyed_csv
from nestbench.errors import InputError, InvalidBeta, SingularCovariance
from nestbench.risk_model import assemble_dense


class TestOracle:
    def test_diagonal_case(self):
        w, sigma2 = benchmark_weights_oracle(np.diag([1.0, 4.0]), np.array([1.0, 2.0]))
        assert sigma2 == pytest.approx(0.5, rel=1e-15)
        np.testing.assert_allclose(w, [0.5, 0.25], rtol=1e-15)
        assert w @ np.array([1.0, 2.0]) == pytest.approx(1.0, rel=1e-15)

    def test_identity_uniform(self):
        n = 7
        w, _ = benchmark_weights_oracle(np.eye(n), np.ones(n))
        np.testing.assert_allclose(w, 1.0 / n, rtol=1e-14)

    def test_singular_rejected(self):
        with pytest.raises(SingularCovariance):
            benchmark_weights_oracle(np.ones((3, 3)), np.ones(3))


class TestBenchmarkWeights:
    def test_fully_symmetric_instance_is_uniform(self):
        sigma = 0.02
        rho = 0.3
        n = 4
        cov_values = sigma**2 * ((1 - rho) * np.eye(n) + rho * np.ones((n, n)))
        tree = tree_from_labels(
            ("A", "B", "C", "D"), [("c1",), ("c1",), ("c2",), ("c2",)]
        )
        panel = panel_with_covariance(tree.tickers, cov_values)
        beta = BetaVector(tree.tickers, np.full(n, sigma))
        model = build_russian_doll(panel, tree, beta, mkt_fac=True)
        result = benchmark_weights(model)
        np.testing.assert_allclose(result.weights, 1.0 / (n * sigma), rtol=1e-12)
        assert result.weights @ beta.values == pytest.approx(1.0, abs=1e-15)

    def test_single_cluster_reduces_to_specific_risk_rule(self):
        # with one cluster the weights collapse to beta over specific
        # variance, normalized by the aggregated loading
        inst = random_instance(21, n_range=(6, 15), p_range=(1, 1))
        tree = tree_from_labels(inst.panel.tickers, [("all",)] * inst.panel.n_stocks)
        model = build_russian_doll(inst.panel, tree, inst.beta, mkt_fac=True)
        result = benchmark_weights(model)
        beta = inst.beta.values
        eta = 1.0 / np.sum(beta**2 / model.xi2)
        np.testing.assert_allclose(result.weights, eta * beta / model.xi2, rtol=1e-12)

    def test_matches_dense_oracle(self):
        for seed in range(10):
            inst = random_instance(seed + 100)
            result = benchmark_weights(inst.model)
            w_ref, sigma2_ref = benchmark_weights_oracle(assemble_dense(inst.model), inst.beta)
            np.testing.assert_allclose(result.weights, w_ref, rtol=1e-8)
            assert result.sigma_f2 == pytest.approx(sigma2_ref, rel=1e-8)

    def test_matches_reference_algorithm(self):
        for seed in range(30):
            inst = random_instance(seed)
            w = benchmark_weights(inst.model).weights
            w_ref = reference_weights(
                inst.panel.values, memberships(inst.tree), inst.beta.values, mkt_fac=inst.mkt_fac
            )
            np.testing.assert_allclose(w, w_ref, rtol=1e-10)

    def test_round_trip_betas(self):
        for seed in range(5):
            inst = random_instance(seed + 300)
            result = benchmark_weights(inst.model)
            beta_back, sigma2 = betas_from_weights(assemble_dense(inst.model), result.weights)
            np.testing.assert_allclose(beta_back, inst.beta.values, rtol=1e-10)
            assert sigma2 == pytest.approx(result.sigma_f2, rel=1e-10)

    def test_two_level_gamma_factorizes(self):
        # hand-built 2-level model with uniform cluster loadings: the cluster
        # factors must split into three independent shrinkage terms
        rng = np.random.default_rng(8)
        tickers = tuple(f"S{i}" for i in range(8))
        labels = [
            ("a", "X"), ("a", "X"), ("b", "X"), ("b", "X"),
            ("c", "Y"), ("c", "Y"), ("d", "Y"), ("d", "Y"),
        ]
        tree = tree_from_labels(tickers, labels)
        xi2 = rng.uniform(0.5, 2.0, 8)
        beta = rng.uniform(0.8, 1.3, 8)
        z1 = rng.uniform(0.1, 0.6, 4)   # level-1 specific variances
        z2 = rng.uniform(0.1, 0.6, 2)   # level-2 specific variances
        omega2 = rng.uniform(0.1, 0.5)  # top variance
        model = RussianDollModel(
            tree=tree,
            beta=BetaVector(tickers, beta),
            xi2=xi2,
            zeta2=(z1, z2),
            top_var=float(omega2),
            fitted_cluster_var=(np.ones(4), np.ones(2)),
            mkt_fac=True,
            configs=(ThetaFitConfig(),) * 3,
        )
        gamma = benchmark_weights(model).gamma

        lam = np.array([np.sum(beta[idx] ** 2 / xi2[idx]) for idx in tree.children(1)])
        shrunk1 = lam / (1.0 + z1 * lam)
        lam2 = np.array([shrunk1[idx].sum() for idx in tree.children(2)])
        tau = omega2 * np.sum(lam2 / (1.0 + z2 * lam2))
        parent = tree.parent_maps[1]
        expected = 1.0 / ((1.0 + z1 * lam) * (1.0 + z2[parent] * lam2[parent]) * (1.0 + tau))
        np.testing.assert_allclose(gamma, expected, rtol=1e-10)

    def test_beta_scaling_rescales_weights(self):
        inst = random_instance(44, n_range=(8, 20))
        c = 2.5
        scaled_beta = BetaVector(inst.panel.tickers, c * inst.beta.values)
        scaled_model = build_russian_doll(inst.panel, inst.tree, scaled_beta, mkt_fac=inst.mkt_fac)
        w1 = benchmark_weights(inst.model).weights
        w2 = benchmark_weights(scaled_model).weights
        np.testing.assert_allclose(w2, w1 / c, rtol=1e-12)
        assert np.array_equal(np.argsort(w1), np.argsort(w2))

    def test_weights_positive_and_normalized(self):
        for seed in range(5):
            inst = random_instance(seed + 700)
            result = benchmark_weights(inst.model)
            assert np.all(result.weights > 0)
            assert abs(result.weights @ inst.beta.values - 1.0) <= 1e-12


class TestGeneralFactorWeights:
    def test_no_factors_limit(self):
        rng = np.random.default_rng(2)
        xi2 = rng.uniform(0.5, 2.0, 6)
        beta = rng.uniform(0.5, 1.5, 6)
        res = general_factor_weights(xi2, np.empty((6, 0)), np.empty((0, 0)), beta)
        theta = np.sum(beta**2 / xi2)
        np.testing.assert_allclose(res.weights, beta / xi2 / theta, rtol=1e-14)
        assert res.sigma_f2 == pytest.approx(1.0 / theta, rel=1e-14)

    def test_binary_loadings_diagonal_factor_cov(self):
        # one cluster factor per stock group with uncorrelated factors:
        # within-cluster weights keep the specific-risk rule and clusters are
        # scaled by 1 / (1 + variance * aggregated loading)
        rng = np.random.default_rng(3)
        n, k = 9, 3
        group = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])
        beta = rng.uniform(0.6, 1.4, n)
        xi2 = rng.uniform(0.5, 2.0, n)
        phi = np.diag(rng.uniform(0.2, 0.8, k))
        omega = np.zeros((n, k))
        omega[np.arange(n), group] = beta
        res = general_factor_weights(xi2, omega, phi, beta)
        lam = np.array([np.sum(beta[group == a] ** 2 / xi2[group == a]) for a in range(k)])
        gamma = 1.0 / (1.0 + np.diag(phi) * lam)
        expected_sigma2 = 1.0 / np.sum(lam * gamma)
        expected = expected_sigma2 * beta / xi2 * gamma[group]
        np.testing.assert_allclose(res.weights, expected, rtol=1e-10)
        assert res.sigma_f2 == pytest.approx(expected_sigma2, rel=1e-10)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(4, 21))
            k = int(rng.integers(1, 6))
            xi2 = rng.uniform(0.3, 2.0, n)
            beta = rng.uniform(0.5, 1.5, n)
            omega = rng.normal(0.0, 0.6, (n, k))
            a = rng.normal(size=(k, k + 2))
            phi = a @ a.T / (k + 2)
            res = general_factor_weights(xi2, omega, phi, beta)
            dense = np.diag(xi2) + omega @ phi @ omega.T
            w_ref, sigma2_ref = benchmark_weights_oracle(dense, beta)
            np.testing.assert_allclose(res.weights, w_ref, rtol=1e-9, atol=1e-14)
            assert res.sigma_f2 == pytest.approx(sigma2_ref, rel=1e-9)

    def test_beta_neutral_identity_and_split_form(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(4, 21))
            k = int(rng.integers(1, 6))
            xi2 = rng.uniform(0.3, 2.0, n)
            beta = rng.uniform(0.5, 1.5, n)
            omega = rng.normal(0.0, 0.6, (n, k))
            a = rng.normal(size=(k, k + 2))
            phi = a @ a.T / (k + 2)
            res = general_factor_weights(xi2, omega, phi, beta)
            scale = np.abs(beta * res.upsilon_tilde).max() + 1.0
            assert abs(beta @ res.upsilon_tilde) <= 1e-10 * scale
            split = beta / (res.theta * xi2) - res.sigma_f2 * res.upsilon_tilde
            np.testing.assert_allclose(res.weights, split, rtol=1e-10, atol=1e-16)


class TestMakeBetas:
    def test_proportional_to_sigma(self):
        inst = random_instance(1, n_range=(6, 12))
        beta = make_betas(inst.panel)
        sigma = np.sqrt(np.diag(inst.cov))
        np.testing.assert_allclose(beta.values, sigma, rtol=1e-14)
        standardized = beta.values / sigma
        assert standardized.max() / standardized.min() == pytest.approx(1.0, abs=1e-12)

    def _capped_panel(self):
        # exact construction: R_i = c_i F + d_i G with F ⟂ G and unit sample
        # volatility, so the standardized observed betas are exactly c_i
        f = 0.25 * np.array([1.0, -1.0, 1.0, -1.0])
        g = 0.25 * np.array([1.0, 1.0, -1.0, -1.0])
        c = np.array([0.5, 1.0, 1.0, 1.0, 3.0])
        d = np.sqrt(12.0 - c**2)
        values = np.outer(c, f) + np.outer(d, g)
        tickers = tuple(f"S{i}" for i in range(5))
        return ReturnsPanel(tickers, ("d1", "d2", "d3", "d4"), values), f

    def test_observed_capped_hand_example(self):
        panel, f = self._capped_panel()
        beta = make_betas(panel, BetaSpec(mode="observed-capped"), index_returns=f)
        np.testing.assert_allclose(beta.values, [0.5, 1.0, 1.0, 1.0, 1.5], rtol=1e-12)

    def test_observed_capped_kappa_widens_band(self):
        panel, f = self._capped_panel()
        spec = BetaSpec(mode="observed-capped", kappa_max=2.0, kappa_min=2.0)
        beta = make_betas(panel, spec, index_returns=f)
        np.testing.assert_allclose(beta.values, [0.5, 1.0, 1.0, 1.0, 2.0], rtol=1e-12)

    def test_observed_capped_requires_index(self):
        inst = random_instance(2, n_range=(4, 8))
        with pytest.raises(InputError):
            make_betas(inst.panel, BetaSpec(mode="observed-capped"))

    def test_explicit_passthrough_and_validation(self):
        inst = random_instance(3, n_range=(4, 4))
        values = np.array([1.0, 2.0, 0.5, 1.5])
        beta = make_betas(inst.panel, BetaSpec(mode="explicit", values=values))
        np.testing.assert_array_equal(beta.values, values)
        with pytest.raises(InvalidBeta):
            make_betas(inst.panel, BetaSpec(mode="explicit", values=np.array([1.0, 0.0, 0.5, 1.5])))

    def test_unknown_mode_rejected(self):
        with pytest.raises(InputError):
            BetaSpec(mode="whatever")


@settings(max_examples=400, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=80))
def test_median_is_numpy_median_bit_for_bit(values):
    x = np.array(values)
    with np.errstate(over="ignore"):  # two large middle values sum to inf in both
        assert np.float64(_median(x)).tobytes() == np.median(x).tobytes()


def test_weights_csv_roundtrip(tmp_path):
    inst = random_instance(9, n_range=(6, 12))
    result = benchmark_weights(inst.model)
    path = tmp_path / "weights.csv"
    write_weights_csv(path, result, inst.model)
    rows = read_keyed_csv(path, ("ticker", "weight"))
    assert tuple(ticker for ticker, _ in rows) == inst.panel.tickers
    np.testing.assert_array_equal([weight for _, weight in rows], result.weights)
