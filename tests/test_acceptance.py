"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <n> ...: PASS`` line (visible with -s);
a failing criterion fails its test. Criteria 1-3 share one batch of seeded
instances so the suite stays fast.
"""

import csv
import time

import numpy as np
import pytest

from conftest import memberships, random_instance, random_overlay_problem
from _dense import (
    DenseCovariance,
    benchmark_weights_oracle,
    betas_from_weights,
    dense_of,
    fit_block,
    general_factor_weights,
)
from _reference import reference_weights

from nestbench import (
    BetaVector,
    ReturnsPanel,
    RussianDollModel,
    ThetaFitConfig,
    benchmark_weights,
    build_russian_doll,
    combine,
    default_gamma_max,
    kkt_check,
    make_overlay_problem,
    optimize_mvo,
    sharpe_ratio,
    tree_from_labels,
    tune_gamma,
)
from nestbench.cli import main as cli_main
from nestbench.risk_model import assemble_dense, sample_covariance

N_INSTANCES = 110
_cache = {}


def _instances():
    if "batch" not in _cache:
        start = time.perf_counter()
        batch = [random_instance(seed) for seed in range(N_INSTANCES)]
        _cache["batch"] = batch
        _cache["build_seconds"] = time.perf_counter() - start
    return _cache["batch"]


def _report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}{' (' + detail + ')' if detail else ''}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_oracle_equivalence():
    batch = _instances()  # generation timed inside, whatever runs first
    start = time.perf_counter()
    worst = 0.0
    for inst in batch:
        result = benchmark_weights(inst.model)
        w_ref, sigma2_ref = benchmark_weights_oracle(assemble_dense(inst.model), inst.beta)
        worst = max(worst, float(np.abs(result.weights / w_ref - 1.0).max()))
        worst = max(worst, abs(result.sigma_f2 / sigma2_ref - 1.0))
    elapsed = time.perf_counter() - start + _cache["build_seconds"]
    _report(
        1,
        "oracle equivalence",
        worst <= 1e-8 and elapsed < 10.0,
        f"{N_INSTANCES} instances, max rel err {worst:.3e}, {elapsed:.2f}s",
    )


def test_criterion_2_round_trip_betas():
    worst_beta = 0.0
    worst_norm = 0.0
    for inst in _instances():
        result = benchmark_weights(inst.model)
        beta_back, sigma2 = betas_from_weights(assemble_dense(inst.model), result.weights)
        worst_beta = max(worst_beta, float(np.abs(beta_back / inst.beta.values - 1.0).max()))
        worst_beta = max(worst_beta, abs(sigma2 / result.sigma_f2 - 1.0))
        worst_norm = max(worst_norm, abs(float(result.weights @ inst.beta.values) - 1.0))
    _report(
        2,
        "round-trip betas",
        worst_beta <= 1e-10 and worst_norm <= 1e-12,
        f"max beta err {worst_beta:.3e}, max normalization err {worst_norm:.3e}",
    )


def test_criterion_3_positivity_and_diagonal():
    worst_diag = 0.0
    all_positive = True
    for inst in _instances():
        result = benchmark_weights(inst.model)
        all_positive &= bool(np.all(result.weights > 0.0))
        dense = assemble_dense(inst.model)
        worst_diag = max(
            worst_diag, float((np.abs(np.diag(dense) - np.diag(inst.cov)) / np.diag(inst.cov)).max())
        )
    _report(
        3,
        "positivity and diagonal matching",
        all_positive and worst_diag <= 1e-10,
        f"max diagonal rel err {worst_diag:.3e}",
    )


def test_criterion_4_closed_form_reductions():
    rng = np.random.default_rng(2024)
    failures = []

    # (a) single cluster: weights proportional to beta over specific variance
    inst = random_instance(1234, n_range=(8, 16), p_range=(1, 1))
    tree = tree_from_labels(inst.panel.tickers, [("all",)] * inst.panel.n_stocks)
    model = build_russian_doll(inst.panel, tree, inst.beta, mkt_fac=True)
    beta = inst.beta.values
    eta = 1.0 / np.sum(beta**2 / model.xi2)
    err_a = float(np.abs(benchmark_weights(model).weights - eta * beta / model.xi2).max() / (eta * beta / model.xi2).max())
    if err_a > 1e-12:
        failures.append(f"single-cluster reduction err {err_a:.3e}")

    # (b) two-level model: cluster factors split into three shrinkage terms
    tickers = tuple(f"S{i}" for i in range(12))
    labels = [("a", "X"), ("a", "X"), ("a", "X"), ("b", "X"), ("b", "X"), ("b", "X"),
              ("c", "Y"), ("c", "Y"), ("c", "Y"), ("d", "Y"), ("d", "Y"), ("d", "Y")]
    tree2 = tree_from_labels(tickers, labels)
    xi2 = rng.uniform(0.5, 2.0, 12)
    beta2 = rng.uniform(0.8, 1.3, 12)
    z1 = rng.uniform(0.1, 0.6, 4)
    z2 = rng.uniform(0.1, 0.6, 2)
    omega2 = float(rng.uniform(0.1, 0.5))
    model2 = RussianDollModel(
        tree=tree2, beta=BetaVector(tickers, beta2), xi2=xi2, zeta2=(z1, z2),
        top_var=omega2,
        fitted_cluster_var=(np.ones(4), np.ones(2)), mkt_fac=True,
        configs=(ThetaFitConfig(),) * 3,
    )
    gamma = benchmark_weights(model2).gamma
    lam = np.array([np.sum(beta2[idx] ** 2 / xi2[idx]) for idx in tree2.children(1)])
    shrunk = lam / (1.0 + z1 * lam)
    lam2 = np.array([shrunk[idx].sum() for idx in tree2.children(2)])
    tau = omega2 * np.sum(lam2 / (1.0 + z2 * lam2))
    parent = tree2.parent_maps[1]
    expected_gamma = 1.0 / ((1.0 + z1 * lam) * (1.0 + z2[parent] * lam2[parent]) * (1.0 + tau))
    err_b = float(np.abs(gamma / expected_gamma - 1.0).max())
    if err_b > 1e-10:
        failures.append(f"two-level factorization err {err_b:.3e}")

    # (c) binary loadings with diagonal factor covariance, plus the
    # beta-neutrality identity of the split form
    n, k = 12, 4
    group = np.repeat(np.arange(k), 3)
    beta3 = rng.uniform(0.6, 1.4, n)
    xi2_3 = rng.uniform(0.5, 2.0, n)
    phi = np.diag(rng.uniform(0.2, 0.8, k))
    omega = np.zeros((n, k))
    omega[np.arange(n), group] = beta3
    res = general_factor_weights(xi2_3, omega, phi, beta3)
    lam3 = np.array([np.sum(beta3[group == a] ** 2 / xi2_3[group == a]) for a in range(k)])
    gamma3 = 1.0 / (1.0 + np.diag(phi) * lam3)
    sigma2_3 = 1.0 / np.sum(lam3 * gamma3)
    expected_w = sigma2_3 * beta3 / xi2_3 * gamma3[group]
    err_c = float(np.abs(res.weights / expected_w - 1.0).max())
    if err_c > 1e-10:
        failures.append(f"cluster closed form err {err_c:.3e}")
    neutrality = abs(float(beta3 @ res.upsilon_tilde))
    if neutrality > 1e-10:
        failures.append(f"beta-neutrality residual {neutrality:.3e}")

    _report(4, "closed-form reductions", not failures, "; ".join(failures) or "a,b,c all within tolerance")


def test_criterion_5_theta_fit_contract():
    rng = np.random.default_rng(55)
    cfg = ThetaFitConfig()
    worst_upper = -np.inf
    frac_ok = True
    m1_exact = True
    for _ in range(10_000):
        m = int(rng.integers(1, 31))
        a = rng.normal(size=(m, m + 2))
        x = a @ a.T / (m + 2) + np.diag(rng.uniform(0.05, 0.5, m))
        b = rng.uniform(0.3, 3.0, m) * rng.choice([-1.0, 1.0], m)
        theta = fit_block(x, b, cfg)
        diag = np.diag(x)
        b_hat2 = b**2 / diag
        theta_max = (1.0 - cfg.z_min**2) / b_hat2.max()
        worst_upper = max(worst_upper, theta - theta_max)
        if m == 1:
            m1_exact &= theta == (1.0 - cfg.z_max**2) * float(x[0, 0]) / float(b[0]) ** 2
        frac = np.sqrt(np.maximum(1.0 - theta * b_hat2, 0.0))
        frac_ok &= bool(np.all(frac >= cfg.z_min - 1e-12) and np.all(frac <= 1.0 + 1e-12))

    # M = 2 with uniform standardized loadings: the fit is the off-diagonal
    # correlation clamped into [1 - z_max^2, 1 - z_min^2], rescaled by b_hat^2
    m2_ok = True
    for _ in range(500):
        r = float(rng.uniform(-0.9, 0.9))
        s1, s2 = rng.uniform(0.5, 2.0, 2)
        x = np.array([[s1**2, r * s1 * s2], [r * s1 * s2, s2**2]])
        b_hat = float(rng.uniform(0.4, 2.0))
        b = b_hat * np.array([s1, s2])
        expected = min(max(r, 1.0 - cfg.z_max**2), 1.0 - cfg.z_min**2) / b_hat**2
        m2_ok &= abs(fit_block(x, b, cfg) - expected) <= 1e-12 * abs(expected)

    ok = worst_upper <= 1e-12 and frac_ok and m1_exact and m2_ok
    _report(
        5,
        "theta-fit contract",
        ok,
        f"10000 blocks, worst theta - theta_max = {worst_upper:.3e}",
    )


# frozen 12-stock parity fixture: seed, classification (with a singleton
# sub-industry) and standardized-beta band are fixed here for good
FIXTURE_SEED = 20260
FIXTURE_LABELS = [
    ("a", "X"), ("a", "X"), ("a", "X"),
    ("b", "X"), ("b", "X"), ("b", "X"),
    ("c", "Y"), ("c", "Y"),
    ("d", "Y"), ("d", "Y"), ("d", "Y"),
    ("e", "Y"),  # singleton sub-industry
]


def _parity_fixture():
    rng = np.random.default_rng(FIXTURE_SEED)
    tickers = tuple(f"S{i:02d}" for i in range(12))
    tree = tree_from_labels(tickers, FIXTURE_LABELS)
    corr = np.full((12, 12), 0.05)
    for level, rho in ((2, 0.25), (1, 0.5)):
        composed = tree.stock_clusters(level)
        for a in range(tree.cluster_counts[level - 1]):
            idx = np.flatnonzero(composed == a)
            corr[np.ix_(idx, idx)] = rho
    np.fill_diagonal(corr, 1.0)
    sigma = rng.lognormal(-3.9, 0.3, 12)
    values = np.linalg.cholesky(corr * np.outer(sigma, sigma)) @ rng.standard_normal((12, 150))
    panel = ReturnsPanel(tickers, tuple(f"d{s:03d}" for s in range(150)), values)
    cov = sample_covariance(panel)
    beta_hat = rng.uniform(0.8, 1.4, 12)
    beta = BetaVector(tickers, beta_hat * np.sqrt(np.diag(cov)))
    return panel, tree, cov, beta


def _clamped_fixture():
    # within-sub correlations differing by ~7x inside one sector make the
    # fitted level-1 variances conflict with the sector-level fit bounds,
    # forcing the conflicting-bounds clamp branch
    rng = np.random.default_rng(20262)
    tickers = tuple(f"S{i:02d}" for i in range(12))
    labels = [("a", "X")] * 3 + [("b", "X")] * 3 + [("c", "Y")] * 3 + [("d", "Y")] * 3
    tree = tree_from_labels(tickers, labels)
    corr = np.full((12, 12), 0.02)
    composed_sector = tree.stock_clusters(2)
    for a in range(2):
        idx = np.flatnonzero(composed_sector == a)
        corr[np.ix_(idx, idx)] = 0.05
    sub_rho = (0.9, 0.12, 0.5, 0.3)
    composed_sub = tree.stock_clusters(1)
    for a in range(4):
        idx = np.flatnonzero(composed_sub == a)
        corr[np.ix_(idx, idx)] = sub_rho[a]
    np.fill_diagonal(corr, 1.0)
    sigma = rng.lognormal(-3.9, 0.3, 12)
    values = np.linalg.cholesky(corr * np.outer(sigma, sigma)) @ rng.standard_normal((12, 150))
    panel = ReturnsPanel(tickers, tuple(f"d{s:03d}" for s in range(150)), values)
    cov = sample_covariance(panel)
    # per-sub standardized betas widen the per-sub fit windows enough for the
    # sector-level bounds to cross (each sub stays internally admissible)
    beta_hat = np.repeat([0.8, 1.4, 1.0, 1.0], 3)
    beta = BetaVector(tickers, beta_hat * np.sqrt(np.diag(cov)))
    return panel, tree, cov, beta


def test_criterion_6_reference_parity():
    worst = 0.0
    panel, tree, cov, beta = _parity_fixture()
    for mkt_fac in (True, False):
        model = build_russian_doll(panel, tree, beta, mkt_fac=mkt_fac)
        w_main = benchmark_weights(model).weights
        w_ref = reference_weights(panel.values, memberships(tree), beta.values, mkt_fac=mkt_fac)
        worst = max(worst, float(np.abs(w_main / w_ref - 1.0).max()))

    panel2, tree2, cov2, beta2 = _clamped_fixture()
    model2 = build_russian_doll(panel2, tree2, beta2, mkt_fac=True)
    cfg = ThetaFitConfig()
    clamp_seen = False
    for sector, subs in enumerate(tree2.children(2)):
        fitted = model2.fitted_cluster_var[0][subs]
        t_min = (1.0 - cfg.z_max**2) * fitted.max()
        t_max = (1.0 - cfg.z_min**2) * fitted.min()
        if t_min > t_max:
            clamp_seen = True
            assert model2.fitted_cluster_var[1][sector] == pytest.approx(t_max, rel=1e-12)
    w_main2 = benchmark_weights(model2).weights
    w_ref2 = reference_weights(panel2.values, memberships(tree2), beta2.values, mkt_fac=True)
    worst = max(worst, float(np.abs(w_main2 / w_ref2 - 1.0).max()))

    _report(
        6,
        "reference-algorithm parity",
        worst <= 1e-10 and clamp_seen,
        f"max rel err {worst:.3e}, conflicting-bounds branch exercised: {clamp_seen}",
    )


def _grid_best_objective(problem, gamma, points=11):
    n, p = problem.constraints.shape
    head = n - p
    q = problem.constraints
    tail_matrix = q[head:, :].T
    if abs(np.linalg.det(tail_matrix)) < 1e-12:
        return -np.inf
    axes = [np.linspace(problem.lower[i], problem.upper[i], points) for i in range(head)]
    mesh = np.meshgrid(*axes, indexing="ij")
    head_vals = np.stack([m.ravel() for m in mesh], axis=1)
    tail_vals = np.linalg.solve(tail_matrix, -(head_vals @ q[:head, :]).T).T
    w = np.hstack([head_vals, tail_vals])
    feasible = np.all((w >= problem.lower - 1e-12) & (w <= problem.upper + 1e-12), axis=1)
    if not feasible.any():
        return -np.inf
    w = w[feasible]
    quad = np.einsum("ij,jk,ik->i", w, dense_of(problem.model), w)
    return float((w @ problem.expected_returns - quad / gamma).max())


def test_criterion_7_overlay_optimizer():
    failures = []
    for seed in range(100):
        modes = ("dollar-neutral",) if seed % 2 else ("dollar-neutral", "zero-expected-correlation")
        problem, gamma = random_overlay_problem(seed, modes=modes)
        w = optimize_mvo(problem, gamma)
        report = kkt_check(problem, gamma, w)
        if not report.ok:
            failures.append(f"seed {seed}: KKT {report}")
        if abs(float(w.sum())) > 1e-10:
            failures.append(f"seed {seed}: dollar neutrality {w.sum():.3e}")
        result = tune_gamma(problem, tol=1e-3)
        if result.sharpe_opt < result.sharpe_zero - 1e-12:
            failures.append(f"seed {seed}: sharpe fell {result.sharpe_opt} < {result.sharpe_zero}")
        if np.any(result.combined < 0.0):
            failures.append(f"seed {seed}: combined negative")
        if problem.n_stocks <= 6:
            obj = float(problem.expected_returns @ w - (w @ problem.model.matvec(w)) / gamma)
            if obj < _grid_best_objective(problem, gamma) - 1e-6:
                failures.append(f"seed {seed}: below grid oracle")
        if len(modes) == 2:
            slack = optimize_mvo(problem, gamma / 20.0)  # bounds comfortably slack
            out = combine(problem.w_star, slack, problem.model)
            if out.rho is not None and abs(out.rho) > 1e-8:
                failures.append(f"seed {seed}: rho {out.rho:.3e}")
    _report(7, "overlay optimizer", not failures, "; ".join(failures[:3]) or "100 seeded problems")


def test_criterion_8_golden_section():
    cov = np.array(
        [
            [1.6e-3, 4.0e-4, 2.0e-4, 1.0e-4],
            [4.0e-4, 9.0e-4, 3.0e-4, 1.5e-4],
            [2.0e-4, 3.0e-4, 2.5e-3, 2.0e-4],
            [1.0e-4, 1.5e-4, 2.0e-4, 4.0e-4],
        ]
    )
    e = np.array([0.015, -0.001, 0.002, -0.006])
    problem = make_overlay_problem(e, DenseCovariance(cov), np.array([0.3, 0.3, 0.2, 0.2]), band=0.5)
    gamma_max = default_gamma_max(problem) / 10.0
    result = tune_gamma(problem, gamma_max, tol=1e-4)
    grid = np.linspace(gamma_max / 10_000, gamma_max, 10_000)
    sharpes = np.array([sharpe_ratio(problem, optimize_mvo(problem, g)) for g in grid])
    best = float(grid[int(np.argmax(sharpes))])
    step = float(grid[1] - grid[0])
    gap = abs(result.gamma_prime - best)
    binding_ok = gap <= 1e-4 * gamma_max + step and result.sharpe_opt >= sharpes.max() - 1e-9

    slack = tune_gamma(problem, default_gamma_max(problem) / 100.0 * 0.5, tol=1e-4)
    saturated_ok = slack.bracket_saturated

    _report(
        8,
        "golden-section tuning",
        binding_ok and saturated_ok,
        f"gamma gap {gap:.3e} vs grid step {step:.3e}; saturation flagged: {saturated_ok}",
    )


def test_criterion_9_cli_determinism(tmp_path):
    # identical config + inputs, run twice into the same locations
    root = tmp_path
    fixture = root / "fix"

    def run_all():
        assert cli_main([
            "synth", "--n", "12", "--t", "150", "--clusters", "4,2", "--rho", "0.5,0.3",
            "--market-rho", "0.1", "--seed", "11", "--out", str(fixture),
        ]) == 0
        signal = root / "signal.csv"
        with open(fixture / "returns.csv", newline="") as handle:
            tickers = [row[0] for row in csv.reader(handle)][1:]
        rng = np.random.default_rng(5)
        with open(signal, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["ticker", "expected_return"])
            for ticker in tickers:
                writer.writerow([ticker, repr(rng.normal(0.0, 0.01))])
        assert cli_main([
            "benchmark", "--returns", str(fixture / "returns.csv"),
            "--classification", str(fixture / "classification.csv"),
            "--out", str(root / "bench"),
        ]) == 0
        assert cli_main([
            "overlay", "--returns", str(fixture / "returns.csv"),
            "--classification", str(fixture / "classification.csv"),
            "--expected-returns", str(signal), "--out", str(root / "over"),
        ]) == 0
        names = ["fix/returns.csv", "fix/classification.csv", "bench/weights.csv",
                 "bench/benchmark.json", "bench/model.json",
                 "over/overlay.csv", "over/overlay.json"]
        return {name: (root / name).read_bytes() for name in names}

    first = run_all()
    second = run_all()
    mismatched = [name for name in first if first[name] != second[name]]
    _report(9, "CLI determinism", not mismatched, "; ".join(mismatched) or "all outputs byte-identical")
