import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import past_one_upper_bound, random_overlay_problem, wrong_at_stock_0
from _dense import DenseCovariance, dense_of, monotone_walk

import nestbench.overlay
from nestbench.synthetic import SyntheticSpec, generate

from nestbench import (
    benchmark_weights,
    build_constraints,
    build_russian_doll,
    combine,
    default_gamma_max,
    kkt_check,
    make_betas,
    make_overlay_problem,
    optimize_mvo,
    residualize,
    sharpe_ratio,
    tune_gamma,
)
from nestbench.errors import (
    DegenerateConstraints,
    DegenerateRegression,
    InputError,
    LongOnlyViolation,
    NoConvergence,
    SolverError,
)


def _problem(e, cov, w_star=None, band=0.6, modes=("dollar-neutral",), lower=None, upper=None):
    e = np.asarray(e, dtype=float)
    n = len(e)
    w_star = np.full(n, 1.0 / n) if w_star is None else np.asarray(w_star, dtype=float)
    return make_overlay_problem(e, DenseCovariance(cov), w_star,
                                band=band, modes=modes, lower=lower, upper=upper)


def _objective(problem, gamma, w):
    return float(problem.expected_returns @ w - (w @ problem.model.matvec(w)) / gamma)


def _grid_best(problem, gamma, points=13):
    """Best objective over a feasible grid: box grid on the leading
    coordinates, trailing ones solved from the constraints."""
    n, p = problem.constraints.shape
    head = n - p
    q = problem.constraints
    tail_matrix = q[head:, :].T
    assert abs(np.linalg.det(tail_matrix)) > 1e-12
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


class TestResidualize:
    def test_collinear_signal_vanishes(self):
        w = np.array([0.4, 0.35, 0.25])
        np.testing.assert_allclose(residualize(7.0 * w, w), 0.0, atol=1e-15)

    def test_orthogonal_signal_unchanged(self):
        w = np.array([0.5, 0.5])
        e = np.array([1.0, -1.0])
        np.testing.assert_allclose(residualize(e, w), e, rtol=1e-15)

    def test_hand_example(self):
        eps = residualize(np.array([1.0, 2.0]), np.array([0.5, 0.5]))
        np.testing.assert_allclose(eps, [-0.5, 0.5], rtol=1e-15)

    def test_residual_is_orthogonal_to_benchmark(self):
        rng = np.random.default_rng(0)
        e = rng.normal(size=8)
        w = rng.uniform(0.05, 0.2, 8)
        assert abs(residualize(e, w) @ w) <= 1e-14

    def test_degenerate_denominator(self):
        with pytest.raises(DegenerateRegression):
            residualize(np.array([1.0, 2.0]), np.array([0.0, 0.0]))


class TestBuildConstraints:
    def test_dollar_neutral_only(self):
        q = build_constraints({"dollar-neutral"}, DenseCovariance(np.eye(3)), np.full(3, 1 / 3))
        np.testing.assert_array_equal(q, np.ones((3, 1)))

    def test_zero_expected_correlation_column(self):
        q = build_constraints(
            {"dollar-neutral", "zero-expected-correlation"},
            DenseCovariance(np.diag([1.0, 4.0])),
            np.array([0.5, 0.5]),
        )
        np.testing.assert_allclose(q[:, 1], [0.5, 2.0], rtol=1e-15)

    def test_collinear_columns_rejected(self):
        # identity: two equal columns; diag(1, 4): three columns of rank 2, more than the 2 stocks
        for cov in (np.eye(2), np.diag([1.0, 4.0])):
            with pytest.raises(DegenerateConstraints):
                make_overlay_problem(
                    np.array([0.1, -0.1]),
                    DenseCovariance(cov),
                    np.array([0.5, 0.5]),
                    modes={"dollar-neutral", "zero-expected-correlation", "orthogonal-to-benchmark"},
                )

    def test_unknown_mode(self):
        with pytest.raises(InputError):
            build_constraints({"sector-neutral"}, DenseCovariance(np.eye(2)), np.array([0.5, 0.5]))


class TestProblemValidation:
    def test_infeasible_custom_bounds(self):
        with pytest.raises(InputError):
            _problem([0.1, -0.1], np.eye(2),
                     lower=np.array([0.0, 0.0]), upper=np.array([-0.1, 0.1]))

    def test_bounds_must_straddle_zero(self):
        with pytest.raises(InputError):
            _problem([0.1, -0.1], np.eye(2),
                     lower=np.array([0.1, 0.0]), upper=np.array([0.2, 0.1]))

    def test_non_finite_inputs_name_the_stock(self):
        problem = _problem([0.1, -0.1, 0.0], np.eye(3))
        nan = float("nan")
        for changes, stock in (
            ({"expected_returns": [0.1, nan, 0.0]}, "S1"),
            ({"w_star": [0.5, 0.5, np.inf]}, "S2"),
            ({"lower": [nan, -0.1, -0.1]}, "S0"),
            ({"upper": [0.1, 0.1, nan]}, "S2"),
            ({"upper": [0.1, np.inf, 0.1]}, "S1"),
        ):
            with pytest.raises(InputError, match=f"stock '{stock}' "):
                dataclasses.replace(problem, **changes)
        with pytest.raises(InputError, match="stock 'S1' "):
            _problem([0.1, -0.1, 0.0], np.eye(3), w_star=[0.5, nan, 0.5])
        with pytest.raises(InputError, match="stock 'S2' "):
            _problem([0.1, -0.1, 0.0], np.eye(3), upper=[0.1, 0.1, np.inf])
        with pytest.raises(InputError, match="band"):
            _problem([0.1, -0.1, 0.0], np.eye(3), band=np.inf)

    def test_broken_rules_name_the_stock(self):
        problem = _problem([0.1, -0.1, 0.0], np.eye(3))
        for changes, stock in (
            ({"upper": [0.1, 0.1, -0.1]}, "S2"),
            ({"lower": [-0.1, 0.1, -0.1]}, "S1"),
            ({"lower": [-0.1, -0.1, -0.5]}, "S2"),  # shorts more than w* = 1/3
            ({"w_star": [0.6, -0.1, 0.5]}, "S1"),
        ):
            with pytest.raises(InputError, match=f"stock '{stock}' "):
                dataclasses.replace(problem, **changes)
        with pytest.raises(InputError, match="stock 'S2' "):
            _problem([0.1, -0.1, 0.0], np.eye(3), w_star=[0.6, 0.5, -0.1])

    def test_benchmark_of_another_length_refused(self):
        # before the zero-correlation column multiplies it by the model
        for modes in (("dollar-neutral",), ("dollar-neutral", "zero-expected-correlation")):
            with pytest.raises(InputError, match=re.escape("w_star has shape (4,), expected (3,)")):
                _problem([0.1, -0.1, 0.0], np.eye(3), w_star=[0.25, 0.25, 0.25, np.nan], modes=modes)

    @pytest.mark.parametrize("band", [0.0, -0.5, np.nan])
    def test_band_checked_whenever_it_fills_a_bound(self, band):
        box = np.full(3, 0.1)
        for bounds in ({}, {"lower": -box}, {"upper": box}):
            with pytest.raises(InputError, match="band"):
                _problem([0.1, -0.1, 0.0], np.eye(3), band=band, **bounds)
        problem = _problem([0.1, -0.1, 0.0], np.eye(3), band=band, lower=-box, upper=box)
        np.testing.assert_array_equal(problem.upper, box)


class TestOptimizeMvo:
    def test_hand_solved_two_stock(self):
        problem = _problem([1.0, -1.0], np.eye(2), band=0.6)
        gamma = 0.1
        w = optimize_mvo(problem, gamma)
        np.testing.assert_allclose(w, [gamma / 2, -gamma / 2], rtol=1e-12)
        assert kkt_check(problem, gamma, w).ok

    def test_zero_signal(self):
        problem = _problem([0.0, 0.0, 0.0], np.eye(3))
        np.testing.assert_array_equal(optimize_mvo(problem, 5.0), np.zeros(3))

    def test_fully_clamped(self):
        problem = _problem([1.0, -1.0], np.eye(2),
                           lower=np.zeros(2), upper=np.zeros(2))
        np.testing.assert_array_equal(optimize_mvo(problem, 10.0), np.zeros(2))

    def test_binding_bounds_stay_feasible(self):
        problem, _ = random_overlay_problem(3)
        gamma = default_gamma_max(problem)  # far beyond the first bind
        w = optimize_mvo(problem, gamma)
        assert np.all(w >= problem.lower - 1e-10)
        assert np.all(w <= problem.upper + 1e-10)
        report = kkt_check(problem, gamma, w)
        assert report.ok
        assert report.active_lower or report.active_upper

    def test_kkt_on_seeded_problems(self):
        for seed in range(20):
            modes = ("dollar-neutral",) if seed % 2 else ("dollar-neutral", "zero-expected-correlation")
            problem, gamma = random_overlay_problem(seed, modes=modes)
            w = optimize_mvo(problem, gamma)
            report = kkt_check(problem, gamma, w)
            assert report.ok, (seed, report)
            assert abs(w.sum()) <= 1e-10

    def test_against_grid_oracle(self):
        for seed in range(10):
            problem, gamma = random_overlay_problem(seed + 40, n_range=(4, 6))
            w = optimize_mvo(problem, gamma)
            assert _objective(problem, gamma, w) >= _grid_best(problem, gamma) - 1e-6

    def test_invalid_gamma(self):
        problem = _problem([0.1, -0.1], np.eye(2))
        with pytest.raises(InputError):
            optimize_mvo(problem, 0.0)

    def test_fewer_free_coordinates_than_constraints(self):
        # three zero-width boxes leave one free stock against two constraint
        # columns: the KKT matrix is singular, the only feasible point w' = 0
        cov = np.array(
            [
                [4.0e-4, 1.0e-4, 5.0e-5, 2.0e-5],
                [1.0e-4, 9.0e-4, 1.0e-4, 3.0e-5],
                [5.0e-5, 1.0e-4, 6.0e-4, 4.0e-5],
                [2.0e-5, 3.0e-5, 4.0e-5, 5.0e-4],
            ]
        )
        problem = _problem([0.01, -0.02, 0.015, 0.005], cov, w_star=[0.3, 0.2, 0.25, 0.25],
                           modes=("dollar-neutral", "orthogonal-to-benchmark"),
                           lower=np.array([0.0, 0.0, 0.0, -0.1]),
                           upper=np.array([0.0, 0.0, 0.0, 0.1]))
        for gamma in (0.1, 10.0, 1000.0):
            w = optimize_mvo(problem, gamma)
            np.testing.assert_allclose(w, 0.0, rtol=0, atol=1e-15)
            assert kkt_check(problem, gamma, w).ok

    def test_narrow_boxes_meet_constraints_exactly(self):
        # with both narrow boxes at a bound, too few stocks are free to meet
        # Q'w = 0; that active set still comes within the 1e-10 feasibility
        # tolerance, at a point up to 2e-9 from the optimum
        for modes, bands in ((_MODE_SETS[3], [1.0, 1.0, 1e-8, 1e-8, 0.0]),
                             (_MODE_SETS[1], [0.0, 1e-8, 1.0, 1e-8, 0.0])):
            problem = _banded_problem(5, modes, bands)
            for gamma in default_gamma_max(problem) * np.array([0.1, 1.0, 10.0]):
                w = optimize_mvo(problem, gamma)
                assert kkt_check(problem, gamma, w).ok
                assert np.abs(problem.constraints.T @ w).max() <= 1e-20
                np.testing.assert_allclose(w, monotone_walk(problem, gamma), rtol=0, atol=1e-20)

    def test_fallback_to_monotone_walk(self, monkeypatch):
        # the primal-dual steps revisit an active set at 0.1 gamma_max and
        # settle where Q'w = 0 is out of reach at 1 and 10 gamma_max
        problem = _banded_problem(172, _MODE_SETS[2], [0.449, 0.768, 0.89])
        starts = _counting(monkeypatch, "_cold_start")
        for gamma in default_gamma_max(problem) * np.array([0.1, 1.0, 10.0]):
            starts.clear()
            w = optimize_mvo(problem, gamma)
            assert len(starts) == 2  # one walk
            assert kkt_check(problem, gamma, w).ok

    def test_pinned_active_sets_skip_the_walk(self, monkeypatch):
        # an active set that leaves directions of mu open with every active
        # stock pinned holds w = 0 to rounding: it is accepted, not walked.
        # A stop test that also asked such sets for rounding-level residuals
        # walked 366 of these 1,000 solves; this one walks 327
        starts = _counting(monkeypatch, "_cold_start")
        solves = 0
        for seed in range(200):
            rng = np.random.default_rng([seed, 99])
            n = int(rng.integers(3, 9))
            modes = _MODE_SETS[int(rng.integers(4))]
            bands = np.where(rng.uniform(size=n) < 0.3, 0.0, rng.uniform(size=n))
            problem = _banded_problem(seed, modes, bands)
            for gamma in default_gamma_max(problem) * np.array([1e-3, 1e-2, 1e-1, 1.0, 10.0]):
                np.testing.assert_array_equal(optimize_mvo(problem, gamma), monotone_walk(problem, gamma))
                solves += 1
        assert len(starts) - solves < 366

    def test_iteration_bound(self, monkeypatch):
        monkeypatch.setattr(nestbench.overlay, "_wrong_signs", wrong_at_stock_0)
        with pytest.raises(NoConvergence, match="within 400 iterations"):
            optimize_mvo(_problem([0.1, -0.1, 0.0], np.eye(3)), 1.0)


class TestWarmStart:
    def test_matches_cold_solve(self):
        # the primal-dual steps against the cold monotone walk
        for seed in range(20):
            modes = ("dollar-neutral",) if seed % 2 else ("dollar-neutral", "zero-expected-correlation")
            problem, gamma = random_overlay_problem(seed, modes=modes)
            for g in (gamma, gamma / 3.0, 3.0 * gamma):
                walked = monotone_walk(problem, g)
                w = optimize_mvo(problem, g)
                np.testing.assert_allclose(w, walked, rtol=0, atol=1e-12 * np.abs(walked).max())
                assert kkt_check(problem, g, w).ok, (seed, g)


_MODE_SETS = (
    ("dollar-neutral",),
    ("dollar-neutral", "zero-expected-correlation"),
    ("dollar-neutral", "orthogonal-to-benchmark"),
    ("dollar-neutral", "zero-expected-correlation", "orthogonal-to-benchmark"),
)


def _banded_problem(seed, modes, bands):
    """Seeded covariance, signal and benchmark; box +/- bands * w_star."""
    bands = np.asarray(bands, dtype=float)
    n = len(bands)
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    cov = 1e-4 * (a @ a.T / n + np.diag(rng.uniform(0.2, 2.0, n)))
    w_star = rng.uniform(0.2, 1.0, n)
    w_star /= w_star.sum()
    e = rng.normal(0.0, 1e-2, n)
    return make_overlay_problem(e, DenseCovariance(cov), w_star, lower=-bands * w_star, upper=bands * w_star,
                                modes=modes)


@st.composite
def _small_problems(draw):
    """N of 3 to 8 with per-stock bands in [0, 1], some of them zero, so
    that active sets leave fewer free coordinates than constraint columns."""
    n = draw(st.integers(3, 8))
    modes = draw(st.sampled_from(_MODE_SETS))
    bands = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=n, max_size=n))
    return _banded_problem(draw(st.integers(0, 2**32 - 1)), modes, bands)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_small_problems())
# one free stock against two constraint columns
@example(_banded_problem(71, _MODE_SETS[1], [0.0, 0.0, 0.2]))
# boxes 1e-10 of the benchmark wide
@example(_banded_problem(890, _MODE_SETS[1], [0.3, 1e-10, 1e-10]))
# interior coordinates within 1e-9 of a bound of a narrow box
@example(_banded_problem(166, _MODE_SETS[2], [0.0, 0.0, 0.0, 0.0, 1e-6, 1e-6, 1e-6]))
# boxes narrower than the bound tolerance, straddling zero
@example(_banded_problem(372, _MODE_SETS[2], [0.66, 0.0, 6e-13, 0.0, 0.0, 6e-13, 6e-13]))
# three ill-conditioned constraint columns on three stocks, boxes a few bound
# tolerances wide: w' = 0 is the only feasible point, and multipliers taken
# from a system singular to rounding cycled release and clamp until
# NoConvergence
@example(_banded_problem(67, _MODE_SETS[3], [1e-11, 3e-11, 0.5746557529603609]))
@example(_banded_problem(133, _MODE_SETS[3], [1e-11, 1e-11, 1e-11]))
@example(_banded_problem(185, _MODE_SETS[3], [0.7296676913401973, 3e-11, 3e-11]))
# the primal-dual steps fall back to the walk (test_fallback_to_monotone_walk)
@example(_banded_problem(172, _MODE_SETS[2], [0.449, 0.768, 0.89]))
def test_active_set_property(problem):
    for gamma in default_gamma_max(problem) * np.array([1e-3, 1e-2, 1e-1, 1.0, 10.0]):
        w = optimize_mvo(problem, gamma)
        assert kkt_check(problem, gamma, w).ok
        np.testing.assert_allclose(w, monotone_walk(problem, gamma), rtol=0, atol=1e-10)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_small_problems())
@example(_banded_problem(71, _MODE_SETS[1], [0.0, 0.0, 0.2]))
@example(_banded_problem(890, _MODE_SETS[1], [0.3, 1e-10, 1e-10]))
@example(_banded_problem(166, _MODE_SETS[2], [0.0, 0.0, 0.0, 0.0, 1e-6, 1e-6, 1e-6]))
@example(_banded_problem(372, _MODE_SETS[2], [0.66, 0.0, 6e-13, 0.0, 0.0, 6e-13, 6e-13]))
@example(_banded_problem(67, _MODE_SETS[3], [1e-11, 3e-11, 0.5746557529603609]))
@example(_banded_problem(133, _MODE_SETS[3], [1e-11, 1e-11, 1e-11]))
@example(_banded_problem(185, _MODE_SETS[3], [0.7296676913401973, 3e-11, 3e-11]))
@example(_banded_problem(172, _MODE_SETS[2], [0.449, 0.768, 0.89]))
# boxes 1e-8 of the benchmark wide (test_narrow_boxes_meet_constraints_exactly)
@example(_banded_problem(5, _MODE_SETS[3], [1.0, 1.0, 1e-8, 1e-8, 0.0]))
@example(_banded_problem(5, _MODE_SETS[1], [0.0, 1e-8, 1.0, 1e-8, 0.0]))
def test_warm_started_solve_property(problem):
    # a start from the optimum at another scale is only a guess: every warm
    # solve must end where the cold one does
    grid = default_gamma_max(problem) * np.array([1e-3, 1e-2, 1e-1, 1.0, 10.0])
    cold = [optimize_mvo(problem, gamma) for gamma in grid]
    for i, gamma in enumerate(grid):
        for j, start in enumerate(cold):
            if j != i:
                w = optimize_mvo(problem, gamma, start)
                assert kkt_check(problem, gamma, w).ok, (i, j)
                np.testing.assert_allclose(w, cold[i], rtol=0, atol=1e-10)


def _counting(monkeypatch, name):
    """Record each call of ``nestbench.overlay.<name>``. ``_cold_start`` runs
    once per solve, and once more for each solve that walks."""
    calls = []
    function = getattr(nestbench.overlay, name)

    def counted(*args):
        calls.append(1)
        return function(*args)

    monkeypatch.setattr(nestbench.overlay, name, counted)
    return calls


def _recording_probes(monkeypatch, solve=optimize_mvo):
    """Have ``tune_gamma`` probe through ``solve`` and record each probe's
    (gamma', S) pair, in the order of the probes."""
    probes = []

    def recorded(problem, gamma, start=None):
        w = solve(problem, gamma, start)
        probes.append((gamma, sharpe_ratio(problem, w)))
        return w

    monkeypatch.setattr(nestbench.overlay, "optimize_mvo", recorded)
    return probes


class TestTuneGamma:
    def _binding_fixture(self):
        cov = np.array(
            [
                [1.6e-3, 4.0e-4, 2.0e-4, 1.0e-4],
                [4.0e-4, 9.0e-4, 3.0e-4, 1.5e-4],
                [2.0e-4, 3.0e-4, 2.5e-3, 2.0e-4],
                [1.0e-4, 1.5e-4, 2.0e-4, 4.0e-4],
            ]
        )
        e = np.array([0.015, -0.001, 0.002, -0.006])
        w_star = np.array([0.3, 0.3, 0.2, 0.2])
        return _problem(e, cov, w_star=w_star, band=0.5)

    def test_matches_grid_scan(self):
        # interior peak with two binding bounds; the grid can only localize
        # the argmax to one step, the search to tol * gamma_max
        problem = self._binding_fixture()
        gamma_max = default_gamma_max(problem) / 10.0
        result = tune_gamma(problem, gamma_max, tol=1e-4)
        grid = np.linspace(gamma_max / 2000, gamma_max, 2000)
        sharpes = [sharpe_ratio(problem, optimize_mvo(problem, g)) for g in grid]
        best = grid[int(np.argmax(sharpes))]
        step = grid[1] - grid[0]
        assert abs(result.gamma_prime - best) <= 1e-4 * gamma_max + step
        assert result.sharpe_opt >= max(sharpes) - 1e-9
        report_actives = len(result.active_lower) + len(result.active_upper)
        assert 0 < report_actives < problem.n_stocks

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("setting", ["tol", "gamma_max"])
    def test_non_finite_settings_rejected(self, setting, value):
        with pytest.raises(InputError, match=setting):
            tune_gamma(self._binding_fixture(), **{"gamma_max": 1.0, setting: value})

    def test_wide_bounds_saturate_bracket(self):
        problem, _ = random_overlay_problem(77)
        never_binding = default_gamma_max(problem) / 100.0 * 0.5
        result = tune_gamma(problem, never_binding, tol=1e-4)
        assert result.bracket_saturated
        assert result.gamma_prime == never_binding

    def test_zero_signal_flat_curve(self):
        problem = _problem([0.0, 0.0, 0.0], np.eye(3))
        result = tune_gamma(problem, 1.0, tol=1e-3)
        assert result.sharpe_opt == 0.0
        np.testing.assert_array_equal(result.w_prime, np.zeros(3))
        assert not result.bracket_saturated
        assert 0.0 < result.gamma_prime < 1.0

    def test_no_sleeve_beats_the_benchmark(self):
        # a signal along Gamma w* that the dollar-neutral sleeve cannot use:
        # the best probe falls short of S(0), so the sleeve is dropped (75 of
        # 200 noise seeds on this fixture)
        inst = generate(SyntheticSpec(n=24, t=250, clusters=(6, 2), rho=(0.5, 0.3), market_rho=0.1, seed=7))
        model = build_russian_doll(inst.panel, inst.tree, make_betas(inst.panel))
        w_star = benchmark_weights(model).weights
        g = model.matvec(w_star)
        signal = 0.01 * g / g.std() + np.random.default_rng(1).normal(0.0, 0.001, len(g))
        problem = make_overlay_problem(signal, model, w_star, band=0.5, modes=("dollar-neutral",))
        result = tune_gamma(problem)
        assert result.gamma_prime == 0.0
        np.testing.assert_array_equal(result.w_prime, np.zeros(24))
        assert result.sharpe_opt == result.sharpe_zero == sharpe_ratio(problem, np.zeros(24))
        assert not result.bracket_saturated

    def test_monotone_benefit(self):
        for seed in range(8):
            problem, _ = random_overlay_problem(seed + 200)
            result = tune_gamma(problem, tol=1e-3)
            assert result.sharpe_opt >= result.sharpe_zero - 1e-12
            assert np.all(result.combined >= 0.0)
            assert abs(result.w_prime.sum()) <= 1e-10

    def test_warm_started_probes_match_cold_search(self, monkeypatch):
        # the search on primal-dual probes against the search on walked probes
        for seed in range(6):
            problem, _ = random_overlay_problem(seed, n_range=(50, 60))
            with monkeypatch.context() as patch:
                patch.setattr(nestbench.overlay, "optimize_mvo",
                              lambda problem, gamma, start=None: monotone_walk(problem, gamma))
                walked = tune_gamma(problem)
            result = tune_gamma(problem)
            assert result.gamma_prime == walked.gamma_prime
            assert result.bracket_saturated == walked.bracket_saturated
            assert result.active_lower == walked.active_lower
            assert result.active_upper == walked.active_upper
            np.testing.assert_allclose(result.w_prime, walked.w_prime, rtol=0, atol=1e-12)

    def test_steps_per_probe_do_not_grow_with_n(self, monkeypatch):
        # most bounds bind at the tuned scale; the monotone walk would take
        # one step per active bound
        for n in (200, 2000):
            model = generate(SyntheticSpec(n=n, t=10, clusters=(n // 10, n // 100), rho=(0.5, 0.3),
                                           market_rho=0.1, seed=0)).population_model
            signal = 0.05 * model.beta.values * np.random.default_rng(2).standard_normal(n)
            problem = make_overlay_problem(signal, model, benchmark_weights(model).weights,
                                           modes=("dollar-neutral", "zero-expected-correlation"))
            with monkeypatch.context() as patch:
                calls = _counting(patch, "_solve_equality_qp")
                probes = _recording_probes(patch)
                result = tune_gamma(problem)
            assert len(result.active_lower) + len(result.active_upper) > 0.9 * n
            assert len(calls) <= 12 * len(probes), (n, len(calls), len(probes))

    def test_warm_probes_equal_cold_probes_in_fewer_steps(self, monkeypatch):
        # small, strongly coupled instances on which cold primal-dual steps
        # over-release: 13.7 to 14.3 KKT solves per probe from w = 0
        cold = nestbench.overlay.optimize_mvo
        for seed in (1, 4, 6):
            model = generate(SyntheticSpec(n=200, t=10, clusters=(20, 2), rho=(0.5, 0.3),
                                           market_rho=0.1, seed=seed)).population_model
            signal = 0.05 * model.beta.values * np.random.default_rng(2).standard_normal(200)
            problem = make_overlay_problem(signal, model, benchmark_weights(model).weights,
                                           modes=("dollar-neutral", "zero-expected-correlation"))
            with monkeypatch.context() as patch:
                unwarmed_probes = _recording_probes(patch, lambda problem, gamma, start=None: cold(problem, gamma))
                unwarmed = tune_gamma(problem)
            with monkeypatch.context() as patch:
                calls = _counting(patch, "_solve_equality_qp")
                probes = _recording_probes(patch)
                result = tune_gamma(problem)
            assert result.gamma_prime == unwarmed.gamma_prime
            assert probes == unwarmed_probes
            assert result.active_lower == unwarmed.active_lower
            assert result.active_upper == unwarmed.active_upper
            np.testing.assert_array_equal(result.w_prime, unwarmed.w_prime)
            assert len(calls) <= 3 * len(probes), (seed, len(calls), len(probes))

    def test_zero_signal_stays_finite_under_correlation_constraint(self, monkeypatch):
        # the bracket must not shrink toward gamma' = 0, where the curvature
        # 2 / gamma' overflows
        modes = ("dollar-neutral", "zero-expected-correlation")
        for seed in range(3):
            base, _ = random_overlay_problem(seed, n_range=(10, 12), modes=modes)
            problem = make_overlay_problem(np.zeros(base.n_stocks), base.model, base.w_star, modes=modes)
            with monkeypatch.context() as patch:
                probes = _recording_probes(patch)
                result = tune_gamma(problem)
            np.testing.assert_array_equal(result.w_prime, 0.0)
            assert result.sharpe_opt == 0.0
            assert 0.0 < result.gamma_prime < 1.0
            assert len(probes) <= 24

    def test_sleeve_that_fails_its_certificate_raises(self, monkeypatch):
        problem = self._binding_fixture()
        gamma_max = default_gamma_max(problem) / 10.0
        tune_gamma(problem, gamma_max)  # the sleeve as solved passes
        monkeypatch.setattr(nestbench.overlay, "optimize_mvo", past_one_upper_bound(optimize_mvo))
        with pytest.raises(SolverError, match="bound violation 1e-06 against a tolerance of 1e-10"):
            tune_gamma(problem, gamma_max)

    def test_sharpe_zero_is_benchmark_sharpe(self):
        problem, _ = random_overlay_problem(5)
        result = tune_gamma(problem, 1.0, tol=1e-3)
        expected = sharpe_ratio(problem, np.zeros(problem.n_stocks))
        assert result.sharpe_zero == pytest.approx(expected, rel=1e-15)


class TestCombine:
    def test_zero_sleeve(self):
        w_star = np.array([0.5, 0.5])
        out = combine(w_star, np.zeros(2), DenseCovariance(np.eye(2)))
        np.testing.assert_array_equal(out.weights, w_star)
        assert out.rho is None

    def test_hand_orthogonal_sleeve(self):
        out = combine(np.array([0.5, 0.5]), np.array([0.1, -0.1]), DenseCovariance(np.eye(2)))
        assert out.rho == pytest.approx(0.0, abs=1e-15)

    def test_percentage_band_keeps_long_only(self):
        # any dollar-neutral sleeve inside +/- z * w_star leaves at least
        # (1 - z) * w_star long in every name
        rng = np.random.default_rng(1)
        z = 0.5
        w_star = rng.uniform(0.1, 0.3, 5)
        w_star /= w_star.sum()
        raw = w_star * rng.uniform(-1.0, 1.0, 5)
        sleeve = (z / 2.0) * (raw - w_star * raw.sum())
        assert np.all(np.abs(sleeve) <= z * w_star + 1e-15)
        out = combine(w_star, sleeve, DenseCovariance(np.eye(5)))
        assert np.all(out.weights >= (1.0 - z) * w_star - 1e-12)

    def test_long_only_violation(self):
        with pytest.raises(LongOnlyViolation, match="combined weight of 'S0' is negative"):
            combine(np.array([0.5, 0.5]), np.array([-0.6, 0.6]), DenseCovariance(np.eye(2)))

    def test_scale_drift_detected(self):
        with pytest.raises(InputError):
            combine(np.array([0.5, 0.5]), np.array([0.2, 0.2]), DenseCovariance(np.eye(2)))

    def test_non_finite_sleeve_rejected(self):
        with pytest.raises(InputError, match="stock 'S1' "):
            combine(np.full(3, 1.0 / 3.0), np.array([0.1, np.nan, -0.1]), DenseCovariance(np.eye(3)))


class TestCorrelationNeutrality:
    def test_constraint_nulls_rho(self):
        for seed in range(5):
            problem, gamma = random_overlay_problem(
                seed + 500, modes=("dollar-neutral", "zero-expected-correlation")
            )
            w = optimize_mvo(problem, gamma / 10.0)  # keep bounds slack
            out = combine(problem.w_star, w, problem.model)
            if out.rho is not None:
                assert abs(out.rho) <= 1e-8

    def test_residualized_signal_nulls_rho_without_bounds(self):
        # the unconstrained mean-variance sleeve on a residualized signal is
        # exactly uncorrelated with the benchmark under the same model
        rng = np.random.default_rng(9)
        problem, _ = random_overlay_problem(31)
        eps = residualize(problem.expected_returns, problem.w_star)
        model = problem.model
        sleeve = model.solve(eps)
        numer = float(problem.w_star @ model.matvec(sleeve))
        sigma_star = np.sqrt(problem.w_star @ model.matvec(problem.w_star))
        sigma_prime = np.sqrt(sleeve @ model.matvec(sleeve))
        assert abs(numer / (sigma_star * sigma_prime)) <= 1e-8
