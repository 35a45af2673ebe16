"""Command-line pipeline: benchmark weights, outperformance overlay,
standalone betas, and synthetic fixture generation.

Every run is deterministic given its inputs and seed; the effective config is
echoed into each JSON sidecar. Exit codes: 0 success, 2 input error, 3 model
error, 4 optimizer non-convergence or a failed KKT certificate.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .benchmark import (
    BETA_MODES,
    BenchmarkResult,
    BetaSpec,
    benchmark_weights,
    make_betas,
    write_weights_csv,
)
from .data_model import (
    load_classification_csv,
    load_returns_csv,
    read_json,
    read_keyed_csv,
    validate_tree,
    write_classification_csv,
    write_csv,
    write_json,
    write_returns_csv,
)
from .errors import DuplicateTicker, InputError, ModelError, SolverError
from .overlay import check_modes, make_overlay_problem, residualize, tune_gamma
from .risk_model import ThetaFitConfig, build_russian_doll, save_model
from .risk_model import assemble_dense, sample_covariance  # noqa: F401  (perfbench/trace_layers.py wraps these names here)
from .synthetic import SyntheticSpec, generate

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MODEL = 3
EXIT_SOLVER = 4

_WEIGHT_SCALES = ("beta", "sum")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help()
        return EXIT_INPUT
    try:
        return args.handler(args)
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nestbench",
        description="Long-only benchmark weights from a multilevel classification, "
        "plus a bounded dollar-neutral outperformance overlay.",
    )
    parser.add_argument("--config", help="JSON config file; command-line flags override it")
    sub = parser.add_subparsers(dest="command")

    bench = sub.add_parser("benchmark", help="fit the nested model and write benchmark weights")
    _add_model_flags(bench)
    bench.add_argument("--weight-scale", choices=_WEIGHT_SCALES,
                       help="normalize weighted betas to 1 (default) or the weights themselves")
    bench.add_argument("--out", help="output directory")
    bench.set_defaults(handler=cmd_benchmark)

    over = sub.add_parser("overlay", help="tune and write the dollar-neutral overlay")
    _add_model_flags(over)
    over.add_argument("--expected-returns", help="CSV ticker,expected_return")
    over.add_argument("--weights", help="benchmark weights CSV (defaults to computing inline)")
    over.add_argument("--constraints", help="comma list of constraint modes")
    over.add_argument("--band-z", type=float, help="bound band as a fraction of benchmark weight")
    over.add_argument("--gamma-max", type=float, help="upper end of the tuning bracket")
    over.add_argument("--tol", type=float, help="relative tolerance of the tuning search")
    over.add_argument("--residualize", action="store_true", default=None,
                      help="regress the signal off the benchmark weights first")
    over.add_argument("--out", help="output directory")
    over.set_defaults(handler=cmd_overlay)

    synth = sub.add_parser("synth", help="generate a synthetic returns/classification fixture")
    synth.add_argument("--n", type=int, help="number of stocks")
    synth.add_argument("--t", type=int, help="number of periods")
    synth.add_argument("--clusters", help="comma list of cluster counts, most granular first")
    synth.add_argument("--rho", help="comma list of within-cluster correlations per level")
    synth.add_argument("--market-rho", type=float, help="correlation across top-level clusters")
    synth.add_argument("--seed", type=int, help="RNG seed")
    synth.add_argument("--out", help="output directory")
    synth.set_defaults(handler=cmd_synth)

    betas = sub.add_parser("betas", help="compute a beta vector on its own")
    _add_beta_flags(betas)
    betas.add_argument("--out", help="output directory")
    betas.set_defaults(handler=cmd_betas)
    return parser


def _add_beta_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--returns", help="returns CSV")
    sub.add_argument("--beta-mode", choices=BETA_MODES)
    sub.add_argument("--index-returns", help="CSV date,value (observed-capped mode)")
    sub.add_argument("--beta-file", help="CSV ticker,beta (explicit mode)")
    sub.add_argument("--kappa-max", type=float)
    sub.add_argument("--kappa-min", type=float)


def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    _add_beta_flags(sub)
    sub.add_argument("--classification", help="classification CSV")
    sub.add_argument("--z-min", type=float)
    sub.add_argument("--z-max", type=float)
    sub.add_argument("--mkt-fac", dest="mkt_fac", action="store_true", default=None)
    sub.add_argument("--no-mkt-fac", dest="mkt_fac", action="store_false", default=None)


_MODEL_DEFAULTS = {
    "beta_mode": "proportional-to-sigma",
    "kappa_max": 1.0,
    "kappa_min": 1.0,
    "z_min": 0.1,
    "z_max": 0.9,
    "mkt_fac": True,
    "index_returns": None,
    "beta_file": None,
    "out": "out",
}

_OVERLAY_DEFAULTS = {
    "constraints": "dollar-neutral",
    "band_z": 0.5,
    "gamma_max": None,
    "tol": 1e-4,
    "residualize": False,
    "weights": None,
    "expected_returns": None,
}

_SYNTH_DEFAULTS = {
    "n": 16,
    "t": 250,
    "clusters": "4",
    "rho": "0.4",
    "market_rho": 0.0,
    "seed": 0,
    "out": "out",
}


def _scalar(kind):
    def convert(value):
        # JSON true/false only for a flag, and no fraction for an integer
        fraction = kind is int and isinstance(value, float) and not value.is_integer()
        if isinstance(value, bool) != (kind is bool) or fraction:
            raise TypeError(value)
        return kind(value)

    return convert


def _numbers(kind):
    def convert(value):
        parts = value if isinstance(value, (list, tuple)) else str(value).split(",")
        return [_scalar(kind)(part) for part in parts if str(part).strip() != ""]

    return convert


# the converter of every config value that is not a name or a path
_CONVERT = {
    **dict.fromkeys(
        ("kappa_max", "kappa_min", "z_min", "z_max", "band_z", "gamma_max", "tol", "market_rho"),
        _scalar(float),
    ),
    **dict.fromkeys(("n", "t", "seed"), _scalar(int)),
    **dict.fromkeys(("mkt_fac", "residualize"), _scalar(bool)),
    "clusters": _numbers(int),
    **dict.fromkeys(("rho", "lower_bounds", "upper_bounds"), _numbers(float)),
}


def _merge_config(args, defaults: dict) -> dict:
    """defaults < config file < explicit command-line flags, each value
    converted to the type its key takes."""
    merged = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        loaded = read_json(config_path)
        if not isinstance(loaded, dict):
            raise InputError(f"{config_path}: config must be a JSON object")
        for key, value in loaded.items():
            merged[key.replace("-", "_")] = value
    for key, value in vars(args).items():
        if key in ("handler", "command", "config"):
            continue
        if value is not None:
            merged[key] = value
    for key, convert in _CONVERT.items():
        if merged.get(key) is not None:
            try:
                merged[key] = convert(merged[key])
            except (TypeError, ValueError):
                raise InputError(f"config value {key!r} has the wrong type: {merged[key]!r}") from None
    return merged


def _build_model(cfg: dict):
    for key in ("returns", "classification"):
        if not cfg.get(key):
            raise InputError(f"missing required input: --{key}")
    panel = load_returns_csv(cfg["returns"])
    tree = load_classification_csv(cfg["classification"], panel)
    for warning in validate_tree(tree, panel):
        print(f"warning: singleton level-{warning.level} cluster {warning.cluster!r}", file=sys.stderr)
    beta = _resolve_beta(cfg, panel)
    theta_cfg = ThetaFitConfig(z_min=cfg["z_min"], z_max=cfg["z_max"])
    model = build_russian_doll(panel, tree, beta, mkt_fac=cfg["mkt_fac"], cfg=theta_cfg)
    return panel, tree, model


def _resolve_beta(cfg: dict, panel):
    spec_kwargs = {
        "mode": cfg["beta_mode"],
        "kappa_max": cfg["kappa_max"],
        "kappa_min": cfg["kappa_min"],
    }
    index_returns = None
    if cfg["beta_mode"] == "observed-capped":
        if not cfg.get("index_returns"):
            raise InputError("observed-capped beta mode requires --index-returns")
        index_returns = _load_index_returns(cfg["index_returns"], panel)
    elif cfg["beta_mode"] == "explicit":
        if not cfg.get("beta_file"):
            raise InputError("explicit beta mode requires --beta-file")
        spec_kwargs["values"] = _load_ticker_values(cfg["beta_file"], panel, "beta")
    return make_betas(panel, BetaSpec(**spec_kwargs), index_returns)


def _load_index_returns(path, panel) -> np.ndarray:
    rows = read_keyed_csv(path, ("date", "value"))
    if len(rows) != panel.n_periods:
        raise InputError(f"{path}: {len(rows)} rows, expected {panel.n_periods} periods")
    for (date, _), expected in zip(rows, panel.dates):
        if date != expected:
            raise InputError(f"{path}: date {date!r} does not match panel date {expected!r}")
    return np.array([value for _, value in rows])


def _load_ticker_values(path, panel, column: str) -> np.ndarray:
    table: dict[str, float] = {}
    for ticker, value in read_keyed_csv(path, ("ticker", column)):
        if ticker in table:
            raise DuplicateTicker(ticker, path)
        table[ticker] = value
    missing = [t for t in panel.tickers if t not in table]
    if missing:
        raise InputError(f"{path}: missing {column} for {missing[:5]}")
    return np.array([table[t] for t in panel.tickers])


def cmd_benchmark(args) -> int:
    cfg = _merge_config(
        args, {**_MODEL_DEFAULTS, "returns": None, "classification": None, "weight_scale": "beta"}
    )
    if cfg["weight_scale"] not in _WEIGHT_SCALES:
        raise InputError(f"unknown weight scale {cfg['weight_scale']!r}")
    panel, tree, model = _build_model(cfg)
    result = benchmark_weights(model)
    if cfg["weight_scale"] == "sum":
        result = _rescale_to_unit_sum(result)
    outdir = _ensure_outdir(cfg["out"])
    write_weights_csv(os.path.join(outdir, "weights.csv"), result, model)
    save_model(model, os.path.join(outdir, "model.json"))
    sidecar = {
        "sigma_f2": result.sigma_f2,
        "n_stocks": panel.n_stocks,
        "n_periods": panel.n_periods,
        "n_levels": tree.n_levels,
        "cluster_counts": list(tree.cluster_counts),
        "min_weight": float(result.weights.min()),
        "max_weight": float(result.weights.max()),
        "config": cfg,
    }
    write_json(os.path.join(outdir, "benchmark.json"), sidecar)
    print(
        f"benchmark: N={panel.n_stocks} P={tree.n_levels} K={tree.cluster_counts} "
        f"sigma_F2={result.sigma_f2:.6g} weights in [{result.weights.min():.6g}, "
        f"{result.weights.max():.6g}]"
    )
    return EXIT_OK


def cmd_overlay(args) -> int:
    cfg = _merge_config(
        args, {**_MODEL_DEFAULTS, **_OVERLAY_DEFAULTS, "returns": None, "classification": None}
    )
    modes = tuple(m.strip() for m in str(cfg["constraints"]).split(",") if m.strip())
    check_modes(modes)
    panel, tree, model = _build_model(cfg)
    if cfg.get("weights"):
        rows = read_keyed_csv(cfg["weights"], ("ticker", "weight"))
        if tuple(ticker for ticker, _ in rows) != panel.tickers:
            raise InputError(f"{cfg['weights']}: tickers do not match the returns panel")
        w_star = np.array([weight for _, weight in rows])
    else:
        w_star = benchmark_weights(model).weights
    if not cfg.get("expected_returns"):
        raise InputError("missing required input: --expected-returns")
    signal = _load_ticker_values(cfg["expected_returns"], panel, "expected_return")
    w_star_norm = w_star / w_star.sum()
    if cfg["residualize"]:
        signal = residualize(signal, w_star_norm)
    problem = make_overlay_problem(
        signal,
        model,
        w_star,
        band=cfg["band_z"],
        lower=cfg.get("lower_bounds"),
        upper=cfg.get("upper_bounds"),
        modes=modes,
    )
    result = tune_gamma(problem, cfg["gamma_max"], tol=cfg["tol"])

    outdir = _ensure_outdir(cfg["out"])
    write_csv(
        os.path.join(outdir, "overlay.csv"),
        ("ticker", "w_star", "w_prime", "w_combined"),
        (panel.tickers, problem.w_star, result.w_prime, result.combined),
    )
    sidecar = {
        "gamma_prime_opt": result.gamma_prime,
        "sharpe_zero": result.sharpe_zero,
        "sharpe_opt": result.sharpe_opt,
        "rho": result.rho,
        "bracket_saturated": result.bracket_saturated,
        "active_bounds": len(result.active_lower) + len(result.active_upper),
        "constraint_modes": list(modes),
        "eq_residual": result.eq_residual,
        "config": cfg,
    }
    write_json(os.path.join(outdir, "overlay.json"), sidecar)
    print(
        f"overlay: gamma'={result.gamma_prime:.6g} S(0)={result.sharpe_zero:.6g} "
        f"S(opt)={result.sharpe_opt:.6g} saturated={result.bracket_saturated} "
        f"active_bounds={sidecar['active_bounds']}"
    )
    return EXIT_OK


def cmd_synth(args) -> int:
    cfg = _merge_config(args, dict(_SYNTH_DEFAULTS))
    spec = SyntheticSpec(
        n=cfg["n"],
        t=cfg["t"],
        clusters=tuple(cfg["clusters"]),
        rho=tuple(cfg["rho"]),
        market_rho=cfg["market_rho"],
        seed=cfg["seed"],
    )
    instance = generate(spec)
    outdir = _ensure_outdir(cfg["out"])
    write_returns_csv(instance.panel, os.path.join(outdir, "returns.csv"))
    write_classification_csv(instance.tree, os.path.join(outdir, "classification.csv"))
    write_json(os.path.join(outdir, "synth.json"), {"config": cfg})
    print(
        f"synth: N={spec.n} T={spec.t} clusters={spec.clusters} rho={spec.rho} "
        f"seed={spec.seed} -> {outdir}"
    )
    return EXIT_OK


def cmd_betas(args) -> int:
    cfg = _merge_config(args, {**_MODEL_DEFAULTS, "returns": None})
    if not cfg.get("returns"):
        raise InputError("missing required input: --returns")
    panel = load_returns_csv(cfg["returns"])
    beta = _resolve_beta(cfg, panel)
    outdir = _ensure_outdir(cfg["out"])
    write_csv(os.path.join(outdir, "betas.csv"), ("ticker", "beta"), (panel.tickers, beta.values))
    write_json(os.path.join(outdir, "betas.json"), {"config": cfg})
    print(f"betas: N={panel.n_stocks} mode={cfg['beta_mode']}")
    return EXIT_OK


def _rescale_to_unit_sum(result: BenchmarkResult) -> BenchmarkResult:
    """Switch from unit weighted betas to unit total weight; the portfolio
    variance picks up the square of the scale."""
    scale = float(result.weights.sum())
    return BenchmarkResult(result.tickers, result.weights / scale, result.sigma_f2 / scale**2, result.gamma)


def _ensure_outdir(path) -> str:
    if not path:
        raise InputError("missing output directory (--out)")
    os.makedirs(path, exist_ok=True)
    return str(path)


if __name__ == "__main__":
    raise SystemExit(main())
