"""Command-line pipeline: benchmark weights, outperformance overlay,
standalone betas, and synthetic fixture generation.

Every run is deterministic given its inputs and seed; the effective config is
echoed into each JSON sidecar. Exit codes: 0 success, 2 input error, 3 model
error, 4 optimizer non-convergence or a failed KKT certificate.
"""

from __future__ import annotations

import argparse
import math
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

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MODEL = 3
EXIT_SOLVER = 4

_WEIGHT_SCALES = ("beta", "sum")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return EXIT_INPUT
    try:
        return _COMMANDS[args.command][0](_merge_config(args))
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
    for command, (_, help_text, keys) in _COMMANDS.items():
        flags = sub.add_parser(command, help=help_text)
        for key in keys:
            _, default, key_help = _OPTIONS[key]
            action = argparse.BooleanOptionalAction if isinstance(default, bool) else "store"
            flags.add_argument("--" + key.replace("_", "-"), action=action, help=key_help)
    return parser


def _merge_config(args) -> dict:
    """The command's defaults < config file < explicit command-line flags,
    each value converted by its key's converter."""
    keys = _COMMANDS[args.command][2]
    merged = {key: _OPTIONS[key][1] for key in keys}
    if args.config:
        loaded = read_json(args.config)
        if not isinstance(loaded, dict):
            raise InputError(f"{args.config}: config must be a JSON object")
        for key, value in loaded.items():
            if key.replace("-", "_") not in _OPTIONS:
                raise InputError(f"{args.config}: unknown config key {key!r}")
            merged[key.replace("-", "_")] = value
    merged.update((key, getattr(args, key)) for key in keys if getattr(args, key) is not None)
    for key, value in merged.items():
        if value is not None or _OPTIONS[key][1] is not None:  # null only for keys that default to it
            try:
                merged[key] = _OPTIONS[key][0](value)
            except (TypeError, ValueError):
                raise InputError(f"invalid value for option {key!r}: {value!r}") from None
    return merged


def _scalar(kind):
    def convert(value):
        # JSON true/false only for a flag, and no fraction for an integer
        fraction = kind is int and isinstance(value, float) and not value.is_integer()
        if isinstance(value, bool) != (kind is bool) or fraction:
            raise TypeError(value)
        converted = kind(value)
        if kind is float and not math.isfinite(converted):
            raise ValueError(value)
        return converted

    return convert


def _numbers(kind):
    def convert(value):
        parts = value if isinstance(value, (list, tuple)) else str(value).split(",")
        return [_scalar(kind)(part) for part in parts if str(part).strip() != ""]

    return convert


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError(value)
    return value


def _choice(options):
    def convert(value):
        if value not in options:
            raise ValueError(value)
        return value

    return convert


def _modes(text) -> tuple:
    return tuple(m.strip() for m in _string(text).split(",") if m.strip())


def _constraints(text) -> str:
    check_modes(_modes(text))
    return text


# key: (converter, default, help); its flag is --key-with-dashes, and a key
# with a bool default also takes --no-key-with-dashes
_OPTIONS = {
    "returns": (_string, None, "returns CSV"),
    "beta_mode": (_choice(BETA_MODES), "proportional-to-sigma", "one of " + ", ".join(BETA_MODES)),
    "index_returns": (_string, None, "CSV date,value (observed-capped mode)"),
    "beta_file": (_string, None, "CSV ticker,beta (explicit mode)"),
    "kappa_max": (_scalar(float), 1.0, "observed-capped betas: upper cap at median + kappa_max * MAD"),
    "kappa_min": (_scalar(float), 1.0, "observed-capped betas: lower cap at median - kappa_min * MAD"),
    "classification": (_string, None, "classification CSV"),
    "z_min": (_scalar(float), 0.1, "lower end of the band for the specific fraction of total risk"),
    "z_max": (_scalar(float), 0.9, "upper end of that band"),
    "mkt_fac": (_scalar(bool), True, "fit the market factor level (default) or pin it to zero"),
    "weight_scale": (_choice(_WEIGHT_SCALES), "beta",
                     "normalize weighted betas to 1 (beta, default) or the weights themselves (sum)"),
    "expected_returns": (_string, None, "CSV ticker,expected_return"),
    "weights": (_string, None, "benchmark weights CSV (defaults to computing inline)"),
    "constraints": (_constraints, "dollar-neutral", "comma list of constraint modes"),
    "band_z": (_scalar(float), 0.5, "bound band as a fraction of benchmark weight"),
    "gamma_max": (_scalar(float), None, "upper end of the tuning bracket"),
    "tol": (_scalar(float), 1e-4, "relative tolerance of the tuning search"),
    "residualize": (_scalar(bool), False, "regress the signal off the benchmark weights first"),
    "lower_bounds": (_numbers(float), None, "per-stock overlay lower bounds (config file only)"),
    "upper_bounds": (_numbers(float), None, "per-stock overlay upper bounds (config file only)"),
    "n": (_scalar(int), 16, "number of stocks"),
    "t": (_scalar(int), 250, "number of periods"),
    "clusters": (_numbers(int), "4", "comma list of cluster counts, most granular first"),
    "rho": (_numbers(float), "0.4", "comma list of within-cluster correlations per level"),
    "market_rho": (_scalar(float), 0.0, "correlation across top-level clusters"),
    "seed": (_scalar(int), 0, "RNG seed"),
    "out": (_string, "out", "output directory"),
}


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
    return panel, model


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
        index_returns = _load_in_order(cfg["index_returns"], ("date", "value"), panel.dates)
    elif cfg["beta_mode"] == "explicit":
        if not cfg.get("beta_file"):
            raise InputError("explicit beta mode requires --beta-file")
        spec_kwargs["values"] = _load_ticker_values(cfg["beta_file"], panel, "beta")
    return make_betas(panel, BetaSpec(**spec_kwargs), index_returns)


def _load_in_order(path, header, keys) -> np.ndarray:
    """The values of a keyed CSV whose keys must be ``keys``, in that order."""
    rows = read_keyed_csv(path, header)
    if len(rows) != len(keys):
        raise InputError(f"{path}: {len(rows)} rows, expected one per panel {header[0]} ({len(keys)})")
    for row, ((key, _), expected) in enumerate(zip(rows, keys), start=1):
        if key != expected:
            raise InputError(f"{path}: data row {row} has {header[0]} {key!r} where the panel has {expected!r}")
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


def cmd_benchmark(cfg: dict) -> int:
    panel, model = _build_model(cfg)
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
        "n_levels": model.tree.n_levels,
        "cluster_counts": list(model.tree.cluster_counts),
        "min_weight": float(result.weights.min()),
        "max_weight": float(result.weights.max()),
        "config": cfg,
    }
    write_json(os.path.join(outdir, "benchmark.json"), sidecar)
    print(
        f"benchmark: N={panel.n_stocks} P={model.tree.n_levels} K={model.tree.cluster_counts} "
        f"sigma_F2={result.sigma_f2:.6g} weights in [{result.weights.min():.6g}, "
        f"{result.weights.max():.6g}]"
    )
    return EXIT_OK


def cmd_overlay(cfg: dict) -> int:
    modes = _modes(cfg["constraints"])
    panel, model = _build_model(cfg)
    if cfg.get("weights"):
        w_star = _load_in_order(cfg["weights"], ("ticker", "weight"), panel.tickers)
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


def cmd_synth(cfg: dict) -> int:
    from .synthetic import SyntheticSpec, generate  # here, so no other command compiles synthetic.py

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


def cmd_betas(cfg: dict) -> int:
    if not cfg.get("returns"):
        raise InputError("missing required input: --returns")
    panel = load_returns_csv(cfg["returns"])
    beta = _resolve_beta(cfg, panel)
    outdir = _ensure_outdir(cfg["out"])
    write_csv(os.path.join(outdir, "betas.csv"), ("ticker", "beta"), (panel.tickers, beta.values))
    write_json(os.path.join(outdir, "betas.json"), {"config": cfg})
    print(f"betas: N={panel.n_stocks} mode={cfg['beta_mode']}")
    return EXIT_OK


_BETA_KEYS = ("returns", "beta_mode", "index_returns", "beta_file", "kappa_max", "kappa_min")
_MODEL_KEYS = (*_BETA_KEYS, "classification", "z_min", "z_max", "mkt_fac")

# command: (handler, help, the keys it takes as flags)
_COMMANDS = {
    "benchmark": (cmd_benchmark, "fit the nested model and write benchmark weights",
                  (*_MODEL_KEYS, "weight_scale", "out")),
    "overlay": (cmd_overlay, "tune and write the dollar-neutral overlay",
                (*_MODEL_KEYS, "expected_returns", "weights", "constraints", "band_z", "gamma_max", "tol",
                 "residualize", "out")),
    "synth": (cmd_synth, "generate a synthetic returns/classification fixture",
              ("n", "t", "clusters", "rho", "market_rho", "seed", "out")),
    "betas": (cmd_betas, "compute a beta vector on its own", (*_BETA_KEYS, "out")),
}


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
