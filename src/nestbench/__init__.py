"""Long-only benchmark portfolios from multilevel industry classifications,
plus a bounded dollar-neutral overlay aimed at outperforming them.

Each public name imports its module on first use (PEP 562), so
``import nestbench`` loads no submodule and a command loads only the
modules it runs."""

from importlib import import_module

__version__ = "0.1.0"

# module: the public names it exports
_EXPORTS = {
    "benchmark": ("BenchmarkResult", "BetaSpec", "benchmark_weights", "make_betas", "serial_betas"),
    "data_model": ("BetaVector", "ClassificationTree", "ReturnsPanel", "SingletonCluster", "load_classification_csv",
                   "load_returns_csv", "tree_from_labels", "validate_tree", "write_classification_csv",
                   "write_returns_csv"),
    "overlay": ("CombinedPortfolio", "KKTReport", "OverlayProblem", "OverlayResult", "build_constraints", "combine",
                "default_gamma_max", "kkt_check", "make_overlay_problem", "optimize_mvo", "residualize",
                "sharpe_ratio", "tune_gamma"),
    "risk_model": ("RussianDollModel", "ThetaFitConfig", "build_russian_doll", "fit_theta", "load_model",
                   "model_from_dict", "model_to_dict", "save_model"),
    "synthetic": ("SyntheticInstance", "SyntheticSpec", "generate"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    # a name outside the table raises, so ``from nestbench import data_model``
    # falls back to importing the submodule
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module("." + _HOME[name], __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
