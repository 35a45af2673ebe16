"""Spans and counts around the program's public functions.

Nothing in the program is changed: the wrappers replace names in the module
namespaces where the callers look them up (``nestbench.cli`` for the
pipeline stages, ``nestbench.benchmark``, ``nestbench.risk_model`` and
``nestbench.overlay`` for the calls those modules make themselves). Spans
hold a name, a start, an end and the index of the enclosing span; they are
kept in memory and handed to the parent when the operation ends.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from collections import Counter

import numpy

# (name looked up in nestbench.cli, span name)
_CLI_STAGES = (
    ("load_returns_csv", "data_model.load_returns_csv"),
    ("load_classification_csv", "data_model.load_classification_csv"),
    ("sample_covariance", "stats_core.sample_covariance"),
    ("make_betas", "benchmark.make_betas"),
    ("build_russian_doll", "risk_model.build_russian_doll"),
    ("benchmark_weights", "benchmark.benchmark_weights"),
    ("write_weights_csv", "benchmark.write_weights_csv"),
    ("save_model", "risk_model.save_model"),
    ("assemble_dense", "risk_model.assemble_dense"),
    ("make_overlay_problem", "overlay.make_overlay_problem"),
    ("tune_gamma", "overlay.tune_gamma"),
)
_INNER = (
    ("nestbench.benchmark", "sample_covariance", "stats_core.sample_covariance"),
    ("nestbench.benchmark", "serial_betas", "stats_core.serial_betas"),
    ("nestbench.risk_model", "fit_theta", "risk_model.fit_theta"),
    ("nestbench.overlay", "optimize_mvo", "overlay.optimize_mvo"),
    ("nestbench.overlay", "default_gamma_max", "overlay.default_gamma_max"),
    ("nestbench.overlay", "kkt_check", "overlay.kkt_check"),
    ("nestbench.overlay", "combine", "overlay.combine"),
)
# tracemalloc peaks are taken around these, in a separate operation, because
# tracemalloc slows every allocation it sees
_ALLOC_STAGES = (
    ("load_returns_csv", "data_model.load_returns_csv"),
    ("build_russian_doll", "risk_model.build_russian_doll"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.alloc_peaks: dict[str, float] = {}

    def timed(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else None])
            self.stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self.stack.pop()

        return wrapper

    def counted_solve(self, fn):
        """numpy.linalg.solve, counted when called under tune_gamma (all of
        them) and under optimize_mvo (the per-probe KKT solves)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans = {self.spans[i][0] for i in self.stack}
            if "overlay.tune_gamma" in open_spans:
                self.counts["overlay.kkt_solves"] += 1
            if "overlay.optimize_mvo" in open_spans:
                self.counts["overlay.probe_kkt_solves"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def alloc_peak(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.alloc_peaks[name] = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()

        return wrapper

    def report(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "alloc_mib": self.alloc_peaks,
        }


def install(cli, alloc: bool) -> Tracer:
    """Wrap the program's functions for one traced (or allocation-measuring)
    call of ``cli.main``."""
    tracer = Tracer()
    if alloc:
        for attr, name in _ALLOC_STAGES:
            setattr(cli, attr, tracer.alloc_peak(getattr(cli, attr), name))
        return tracer
    for attr, name in _CLI_STAGES:
        setattr(cli, attr, tracer.timed(getattr(cli, attr), name))
    for module_name, attr, name in _INNER:
        module = importlib.import_module(module_name)
        setattr(module, attr, tracer.timed(getattr(module, attr), name))
    numpy.linalg.solve = tracer.counted_solve(numpy.linalg.solve)
    return tracer
