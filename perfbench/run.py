"""Benchmark of the ``nestbench`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Inputs are generated from the seed
(and cached under ``.perfbench_work/``); each operation is one ``nestbench``
invocation in a fresh child process with BLAS pinned to one thread, and its
outputs are checked by ``checks.py``. Operations repeat in whole rounds until
``--seconds`` have passed. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer ones with
``--trace 1``. See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")

# Setup-only spawns per timed round: cheap, and they make the setup_s median
# steady even on workloads with few invocations per run.
SETUP_PROBES = 2
# A child still running this long after the benchmark started is killed and
# counted as failed, so that a run ends within three minutes.
DEADLINE_S = 160
BAND = 0.5


def cli_args(workload: str, data: str, out: str) -> list[str]:
    spec = inputs.WORKLOADS[workload]
    argv = [
        spec["command"],
        "--returns", os.path.join(data, "returns.csv"),
        "--classification", os.path.join(data, "classification.csv"),
        "--out", out,
    ]
    if spec["command"] == "overlay":
        argv += ["--expected-returns", os.path.join(data, "signal.csv"),
                 "--constraints", "dollar-neutral,zero-expected-correlation",
                 "--band-z", str(BAND)]
    if spec["beta_mode"] == "observed-capped":
        argv += ["--beta-mode", "observed-capped", "--index-returns", os.path.join(data, "index.csv")]
    return argv


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    def __init__(self, workload: str, data: str, check, expected: dict, deadline: float):
        self.workload = workload
        self.deadline = deadline
        self.data = data
        self.check = check
        self.expected = expected
        self.env = child_env()
        self.out = os.path.join(WORK, "out", workload)
        os.makedirs(os.path.dirname(self.out), exist_ok=True)
        self.report_path = os.path.join(WORK, "out", f"{workload}.report.json")
        self.log_path = os.path.join(WORK, "out", f"{workload}.log")
        self.setup_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def spawn(self, mode: str, argv: list[str]) -> dict | None:
        """Run child.py once; the report, or None if it did not finish."""
        if os.path.exists(self.report_path):
            os.remove(self.report_path)
        cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, self.report_path, *argv]
        with open(self.log_path, "w", encoding="utf-8") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(cmd, env=self.env, stdout=log, stderr=log, cwd=ROOT)
            try:
                proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                pass
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if proc.returncode != 0 or not os.path.exists(self.report_path):
            return None
        with open(self.report_path, encoding="utf-8") as handle:
            report = json.load(handle)
        self.setup_s.append(report["ready"] - spawned)
        return report

    def setup_probe(self) -> None:
        if self.spawn("setup", []) is None:
            raise SystemExit(f"error: the program does not start; see {self.log_path}")

    def operation(self, mode: str) -> dict | None:
        """One checked CLI invocation; the child's report if it passed."""
        self.attempted += 1
        shutil.rmtree(self.out, ignore_errors=True)
        report = self.spawn(mode, cli_args(self.workload, self.data, self.out))
        if report is None or report.get("code") != 0:
            self.failed += 1
            with open(self.log_path, encoding="utf-8") as log:
                print(f"operation failed ({mode}): {log.read()[-2000:]}", file=sys.stderr)
            return None
        try:
            failures = self.check(self.out, self.expected)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            failures = [("readable", f"{type(exc).__name__}: {exc}")]
        if failures:
            self.failed += 1
            self.correct = False
            print(f"output check failed ({mode}): {failures}", file=sys.stderr)
            return None
        sidecar = os.path.join(self.out, "overlay.json")
        if os.path.exists(sidecar):
            with open(sidecar, encoding="utf-8") as handle:
                report["active_bounds"] = json.load(handle)["active_bounds"]
        return report


def wall(report: dict) -> float:
    return report["exit"] - report["enter"]


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def rounds(seconds: float, one_round) -> None:
    """Call ``one_round`` at least once, and again while another round of the
    length of the last one still fits in ``seconds``."""
    start = time.monotonic()
    while True:
        begun = time.monotonic()
        one_round()
        now = time.monotonic()
        if now - start + (now - begun) > seconds:
            return


def timed_metrics(runner: Runner, seconds: float) -> dict:
    walls, rss = [], []

    def one_round():
        for _ in range(SETUP_PROBES):
            runner.setup_probe()
        report = runner.operation("run")
        if report is not None:
            walls.append(wall(report))
            rss.append(report["maxrss_kib"] / 1024.0)

    rounds(seconds, one_round)
    return {
        "wall_s": (median(walls), "s"),
        "peak_rss_mb": (median(rss), "MiB"),
        "setup_s": (median(runner.setup_s), "s"),
    }


def layer_times(spans: list) -> dict:
    """Per-name totals, call counts and self times (span minus the part its
    direct children cover) for one traced invocation."""
    total, calls, child = {}, {}, {}
    for name, start, end, parent in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if parent is not None:
            pname = spans[parent][0]
            child[pname] = child.get(pname, 0.0) + (end - start)
    self_time = {name: total[name] - child.get(name, 0.0) for name in total}
    return {"total": total, "calls": calls, "self": self_time}


# per-layer metric -> (kind, span or count name, unit)
LAYER_METRICS = {
    "data_model.load_returns_s": ("total", "data_model.load_returns_csv", "s"),
    "data_model.load_returns_alloc_mb": ("alloc", "data_model.load_returns_csv", "MiB"),
    "data_model.load_classification_s": ("total", "data_model.load_classification_csv", "s"),
    "stats_core.sample_covariance_s": ("total", "stats_core.sample_covariance", "s"),
    "stats_core.sample_covariance_calls": ("calls", "stats_core.sample_covariance", "count"),
    "stats_core.serial_betas_s": ("total", "stats_core.serial_betas", "s"),
    "benchmark.make_betas_self_s": ("self", "benchmark.make_betas", "s"),
    "benchmark.benchmark_weights_s": ("total", "benchmark.benchmark_weights", "s"),
    "benchmark.write_weights_csv_s": ("total", "benchmark.write_weights_csv", "s"),
    "risk_model.build_russian_doll_s": ("total", "risk_model.build_russian_doll", "s"),
    "risk_model.build_russian_doll_alloc_mb": ("alloc", "risk_model.build_russian_doll", "MiB"),
    "risk_model.fit_theta_calls": ("calls", "risk_model.fit_theta", "count"),
    "risk_model.fit_theta_s": ("total", "risk_model.fit_theta", "s"),
    "risk_model.save_model_s": ("total", "risk_model.save_model", "s"),
    "risk_model.assemble_dense_s": ("total", "risk_model.assemble_dense", "s"),
    "overlay.make_overlay_problem_s": ("total", "overlay.make_overlay_problem", "s"),
    "overlay.default_gamma_max_s": ("total", "overlay.default_gamma_max", "s"),
    "overlay.tune_gamma_s": ("total", "overlay.tune_gamma", "s"),
    "overlay.optimize_mvo_calls": ("calls", "overlay.optimize_mvo", "count"),
    "overlay.optimize_mvo_s": ("total", "overlay.optimize_mvo", "s"),
    "overlay.kkt_solves": ("count", "overlay.kkt_solves", "count"),
    "overlay.kkt_check_s": ("total", "overlay.kkt_check", "s"),
    "overlay.combine_s": ("total", "overlay.combine", "s"),
    "cli.self_s": ("self", "cli.main", "s"),
}


def traced_metrics(runner: Runner, seconds: float) -> dict:
    """Rounds of one untraced, one traced and one allocation-measuring
    invocation; medians over the rounds."""
    plain, traced, allocs = [], [], []

    def one_round():
        reports = [runner.operation(mode) for mode in ("run", "trace", "alloc")]
        if None not in reports:
            plain.append(reports[0])
            traced.append(reports[1])
            allocs.append(reports[2])

    rounds(seconds, one_round)
    layers = [layer_times(r["spans"]) for r in traced]
    metrics = {}
    for metric, (kind, name, unit) in LAYER_METRICS.items():
        if kind == "alloc":
            values = [r["alloc_mib"].get(name, 0.0) for r in allocs]
        elif kind == "count":
            values = [r["counts"].get(name, 0) for r in traced]
        else:
            values = [layer[kind].get(name, 0) for layer in layers]
        metrics[metric] = (median(values), unit)
    probes = [layer["calls"].get("overlay.optimize_mvo", 0) for layer in layers]
    solves = [r["counts"].get("overlay.probe_kkt_solves", 0) for r in traced]
    metrics["overlay.kkt_solves_per_probe"] = (median(s / p if p else 0.0 for s, p in zip(solves, probes)), "count")
    metrics["overlay.active_bounds"] = (median(r.get("active_bounds", 0) for r in traced), "count")
    metrics["trace.overhead_s"] = (median(wall(r) for r in traced) - median(wall(r) for r in plain), "s")
    return metrics


def checks_for(workload: str, arrays: dict):
    """The output check of a workload and the values it compares against."""
    spec = inputs.WORKLOADS[workload]
    if spec["command"] == "overlay":
        return checks.check_overlay, checks.prepare_overlay(arrays, BAND)
    # parity with the reference port is checked where its cost is small
    reference = checks.load_reference(ROOT) if spec["beta_mode"] == "observed-capped" else None
    return checks.check_benchmark, checks.prepare_benchmark(arrays, spec["beta_mode"], reference)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "nestbench", "cli.py")):
        print(f"error: no nestbench sources under {ROOT}/src", file=sys.stderr)
        return 2
    data = inputs.ensure_inputs(os.path.join(WORK, "inputs"), args.workload, args.seed)
    arrays = inputs.load_arrays(data)
    check, expected = checks_for(args.workload, arrays)
    del arrays

    runner = Runner(args.workload, data, check, expected, deadline)
    if args.trace:
        metrics = traced_metrics(runner, args.seconds)
    else:
        metrics = timed_metrics(runner, args.seconds)
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
