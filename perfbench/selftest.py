"""Self-test of the output checks.

    python3 perfbench/selftest.py

Runs the real CLI once per workload kind on small generated inputs, requires
the checks to pass on its outputs (also with ``chi`` removed from
``model.json``, which the checks treat as optional), then corrupts one
output at a time, slightly, and requires the check aimed at that corruption
to reject it. Exits 1 if any expectation fails.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import sys
import time

import numpy as np

import checks
import inputs
import run

SMALL = {
    "bench-wide": dict(n=90, t=60, clusters=(12, 4, 2)),
    "bench-long": dict(n=60, t=300, clusters=(10, 3)),
    "overlay-mid": dict(n=120, t=200, clusters=(12, 4)),
}
SEED = 5


def _csv_edit(path, column, edit):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    values = np.array([float(r[column]) for r in rows[1:]])
    values = edit(values)
    for r, v in zip(rows[1:], values):
        r[column] = repr(float(v))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(rows)


def _json_edit(path, edit):
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    edit(data)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)


def _scaled_at(index, factor):
    def edit(v):
        v = v.copy()
        v[index] *= factor
        return v

    return edit


def _swap_first_names(model):
    names = model["level_names"][0]
    names[0], names[1] = names[1], names[0]


def _nudge_xi2(model):
    model["xi2"][0] *= 1.0 + 1e-9


def _drop_chi(model):
    model.pop("chi")


BENCH_CORRUPTIONS = {
    # name of the check that must fire -> (file, corruption)
    "positive": ("weights.csv", 1, lambda v: np.where(np.arange(len(v)) == 3, -v, v)),
    "unit_beta": ("weights.csv", 1, lambda v: v * (1.0 + 1e-9)),
    "gamma_w": ("weights.csv", 1, lambda v: v[np.r_[1, 0, 2:len(v)]]),
    "beta": ("weights.csv", 2, _scaled_at(7, 1.0 + 1e-9)),
    "diagonal": ("model.json", None, _nudge_xi2),
    "tree": ("model.json", None, _swap_first_names),
}


def _overlay_corruptions(expected):
    column = expected["gamma"] @ expected["w_star"]
    i, j = int(np.argmax(column)), int(np.argmin(column))

    def tilt(v):
        v = v.copy()
        step = 1e-9 * np.abs(v).max()
        v[i] += step
        v[j] -= step
        return v

    def nudge_first(v):
        v = v.copy()
        v[0] += 1e-9 * np.abs(v).max()
        return v

    def past_band(v):
        v = v.copy()
        k = int(np.argmax(np.abs(v)))
        v[k] *= 1.0 + 1e-6
        return v

    return {
        "w_star": ("overlay.csv", 1, _scaled_at(0, 1.0 + 1e-8)),
        "dollar_neutral": ("overlay.csv", 2, nudge_first),
        "band": ("overlay.csv", 2, past_band),
        "combined": ("overlay.csv", 3, _scaled_at(0, 1.0 + 1e-9)),
        "zero_correlation": ("overlay.csv", 2, tilt),
        "sharpe_gain": ("overlay.csv", 2, lambda v: -v),
        "sharpe_report": ("overlay.json", None, lambda d: d.update(sharpe_opt=d["sharpe_opt"] * (1 + 1e-6))),
        "kkt": ("overlay.json", None, lambda d: d.update(gamma_prime_opt=d["gamma_prime_opt"] * 1.001)),
        "active_bounds": ("overlay.json", None, lambda d: d.update(active_bounds=d["active_bounds"] + 1)),
    }


def _corrupted_copy(clean, outdir, corruption):
    filename, column, edit = corruption
    shutil.copytree(clean, outdir)
    path = os.path.join(outdir, filename)
    if column is None:
        _json_edit(path, edit)
    else:
        _csv_edit(path, column, edit)
    return outdir


def main() -> int:
    root = os.path.join(run.WORK, "selftest")
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root)
    problems = []
    for workload, size in SMALL.items():
        data = os.path.join(root, workload)
        os.makedirs(data)
        arrays = inputs.make_arrays(size["n"], size["t"], size["clusters"], SEED)
        inputs.write_inputs(data, arrays)
        check, expected = run.checks_for(workload, arrays)
        if check is checks.check_overlay:
            corruptions = _overlay_corruptions(expected)
        else:
            corruptions = dict(BENCH_CORRUPTIONS)
            if "reference_weights" in expected:
                corruptions["reference"] = ("weights.csv", 1, _scaled_at(5, 1.0 + 1e-9))
        runner = run.Runner(workload, data, check, expected, time.monotonic() + run.DEADLINE_S)
        if runner.operation("run") is None:
            problems.append(f"{workload}: the clean run did not pass")
            continue
        clean = os.path.join(root, f"{workload}-clean")
        shutil.copytree(runner.out, clean)
        if check is checks.check_benchmark:
            no_chi = _corrupted_copy(clean, os.path.join(root, f"{workload}-no-chi"), ("model.json", None, _drop_chi))
            fired = [name for name, _ in check(no_chi, expected)]
            print(f"{'FAIL' if fired else 'PASS'} {workload}: outputs without chi pass ({fired})")
            if fired:
                problems.append(f"{workload}: model.json without chi")
        for target, corruption in corruptions.items():
            outdir = _corrupted_copy(clean, os.path.join(root, f"{workload}-{target}"), corruption)
            fired = [name for name, _ in check(outdir, expected)]
            print(f"{'PASS' if target in fired else 'FAIL'} {workload}: {target} corruption rejected by {fired}")
            if target not in fired:
                problems.append(f"{workload}: {target}")
    if problems:
        print("self-test failed: " + "; ".join(problems))
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
