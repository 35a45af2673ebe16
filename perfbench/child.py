"""One benchmark operation, run in its own process.

Usage: child.py MODE REPORT [CLI ARGS...]

MODE is ``setup`` (import the CLI and stop), ``run`` (call ``cli.main`` once),
``trace`` (the same with spans and counts recorded around the program's
public functions) or ``alloc`` (the same with tracemalloc peaks taken around
the loader and the model fit). The report is a JSON file holding
``time.monotonic`` stamps, which the parent compares with its own spawn
stamp: CLOCK_MONOTONIC is one clock for every process on the machine.
Nothing but the standard library is imported before ``nestbench.cli``, so
the ``ready`` stamp measures the program's own start-up.
"""

import json
import resource
import sys
import time

import nestbench.cli as cli

ready = time.monotonic()


def main() -> None:
    mode, report_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    report = {"ready": ready}
    tracer = None
    if mode in ("trace", "alloc"):
        import trace_layers

        tracer = trace_layers.install(cli, alloc=mode == "alloc")
    if mode != "setup":
        run = cli.main if tracer is None else tracer.timed(cli.main, "cli.main")
        report["enter"] = time.monotonic()
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        report["exit"] = time.monotonic()
        report["code"] = code
    report["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        report.update(tracer.report())
    with open(report_path, "w", encoding="utf-8") as out:
        json.dump(report, out)


if __name__ == "__main__":
    main()
