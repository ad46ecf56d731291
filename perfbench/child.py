"""Fresh-interpreter helpers started by run.py.

    child.py probe WORKLOAD SEED
        Import s6quartic and make the first op's inputs, then exit; run.py
        times the whole process as one set-up sample.  Prints the import
        time, the size of s6quartic.__all__ and the speed clock's report
        as JSON.

    child.py verify OUT ARG...
        Run `python -m s6quartic ARG...` in this interpreter, with its
        output on stdout and its exit code as this process's, and
        write the speed clock's report to OUT as JSON.

    child.py op WORKLOAD SEED TRACE OUT [SPANS]
        Run op 0 once in this cold process, with the tracer installed
        when TRACE is 1, and write its scaled time, result and per-layer
        metrics to OUT as JSON (spans to SPANS when given).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from speed import SpeedClock

ROOT = Path(__file__).resolve().parent.parent


def probe(workload: str, seed: int) -> None:
    with SpeedClock() as clock:
        import workloads

        start = time.perf_counter()
        pkg = workloads.load_package(ROOT)
        import_s = time.perf_counter() - start
        prepare, _, _ = workloads.WORKLOADS[workload]
        prepare(seed, 0)
    print(
        json.dumps(
            {"import_s": import_s, "all_names": len(pkg.__all__), "clock": clock.report()}
        )
    )


def verify(out, *argv) -> int:
    # Only what the clock needs is imported before it starts, so the op is
    # the package's own start-up and run.
    import runpy

    sys.argv = ["s6quartic", *argv]
    code = 0
    with SpeedClock() as clock:
        try:
            runpy.run_module("s6quartic", run_name="__main__", alter_sys=True)
        except SystemExit as exit:
            code = exit.code
        sys.stdout.flush()
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(clock.report(), handle)
    return code


def op(workload, seed, trace, out, spans=None) -> None:
    import workloads
    from tracer import Tracer, cache_metrics

    start = time.perf_counter()
    pkg = workloads.load_package(ROOT)
    import_s = time.perf_counter() - start
    prepare, _, call = workloads.WORKLOADS[workload]
    prepared = prepare(seed, 0)
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    with SpeedClock() as clock:
        result = call(pkg, prepared)
    report = {"op_s": clock.scaled_s, "import_s": import_s, "result": result}
    if tracer is not None:
        report["metrics"] = {**tracer.metrics(), **cache_metrics()}
        report["missing"] = tracer.missing
        if spans:
            tracer.write_spans(spans)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(report, handle)


if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "probe":
        probe(args[0], int(args[1]))
    elif mode == "verify":
        sys.exit(verify(*args))
    elif mode == "op":
        op(args[0], int(args[1]), args[2] == "1", *args[3:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
