"""Benchmark runner for s6quartic: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/.
A closed loop with one client runs one op at a time and checks every
op's output against an answer the package did not compute.

--trace 0 measures ops for S seconds of op wall time and reports the
end-to-end metrics of BENCHMARK.json, every time scaled to the reference
host speed by speed.SpeedClock.  --trace 1 runs op 0 six times in fresh
interpreters, alternately plain and with the tracer, and reports the
per-layer metrics; its work is fixed, so the counts repeat exactly.

The last line of stdout is the result as JSON.  Spans and the full metric
set go to .bench_build/perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
CHILD = str(HERE / "child.py")
CLOCK_OUT = OUT_DIR / "verify-clock.json"

# Set-up samples are taken between ops, so they spread over the run.
PROBES = 25
CALIBRATIONS = 5
TRACE_PROBES = 5


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv) -> tuple:
    """Run a child to completion: (wall s, exit code, peak RSS MB, stdout)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024, out


def probe(workload: str, seed: int) -> tuple:
    """One set-up sample: (scaled s, report of the probe child)."""
    wall, code, _, out = spawn([sys.executable, CHILD, "probe", workload, str(seed)])
    if code != 0:
        raise SystemExit(f"perfbench: set-up probe exited with {code}")
    report = json.loads(out)
    return speed.scale_child(wall, report["clock"]), report


def calibrate() -> float:
    """The Fraction loop at length: tells a slow host apart from slow code."""
    return speed.fraction_loop(5000)


def src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((ROOT / "src").rglob("*.py"))
    )


def correct(workload: str, result, expected) -> bool:
    try:
        return workloads.answer(workload, result) == expected
    except (ValueError, KeyError, TypeError):
        return False


# -- tracing off: end-to-end metrics ---------------------------------------------------


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    prepare, expected, call = workloads.WORKLOADS[workload]
    probe(workload, seed)  # warm-up: bytecode compiled, files in the page cache
    setup, calib, op_times, walls, rss = [], [], [], [], []
    failed = 0
    in_process = workload != "verify-cold"
    if in_process:
        pkg = workloads.load_package(ROOT)
    # Stop when another op would end nearer the budget's far side than this
    # one did, so a run measures about `seconds` of ops on average.
    while not walls or sum(walls) + statistics.fmean(walls) / 2 < seconds:
        prepared = prepare(seed, len(walls))
        if in_process:
            start = time.perf_counter()
            with speed.SpeedClock() as clock:
                result = call(pkg, prepared)
            walls.append(time.perf_counter() - start)
            op_times.append(clock.scaled_s)
        else:
            argv = [sys.executable, CHILD, "verify", str(CLOCK_OUT), *workloads.VERIFY_ARGV]
            CLOCK_OUT.unlink(missing_ok=True)
            wall, code, peak, out = spawn(argv)
            walls.append(wall)
            # A child that died before writing its clock fails its check;
            # its time then counts unscaled.
            clock = json.loads(CLOCK_OUT.read_text(encoding="utf-8")) if code == 0 else None
            op_times.append(speed.scale_child(wall, clock) if clock else wall)
            rss.append(peak)
            result = {"exit": code, "stdout": out.decode("utf-8", "replace")}
        failed += not correct(workload, result, expected(prepared))
        if len(setup) < PROBES:
            setup.append(probe(workload, seed)[0])
        if len(calib) < CALIBRATIONS:
            calib.append(calibrate())
    while len(setup) < PROBES:
        setup.append(probe(workload, seed)[0])
    if in_process:
        rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(op_times),
        "ops_per_s": len(op_times) / sum(op_times),
        "rss_peak_mb": statistics.median(rss),
    }
    samples = {
        "op_s": op_times,
        "op_wall_s": walls,
        "setup_s": setup,
        "host.calib_s": calib,
        "rss_mb": rss,
    }
    (OUT_DIR / f"{workload}-seed{seed}-samples.json").write_text(
        json.dumps(samples), encoding="utf-8"
    )
    print(
        f"perfbench: {workload} seed={seed} ops={len(op_times)} "
        f"host.calib_s={statistics.median(calib):.4f} src.lines={src_lines()}",
        flush=True,
    )
    return {"attempted": len(op_times), "failed": failed, "metrics": metrics}


# -- tracing on: per-layer metrics -------------------------------------------------------


def run_op_child(workload: str, seed: int, trace: bool) -> tuple:
    tag = f"{workload}-seed{seed}-{'traced' if trace else 'plain'}"
    out = OUT_DIR / f"{tag}.json"
    argv = [sys.executable, CHILD, "op", workload, str(seed), str(int(trace)), str(out)]
    if trace:
        argv.append(str(OUT_DIR / f"{workload}-seed{seed}-spans.jsonl"))
    _, code, _, _ = spawn(argv)
    if code != 0:
        return None, False
    report = json.loads(out.read_text(encoding="utf-8"))
    prepare, expected, _ = workloads.WORKLOADS[workload]
    ok = correct(workload, report["result"], expected(prepare(seed, 0)))
    return report, ok


def traced_run(workload: str, seed: int) -> dict:
    probes = [probe(workload, seed)[1] for _ in range(TRACE_PROBES)]
    calib = [calibrate() for _ in range(CALIBRATIONS)]
    # Plain and traced children alternate, so a change in host speed
    # during the run weighs on both sides of the overhead ratio alike.
    runs = {False: [], True: []}
    for trace in (False, True, True, False, False, True):
        runs[trace].append(run_op_child(workload, seed, trace))
    reports = {trace: [r for r, _ in runs[trace]] for trace in runs}
    plain, traced = reports[False][0], reports[True][0]
    failed = sum(not ok for pairs in runs.values() for _, ok in pairs)
    metrics = dict(traced["metrics"]) if traced else {}
    if plain and workload == "verify-cold":
        for line in plain["result"]["stdout"].splitlines():
            record = json.loads(line)
            metrics[f"checks.{record['check_id']}.elapsed_s"] = record["elapsed"] / 1000
    metrics.update(
        {
            "cli.import_s": statistics.median(p["import_s"] for p in probes),
            "host.calib_s": statistics.median(calib),
            "src.lines": src_lines(),
            "api.all_names": probes[0]["all_names"],
        }
    )
    if all(reports[False]) and all(reports[True]):
        metrics["trace.overhead_factor"] = statistics.median(
            r["op_s"] for r in reports[True]
        ) / statistics.median(r["op_s"] for r in reports[False])
    full = {"metrics": metrics, "missing": traced["missing"] if traced else None}
    (OUT_DIR / f"{workload}-seed{seed}-layers.json").write_text(
        json.dumps(full, indent=1, sort_keys=True), encoding="utf-8"
    )
    return {"attempted": 6, "failed": failed, "metrics": metrics}


# -- entry point -------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "s6quartic" / "__init__.py").is_file():
        print(f"perfbench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT_DIR.mkdir(parents=True, exist_ok=True)

    if args.trace:
        run = traced_run(args.workload, args.seed)
        declared = spec["per_layer"]
        values = {m["name"]: run["metrics"].get(m["name"], 0) for m in declared}
    else:
        run = timed_run(args.workload, args.seed, args.seconds)
        declared = spec["end_to_end"]
        values = {m["name"]: run["metrics"][m["name"]] for m in declared}
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
