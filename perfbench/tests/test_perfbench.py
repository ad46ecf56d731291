"""Tests of the benchmark itself: oracles, seeded inputs, determinism.

Run from the repository root:

    python3 -m pytest -q perfbench/tests

The traced and timed runs start real benchmark runs, about two minutes
in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import oracle  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 3


def run_bench(workload, seed, trace, seconds=1, cwd=ROOT):
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repeats_exactly(name: str) -> bool:
    """Metrics that count work rather than time it."""
    return (
        name.endswith((".calls", ".terms", ".currsize", "hit_ratio", "_share"))
        or name.startswith("varieties.scan.")
        or name in ("src.lines", "api.all_names")
    )


# -- oracles and inputs ------------------------------------------------------------------


def test_oracle_field_identities():
    w = oracle.W
    assert oracle.add(oracle.add(oracle.mul(w, w), w), oracle.ONE) == oracle.ZERO
    assert oracle.power(w, 3) == oracle.ONE
    x = (Fraction(3, 7), Fraction(-2, 5))
    assert oracle.mul(x, oracle.inverse(x)) == oracle.ONE
    assert oracle.text((Fraction(-1), Fraction(-1))) == "-1 - w"
    assert oracle.text((Fraction(0), Fraction(-3, 2))) == "-3/2*w"


def test_scan_oracle_finds_the_known_orbits():
    counts = {
        t: [len(oracle.scan_answer(Fraction(t), a)) for a in inputs.SCAN_ALPHABETS]
        for t in (6, 7)
    }
    assert counts == {6: [10, 10, 30], 7: [0, 0, 30]}


def test_inputs_depend_on_the_seed_only():
    assert inputs.eval_batch(5, 2) == inputs.eval_batch(5, 2)
    assert inputs.eval_batch(5, 2) != inputs.eval_batch(6, 2)
    t6, integer_t, rational_t = inputs.scan_params(5, 2)
    assert t6 == 6
    assert integer_t.denominator == 1 and integer_t not in (2, 4, 6)
    assert rational_t.denominator != 1


def test_eval_mix_is_half_non_integral():
    batch = inputs.eval_batch(SEED, 1)
    coords = [c for _, point in batch for c in point]
    share = sum(a.denominator != 1 or b.denominator != 1 for a, b in coords) / len(coords)
    assert 0.35 < share < 0.65


def test_package_agrees_with_oracles_on_rendered_inputs():
    pkg = workloads.load_package(ROOT)
    for name in ("scan-sweep", "eval-mix"):
        prepare, expected, call = workloads.WORKLOADS[name]
        prepared = prepare(SEED, 1)
        assert call(pkg, prepared) == expected(prepared)


def test_speed_clock_takes_out_its_bursts_and_scales_the_rest():
    with speed.SpeedClock() as clock:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert len(clock.bursts) >= 5
    assert 0 < clock.wall_s < 0.2
    assert clock.scaled_s == pytest.approx(clock.wall_s * clock.speed())
    report = clock.report()
    # A child's wall time adds start-up outside its clock, and its bursts.
    wall = report["wall_s"] + report["bursts_s"] + 0.05
    assert speed.scale_child(wall, report) == pytest.approx(
        report["scaled_s"] + 0.05 * report["speed"]
    )


# -- whole runs ----------------------------------------------------------------------------


@pytest.fixture(scope="module")
def traced_pairs():
    return {
        name: [result_of(run_bench(name, SEED, trace=1)) for _ in range(2)]
        for name in workloads.NAMES
    }


def test_traced_runs_pass_their_checks(traced_pairs):
    for runs in traced_pairs.values():
        for result in runs:
            assert result["correct"] and result["failed"] == 0


def test_traced_runs_repeat_every_count(traced_pairs):
    for name, (first, second) in traced_pairs.items():
        counts = [m for m in first["metrics"] if repeats_exactly(m)]
        assert counts
        for metric in counts:
            assert first["metrics"][metric] == second["metrics"][metric], (name, metric)


def test_every_per_layer_metric_is_measured(traced_pairs):
    declared = [m["name"] for m in SPEC["per_layer"]]
    for result in (runs[0] for runs in traced_pairs.values()):
        assert list(result["metrics"]) == declared
    measured = set()
    for name in workloads.NAMES:
        layers = ROOT / ".bench_build" / "perfbench" / f"{name}-seed{SEED}-layers.json"
        full = json.loads(layers.read_text(encoding="utf-8"))
        assert full["missing"] == []
        measured |= set(full["metrics"])
    assert set(declared) <= measured


@pytest.mark.parametrize("name", workloads.NAMES)
def test_timed_run_on_a_second_seed(name):
    result = result_of(run_bench(name, SEED + 1, trace=0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert [m for m in result["metrics"]] == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("eval-mix", SEED, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
