"""Tests of the benchmark itself: stable generators, live checks, complete metric sets."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads as W  # noqa: E402
from framelocal import cli, simulation  # noqa: E402
from framelocal.estimators import Asymptotic, FiniteTime  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _small(topo, law, rng, t_end=0.2, stride=10):
    poses, twists = W.random_agents(rng, topo.n)
    return simulation.Scenario(
        topo=topo, initial_poses=poses, twists=twists, law=law,
        dt=1e-3, t_end=t_end, seed=11, stride=stride,
    )


@pytest.mark.parametrize("name", ["seed-sweep", "swarm-finite", "rooted-digraph"])
def test_generators_are_byte_stable(name, tmp_path):
    def files(seed, sub):
        ctx = W.prepare(name, seed, tmp_path / sub)
        return [Path(p).read_bytes() for p in ctx.paths]

    first = files(5, "a")
    assert first == files(5, "b")
    assert first != files(6, "c")


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(W.WORKLOADS)


def test_demo_checks_fire_on_corrupted_summaries():
    good = {"final_max_orientation_error": 3e-7, "final_max_position_error": 2e-6}
    assert W.check_demo_asymptotic(good) == []
    assert W.check_demo_asymptotic({**good, "final_max_position_error": 2e-3})
    assert W.check_demo_asymptotic({**good, "final_max_orientation_error": None})
    settled = {"settling_time": 2.27, "settling_bound": 3.16}
    assert W.check_demo_finite(settled) == []
    assert W.check_demo_finite({**settled, "settling_time": 3.2})
    assert W.check_demo_finite({**settled, "settling_time": None})


def test_closed_form_check_fires_on_corrupted_trace():
    rng = np.random.default_rng(3)
    s = _small(W.spanning_digraph(rng, 4), Asymptotic(), rng, t_end=0.5, stride=100)
    trace, _ = simulation.run(s)
    oracle = np.stack([simulation.closed_form_aligned(s, float(t)) for t in trace.times])
    assert W.check_closed_form(trace.aligned, oracle) == []
    bad = trace.aligned.copy()
    bad[-1, 2, 0, 3] += 1e-5
    assert W.check_closed_form(bad, oracle)


def test_swarm_checks_fire_on_corrupted_trace():
    rng = np.random.default_rng(4)
    s = _small(W.ring_with_chords(rng, 16, 8), FiniteTime(alpha=0.5), rng)
    trace, report = simulation.run(s)
    assert W.check_average_drift(trace.aligned) == []
    bad = trace.aligned.copy()
    bad[-1, 5, 1, 1] += 1e-6
    assert W.check_average_drift(bad)
    v_end = float(trace.lyapunov[-1])
    assert W.check_lyapunov_decrease(v_end, report.v0) == []
    assert W.check_lyapunov_decrease(report.v0, report.v0)


def test_rooted_checks_fire_on_corrupted_outputs():
    rng = np.random.default_rng(5)
    s = _small(W.rooted_digraph(rng, 32, W.ROOT_RING, 2), Asymptotic(), rng, t_end=0.02)
    trace, report = simulation.run(s)
    assert W.check_root_weights(report.w1, W.ROOT_RING) == []
    moved = report.w1.copy()
    moved[0], moved[-1] = 1e-13, moved[-1] - 1e-13
    assert W.check_root_weights(moved, W.ROOT_RING)
    assert W.check_bottom_row(trace.aux) == []
    bad = trace.aux.copy()
    bad[-1, 7, 3, 3] = np.nextafter(1.0, 2.0)
    assert W.check_bottom_row(bad)


@pytest.fixture
def tiny_runner(tmp_path):
    """A seed-sweep-shaped workload small enough to measure in about a second."""
    rng = np.random.default_rng(9)
    s = _small(W.spanning_digraph(rng, 4), Asymptotic(), rng, t_end=0.2, stride=50)
    path = tmp_path / "tiny.json"
    cli.save_scenario(s, path)
    ctx = W.Context(paths=[path], out_dir=tmp_path)
    return run.Runner(W.WORKLOADS["seed-sweep"], ctx)


def test_untraced_run_reports_every_end_to_end_metric(tiny_runner):
    metrics, _ = tiny_runner.untraced(0.0)
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())
    assert tiny_runner.failed == 0
    assert metrics["ok_frac"][0] == 1.0


def test_traced_run_reports_every_layer_metric_and_overhead(tiny_runner):
    metrics, samples = tiny_runner.traced(0.0)
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: u for k, (_, u) in metrics.items()} == spec
    assert tiny_runner.failed == 0
    # the spans plus the benchmark's own glue cover the traced iteration
    traced = samples["traced_wall_s"][0]
    unspanned = traced - sum(samples["self_times"][0].values())
    assert 0.0 <= unspanned < 0.5 * traced
    assert metrics["bench.trace_overhead_s"][0] == pytest.approx(
        np.mean(samples["traced_wall_s"]) - np.mean(samples["wall_s"])
    )
    assert metrics["simulation.steps"][0] == 200
    assert metrics["simulation.samples"][0] == 5
    assert metrics["simulation.closed_form_s"][0] > 0.0


def test_failed_check_is_counted(tiny_runner):
    broken = dataclasses.replace(tiny_runner.workload, iterate=lambda ctx: ["corrupted"])
    tiny_runner.workload = broken
    metrics, _ = tiny_runner.untraced(0.0)
    assert tiny_runner.failed == tiny_runner.attempted
    assert metrics["ok_frac"][0] == 0.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "demo-cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
