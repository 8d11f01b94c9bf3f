"""Benchmark of framelocal: one workload per invocation, result as a JSON line.

Run from the root of a framelocal checkout:

    python3 perfbench/run.py --workload demo-cli --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from ``--seed``. Iterations run closed
loop, one at a time, in this one process after an untimed warm-up iteration,
until ``--seconds`` have passed. ``--trace 0`` reports the end-to-end metrics
(means over the iterations); ``--trace 1`` alternates untraced and traced
iterations and reports the per-layer metrics. The last line of standard
output is the result object; the line before it records the environment and
the raw samples. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

# framelocal's arrays are batches of 4x4 matrices, too small for BLAS worker
# threads to help; on a small shared machine those threads spin and make the
# timings noisy. A caller that sets these variables keeps its own values.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_BUDGET_S = 0.1        # set-up samples taken after each timed iteration
SE3_CALLS = 2000            # calls per se3 timing round
SE3_ROUNDS = 5
SPLIT_MIN_STEPS = 200       # step/sample split: at least this many steps per probe run
SPLIT_STRIDE = 16           # ... and at most this stride in its sample-heavy run


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_sha(root: Path) -> str | None:
    """Commit of the checkout read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_sha": git_sha(root),
        "fresh_process_per_iteration": False,
        "warmup_iterations": 1,
    }


def attempt(fn) -> tuple:
    """Run fn once; return (seconds, failure messages). Exceptions count as failures."""
    start = time.perf_counter()
    try:
        fails = fn()
    except Exception as e:  # noqa: BLE001 - a failed iteration is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        fails = [f"raised {type(e).__name__}: {e}"]
    elapsed = time.perf_counter() - start
    for msg in fails:
        print(f"check failed: {msg}", file=sys.stderr)
    return elapsed, fails


def mean(xs) -> float:
    """Run statistic of iteration times. On a shared machine the iteration
    times are bimodal (slow phases of 1.5x to 1.7x lasting seconds); a median
    flips between the modes from run to run, while the mean averages over the
    whole window."""
    return statistics.fmean(xs)


class Runner:
    """Measures one workload in this process and tallies attempts and failures."""

    def __init__(self, workload, ctx):
        self.workload = workload
        self.ctx = ctx
        self.attempted = 0
        self.failed = 0

    def iteration(self) -> float:
        elapsed, fails = attempt(lambda: self.workload.iterate(self.ctx))
        self.attempted += 1
        self.failed += bool(fails)
        return elapsed

    def untraced(self, seconds: float) -> tuple:
        """End-to-end metrics: means of iteration wall time and set-up time."""
        import workloads

        self.iteration()
        walls, setups = [], []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            walls.append(self.iteration())
            spent = 0.0
            while spent < SETUP_BUDGET_S:
                t0 = time.perf_counter()
                workloads.setup(self.ctx)
                setups.append(time.perf_counter() - t0)
                spent += setups[-1]
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": (mean(walls), "s"),
            "setup_s": (mean(setups), "s"),
            "peak_rss_mb": (peak_mib, "MiB"),
            "ok_frac": (1.0 - self.failed / self.attempted, "fraction"),
        }
        return metrics, {"wall_s": walls, "setup_s_count": len(setups)}

    def traced(self, seconds: float) -> tuple:
        """Per-layer metrics from traced iterations interleaved with untraced ones."""
        import tracing

        start = time.perf_counter()
        self.iteration()
        step_us, sample_us = self.split_step_sample()
        se3 = {name: se3_us(name) for name in ("exp_se3", "gsop", "gsop_two_column")}
        untraced, traced, selfs, unspanned = [], [], [], []
        tracer = None
        while not traced or time.perf_counter() - start < seconds:
            untraced.append(self.iteration())
            tracer = tracing.Tracer()
            self.ctx.counts = tracer.count
            with tracer.active():
                traced.append(self.iteration())
            self.ctx.counts = lambda name, value: None
            st = tracer.self_times()
            selfs.append(st)
            unspanned.append(traced[-1] - sum(st.values()))

        def self_s(span):
            return mean([st[span] for st in selfs]), "s"

        counts = tracer.counts
        agents, edges = self.topology_size()
        metrics = {
            "se3.exp_se3_us": (se3["exp_se3"], "us"),
            "se3.gsop_us": (se3["gsop"], "us"),
            "se3.gsop_two_column_us": (se3["gsop_two_column"], "us"),
            "graphs.analyze_s": self_s("graphs.analyze"),
            "graphs.has_spanning_tree_s": self_s("graphs.has_spanning_tree"),
            "graphs.agents": (agents, "count"),
            "graphs.edges": (edges, "count"),
            "simulation.oracle_report_s": self_s("simulation.oracle_report"),
            "simulation.run_self_s": self_s("simulation.run"),
            "simulation.step_us": (step_us, "us"),
            "simulation.sample_us": (sample_us, "us"),
            "simulation.steps": (counts["simulation.steps"], "count"),
            "simulation.samples": (counts["simulation.samples"], "count"),
            "simulation.trace_bytes": (counts["simulation.trace_bytes"], "bytes"),
            "simulation.valid_estimate_frac": (
                counts["simulation.valid_estimates"] / counts["simulation.estimates"], "fraction"
            ),
            "simulation.closed_form_s": self_s("simulation.closed_form_aligned"),
            "cli.load_scenario_s": self_s("cli.load_scenario"),
            "cli.emit_s": self_s("cli.main"),
            "cli.bytes_written": (counts["cli.bytes_written"], "bytes"),
            "bench.traced_wall_s": (mean(traced), "s"),
            "bench.trace_overhead_s": (mean(traced) - mean(untraced), "s"),
            "bench.unspanned_s": (mean(unspanned), "s"),
        }
        return metrics, {"wall_s": untraced, "traced_wall_s": traced, "self_times": selfs}

    def topology_size(self) -> tuple:
        """Agents and directed edges of the largest topology among the inputs."""
        from framelocal import cli

        topos = [cli.load_scenario(p).topo for p in self.ctx.paths]
        return max(t.n for t in topos), max(len(t.edges) for t in topos)

    def split_step_sample(self) -> tuple:
        """Microseconds per RK4 step and per recorded sample, from three timed runs.

        Per input, over max(n_steps, SPLIT_MIN_STEPS) steps: A at stride =
        steps (2 samples), B at the workload stride or SPLIT_STRIDE, whichever
        is finer, and C a single step (2 samples). A - C is steps - 1 steps;
        B - A is the extra samples. The fixed cost of a run (oracle report,
        truth exponentials) cancels in both differences.
        """
        import dataclasses

        from framelocal import cli, simulation

        step_s = sample_s = steps = samples = 0
        for path in self.ctx.paths:
            s = cli.load_scenario(path)
            if s.n_steps < SPLIT_MIN_STEPS:
                s = dataclasses.replace(s, t_end=SPLIT_MIN_STEPS * s.dt)
            n, stride = s.n_steps, min(s.stride, SPLIT_STRIDE)
            t = {}
            for key, variant in (
                ("A", dataclasses.replace(s, stride=n)),
                ("B", dataclasses.replace(s, stride=stride)),
                ("C", dataclasses.replace(s, t_end=s.dt, stride=1)),
            ):
                start = time.perf_counter()
                simulation.run(variant)
                t[key] = time.perf_counter() - start
            step_s += t["A"] - t["C"]
            steps += n - 1
            sample_s += t["B"] - t["A"]
            samples += n // stride + 1 - 2
        return 1e6 * step_s / steps, 1e6 * sample_s / samples


def se3_us(name: str) -> float:
    """Median microseconds per call of an se3 primitive on fixed inputs."""
    import numpy as np

    from framelocal import se3

    twist = se3.Twist(np.array([0.4, -0.2, 0.7]), np.array([0.3, 0.5, -0.1]))
    block = np.array([[0.9, -0.3, 0.2], [0.4, 0.8, -0.5], [-0.1, 0.6, 1.1]])
    call = {
        "exp_se3": lambda: se3.exp_se3(twist, 1e-3),
        "gsop": lambda: se3.gsop(block),
        "gsop_two_column": lambda: se3.gsop_two_column(block),
    }[name]
    rounds = []
    for _ in range(SE3_ROUNDS):
        start = time.perf_counter()
        for _ in range(SE3_CALLS):
            call()
        rounds.append((time.perf_counter() - start) / SE3_CALLS * 1e6)
    return statistics.median(rounds)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "framelocal" / "__init__.py").is_file():
        print("error: src/framelocal not found; run from the root of a framelocal checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(root / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        ctx = workloads.prepare(args.workload, args.seed, work)
        runner = Runner(workloads.WORKLOADS[args.workload], ctx)
        measure = runner.traced if args.trace else runner.untraced
        metrics, samples = measure(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(root), "samples": samples,
    }
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
