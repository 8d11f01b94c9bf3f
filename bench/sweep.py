"""The RK4 step, the set-up and the peak memory of a run against n, as one JSON record.

Measures the framelocal found on ``sys.path``, so the same script measures
any tree, a parent commit's included:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python bench/sweep.py --label change --out bench/BENCH_31.json
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=../parent/src python bench/sweep.py --label parent --out bench/BENCH_31.json

Each call appends one record to the ``runs`` list of ``--out`` (or prints it
when ``--out`` is not given); alternate the trees in one session, so that
the load of the machine shows as a spread, not as a change.

The scenario at each n in {4, 32, 128, 512, 2048} is an undirected ring
plus n/2 chords (one chord at n = 4), with agents from perfbench's
generators at seed 7 and dt = 1e-3, under both laws. Per n and law:

- ``step_us``: the best of 5 K-step runs minus the best of 5 one-step runs,
  by process time, divided by K - 1 (both runs record two samples, so
  set-up and recording cancel);
- ``setup_ms``: the best of 5 ``oracle_report`` calls, each on a fresh
  scenario (so the estimator start is drawn each time), by process time;
- ``peak_bytes``: ``run``'s ``tracemalloc`` peak over one step, with the
  start ``_p0`` and ``topo.links`` built first; beside it ``footprint``'s
  ``trace_bytes`` and ``loop_bytes`` for the same run (null where the tree
  measured has no ``footprint``).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import sys
import time
import tracemalloc
from pathlib import Path

# as perfbench does: BLAS worker threads only add noise to 4x4 products
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np  # noqa: E402

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import random_agents, ring_with_chords  # noqa: E402

import framelocal  # noqa: E402
from framelocal import simulation  # noqa: E402
from framelocal.estimators import Asymptotic, FiniteTime  # noqa: E402

SIZES = (4, 32, 128, 512, 2048)
# steps of the long run at each n: about 0.2 s of process time each
STEPS = {4: 4001, 32: 2001, 128: 1001, 512: 301, 2048: 101}
REPEATS = 5
SEED = 7
DT = 1e-3


def scenario(n: int, law, steps: int) -> simulation.Scenario:
    """Ring plus chords over n agents, `steps` steps of DT, two samples."""
    rng = np.random.default_rng(SEED)
    topo = ring_with_chords(rng, n, 1 if n == 4 else n // 2)
    poses, twists = random_agents(rng, n)
    return simulation.Scenario(
        topo=topo, initial_poses=poses, twists=twists, law=law,
        dt=DT, t_end=steps * DT, seed=SEED, stride=steps,
    )


def best_cpu(fn, repeats: int = REPEATS) -> float:
    """Smallest process time of `repeats` calls of fn, in seconds."""
    times = []
    for _ in range(repeats):
        start = time.process_time()
        fn()
        times.append(time.process_time() - start)
    return min(times)


def measure(n: int, law) -> dict:
    k = STEPS[n]
    long, short = scenario(n, law, k), scenario(n, law, 1)
    assert (long.n_steps, short.n_steps) == (k, 1)
    # every timed call gets a fresh scenario: its start is drawn inside the call
    step_s = (
        best_cpu(lambda: simulation.run(dataclasses.replace(long)))
        - best_cpu(lambda: simulation.run(dataclasses.replace(short)))
    ) / (k - 1)
    setup_s = best_cpu(lambda: simulation.oracle_report(dataclasses.replace(short)))
    traced = dataclasses.replace(short)
    traced._p0, traced.topo.links   # the start and links, built before tracing
    tracemalloc.start()
    try:
        simulation.run(traced)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    footprint = getattr(simulation, "footprint", None)
    size = footprint(traced) if footprint else None
    return {
        "n": n,
        "edges": int(long.topo.edge_index.shape[1]),
        "law": type(law).__name__,
        "steps": k,
        "step_us": round(step_s * 1e6, 2),
        "setup_ms": round(setup_s * 1e3, 3),
        "peak_bytes": peak,
        "trace_bytes": size.trace_bytes if size else None,
        "loop_bytes": size.loop_bytes if size else None,
    }


def sources_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(Path(framelocal.__file__).resolve().parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "thread_env": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        # the tree measured, by its package sources rather than its path
        "framelocal_sha256": sources_sha256(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="which tree this is, e.g. parent or change")
    parser.add_argument("--out", type=Path, help="JSON file whose runs list the record joins")
    args = parser.parse_args(argv)
    record = {
        "label": args.label,
        "environment": environment(),
        "results": [measure(n, law) for n in SIZES for law in (Asymptotic(), FiniteTime())],
    }
    if args.out is None:
        print(json.dumps(record))
        return 0
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"runs": []}
    doc["runs"].append(record)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
