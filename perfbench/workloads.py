"""Workload generators, iterations and correctness checks of the framelocal benchmark.

Every input is generated from the workload seed, written to disk with
``cli.save_scenario`` and handed to framelocal as a file (or as the
``Scenario`` that ``cli.load_scenario`` returns). framelocal is reached only
through its public entry points, and always as attributes of its modules
(``cli.main``, ``simulation.run`` ...), so that a traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
from pathlib import Path
from typing import Callable

import numpy as np

from framelocal import cli, simulation
from framelocal.estimators import Asymptotic, FiniteTime
from framelocal.graphs import Topology
from framelocal.se3 import Pose, Rotation, Twist
from framelocal.simulation import Scenario

# Tolerances of the correctness checks, taken from the acceptance criteria.
DEMO_FINAL_ERROR = 1e-3      # c01: asymptotic demo errors at t = 10 s
CLOSED_FORM_DEV = 1e-6       # c02: Frobenius deviation from the closed form
AVERAGE_DRIFT = 1e-8         # c08: drift of the summed aligned states
ROOT_WEIGHT_TOL = 1e-12      # w1 entries on the root ring against 1/8

SWEEP_AGENTS = 6
SWEEP_SEEDS = 4
SWARM_AGENTS = 512
ROOTED_AGENTS = 1024
ROOT_RING = 8
ROOTED_IN_DEGREE = 2


# --------------------------------------------------------------------------
# generators


def random_rotations(rng: np.random.Generator, n: int) -> np.ndarray:
    """n rotation matrices from normalized Gaussian quaternions, shape (n, 3, 3)."""
    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q.T
    return np.stack(
        [
            np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
            np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], -1),
            np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], -1),
        ],
        axis=1,
    )


def random_agents(rng: np.random.Generator, n: int, span: float = 5.0, speed: float = 0.5):
    """Seeded initial poses and constant body twists for n agents."""
    rotations = random_rotations(rng, n)
    translations = rng.uniform(-span, span, (n, 3))
    linear = rng.uniform(-speed, speed, (n, 3))
    angular = rng.uniform(-speed, speed, (n, 3))
    poses = tuple(Pose(Rotation(r), t) for r, t in zip(rotations, translations))
    twists = tuple(Twist(v, w) for v, w in zip(linear, angular))
    return poses, twists


def ring_with_chords(rng: np.random.Generator, n: int, chords: int) -> Topology:
    """Undirected ring 1-2-...-n-1 plus `chords` distinct seeded extra links."""
    links = {(min(i, i % n + 1), max(i, i % n + 1)) for i in range(1, n + 1)}
    target = len(links) + chords
    while len(links) < target:
        i, j = (int(x) for x in rng.integers(1, n + 1, 2))
        if i != j:
            links.add((min(i, j), max(i, j)))
    return Topology.undirected(n, sorted(links))


def rooted_digraph(rng: np.random.Generator, n: int, ring: int, in_degree: int) -> Topology:
    """Digraph whose only root component is a directed ring of the `ring` highest agents.

    Every other agent i receives from `in_degree` distinct seeded agents
    numbered above i, so information from the ring reaches everyone and no
    other agent reaches the ring.
    """
    first = n - ring + 1
    edges = [(i, i + 1 if i < n else first) for i in range(first, n + 1)]
    for i in range(1, first):
        for j in rng.choice(np.arange(i + 1, n + 1), size=in_degree, replace=False):
            edges.append((i, int(j)))
    return Topology(n, tuple(edges), directed=True)


def spanning_digraph(rng: np.random.Generator, n: int, extra: float = 0.3) -> Topology:
    """Small digraph with a spanning tree: a seeded rooted tree plus random extra edges."""
    order = [int(x) + 1 for x in rng.permutation(n)]
    edges = {(order[k], order[int(rng.integers(k))]) for k in range(1, n)}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and rng.random() < extra:
                edges.add((i, j))
    return Topology(n, tuple(sorted(edges)), directed=True)


def _scenario(topo, poses, twists, law, dt, t_end, stride, seed) -> Scenario:
    return Scenario(
        topo=topo, initial_poses=poses, twists=twists, law=law,
        dt=dt, t_end=t_end, seed=seed, stride=stride,
    )


def write_seed_sweep(rng: np.random.Generator, out: Path) -> list:
    """One small spanning digraph, the asymptotic law, several estimator init seeds."""
    topo = spanning_digraph(rng, SWEEP_AGENTS)
    poses, twists = random_agents(rng, SWEEP_AGENTS)
    paths = []
    for k in range(SWEEP_SEEDS):
        s = _scenario(topo, poses, twists, Asymptotic(), 5e-3, 10.0, 400, int(rng.integers(2**31)))
        paths.append(out / f"seed_sweep_{k}.json")
        cli.save_scenario(s, paths[-1], description="seed-sweep")
    return paths


def write_swarm_finite(rng: np.random.Generator, out: Path) -> list:
    """n=512 ring plus n/2 chords under the finite-time law; stride equals the horizon."""
    topo = ring_with_chords(rng, SWARM_AGENTS, SWARM_AGENTS // 2)
    poses, twists = random_agents(rng, SWARM_AGENTS)
    s = _scenario(topo, poses, twists, FiniteTime(alpha=0.5), 1e-3, 0.4, 400, int(rng.integers(2**31)))
    path = out / "swarm_finite.json"
    cli.save_scenario(s, path, description="swarm-finite")
    return [path]


def write_rooted_digraph(rng: np.random.Generator, out: Path) -> list:
    """n=1024 digraph rooted in an 8-agent ring, asymptotic law, short horizon."""
    topo = rooted_digraph(rng, ROOTED_AGENTS, ROOT_RING, ROOTED_IN_DEGREE)
    poses, twists = random_agents(rng, ROOTED_AGENTS)
    s = _scenario(topo, poses, twists, Asymptotic(), 1e-3, 0.02, 10, int(rng.integers(2**31)))
    path = out / "rooted_digraph.json"
    cli.save_scenario(s, path, description="rooted-digraph")
    return [path]


def bundled_demos(rng: np.random.Generator, out: Path) -> list:
    """The two demos exactly as shipped; the seed does not change them."""
    return [cli.bundled_scenario_path("demo_asymptotic"), cli.bundled_scenario_path("demo_finite_time")]


# --------------------------------------------------------------------------
# correctness checks: each returns a list of failure messages, empty when the output is correct


def check_demo_asymptotic(summary: dict) -> list:
    """c01: final orientation and position errors of the asymptotic demo below 1e-3."""
    fails = []
    for key in ("final_max_orientation_error", "final_max_position_error"):
        value = summary.get(key)
        if value is None or not value < DEMO_FINAL_ERROR:
            fails.append(f"{key} = {value}, want < {DEMO_FINAL_ERROR}")
    return fails


def check_demo_finite(summary: dict) -> list:
    """c04: the finite-time demo settles no later than its settling bound."""
    settle, bound = summary.get("settling_time"), summary.get("settling_bound")
    if settle is None or bound is None or not settle <= bound:
        return [f"settling_time = {settle}, want <= settling_bound = {bound}"]
    return []


def check_closed_form(aligned: np.ndarray, oracle: np.ndarray) -> list:
    """c02: simulated aligned states within 1e-6 (Frobenius) of the closed form."""
    dev = float(np.max(np.linalg.norm(aligned - oracle, axis=(-2, -1))))
    if not dev < CLOSED_FORM_DEV:
        return [f"closed-form deviation {dev:.3e}, want < {CLOSED_FORM_DEV}"]
    return []


def check_average_drift(aligned: np.ndarray) -> list:
    """c08: the sum of aligned states over agents stays constant on undirected graphs."""
    sums = aligned.sum(axis=1)
    drift = float(np.max(np.abs(sums - sums[0])))
    if not drift < AVERAGE_DRIFT:
        return [f"average drift {drift:.3e}, want < {AVERAGE_DRIFT}"]
    return []


def check_lyapunov_decrease(v_end: float, v0: float) -> list:
    """The finite-time law decreases V: V at the horizon is below V0."""
    if not v_end < v0:
        return [f"V at the horizon = {v_end}, want < V0 = {v0}"]
    return []


def check_root_weights(w1: np.ndarray, ring: int) -> list:
    """w1 is 1/ring on the root ring (the highest agents) and exactly 0 elsewhere."""
    w1 = np.asarray(w1)
    want = np.zeros(len(w1))
    want[-ring:] = 1.0 / ring
    if np.any(w1[:-ring] != 0.0) or np.max(np.abs(w1 - want)) > ROOT_WEIGHT_TOL:
        return [f"w1 is not 1/{ring} on the root ring and 0 elsewhere"]
    return []


def check_bottom_row(aux: np.ndarray) -> list:
    """Every estimator matrix keeps the bottom row (0, 0, 0, 1) bit-exactly."""
    if not np.all(aux[..., 3, :] == [0.0, 0.0, 0.0, 1.0]):
        return ["estimator bottom row left (0, 0, 0, 1)"]
    return []


# --------------------------------------------------------------------------
# one iteration of each workload: run the program, check what it produced


@dataclasses.dataclass
class Context:
    """Inputs and scratch space of one workload in one benchmark process."""

    paths: list
    out_dir: Path
    counts: Callable[[str, int], None] = lambda name, value: None


def iterate_demo_cli(ctx: Context) -> list:
    fails = []
    for path, check in zip(ctx.paths, (check_demo_asymptotic, check_demo_finite)):
        out = ctx.out_dir / Path(path).stem
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", "--config", str(path), "--out", str(out), "--full-state"])
        if code != 0:
            fails.append(f"framelocal run {Path(path).name} exited {code}")
            continue
        ctx.counts("cli.bytes_written", sum(f.stat().st_size for f in out.iterdir()))
        fails += check(json.loads((out / "summary.json").read_text(encoding="utf-8")))
    return fails


def iterate_seed_sweep(ctx: Context) -> list:
    fails = []
    for path in ctx.paths:
        s = cli.load_scenario(path)
        trace, _ = simulation.run(s)
        oracle = np.stack([simulation.closed_form_aligned(s, float(t)) for t in trace.times])
        fails += check_closed_form(trace.aligned, oracle)
    return fails


def iterate_swarm_finite(ctx: Context) -> list:
    s = cli.load_scenario(ctx.paths[0])
    trace, report = simulation.run(s)
    return check_average_drift(trace.aligned) + check_lyapunov_decrease(float(trace.lyapunov[-1]), report.v0)


def iterate_rooted_digraph(ctx: Context) -> list:
    s = cli.load_scenario(ctx.paths[0])
    trace, report = simulation.run(s)
    return check_root_weights(report.w1, ROOT_RING) + check_bottom_row(trace.aux)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    write: Callable[[np.random.Generator, Path], list]   # seeded inputs -> scenario paths
    iterate: Callable[[Context], list]                   # one iteration -> failure messages


WORKLOADS = {
    w.name: w
    for w in (
        Workload("demo-cli", bundled_demos, iterate_demo_cli),
        Workload("seed-sweep", write_seed_sweep, iterate_seed_sweep),
        Workload("swarm-finite", write_swarm_finite, iterate_swarm_finite),
        Workload("rooted-digraph", write_rooted_digraph, iterate_rooted_digraph),
    )
}


def prepare(name: str, seed: int, out_dir: Path) -> Context:
    """Generate the inputs of workload `name` from `seed` into `out_dir`."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = WORKLOADS[name].write(np.random.default_rng(seed), out_dir)
    return Context(paths=paths, out_dir=out_dir)


def setup(ctx: Context) -> None:
    """The work done before the first step: load each input and compute its oracle report."""
    for path in ctx.paths:
        simulation.oracle_report(cli.load_scenario(path))
