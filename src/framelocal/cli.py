"""Scenario files, run orchestration, and trace/report emission.

Scenario schema (single JSON document; units are meters, seconds, radians):

    {
      "description": "optional free text",
      "graph": {"n": 4, "directed": true, "edges": [[1, 2], [2, 3]]},
      "agents": [
        {"rotation": [[...], [...], [...]],   # 3x3 row-major, proper rotation
         "translation": [x, y, z],
         "linear_velocity": [vx, vy, vz],     # body frame, m/s
         "angular_velocity": [wx, wy, wz]},   # body frame, rad/s
        ...
      ],
      "law": {"name": "asymptotic"} | {"name": "finite", "alpha": 0.5, "epsilon": 1e-9},
      "integration": {"dt": 0.001, "t_end": 10.0, "stride": 10, "seed": 7},
      "reconstruction": "twocol" | "full"
    }

An edge [i, j] means agent i measures and receives from agent j (j is a
neighbor of i). For undirected graphs each link is listed once; the loader
adds the reversed pair. Unknown keys anywhere are rejected, and so are
true/false or a string where a number is due, and a non-bool "directed".
Each such value, and a file that cannot be read, decoded as UTF-8 or parsed,
ends the command with one ``error:`` line naming the file or the section.

The agents are checked as stacks: one pass over the JSON types of all their
numbers, one ``rotation_check`` over the (n, 3, 3) rotations and one
``isfinite`` over the (3, n, 3) vectors; the Pose and Twist objects hold
read-only rows of those stacks. Only when a check fails are the agents
checked again one by one, in order, which names the first bad agent.

Outputs of ``framelocal run``: trace.csv (t, per-agent orientation errors,
per-link position errors, V), oracle.json, summary.json, and optionally
state.csv with full per-agent state dumps; one walk over ``Trace.blocks()``
writes both tables. Floats are emitted with 17 significant digits so every
value round-trips exactly; repeated runs with the same config and seed
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .estimators import Asymptotic, FiniteTime, ReconstructionMode
from .graphs import Topology
from .se3 import Pose, Rotation, Twist, _prechecked, rotation_check
from .simulation import (
    ConfigurationError,
    OracleReport,
    Scenario,
    Trace,
    TraceBlock,
    error_link_pairs,
    run,
    settling_time,
)


class ScenarioError(ValueError):
    """A scenario file failed to parse or validate."""


@dataclass(frozen=True)
class RunConfig:
    """CLI inputs for one run: scenario path plus optional overrides."""

    scenario_path: str
    out_dir: str = "."
    law: str | None = None
    alpha: float | None = None
    dt: float | None = None
    t_end: float | None = None
    seed: int | None = None
    stride: int | None = None
    mode: str | None = None
    full_state: bool = False


def bundled_scenario_path(name: str) -> Path:
    """Path of a scenario shipped with the package (e.g. 'demo_asymptotic')."""
    res = resources.files("framelocal").joinpath("scenarios", f"{name}.json")
    return Path(str(res))


def _require_keys(section, where: str, allowed: set, optional: frozenset = frozenset()):
    if not isinstance(section, dict):
        raise ScenarioError(f"{where}: expected an object")
    unknown = set(section) - allowed
    if unknown:
        raise ScenarioError(f"{where}: unknown key(s) {sorted(unknown)}")
    missing = allowed - optional - set(section)
    if missing:
        raise ScenarioError(f"{where}: missing key(s) {sorted(missing)}")


def _numbers(value, name: str):
    """value, once checked to be a JSON number or nested lists of them."""
    items = value if type(value) is list else [value]
    if not set(map(type, items)) <= {int, float}:  # type(True) is bool, not int
        for v in items:
            if type(v) is list:
                _numbers(v, name)
            elif type(v) not in (int, float):
                raise ValueError(f"{name}: expected a number, got {v!r}")
    return value


def _read_json(path: Path):
    """The JSON document in path; any failure to read or parse it is a ScenarioError."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as e:
        raise ScenarioError(f"{path}: {e.strerror or e}") from e
    except json.JSONDecodeError as e:
        raise ScenarioError(f"{path}:{e.lineno}: {e.msg}") from e
    except (ValueError, RecursionError) as e:
        # bytes that are not UTF-8, an integer literal over Python's digit
        # limit, or nesting deeper than the parser's recursion limit
        raise ScenarioError(f"{path}: {e}") from e


@contextlib.contextmanager
def _section(where: str):
    """Turn a bad value raised inside the block into one ScenarioError for where."""
    try:
        yield
    except (ValueError, TypeError, OverflowError) as e:
        raise ScenarioError(f"{where}: {e}") from e


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file (strict: unknown keys rejected)."""
    path = Path(path)
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: top level must be an object")

    sections = {"description", "graph", "agents", "law", "integration", "reconstruction"}
    _require_keys(doc, str(path), sections, optional={"description"})
    if not isinstance(doc.get("description", ""), str):
        raise ScenarioError("description: expected a string")

    g = doc["graph"]
    _require_keys(g, "graph", {"n", "directed", "edges"})
    if not isinstance(g["directed"], bool):
        raise ScenarioError(f"graph: directed must be true or false, got {g['directed']!r}")
    with _section("graph"):
        make = Topology if g["directed"] else Topology.undirected
        topo = make(g["n"], g["edges"])

    agents = doc["agents"]
    if not isinstance(agents, list) or len(agents) != topo.n:
        raise ScenarioError(f"agents: expected a list of {topo.n} entries")
    poses, twists = _agents(agents)

    law_doc = doc["law"]
    _require_keys(law_doc, "law", {"name", "alpha", "epsilon"}, optional={"alpha", "epsilon"})
    with _section("law"):
        law = _parse_law(law_doc)

    integ = doc["integration"]
    _require_keys(integ, "integration", {"dt", "t_end", "stride", "seed"})

    mode = doc["reconstruction"]
    if mode not in [m.value for m in ReconstructionMode]:  # Scenario takes the value
        raise ScenarioError(f"reconstruction: expected 'full' or 'twocol', got {mode!r}")

    with _section("integration"):
        return Scenario(
            topo=topo,
            initial_poses=tuple(poses),
            twists=tuple(twists),
            law=law,
            dt=float(_numbers(integ["dt"], "dt")),
            t_end=float(_numbers(integ["t_end"], "t_end")),
            seed=integ["seed"],
            stride=integ["stride"],
            reconstruction=mode,
        )


_AGENT_FIELDS = ("rotation", "translation", "linear_velocity", "angular_velocity")
_AGENT_KEYS = frozenset(_AGENT_FIELDS)


def _agent_stacks(agents: list) -> tuple | None:
    """(rotations (n, 3, 3), vectors (3, n, 3)), read-only, of agents that all
    pass every check of ``_agents_one_by_one``; None if any agent fails one."""
    try:
        if any(type(a) is not dict or a.keys() != _AGENT_KEYS for a in agents):
            return None
        rotations, *vectors = ([a[key] for a in agents] for key in _AGENT_FIELDS)
        # the type of every leaf in one flat pass (type(True) is bool, not
        # int); a leaf at the wrong depth is a list, a string or not iterable
        types = {type(x) for r in rotations for row in r for x in row}
        types |= {type(x) for field in vectors for v in field for x in v}
        if not types <= {int, float}:
            return None
        stacks = np.array(rotations, dtype=np.float64), np.array(vectors, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):   # ragged lists, an int beyond float range
        return None
    r, v = stacks
    n = len(agents)
    if r.shape != (n, 3, 3) or v.shape != (3, n, 3):
        return None
    if not (rotation_check(r)[0].all() and np.isfinite(v).all()):
        return None
    for a in stacks:
        a.setflags(write=False)
    return stacks


def _agents_one_by_one(agents: list) -> tuple:
    """(poses, twists), validated agent by agent; a ScenarioError names the
    first agent that fails and the first check it fails."""
    poses, twists = [], []
    for idx, a in enumerate(agents, start=1):
        where = f"agents[{idx}]"
        _require_keys(a, where, _AGENT_KEYS)
        with _section(where):
            for key, value in a.items():
                _numbers(value, key)
            poses.append(Pose(Rotation(a["rotation"]), a["translation"]))
            twists.append(Twist(a["linear_velocity"], a["angular_velocity"]))
    return poses, twists


def _agents(agents: list) -> tuple:
    """(poses, twists) of the agents, checked as stacks; the objects hold rows
    of those stacks. An agent list that fails any check is checked again one
    agent at a time, which raises the error."""
    stacks = _agent_stacks(agents)
    if stacks is None:
        return _agents_one_by_one(agents)
    r, (p, v, w) = stacks
    poses = [
        _prechecked(Pose, rotation=_prechecked(Rotation, r=r_i), translation=p_i)
        for r_i, p_i in zip(r, p)
    ]
    twists = [_prechecked(Twist, linear=v_i, angular=w_i) for v_i, w_i in zip(v, w)]
    return poses, twists


def _parse_law(law_doc: dict):
    name = law_doc["name"]
    if name == "asymptotic":
        if "alpha" in law_doc or "epsilon" in law_doc:
            raise ValueError("alpha/epsilon only apply to the finite-time law")
        return Asymptotic()
    if name == "finite":
        # a key left out takes FiniteTime's default
        keys = [k for k in ("alpha", "epsilon") if k in law_doc]
        return FiniteTime(**{k: float(_numbers(law_doc[k], k)) for k in keys})
    raise ValueError(f"name must be 'asymptotic' or 'finite', got {name!r}")


def save_scenario(s: Scenario, path, description: str = ""):
    """Write a scenario as canonical JSON (exact float round trip)."""
    edges = [[i, j] for i, j in s.topo.edges if s.topo.directed or i < j]
    doc = {
        "graph": {"n": s.topo.n, "directed": s.topo.directed, "edges": edges},
        "agents": [
            {
                "rotation": p.rotation.r.tolist(),
                "translation": p.translation.tolist(),
                "linear_velocity": tw.linear.tolist(),
                "angular_velocity": tw.angular.tolist(),
            }
            for p, tw in zip(s.initial_poses, s.twists)
        ],
        "law": (
            {"name": "asymptotic"}
            if isinstance(s.law, Asymptotic)
            else {"name": "finite", "alpha": s.law.alpha, "epsilon": s.law.epsilon}
        ),
        "integration": {
            "dt": s.dt,
            "t_end": s.t_end,
            "stride": s.stride,
            "seed": s.seed,
        },
        "reconstruction": s.reconstruction.value,
    }
    if description:
        doc = {"description": description, **doc}
    _write_json(doc, path)


def apply_overrides(s: Scenario, cfg: RunConfig) -> Scenario:
    """Rebuild the scenario with CLI overrides, re-running all validation."""
    names = ("dt", "t_end", "seed", "stride")
    changes = {name: getattr(cfg, name) for name in names if getattr(cfg, name) is not None}
    if cfg.mode is not None:
        changes["reconstruction"] = cfg.mode
    finite = cfg.law == "finite" if cfg.law else isinstance(s.law, FiniteTime)
    if cfg.alpha is not None and not finite:
        raise ScenarioError("alpha only applies to the finite-time law")
    with _section("override"):
        if cfg.law is not None or cfg.alpha is not None:
            base = s.law if isinstance(s.law, FiniteTime) else FiniteTime()
            alpha = base.alpha if cfg.alpha is None else cfg.alpha
            changes["law"] = FiniteTime(alpha, base.epsilon) if finite else Asymptotic()
        return dataclasses.replace(s, **changes) if changes else s


def _json_max(row: np.ndarray) -> float | None:
    """The largest number in row, or None if it holds none (empty or all NaN)."""
    top = float(np.fmax.reduce(row, initial=np.nan))   # no all-NaN warning, unlike nanmax
    return None if np.isnan(top) else top


def _write_tables(trace: Trace, times: np.ndarray, out: Path, full_state: bool) -> TraceBlock:
    """Write trace.csv and, with full_state, state.csv from one walk over
    ``trace.blocks()``; return the last block, whose errors end the summary."""
    n = trace.truth.shape[1]
    cols = ["t", *(f"orient_err_{i}" for i in range(1, n + 1))]
    cols += [f"pos_err_{i}_{j}" for i, j in error_link_pairs(trace.scenario.topo)]
    cells = [f"{m}_{r}{c}" for m in ("T", "P", "S", "That") for r in range(4) for c in range(4)]
    with contextlib.ExitStack() as stack:
        write_trace = _csv_writer(stack, out / "trace.csv", [*cols, "V"])
        if full_state:
            write_state = _csv_writer(stack, out / "state.csv", ["t", "agent", *cells, "valid"])
        for b in trace.blocks():
            t = times[b.samples]
            write_trace(np.column_stack((t, b.orient, b.pos, trace.lyapunov[b.samples])))
            if full_state:
                # S = T P per block, as Trace.aligned derives it: no whole-trace copy
                tt, pp = trace.truth[b.samples], trace.aux[b.samples]
                write_state(np.column_stack((
                    np.repeat(t, n),
                    np.tile(np.arange(1, n + 1), len(t)),
                    *(m.reshape(len(t) * n, 16) for m in (tt, pp, tt @ pp, b.estimates)),
                    b.valid.ravel(),
                )))
    return b


def _csv_writer(stack: contextlib.ExitStack, path: Path, cols: list):
    """Open path in stack and write the header cols; return a writer of table rows."""
    fh = stack.enter_context(open(path, "w", encoding="utf-8", newline="\n"))
    fh.write(",".join(cols) + "\n")
    # "%.17g" formats a float exactly as f"{x:.17g}" does, nan, inf and -0
    # included; "%d" writes the integer-valued columns
    fmt = ",".join("%d" if c in ("agent", "valid") else "%.17g" for c in cols) + "\n"
    return lambda table: fh.writelines(fmt % tuple(row.tolist()) for row in table)


def _oracle_doc(report: OracleReport) -> dict:
    bias = None
    if report.transform_bias is not None:
        bias = {
            "rotation": report.transform_bias.rotation.r.tolist(),
            "translation": report.transform_bias.translation.tolist(),
        }
    return {
        "w1": report.w1.tolist(),
        "consensus_state": report.consensus_state.tolist(),
        "transform_bias": bias,
        "lambda2": report.lambda2,
        "settling_bound": report.settling_bound,
        "settling_bound_optimistic": report.settling_bound_optimistic,
        "v0": report.v0,
    }


def _summary_doc(trace: Trace, final_time: float, last: TraceBlock) -> dict:
    s, report = trace.scenario, trace.report
    finite = isinstance(s.law, FiniteTime)
    return {
        "law": "finite" if finite else "asymptotic",
        "alpha": s.law.alpha if finite else None,
        "n": s.topo.n,
        "dt": s.dt,
        "t_end": s.t_end,
        "stride": s.stride,
        "seed": s.seed,
        "lambda2": report.lambda2,
        "w1": report.w1.tolist(),
        "v0": report.v0,
        "settling_bound": report.settling_bound,
        "settling_bound_optimistic": report.settling_bound_optimistic,
        "settling_time": settling_time(trace) if finite else None,
        "final_time": final_time,
        "final_max_orientation_error": _json_max(last.orient[-1]),
        "final_max_position_error": _json_max(last.pos[-1]),
    }


def _write_json(doc: dict, path: Path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_and_emit(cfg: RunConfig) -> int:
    """Run one scenario and write trace.csv / oracle.json / summary.json."""
    try:
        trace, report = run(apply_overrides(load_scenario(cfg.scenario_path), cfg))
    except (ScenarioError, ConfigurationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        times = trace.times
        last = _write_tables(trace, times, out, cfg.full_state)
        _write_json(_oracle_doc(report), out / "oracle.json")
        _write_json(_summary_doc(trace, float(times[-1]), last), out / "summary.json")
    except OSError as e:
        print(f"error: {e.filename or out}: {e.strerror or e}", file=sys.stderr)
        return 1
    print(f"wrote {out / 'trace.csv'} ({len(times)} samples)")
    return 0


def _fmt(x, digits=4) -> str:
    return "-" if x is None else f"{x:.{digits}g}"


def _report_row(path: Path) -> str:
    """The table row of one summary.json; a file it cannot tabulate is a ScenarioError."""
    doc = _read_json(path)
    try:
        if doc["lambda2"] is not None:
            spectral = _fmt(doc["lambda2"])
        else:
            spectral = "w1:" + ",".join(f"{w:.2g}" for w in doc["w1"])
        return (
            f"{path.parent.name or str(path):<28} {doc['law']:<10} "
            f"{_fmt(doc['alpha']):>6} {spectral:>10} {_fmt(doc['v0']):>10} "
            f"{_fmt(doc['settling_bound']):>10} {_fmt(doc['settling_time']):>10} "
            f"{_fmt(doc['final_max_orientation_error']):>13} "
            f"{_fmt(doc['final_max_position_error']):>10}"
        )
    except KeyError as e:
        raise ScenarioError(f"{path}: missing key {e}") from e
    except (TypeError, ValueError, OverflowError) as e:
        raise ScenarioError(f"{path}: not a summary file ({e})") from e


def report(paths) -> int:
    """Print a comparison table for one or more summary.json files."""
    try:
        rows = [_report_row(Path(p)) for p in paths]
    except ScenarioError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    header = (
        f"{'run':<28} {'law':<10} {'alpha':>6} {'spectral':>10} {'V0':>10} "
        f"{'bound':>10} {'settling':>10} {'final_orient':>13} {'final_pos':>10}"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        print(row)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="framelocal",
        description="Distributed frame-localization simulator on SE(3)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and emit trace/oracle/summary")
    # each dest is a RunConfig field name
    p_run.add_argument("--config", required=True, dest="scenario_path", metavar="CONFIG",
                       help="scenario JSON path")
    p_run.add_argument("--law", choices=["asymptotic", "finite"])
    p_run.add_argument("--alpha", type=float)
    p_run.add_argument("--dt", type=float)
    p_run.add_argument("--t-end", type=float)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--stride", type=int)
    p_run.add_argument("--mode", choices=["full", "twocol"])
    p_run.add_argument("--out", default=".", dest="out_dir", metavar="OUT",
                       help="output directory (default: .)")
    p_run.add_argument("--full-state", action="store_true", help="also write state.csv")

    p_rep = sub.add_parser("report", help="tabulate one or more summary.json files")
    p_rep.add_argument("summaries", nargs="+", help="summary.json paths")

    args = parser.parse_args(argv)
    if args.command == "run":
        return run_and_emit(
            RunConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig)})
        )
    return report(args.summaries)


if __name__ == "__main__":
    sys.exit(main())
