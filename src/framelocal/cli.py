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
Every refused input is a ``ConfigurationError``: such a value, a file that
cannot be read, decoded as UTF-8 or parsed, a bad flag, and what ``run``
refuses (a law's graph condition, a size or magnitude bound). Each
ends the command with one ``error:`` line naming the file or the section.

The agents are checked in one pass over all of them: their keys, their JSON
shapes and number types, one ``rotation_check`` over the (n, 3, 3) rotations
and one ``isfinite`` over the (3, n, 3) vectors. A valid list becomes the
scenario's stacks and builds no agent object. Only when the pass fails are
the agents checked one by one, in order, which names the first faulty agent
and its first fault.

Outputs of ``framelocal run``: trace.csv (t, per-agent orientation errors,
per-link position errors, V), oracle.json (with |det Q_c| as ``det_qc`` and
whether the bias is well posed, so a run whose errors are all NaN says why),
summary.json, and optionally
state.csv with full per-agent state dumps; one walk over ``Trace.blocks()``
writes both tables. Floats are emitted with 17 significant digits so every
value round-trips exactly; repeated runs with the same config and seed
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import operator
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .estimators import Asymptotic, FiniteTime, ReconstructionMode
from .graphs import Topology
from .se3 import Pose, Rotation, Twist, homogeneous, rotation_check
from .simulation import (
    ConfigurationError,
    OracleReport,
    Scenario,
    Trace,
    TraceBlock,
    _PoseStack,
    _TwistStack,
    run,
    settling_time,
)


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
        raise ConfigurationError(f"{where}: expected an object")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigurationError(f"{where}: unknown key(s) {sorted(unknown)}")
    missing = allowed - optional - set(section)
    if missing:
        raise ConfigurationError(f"{where}: missing key(s) {sorted(missing)}")


def _numbers(value, name: str):
    """value, once checked to be a JSON number or nested lists of them."""
    for v in value if type(value) is list else [value]:
        if type(v) is list:
            _numbers(v, name)
        elif type(v) not in (int, float):  # type(True) is bool, not int
            raise ValueError(f"{name}: expected a number, got {v!r}")
    return value


def _read_json(path: Path):
    """The JSON document in path; any failure to read or parse it is a ConfigurationError."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as e:
        raise ConfigurationError(f"{path}: {e.strerror or e}") from e
    except json.JSONDecodeError as e:
        raise ConfigurationError(f"{path}:{e.lineno}: {e.msg}") from e
    except (ValueError, RecursionError) as e:
        # bytes that are not UTF-8, an integer literal over Python's digit
        # limit, or nesting deeper than the parser's recursion limit
        raise ConfigurationError(f"{path}: {e}") from e


@contextlib.contextmanager
def _section(where: str):
    """Turn a bad value raised inside the block into one ConfigurationError for where."""
    try:
        yield
    except (ValueError, TypeError, OverflowError) as e:
        raise ConfigurationError(f"{where}: {e}") from e


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file (strict: unknown keys rejected)."""
    path = Path(path)
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{path}: top level must be an object")

    sections = {"description", "graph", "agents", "law", "integration", "reconstruction"}
    _require_keys(doc, str(path), sections, optional={"description"})
    if not isinstance(doc.get("description", ""), str):
        raise ConfigurationError("description: expected a string")

    g = doc["graph"]
    _require_keys(g, "graph", {"n", "directed", "edges"})
    with _section("graph"):
        topo = (Topology.undirected(g["n"], g["edges"]) if g["directed"] is False
                else Topology(g["n"], g["edges"], g["directed"]))

    agents = doc["agents"]
    if not isinstance(agents, list) or len(agents) != topo.n:
        raise ConfigurationError(f"agents: expected a list of {topo.n} entries")
    poses, twists = _agents(agents)

    law_doc = doc["law"]
    _require_keys(law_doc, "law", {"name", "alpha", "epsilon"}, optional={"alpha", "epsilon"})
    with _section("law"):
        law = _parse_law(law_doc)

    integ = doc["integration"]
    _require_keys(integ, "integration", {"dt", "t_end", "stride", "seed"})

    mode = doc["reconstruction"]
    if mode not in [m.value for m in ReconstructionMode]:  # Scenario takes the value
        raise ConfigurationError(f"reconstruction: expected 'full' or 'twocol', got {mode!r}")

    with _section("integration"):
        return Scenario(
            topo=topo,
            initial_poses=poses,
            twists=twists,
            law=law,
            dt=float(_numbers(integ["dt"], "dt")),
            t_end=float(_numbers(integ["t_end"], "t_end")),
            seed=integ["seed"],
            stride=integ["stride"],
            reconstruction=mode,
        )


_AGENT_FIELDS = ("rotation", "translation", "linear_velocity", "angular_velocity")
_AGENT_KEYS = frozenset(_AGENT_FIELDS)


def _floats(values: list, *shape: int) -> np.ndarray:
    """values, lists nested to shape with JSON numbers as leaves, as one
    (len(values), *shape) float array. Any other value raises ValueError, and
    an int too large for a float raises OverflowError."""
    for length in shape:
        if set(map(type, values)) != {list} or set(map(len, values)) != {length}:
            raise ValueError(f"expected lists of {length} entries")
        values = [*itertools.chain.from_iterable(values)]
    if not set(map(type, values)) <= {int, float}:   # type(True) is bool, not int
        raise ValueError("expected numbers")
    return np.fromiter(values, float, len(values)).reshape(-1, *shape)


def _agents(agents: list) -> tuple:
    """(poses, twists): the agents as a Scenario takes them.

    One pass over all agents checks them and fills read-only stacks. Only if
    it fails are they checked one by one, in order, so the first faulty agent
    raises a ConfigurationError naming it and its first fault.
    """
    with contextlib.suppress(KeyError, ValueError, OverflowError):   # the checks below say why
        if set(map(type, agents)) == {dict} and set(map(len, agents)) == {len(_AGENT_KEYS)}:
            # four keys each, so an unknown key shows as a missing one: a KeyError
            rotations, *vectors = zip(*map(operator.itemgetter(*_AGENT_FIELDS), agents))
            r = _floats(rotations, 3, 3)
            v = _floats(sum(vectors, ()), 3).reshape(3, -1, 3)
            if rotation_check(r)[0].all() and np.isfinite(v).all():
                return _PoseStack(homogeneous(r, v[0])), _TwistStack(*v[1:])
    poses, twists = [], []
    for k, a in enumerate(agents, start=1):
        where = f"agents[{k}]"
        _require_keys(a, where, _AGENT_KEYS)
        with _section(where):
            for key, value in a.items():
                _numbers(value, key)
            poses.append(Pose(Rotation(a["rotation"]), a["translation"]))
            twists.append(Twist(a["linear_velocity"], a["angular_velocity"]))
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
    """Write a scenario as canonical JSON (exact float round trip); a given start raises."""
    if s.initial_state is not None:
        raise ConfigurationError("initial state: a scenario file holds the seed, not a given start")
    edges = [[i, j] for i, j in s.topo.edges if s.topo.directed or i < j]
    (t0,), (linear, angular) = s.initial_poses.arrays, s.twists.arrays
    rows = t0[:, :3, :3].tolist(), t0[:, :3, 3].tolist(), linear.tolist(), angular.tolist()
    doc = {
        "graph": {"n": s.topo.n, "directed": s.topo.directed, "edges": edges},
        "agents": [dict(zip(_AGENT_FIELDS, agent)) for agent in zip(*rows)],
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
        raise ConfigurationError("alpha only applies to the finite-time law")
    with _section("override"):
        if cfg.law is not None or cfg.alpha is not None:
            base = s.law if isinstance(s.law, FiniteTime) else FiniteTime()
            alpha = base.alpha if cfg.alpha is None else cfg.alpha
            changes["law"] = FiniteTime(alpha, base.epsilon) if finite else Asymptotic()
        return dataclasses.replace(s, **changes) if changes else s


def _json_max(row: np.ndarray) -> float | None:
    """The largest number in row, or None if it has none (empty or all NaN)."""
    top = float(np.fmax.reduce(row, initial=np.nan))   # no all-NaN warning, unlike nanmax
    return None if np.isnan(top) else top


def _write_tables(trace: Trace, times: np.ndarray, out: Path, full_state: bool) -> TraceBlock:
    """Write trace.csv and, with full_state, state.csv from one walk over
    ``trace.blocks()``; return the last block, whose errors end the summary."""
    n = trace.truth.shape[1]
    cols = ["t", *(f"orient_err_{i}" for i in range(1, n + 1))]
    cols += [f"pos_err_{i}_{j}" for i, j in trace.scenario.topo.links]
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
    # included; "%d" writes the integer-valued columns. A block is formatted
    # by one % over the row format repeated once per row
    fmt = ",".join("%d" if c in ("agent", "valid") else "%.17g" for c in cols) + "\n"
    return lambda table: fh.write((fmt * len(table)) % tuple(table.ravel().tolist()))


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
        "det_qc": report.det_qc,
        "well_posed": report.transform_bias is not None,
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
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def run_and_emit(cfg: RunConfig) -> int:
    """Run one scenario and write trace.csv / oracle.json / summary.json."""
    try:
        trace, report = run(apply_overrides(load_scenario(cfg.scenario_path), cfg))
    except ConfigurationError as e:
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
    """The table row of one summary.json; a file it cannot tabulate is a ConfigurationError."""
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
        raise ConfigurationError(f"{path}: missing key {e}") from e
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigurationError(f"{path}: not a summary file ({e})") from e


def report(paths) -> int:
    """Print a comparison table for one or more summary.json files."""
    try:
        rows = [_report_row(Path(p)) for p in paths]
    except ConfigurationError as e:
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
