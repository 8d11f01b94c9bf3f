"""Scenario file handling, emission, determinism, and the report table."""

import collections
import contextlib
import dataclasses
import inspect
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from framelocal import ConfigurationError, Topology, cli, graphs, se3, simulation
from framelocal.cli import (
    RunConfig,
    _write_tables,
    bundled_scenario_path,
    load_scenario,
    main,
    report,
    run_and_emit,
    save_scenario,
)
from framelocal.estimators import (
    Asymptotic,
    FiniteTime,
    ReconstructionMode,
    init_aux_stack,
    reconstruct,
)
from framelocal.scenarios import DEMO_ROTATION_SEED, demo_scenario, seeded_rotations
from framelocal.se3 import Pose, Rotation, Twist
from framelocal.simulation import Scenario, Trace, oracle_report
from conftest import counting_reconstruct, identity_pose, zero_twist


def scenarios_equal(a, b) -> bool:
    if (a.topo.n, a.topo.edges, a.topo.directed) != (b.topo.n, b.topo.edges, b.topo.directed):
        return False
    for pa, pb in zip(a.initial_poses, b.initial_poses):
        if not np.array_equal(pa.matrix, pb.matrix):
            return False
    for ta, tb in zip(a.twists, b.twists):
        if not (np.array_equal(ta.linear, tb.linear) and np.array_equal(ta.angular, tb.angular)):
            return False
    return (
        a.law == b.law
        and (a.dt, a.t_end, a.seed, a.stride, a.reconstruction)
        == (b.dt, b.t_end, b.seed, b.stride, b.reconstruction)
    )


BUNDLED = sorted(bundled_scenario_path("demo_asymptotic").parent.glob("*.json"))


def test_bundled_asymptotic_matches_builder():
    s = load_scenario(bundled_scenario_path("demo_asymptotic"))
    assert s.topo.n == 4 and s.topo.directed
    assert s.topo.edges == ((1, 2), (2, 3), (3, 4), (4, 2))
    assert isinstance(s.law, Asymptotic)
    assert scenarios_equal(s, demo_scenario())


def test_bundled_finite_matches_builder():
    s = load_scenario(bundled_scenario_path("demo_finite_time"))
    assert not s.topo.directed
    assert s.topo == Topology.undirected(4, ((1, 2), (2, 3), (3, 4), (4, 1)))
    assert s.law == FiniteTime(alpha=0.5, epsilon=1e-9)
    assert scenarios_equal(s, demo_scenario(law=FiniteTime(alpha=0.5)))


@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
def test_bundled_rotations_are_the_seeded_draw(path):
    s = load_scenario(path)
    rotations = seeded_rotations(4, DEMO_ROTATION_SEED)
    for pose, r in zip(s.initial_poses, rotations, strict=True):
        assert pose.rotation.r.tobytes() == r.r.tobytes()


@pytest.mark.parametrize("law", [None, FiniteTime(alpha=0.5)], ids=["asymptotic", "finite"])
def test_demo_rotation_seed_keeps_translations_and_twists(law):
    base = demo_scenario(law=law)
    other = demo_scenario(law=law, rotation_seed=1301)
    for a, b, r in zip(base.initial_poses, other.initial_poses, seeded_rotations(4, 1301), strict=True):
        assert b.rotation.r.tobytes() == r.r.tobytes() != a.rotation.r.tobytes()
        assert b.translation.tobytes() == a.translation.tobytes()
    for a, b in zip(base.twists, other.twists, strict=True):
        assert a.linear.tobytes() == b.linear.tobytes()
        assert a.angular.tobytes() == b.angular.tobytes()
    assert other.topo == base.topo and other.law == base.law
    assert (other.dt, other.t_end, other.seed, other.stride, other.reconstruction) == (
        base.dt, base.t_end, base.seed, base.stride, base.reconstruction
    )


def test_demo_scenario_keeps_a_files_values(tmp_path, monkeypatch):
    # the bundled file is the one definition of a demo: demo_scenario
    # replaces only the values it is given, and has no value of its own
    doc = json.loads(bundled_scenario_path("demo_asymptotic").read_text(encoding="utf-8"))
    doc["integration"].update(dt=5e-4, seed=11, stride=5)
    doc["reconstruction"] = "full"
    copy = tmp_path / "demo_asymptotic.json"
    copy.write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.setattr("framelocal.scenarios.bundled_scenario_path", lambda name: copy)
    loaded = load_scenario(copy)
    assert (loaded.dt, loaded.seed, loaded.stride) == (5e-4, 11, 5)
    assert loaded.reconstruction is ReconstructionMode.FULL_GSOP
    assert scenarios_equal(demo_scenario(), loaded)
    assert scenarios_equal(demo_scenario(dt=1e-3), dataclasses.replace(loaded, dt=1e-3))
    assert "reconstruction" not in inspect.signature(demo_scenario).parameters


@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
def test_bundled_files_are_in_canonical_form(path, tmp_path):
    # each file is exactly what save_scenario writes for it, so the files
    # can be regenerated and stay the one definition of the demos
    doc = json.loads(path.read_text(encoding="utf-8"))
    save_scenario(load_scenario(path), tmp_path / "saved.json", description=doc["description"])
    assert (tmp_path / "saved.json").read_bytes() == path.read_bytes()


def test_round_trip_exact(tmp_path):
    for law in (Asymptotic(), FiniteTime(alpha=0.3, epsilon=1e-8)):
        s = demo_scenario(law=law, seed=123, dt=2e-3, stride=5)
        path = tmp_path / "s.json"
        save_scenario(s, path)
        assert scenarios_equal(load_scenario(path), s)


def test_zero_dt_rejected(tmp_path):
    path = tmp_path / "bad.json"
    doc = json.loads(bundled_scenario_path("demo_asymptotic").read_text())
    doc["integration"]["dt"] = 0.0
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError, match="dt"):
        load_scenario(path)


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.json"
    doc = json.loads(bundled_scenario_path("demo_asymptotic").read_text())
    doc["graph"]["weights"] = [1, 2, 3]
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError, match="unknown key"):
        load_scenario(path)


def test_missing_key_rejected(tmp_path):
    path = tmp_path / "bad.json"
    doc = json.loads(bundled_scenario_path("demo_asymptotic").read_text())
    del doc["agents"][0]["translation"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError, match="missing key"):
        load_scenario(path)


def test_invalid_rotation_rejected(tmp_path):
    path = tmp_path / "bad.json"
    doc = json.loads(bundled_scenario_path("demo_asymptotic").read_text())
    doc["agents"][0]["rotation"] = [[1, 0, 0], [0, 1, 0], [0, 0, 2]]
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError, match="agents\\[1\\]"):
        load_scenario(path)


def test_alpha_on_asymptotic_law_rejected(tmp_path):
    path = tmp_path / "bad.json"
    doc = json.loads(bundled_scenario_path("demo_asymptotic").read_text())
    doc["law"]["alpha"] = 0.5
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigurationError, match="alpha"):
        load_scenario(path)


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "graph": [,]\n}')
    with pytest.raises(ConfigurationError, match=":2"):
        load_scenario(path)


def test_run_and_emit_outputs(tmp_path):
    cfg = RunConfig(
        scenario_path=str(bundled_scenario_path("demo_finite_time")),
        out_dir=str(tmp_path / "out"),
        t_end=0.5,
        full_state=True,
    )
    assert run_and_emit(cfg) == 0
    out = tmp_path / "out"
    for name in ("trace.csv", "oracle.json", "summary.json", "state.csv"):
        assert (out / name).exists()
    header = (out / "trace.csv").read_text().splitlines()[0]
    assert header == (
        "t,orient_err_1,orient_err_2,orient_err_3,orient_err_4,"
        "pos_err_1_2,pos_err_1_4,pos_err_2_3,pos_err_3_4,V"
    )
    lines = (out / "trace.csv").read_text().splitlines()
    assert len(lines) == 1 + 51  # header + floor(0.5/1e-3)/10 + 1 samples
    state_lines = (out / "state.csv").read_text().splitlines()
    assert len(state_lines) == 1 + 51 * 4
    summary = json.loads((out / "summary.json").read_text())
    assert summary["law"] == "finite" and summary["lambda2"] == 2.0


def test_run_and_emit_deterministic(tmp_path):
    for d in ("a", "b"):
        cfg = RunConfig(
            scenario_path=str(bundled_scenario_path("demo_finite_time")),
            out_dir=str(tmp_path / d),
            t_end=1.0,
        )
        assert run_and_emit(cfg) == 0
    for name in ("trace.csv", "oracle.json", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_run_and_emit_precondition_failure(tmp_path, capsys):
    cfg = RunConfig(
        scenario_path=str(bundled_scenario_path("demo_asymptotic")),
        out_dir=str(tmp_path),
        law="finite",
    )
    assert run_and_emit(cfg) == 1
    assert "undirected" in capsys.readouterr().err


def test_cli_main_run_and_report(tmp_path, capsys):
    out = tmp_path / "run1"
    rc = main(
        [
            "run",
            "--config",
            str(bundled_scenario_path("demo_finite_time")),
            "--t-end",
            "0.5",
            "--seed",
            "3",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    assert main(["report", str(out / "summary.json")]) == 0
    table = capsys.readouterr().out
    assert "finite" in table and "0.5" in table
    assert table.count("\n") == 3  # header, rule, one row


def test_bundled_scenarios_full_length(tmp_path, capsys):
    # both shipped demos, unmodified: the asymptotic run lands under 1e-3 at
    # t = 10 and the finite-time run settles inside its bound
    out_a = tmp_path / "a"
    out_f = tmp_path / "f"
    assert run_and_emit(
        RunConfig(str(bundled_scenario_path("demo_asymptotic")), out_dir=str(out_a))
    ) == 0
    assert run_and_emit(
        RunConfig(str(bundled_scenario_path("demo_finite_time")), out_dir=str(out_f))
    ) == 0
    asy = json.loads((out_a / "summary.json").read_text())
    fin = json.loads((out_f / "summary.json").read_text())
    assert asy["settling_time"] is None and asy["settling_bound"] is None
    assert asy["final_max_orientation_error"] < 1e-3
    assert asy["final_max_position_error"] < 1e-3
    assert fin["settling_time"] is not None
    assert fin["settling_time"] <= fin["settling_bound"]
    assert fin["final_max_orientation_error"] < 1e-6

    capsys.readouterr()
    assert report([str(out_a / "summary.json"), str(out_f / "summary.json")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    asy_row = next(l for l in lines if "asymptotic" in l)
    fin_row = next(l for l in lines if " finite " in l)
    assert " - " in asy_row  # no settling column entry for the asymptotic law
    assert f"{fin['settling_time']:.4g}" in fin_row


def test_report_missing_file(tmp_path, capsys):
    assert report([str(tmp_path / "nope.json")]) == 1
    assert "nope.json" in capsys.readouterr().err


def test_report_requires_arguments():
    with pytest.raises(SystemExit) as exc:
        main(["report"])
    assert exc.value.code == 2


def test_cli_mode_and_alpha_overrides(tmp_path):
    out = tmp_path / "o"
    rc = main(
        [
            "run",
            "--config",
            str(bundled_scenario_path("demo_finite_time")),
            "--alpha",
            "0.6",
            "--t-end",
            "0.2",
            "--mode",
            "full",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["alpha"] == 0.6


def run_edited_demo(tmp_path, capsys, edit, *flags) -> tuple:
    """Run the finite demo through main() after edit(doc); return (code, stderr lines)."""
    doc = json.loads(bundled_scenario_path("demo_finite_time").read_text())
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out"), *flags])
    return code, capsys.readouterr().err.splitlines()


def test_nan_epsilon_rejected(tmp_path, capsys):
    # a NaN guard radius would fail every norm >= epsilon test and silently
    # switch the finite-time law off
    code, err = run_edited_demo(tmp_path, capsys, lambda d: d["law"].update(epsilon=float("nan")))
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: law:")


def test_epsilon_over_every_link_rejected(tmp_path, capsys):
    # the demo's initial links are 4.76 to 6.85 apart: at epsilon = 1000 the
    # guard would zero every weight and V would stay at V0 for the whole run
    code, err = run_edited_demo(tmp_path, capsys, lambda d: d["law"].update(epsilon=1000))
    assert code == 1
    assert err == [
        "error: finite-time law: epsilon = 1000 is above every initial link distance "
        "||S_j - S_i||_F (the largest is 6.848), so the guard would zero every weight "
        "and the law would never act; use a smaller epsilon"
    ]
    assert not (tmp_path / "out").exists()


def test_steps_past_the_last_sample_are_not_integrated(tmp_path, capsys, monkeypatch):
    # 10000 steps at stride 4096 record steps 0, 4096 and 8192; the 1808
    # after the last sample are never integrated (four kernel calls a step)
    calls = [0]
    make_rhs = simulation._make_rhs

    def counting_rhs(s):
        truths, rhs = make_rhs(s)

        def counted(k, pp, out):
            calls[0] += 1
            return rhs(k, pp, out)

        return truths, counted

    monkeypatch.setattr(simulation, "_make_rhs", counting_rhs)
    out = tmp_path / "out"
    code = main(["run", "--config", str(bundled_scenario_path("demo_asymptotic")),
                 "--stride", "4096", "--out", str(out)])
    assert code == 0 and calls[0] == 4 * 8192
    assert len((out / "trace.csv").read_text().splitlines()) == 1 + 3
    assert json.loads((out / "summary.json").read_text())["final_time"] == 8.192
    # one step of 10 s at stride 10 records only the start: nothing is integrated
    calls[0] = 0
    code = main(["run", "--config", str(bundled_scenario_path("demo_asymptotic")),
                 "--dt", "10", "--t-end", "10", "--out", str(out)])
    assert code == 0 and calls[0] == 0
    assert json.loads((out / "summary.json").read_text())["final_time"] == 0.0


@pytest.mark.parametrize("stride", [2**63 - 1, 2**63, 10**19, 10**400])
@pytest.mark.parametrize("via", ["file", "flag"])
def test_stride_past_int64_records_the_start(tmp_path, capsys, via, stride):
    # a stride over the horizon records step 0 alone; from 2**63 on it used
    # to overflow int64 in Trace.times and end in a traceback
    edit = (lambda d: d["integration"].update(stride=stride)) if via == "file" else (lambda d: None)
    flags = ("--stride", str(stride)) if via == "flag" else ()
    code, err = run_edited_demo(tmp_path, capsys, edit, *flags)
    assert code == 0 and err == []
    rows = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("0,")
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["stride"] == stride and summary["final_time"] == 0.0


@pytest.mark.parametrize("key, value", [("dt", float("nan")), ("t_end", float("inf"))])
def test_non_finite_integration_field_rejected(tmp_path, capsys, key, value):
    code, err = run_edited_demo(
        tmp_path, capsys, lambda d: d["integration"].update({key: value})
    )
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: integration:")
    assert key in err[0]


@pytest.mark.parametrize("flag, value", [("--dt", "nan"), ("--t-end", "inf")])
def test_non_finite_integration_override_rejected(tmp_path, capsys, flag, value):
    code, err = run_edited_demo(tmp_path, capsys, lambda d: None, flag, value)
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: override:")
    assert flag[2:].replace("-", "_") in err[0]


@pytest.mark.parametrize(
    "section, edit",
    [
        ("graph", lambda d: d["graph"].update(n=4.7)),
        ("graph", lambda d: d["graph"].update(edges=[[1, 2.5], [2, 3], [3, 4], [4, 1]])),
        ("integration", lambda d: d["integration"].update(stride=2.5)),
        ("integration", lambda d: d["integration"].update(seed=7.9)),
        ("integration", lambda d: d["integration"].update(seed=-1)),
    ],
    ids=["n", "edge", "stride", "seed", "negative-seed"],
)
def test_non_integral_or_negative_integer_field_rejected(tmp_path, capsys, section, edit):
    # int() used to truncate these silently (stride 2.5 ran at stride 2), and a
    # negative seed ended in a traceback from the random generator
    code, err = run_edited_demo(tmp_path, capsys, edit)
    assert code == 1
    assert len(err) == 1 and err[0].startswith(f"error: {section}:")


@pytest.mark.parametrize("value", ["1.5", "nan"])
def test_out_of_range_alpha_override_rejected(tmp_path, capsys, value):
    # the override law used to be built outside the validation that turns a
    # ValueError into an error line, so --alpha 1.5 ended in a traceback
    code, err = run_edited_demo(tmp_path, capsys, lambda d: None, "--alpha", value)
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: override: alpha ")


def test_alpha_override_on_asymptotic_law_rejected(tmp_path, capsys):
    code, err = run_edited_demo(tmp_path, capsys, lambda d: None, "--law", "asymptotic",
                                "--alpha", "0.5")
    assert code == 1
    assert err == ["error: alpha only applies to the finite-time law"]


def test_negative_seed_override_rejected(tmp_path, capsys):
    code, err = run_edited_demo(tmp_path, capsys, lambda d: None, "--seed", "-1")
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: override:") and "seed" in err[0]


def test_integral_float_fields_accepted(tmp_path):
    doc = json.loads(bundled_scenario_path("demo_finite_time").read_text())
    doc["graph"]["n"] = 4.0
    doc["integration"].update(stride=10.0, seed=7.0)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    s = load_scenario(path)
    assert (s.topo.n, s.stride, s.seed) == (4, 10, 7)
    assert isinstance(s.stride, int) and isinstance(s.seed, int)


@pytest.mark.parametrize(
    "section, edit",
    [
        ("law", lambda d: d["law"].update(epsilon=True)),
        ("law", lambda d: d["law"].update(alpha="0.5")),
        ("integration", lambda d: d["integration"].update(dt="0.001")),
        ("integration", lambda d: d["integration"].update(t_end=True)),
        ("graph", lambda d: d["graph"].update(directed="no")),
        ("graph", lambda d: d["graph"].update(directed=0)),
        ("agents[2]", lambda d: d["agents"][1].update(translation=[True, 0.0, 0.0])),
        ("agents[2]", lambda d: d["agents"][1].update(linear_velocity=["1", 0.0, 0.0])),
        ("agents[2]", lambda d: d["agents"][1]["rotation"][0].__setitem__(
            0, repr(d["agents"][1]["rotation"][0][0])
        )),
        ("description", lambda d: d.update(description=5)),
    ],
    ids=["bool-epsilon", "string-alpha", "string-dt", "bool-t_end", "string-directed",
         "number-directed", "bool-translation", "string-velocity", "string-rotation",
         "number-description"],
)
def test_value_of_wrong_json_type_rejected(tmp_path, capsys, section, edit):
    # float() and np.array used to coerce these: "epsilon": true ran with
    # epsilon = 1, and "directed": "no" built a directed graph
    code, err = run_edited_demo(tmp_path, capsys, edit)
    assert code == 1
    assert len(err) == 1 and err[0].startswith(f"error: {section}:")
    assert not (tmp_path / "out").exists()


def test_integral_json_numbers_load_as_floats(tmp_path):
    doc = json.loads(bundled_scenario_path("demo_finite_time").read_text())
    doc["integration"].update(dt=1, t_end=2)
    doc["law"]["epsilon"] = 1
    doc["agents"][0]["translation"] = [1, 0, 0]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    s = load_scenario(path)
    assert (s.dt, s.t_end, s.law.epsilon) == (1.0, 2.0, 1.0)
    assert all(isinstance(x, float) for x in (s.dt, s.t_end, s.law.epsilon))
    assert np.array_equal(s.initial_poses[0].translation, [1.0, 0.0, 0.0])


@pytest.mark.parametrize(
    "section, literal",
    [("error: ", "1" * 5000), ("error: integration: ", "1" * 400)],
    ids=["over-digit-limit", "over-float-range"],
)
def test_huge_integer_literal_rejected(tmp_path, capsys, section, literal):
    # json.loads refuses an integer of over 4300 digits with a ValueError, and
    # float() an integer beyond 1.8e308 with an OverflowError; both used to
    # end in a traceback
    text = bundled_scenario_path("demo_finite_time").read_text()
    path = tmp_path / "s.json"
    path.write_text(text.replace('"dt": 0.001', f'"dt": {literal}'))
    assert '"dt": 1' in path.read_text()
    capsys.readouterr()
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(section)


def main_output(argv) -> tuple:
    """(exit code, stdout, stderr lines) of main(argv); usable inside @given."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue().splitlines()


@pytest.mark.parametrize(
    "command, content",
    [("run", b"\xff{}"), ("run", b"[" * 100_000), ("report", b"[" * 100_000)],
    ids=["run-not-utf8", "run-deep-nesting", "report-deep-nesting"],
)
def test_unreadable_json_is_one_error_line(tmp_path, command, content):
    # bytes that are not UTF-8 escaped the loader's OSError handler, and
    # nesting past the parser's recursion limit escaped both readers: each
    # ended in a traceback
    path, out = tmp_path / "in.json", tmp_path / "out"
    path.write_bytes(content)
    if command == "run":
        argv = ["run", "--config", str(path), "--out", str(out)]
    else:
        argv = ["report", str(path)]
    code, stdout, err = main_output(argv)
    assert code == 1 and stdout == ""
    assert len(err) == 1 and err[0].startswith(f"error: {path}: ")
    assert not out.exists()


def test_run_flags_fill_every_run_config_field(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "run_and_emit", lambda cfg: seen.append(cfg) or 0)
    assert main(["run", "--config", "s.json"]) == 0
    assert main([
        "run", "--config", "s.json", "--out", "o", "--law", "finite", "--alpha", "0.3",
        "--dt", "0.01", "--t-end", "2", "--seed", "4", "--stride", "5", "--mode", "full",
        "--full-state",
    ]) == 0
    assert seen == [
        RunConfig("s.json"),
        RunConfig("s.json", "o", "finite", 0.3, 0.01, 2.0, 4, 5, "full", True),
    ]


@pytest.mark.parametrize(
    "key, value",
    [
        ("rotation", [[float("nan")] * 3] * 3),
        ("translation", [0.0, float("nan"), 0.0]),
        ("angular_velocity", [float("nan"), 0.0, 0.0]),
        ("linear_velocity", [0.0, 0.0, float("inf")]),
        ("linear_velocity", [0.0, 1.0]),
    ],
)
def test_non_finite_agent_field_rejected(tmp_path, capsys, key, value):
    # each used to run to a NaN summary with exit code 0 (the last one, a
    # short twist vector, ended in a traceback)
    code, err = run_edited_demo(tmp_path, capsys, lambda d: d["agents"][1].update({key: value}))
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: agents[2]:")


NOT_ORTHONORMAL = [[1, 0, 0], [0, 1, 0], [0, 0, 2]]


@pytest.mark.parametrize(
    "edit, line",
    [
        (
            lambda a: (a[2].update(rotation=NOT_ORTHONORMAL),
                       a[1].update(translation=[0.0, float("nan"), 0.0])),
            "error: agents[2]: translation has non-finite entries: [0.0, nan, 0.0]",
        ),
        (
            lambda a: a[1].update(rotation=[[1, 0, 0], [0, 1], [0, 0, 1]]),
            "error: agents[2]: setting an array element with a sequence. The requested array "
            "has an inhomogeneous shape after 1 dimensions. The detected shape was (3,) + "
            "inhomogeneous part.",
        ),
        (
            lambda a: a[1].update(rotation=[[1, 0, 0], [0, 1, 0], [0, 0, -1]]),
            "error: agents[2]: not a proper rotation: det = -1.000000000000",
        ),
        (
            lambda a: a[1].update(rotation=[[True, 0, 0], [0, 1, 0], [0, 0, 1]]),
            "error: agents[2]: rotation: expected a number, got True",
        ),
        (
            lambda a: (a[3].update(bogus=1), a[1].update(rotation=NOT_ORTHONORMAL)),
            "error: agents[2]: not orthonormal: ||R^T R - I||_F = 3.000e+00",
        ),
    ],
    ids=["lower-of-two-bad-agents", "ragged-rotation", "reflection", "bool-in-rotation",
         "bad-rotation-before-unknown-key"],
)
def test_agent_error_line_is_exact(tmp_path, capsys, edit, line):
    # the agents are checked as stacks; when any check fails they are checked
    # again one by one, in order, and the first failure of the first bad agent
    # is the line, exactly as the per-agent loader wrote it
    code, err = run_edited_demo(tmp_path, capsys, lambda d: edit(d["agents"]))
    assert code == 1
    assert err == [line]


@pytest.mark.parametrize("directed", [True, False], ids=["directed", "undirected"])
@pytest.mark.parametrize(
    "edges, line",
    [
        ([[1, 2], [2]], "error: graph: edge [2] is not a pair of agents"),
        ([[1, 2, 3]], "error: graph: edge [1, 2, 3] is not a pair of agents"),
        (5, "error: graph: edge 5 is not a pair of agents"),
        ([1, 2], "error: graph: edge 1 is not a pair of agents"),
        ([{"a": 1}], "error: graph: edge {'a': 1} is not a pair of agents"),
        ([[1, 2], [2, 5]], "error: graph: edge [2, 5] outside 1..4"),
    ],
    ids=["short-edge", "long-edge", "number-for-edges", "numbers-for-edges", "object-edge",
         "out-of-range"],
)
def test_edge_error_line_is_exact(tmp_path, capsys, edges, line, directed):
    # malformed edges used to end in Python's unpacking and iteration errors
    # ("not enough values to unpack", "'int' object is not iterable")
    code, err = run_edited_demo(tmp_path, capsys, lambda d: d["graph"].update(
        edges=edges, directed=directed
    ))
    assert code == 1
    assert err == [line]


@pytest.mark.parametrize("directed", ["no", 0, None])
def test_directed_error_line_is_exact(tmp_path, capsys, directed):
    code, err = run_edited_demo(tmp_path, capsys, lambda d: d["graph"].update(directed=directed))
    assert code == 1
    assert err == [f"error: graph: directed must be true or false, got {directed!r}"]


def test_saved_topology_loads_back(tmp_path):
    # a numpy bool for directed is stored as a bool, so the saved file is
    # one the loader takes
    for flag in (np.True_, np.False_):
        topo = Topology(4, ((1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3)), flag)
        path = tmp_path / f"{bool(flag)}.json"
        save_scenario(dataclasses.replace(demo_scenario(), topo=topo), path)
        assert json.loads(path.read_text())["graph"]["directed"] is bool(flag)
        assert load_scenario(path).topo == topo


def test_load_checks_agents_as_stacks(tmp_path, monkeypatch):
    # a valid file costs the same number of rotation tests at any agent
    # count, and no agent's pose, rotation or twist is built on the way from
    # the file through the oracle and the run back to a file; the one Pose
    # (and its Rotation) built is the transform bias of the oracle report
    rng = np.random.default_rng(41)
    paths = []
    for n in (4, 64, 512):
        s = Scenario(
            topo=Topology(n, tuple((k, k % n + 1) for k in range(1, n + 1))),
            initial_poses=[Pose(r, p) for r, p in zip(seeded_rotations(n, n), rng.normal(size=(n, 3)))],
            twists=[Twist(v, w) for v, w in rng.normal(size=(n, 2, 3))],
            law=Asymptotic(), dt=1e-2, t_end=0.1, seed=n,
        )
        paths.append(tmp_path / f"ring_{n}.json")
        save_scenario(s, paths[-1])
    calls = collections.Counter()

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for module in (cli, se3):
        monkeypatch.setattr(module, "rotation_check", counting("rotation_check", se3.rotation_check))
    for cls in (Rotation, Pose, Twist):
        monkeypatch.setattr(cls, "__post_init__", counting(cls.__name__, cls.__post_init__))
    counts = []
    for path in paths:
        calls.clear()
        s = load_scenario(path)
        counts.append({"load": dict(calls)})
        for name, step in (("oracle", oracle_report), ("run", simulation.run),
                           ("save", lambda s: save_scenario(s, tmp_path / "out.json"))):
            calls.clear()
            step(s)
            counts[-1][name] = dict(calls)
    bias = {"Rotation": 1, "Pose": 1, "rotation_check": 1}
    assert counts[0] == counts[1] == counts[2] == {
        "load": {"rotation_check": 1},
        "oracle": bias,
        # the oracle report's bias; the truth exponentials are not checked
        "run": bias,
        "save": {},
    }
    assert (tmp_path / "out.json").read_bytes() == paths[-1].read_bytes()


def test_oversized_spectral_analysis_is_one_error_line(tmp_path, capsys, monkeypatch):
    # the finite demo's square holds two 4 x 4 matrices in its analysis
    monkeypatch.setattr(graphs, "MAX_DENSE_BYTES", 2 * 8 * 4**2 - 1)
    code, err = run_edited_demo(tmp_path, capsys, lambda d: None)
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: graph: the spectral analysis of 4 root agents")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text",
    ["{not json", "{}", "[1, 2]", '{"law": "finite"}'],
    ids=["malformed", "empty-object", "list", "missing-keys"],
)
def test_report_rejects_bad_summary(tmp_path, capsys, text):
    path = tmp_path / "summary.json"
    path.write_text(text)
    assert report([str(path)]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}:")
    assert captured.out == ""


def test_report_rejects_field_of_wrong_type(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", "--config", str(bundled_scenario_path("demo_finite_time")),
                 "--t-end", "0.1", "--out", str(out)]) == 0
    doc = json.loads((out / "summary.json").read_text())
    doc["v0"] = "large"
    (out / "summary.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert report([str(out / "summary.json")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_report_rejects_a_number_it_cannot_format(tmp_path):
    # a 400-digit integer overflows the float the table formats; it ended
    # in an OverflowError traceback
    out = tmp_path / "run"
    assert main_output(["run", "--config", str(bundled_scenario_path("demo_finite_time")),
                        "--t-end", "0.1", "--out", str(out)])[0] == 0
    doc = json.loads((out / "summary.json").read_text())
    doc["v0"] = 10**400
    (out / "summary.json").write_text(json.dumps(doc))
    code, stdout, err = main_output(["report", str(out / "summary.json")])
    assert code == 1 and stdout == ""
    assert len(err) == 1 and err[0].startswith(f"error: {out / 'summary.json'}: not a summary file")


def test_full_state_run_reads_the_sample_times_once(tmp_path, monkeypatch):
    # Trace.times is an arange over every sample; the writers used to
    # rebuild it once per block (7 times per file here), and then once per
    # file, and the summary and the closing line read it again
    reads = []
    times = Trace.times
    monkeypatch.setattr(Trace, "times", property(lambda t: reads.append(1) or times.fget(t)))
    code, stdout, _ = main_output([
        "run", "--config", str(bundled_scenario_path("demo_asymptotic")), "--t-end", "2",
        "--full-state", "--out", str(tmp_path),
    ])
    assert code == 0 and "(201 samples)" in stdout
    assert len(reads) == 1
    last_t = float((tmp_path / "trace.csv").read_text().splitlines()[-1].split(",")[0])
    assert json.loads((tmp_path / "summary.json").read_text())["final_time"] == last_t


def test_full_state_run_reconstructs_each_sample_once(tmp_path, monkeypatch):
    # trace.csv (through the errors) and state.csv used to reconstruct every
    # sample each, and cli.py held its own reconstruct; now Trace.blocks is
    # the one caller, one walk serves both files, and the whole-trace error
    # and estimate arrays are never built
    assert not hasattr(cli, "reconstruct")
    calls = counting_reconstruct(monkeypatch)
    for joined in ("_errors", "_reconstructed"):
        monkeypatch.setattr(Trace, joined, property(lambda t: pytest.fail("whole-trace copy")))
    code, stdout, _ = main_output([
        "run", "--config", str(bundled_scenario_path("demo_finite_time")), "--t-end", "2",
        "--full-state", "--out", str(tmp_path),
    ])
    assert code == 0 and "(201 samples)" in stdout
    assert sum(math.prod(shape) for shape in calls) == 201 * 4
    assert len((tmp_path / "state.csv").read_text().splitlines()) == 1 + 201 * 4


def ill_posed_doc() -> dict:
    """Two agents on one undirected link whose common bias is ill-posed.

    With Q the top-left blocks of ``init_aux_stack(2, 7)`` (seed 7), agent 1
    at the identity and agent 2 rotated by R, the bias is the Gram-Schmidt
    orthonormalization of (Q_1 + R Q_2) / 2. R takes Q_2 x onto -Q_1 x for an
    x with |Q_1 x| = |Q_2 x|, so that matrix is singular up to rounding.
    """
    q1, q2 = init_aux_stack(2, 7)[:, :3, :3]
    lam, vec = np.linalg.eigh(q1.T @ q1 - q2.T @ q2)
    assert lam[0] < 0.0 < lam[-1]
    x = np.sqrt(lam[-1]) * vec[:, 0] + np.sqrt(-lam[0]) * vec[:, -1]
    u, v = q2 @ x, -(q1 @ x)
    u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
    k = se3.hat3(np.cross(u, v))
    r = np.eye(3) + k + k @ k / (1.0 + u @ v)   # Rodrigues: the rotation taking u to v
    assert abs(np.linalg.det(q1 + r @ q2)) < 1e-14

    def agent(rotation):
        zero = [0.0, 0.0, 0.0]
        return {"rotation": rotation.tolist(), "translation": [1.0, 2.0, 3.0],
                "linear_velocity": zero, "angular_velocity": zero}

    return {
        "graph": {"n": 2, "directed": False, "edges": [[1, 2]]},
        "agents": [agent(np.eye(3)), agent(r)],
        "law": {"name": "asymptotic"},
        "integration": {"dt": 0.01, "t_end": 0.1, "stride": 1, "seed": 7},
        "reconstruction": "twocol",
    }


def test_ill_posed_bias_run_writes_no_warning(tmp_path, capsys):
    # every error of such a run is NaN; the final maxima used np.nanmax,
    # whose all-NaN RuntimeWarning np.errstate does not silence, so the run
    # printed two warning lines to stderr (an error under this suite's
    # filterwarnings) and exited 0
    path = tmp_path / "ill_posed.json"
    path.write_text(json.dumps(ill_posed_doc()))
    capsys.readouterr()
    code = main(["run", "--config", str(path), "--full-state", "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["final_max_orientation_error"] is None
    assert summary["final_max_position_error"] is None
    assert json.loads((tmp_path / "out" / "oracle.json").read_text())["transform_bias"] is None


def test_oracle_json_names_an_ill_posed_bias(tmp_path):
    # such a run writes NaN errors and a null bias with exit 0; oracle.json
    # says why: |det Q_c| is at the rounding level, under WELL_POSED_DET
    ill_posed = tmp_path / "ill_posed.json"
    ill_posed.write_text(json.dumps(ill_posed_doc()))
    configs = {
        "ill_posed": (ill_posed, False),
        "demo_asymptotic": (bundled_scenario_path("demo_asymptotic"), True),
        "demo_finite_time": (bundled_scenario_path("demo_finite_time"), True),
    }
    for name, (path, well_posed) in configs.items():
        out = tmp_path / name
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["run", "--config", str(path), "--t-end", "0.01", "--out", str(out)]) == 0
        doc = json.loads((out / "oracle.json").read_text())
        assert doc["well_posed"] is well_posed
        assert (doc["det_qc"] > simulation.WELL_POSED_DET) is well_posed
        assert (doc["transform_bias"] is not None) is well_posed
        if not well_posed:
            # every error cell of every row, between t and V, reads nan
            lines = (out / "trace.csv").read_text().splitlines()
            header, *rows = (line.split(",") for line in lines)
            assert header[1:-1] == ["orient_err_1", "orient_err_2", "pos_err_1_2"]
            assert rows and all(row[1:-1] == ["nan"] * 3 for row in rows)


def test_non_finite_state_stops_the_run(tmp_path, capsys):
    # RK4 at dt = 3 diverges; the run stops with one error line instead of
    # writing a trace of NaNs with exit code 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([
            "run", "--config", str(bundled_scenario_path("demo_asymptotic")),
            "--dt", "3", "--t-end", "30000", "--stride", "1000", "--out", str(tmp_path / "out"),
        ])
    err = capsys.readouterr().err.splitlines()
    assert code == 1 and len(err) == 1
    assert err[0].startswith("error: integration: ") and "at step 1000 " in err[0]
    assert not (tmp_path / "out").exists()


def test_start_too_large_for_v0_is_one_error_line_not_blamed_on_dt(tmp_path, capsys):
    # a translation of 1e160 is finite, but V0 overflows: the run printed
    # numpy's overflow warning and then an error asking for a smaller dt
    code, err = run_edited_demo(
        tmp_path, capsys, lambda d: d["agents"][0].update(translation=[1e160, 0.0, 0.0])
    )
    assert code == 1 and len(err) == 1
    assert err[0].startswith("error: initial state: ") and "too large" in err[0]
    assert "dt" not in err[0]
    assert not (tmp_path / "out").exists()


def strict_json(path: Path):
    """The document in path, parsed by a reader that refuses NaN and Infinity."""
    def refuse(name):
        raise ValueError(f"{path}: {name} is not JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


def test_settling_bound_too_large_for_a_float_is_null(tmp_path, capsys):
    # at alpha = 1e-310 the bound 2 V0^(a/2) / (kappa a) overflows: both
    # JSON files held Infinity, which a strict parser refuses
    flags = ("--alpha", "1e-310", "--t-end", "0.05")
    code, err = run_edited_demo(tmp_path, capsys, lambda d: None, *flags)
    assert code == 0 and err == []
    out = tmp_path / "out"
    for name in ("oracle.json", "summary.json"):
        doc = strict_json(out / name)
        assert doc["settling_bound"] is None and doc["settling_bound_optimistic"] is None
    assert strict_json(out / "summary.json")["alpha"] == 1e-310
    assert report([str(out / "summary.json")]) == 0
    row = capsys.readouterr().out.splitlines()[-1].split()
    assert row[:2] == ["out", "finite"] and row[5] == "-"


@pytest.mark.parametrize(
    "field, value",
    [("translation", 1.45e154), ("translation", 1.3e154), ("linear_velocity", 1e156)],
    ids=["translation-1.45e154", "translation-1.3e154", "linear-velocity-1e156"],
)
def test_start_past_the_magnitude_bound_is_one_error_line(tmp_path, capsys, field, value):
    # at a translation of 1.45e154, or a linear velocity of 1e156, V0 was
    # finite but a squared link distance overflowed: numpy warned, the run
    # exited 0 and trace.csv held inf. 1.3e154 ran clean, its squared link
    # distance 6 % below the largest float; all three now fail the bound
    # before anything is integrated
    code, err = run_edited_demo(
        tmp_path, capsys, lambda d: d["agents"][0].update({field: [value, 0.0, 0.0]}),
        "--t-end", "0.01",
    )
    assert code == 1 and len(err) == 1
    assert err[0].startswith("error: initial state: agent 1 is too large: ")
    assert err[0].endswith(f", over the limit {simulation.MAX_MAGNITUDE:g}")
    assert not (tmp_path / "out").exists()


def test_largest_admitted_translation_runs_finite(tmp_path, capsys):
    # agent 1 at the bound itself runs, and every number it writes is finite;
    # one float further out is refused
    limit = simulation.MAX_MAGNITUDE

    def at(x):
        return lambda d: d["agents"][0].update(translation=[x, 0.0, 0.0])

    code, err = run_edited_demo(tmp_path, capsys, at(np.nextafter(limit, math.inf)))
    assert code == 1 and len(err) == 1 and "too large" in err[0]
    code, err = run_edited_demo(tmp_path, capsys, at(limit), "--t-end", "0.05", "--full-state")
    assert code == 0 and err == []
    out = tmp_path / "out"
    for name in ("trace.csv", "state.csv"):
        table = np.loadtxt(out / name, delimiter=",", skiprows=1)
        assert table.shape[0] > 0 and np.isfinite(table).all(), name
    oracle, summary = (strict_json(out / name) for name in ("oracle.json", "summary.json"))
    assert oracle["well_posed"] and limit**2 / 4 < oracle["v0"] < limit**2
    assert 0.0 < summary["final_max_position_error"] < math.inf


def test_runaway_twist_stops_the_run(tmp_path, capsys):
    # an angular velocity of 1e200 overflows the truth exponential; it used
    # to end in a ValueError traceback from the rotation check (a numpy
    # warning would fail the test: the suite runs with warnings as errors)
    code, err = run_edited_demo(
        tmp_path, capsys, lambda d: d["agents"][1].update(angular_velocity=[1e200, 0.0, 0.0])
    )
    assert code == 1 and len(err) == 1
    assert err[0].startswith("error: integration: ") and "agent 2 " in err[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "sub, reason", [("", "File exists"), ("sub", "Not a directory")], ids=["file", "under-file"]
)
def test_out_that_cannot_be_a_directory_is_one_error_line(tmp_path, capsys, sub, reason):
    # --out naming an existing file, or a path under one, used to end in a
    # FileExistsError or NotADirectoryError traceback
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    out = blocker / sub if sub else blocker
    capsys.readouterr()
    code = main([
        "run", "--config", str(bundled_scenario_path("demo_finite_time")),
        "--t-end", "0.05", "--out", str(out),
    ])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.splitlines() == [f"error: {out}: {reason}"]
    assert blocker.read_text() == "kept\n"


def test_oversized_trace_rejected(tmp_path, capsys):
    # 1e10 samples: about 10 TB of trace, refused before anything is allocated
    capsys.readouterr()
    code = main([
        "run", "--config", str(bundled_scenario_path("demo_asymptotic")),
        "--dt", "1e-9", "--t-end", "10", "--stride", "1", "--out", str(tmp_path / "out"),
    ])
    err = capsys.readouterr().err.splitlines()
    assert code == 1 and len(err) == 1
    assert err[0].startswith("error: integration: ")
    assert "GiB" in err[0] and "larger stride" in err[0]


def test_step_work_rejected_before_integration(tmp_path, capsys, monkeypatch):
    # 1e10 RK4 steps in 11 samples pass the trace bound; the predicted step
    # work is refused before the kernel is built, so nothing integrates
    def no_kernel(_s):
        raise AssertionError("integration started")

    monkeypatch.setattr(simulation, "_make_rhs", no_kernel)
    capsys.readouterr()
    code = main([
        "run", "--config", str(bundled_scenario_path("demo_asymptotic")),
        "--dt", "1e-9", "--t-end", "10", "--stride", "1000000000", "--out", str(tmp_path / "out"),
    ])
    err = capsys.readouterr().err.splitlines()
    assert code == 1 and len(err) == 1
    assert err[0].startswith("error: integration: 10000000000 steps ")
    assert "1.58e+12 units of step work" in err[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--t-end", "1e300"],
         "error: integration: the trace of 1e+302 samples would take 1.03e+296 GiB, "
         "over the 1 GiB limit; use a larger stride"),
        (["--t-end", "1e300", "--stride", str(10**300)],
         "error: integration: 1e+303 steps over 4 agents and 4 edges predict 1.58e+305 "
         "units of step work, over the 1e+10 limit; use a larger dt or a smaller t_end"),
    ],
    ids=["trace-bound", "step-work-bound"],
)
def test_size_bound_past_16_digits_prints_its_count_to_3(tmp_path, capsys, flags, message):
    # a count of about 300 digits prints as 3 significant ones, on one short line
    capsys.readouterr()
    code = main([
        "run", "--config", str(bundled_scenario_path("demo_asymptotic")),
        *flags, "--out", str(tmp_path / "out"),
    ])
    err = capsys.readouterr().err.splitlines()
    assert code == 1 and err == [message] and len(err[0]) < 160


def test_step_count_overflow_rejected(tmp_path, capsys):
    capsys.readouterr()
    code = main([
        "run", "--config", str(bundled_scenario_path("demo_asymptotic")),
        "--dt", "5e-324", "--t-end", "1e300", "--out", str(tmp_path / "out"),
    ])
    err = capsys.readouterr().err.splitlines()
    assert code == 1 and len(err) == 1 and err[0].startswith("error: override: ")


def _f17(x: float) -> str:
    return f"{x:.17g}"


def write_trace_csv_oracle(trace: Trace, path):
    """Per-element trace.csv writer: one f-string per value."""
    n = trace.orientation_errors.shape[1]
    cols = ["t"]
    cols += [f"orient_err_{i}" for i in range(1, n + 1)]
    cols += [f"pos_err_{i}_{j}" for i, j in trace.scenario.topo.links]
    cols += ["V"]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for k in range(len(trace.times)):
            row = [_f17(trace.times[k])]
            row += [_f17(x) for x in trace.orientation_errors[k]]
            row += [_f17(x) for x in trace.position_errors[k]]
            row.append(_f17(trace.lyapunov[k]))
            fh.write(",".join(row) + "\n")


def write_state_csv_oracle(trace: Trace, path):
    """Per-element state.csv writer, reconstructing one sample at a time."""
    n = trace.truth.shape[1]
    cols = ["t", "agent"]
    for tag in ("T", "P", "S", "That"):
        cols += [f"{tag}_{r}{c}" for r in range(4) for c in range(4)]
    cols += ["valid"]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for k in range(len(trace.times)):
            tt, pp = trace.truth[k], trace.aux[k]
            estimates, valid = reconstruct(pp, trace.scenario.reconstruction)
            blocks = (tt, pp, tt @ pp, estimates)
            for i in range(n):
                row = [_f17(trace.times[k]), str(i + 1)]
                for block in blocks:
                    row += [_f17(x) for x in block[i].ravel()]
                row.append("1" if valid[i] else "0")
                fh.write(",".join(row) + "\n")


def awkward_trace(mode: ReconstructionMode, k: int = 45, n: int = 3) -> Trace:
    """A trace with NaN and infinite values, a -0.0 entry and invalid reconstructions."""
    rng = np.random.default_rng(17)
    truth, aux = rng.standard_normal((2, k, n, 4, 4))
    truth[..., 3, :] = aux[..., 3, :] = (0.0, 0.0, 0.0, 1.0)
    truth[2, 0, 0, 1] = -0.0
    aux[3, 1, :3, :3] = 0.0       # degenerate in both modes
    aux[9, 2, :3, 0] = 0.0
    orient = rng.random((k, n))
    pos = rng.random((k, 2))
    orient[3, 1] = pos[3, 0] = np.nan
    orient[9, 2] = pos[9] = np.nan
    orient[5, 0] = -0.0
    lyap = rng.random(k)
    lyap[7] = np.inf
    s = Scenario(
        topo=Topology.undirected(n, [(i, i + 1) for i in range(1, n)]),
        initial_poses=(identity_pose(),) * n,
        twists=(zero_twist(),) * n,
        law=Asymptotic(),
        dt=0.1,
        t_end=(k - 1) * 0.1,
        seed=0,
        stride=1,
        reconstruction=mode,
    )
    trace = Trace(scenario=s, report=oracle_report(s), truth=truth, aux=aux, lyapunov=lyap)
    # the errors a trace derives on first read, seeded with the awkward values
    vars(trace)["_errors"] = (orient, pos)
    return trace


@pytest.mark.parametrize("block", [None, 8])
@pytest.mark.parametrize("mode", list(ReconstructionMode))
def test_csv_writers_match_per_element_oracles(tmp_path, monkeypatch, mode, block):
    # 45 samples of 3 agents: two blocks of 42 and 3 samples by default,
    # or 2 samples per block with the last one half full; one walk writes
    # both files, and the awkward errors reach it block by block through
    # error_metrics, in the order of the samples
    if block is not None:
        monkeypatch.setattr(simulation, "BLOCK_MATRICES", block)
    trace = awkward_trace(mode)
    assert trace.report.transform_bias is not None
    orient, pos = trace.orientation_errors, trace.position_errors
    served = [0]

    def awkward_errors(truth, estimates, valid, r_c, links):
        b = slice(served[0], served[0] + len(truth))
        assert np.array_equal(truth, trace.truth[b], equal_nan=True)
        served[0] = b.stop
        return orient[b], pos[b]

    monkeypatch.setattr(simulation, "error_metrics", awkward_errors)
    (tmp_path / "new").mkdir()
    last = _write_tables(trace, trace.times, tmp_path / "new", full_state=True)
    assert served[0] == 45 and last.samples.stop == 45
    assert np.array_equal(last.orient, orient[last.samples], equal_nan=True)

    def same(name, oracle) -> list:
        oracle(trace, tmp_path / name)
        got = (tmp_path / "new" / name).read_bytes()
        assert got == (tmp_path / name).read_bytes()
        return [row.split(",") for row in got.decode().splitlines()]

    rows = same("trace.csv", write_trace_csv_oracle)
    assert rows[1 + 3][2] == "nan" and rows[1 + 5][1] == "-0" and rows[1 + 7][-1] == "inf"
    rows = same("state.csv", write_state_csv_oracle)
    assert len(rows) == 1 + 45 * 3
    assert rows[1 + 3 * 3 + 1][-1] == rows[1 + 9 * 3 + 2][-1] == "0" and rows[1][-1] == "1"
    assert rows[1 + 2 * 3][3] == "-0"
    # without --full-state the same walk writes trace.csv alone
    (tmp_path / "alone").mkdir()
    served[0] = 0
    _write_tables(trace, trace.times, tmp_path / "alone", full_state=False)
    assert [f.name for f in (tmp_path / "alone").iterdir()] == ["trace.csv"]
    assert (tmp_path / "alone" / "trace.csv").read_bytes() == (tmp_path / "trace.csv").read_bytes()


# Property tests of the file boundary: any valid scenario survives a save and
# a load exactly, and any single field set to a value that must fail stops
# `framelocal run` with one error line before anything is written.

FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def scenarios(draw) -> Scenario:
    n = draw(st.integers(1, 5))
    pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1])
    edges = draw(st.sets(pairs, max_size=8))
    if draw(st.booleans()):
        topo = Topology(n, tuple(edges))
    else:
        topo = Topology.undirected(n, {tuple(sorted(e)) for e in edges})
    rotations = seeded_rotations(n, draw(st.integers(0, 2**32)))
    vectors = draw(arrays(np.float64, (3, n, 3), elements=FINITE))
    law = draw(st.one_of(
        st.just(Asymptotic()),
        st.builds(
            FiniteTime,
            alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            epsilon=st.floats(0.0, exclude_min=True, allow_infinity=False),
        ),
    ))
    dt = draw(st.floats(0.0, exclude_min=True, allow_infinity=False))
    t_end = draw(st.floats(dt, allow_infinity=False))
    assume(not math.isinf(t_end / dt))
    return Scenario(
        topo=topo,
        initial_poses=tuple(Pose(r, p) for r, p in zip(rotations, vectors[0])),
        twists=tuple(Twist(v, w) for v, w in zip(vectors[1], vectors[2])),
        law=law,
        dt=dt,
        t_end=t_end,
        seed=draw(st.integers(0, 2**64)),
        stride=draw(st.integers(1, 2**40)),
        reconstruction=draw(st.sampled_from(ReconstructionMode)),
    )


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# a fixed alphabet with the characters JSON must escape (st.text() would
# first build a charmap, several seconds on one core)
@given(scenarios(), st.text(alphabet='ab "\\/\n\t\x00\u00e9\u2713\U0001f600'))
def test_save_load_round_trip_is_exact(s, description):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "s.json"
        save_scenario(s, path, description=description)
        back = load_scenario(path)
    assert (back.topo.n, back.topo.edges, back.topo.directed) == (
        s.topo.n, s.topo.edges, s.topo.directed
    )
    for a, b in zip(back.initial_poses, s.initial_poses, strict=True):
        assert same_bits(a.matrix, b.matrix)
    for a, b in zip(back.twists, s.twists, strict=True):
        assert same_bits(a.linear, b.linear) and same_bits(a.angular, b.angular)
    assert back.law == s.law and type(back.law) is type(s.law)
    assert (back.dt, back.t_end, back.seed, back.stride, back.reconstruction) == (
        s.dt, s.t_end, s.seed, s.stride, s.reconstruction
    )


# exact rotations, two of them written with ints and -0.0
EXACT_ROTATIONS = (
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[0, -1, 0], [1, 0, 0], [0, 0, 1]],
    [[-1.0, 0.0, -0.0], [0, -1, 0], [0.0, 0, 1]],
)


@st.composite
def agent_lists(draw) -> list:
    """Entries of 1 to 4 valid agents whose vectors mix ints of any size and floats."""
    vector = st.lists(st.integers(-(2**70), 2**70) | FINITE, min_size=3, max_size=3)
    return [
        {
            "rotation": draw(st.sampled_from(EXACT_ROTATIONS)),
            "translation": draw(vector),
            "linear_velocity": draw(vector),
            "angular_velocity": draw(vector),
        }
        for _ in range(draw(st.integers(1, 4)))
    ]


def agents_one_by_one(agents: list) -> tuple:
    """Oracle: (poses, twists), validated agent by agent; a ConfigurationError
    names the first agent that fails and the first check it fails."""
    poses, twists = [], []
    for idx, a in enumerate(agents, start=1):
        where = f"agents[{idx}]"
        cli._require_keys(a, where, cli._AGENT_KEYS)
        with cli._section(where):
            for key, value in a.items():
                cli._numbers(value, key)
            poses.append(Pose(Rotation(a["rotation"]), a["translation"]))
            twists.append(Twist(a["linear_velocity"], a["angular_velocity"]))
    return poses, twists


# one fault each, as a new agent built from a valid one
AGENT_FAULTS = {
    "missing-key": lambda a: {k: v for k, v in a.items() if k != "translation"},
    "unknown-key": lambda a: {**a, "bogus": 1},
    "not-an-object": lambda a: [a],
    "bool-leaf": lambda a: {**a, "translation": [True, 0, 0]},
    "string-leaf": lambda a: {**a, "linear_velocity": [0, "1", 0]},
    "null-leaf": lambda a: {**a, "rotation": [[1, 0, 0], [0, 1, 0], [0, 0, None]]},
    "ragged-row": lambda a: {**a, "rotation": [[1, 0, 0], [0, 1], [0, 0, 1]]},
    "fourth-row": lambda a: {**a, "rotation": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]]},
    "list-leaf": lambda a: {**a, "translation": [[0], 0, 0]},
    "number-for-vector": lambda a: {**a, "linear_velocity": 0.0},
    "long-vector": lambda a: {**a, "angular_velocity": [0, 0, 0, 0]},
    "nan": lambda a: {**a, "angular_velocity": [float("nan"), 0, 0]},
    "inf": lambda a: {**a, "translation": [0, float("inf"), 0]},
    "int-beyond-float": lambda a: {**a, "linear_velocity": [0, -(2**1024), 0]},
    "int-beyond-float-in-rotation":
        lambda a: {**a, "rotation": [[1, 0, 0], [0, -(2**1024), 0], [0, 0, 1]]},
    "not-orthonormal": lambda a: {**a, "rotation": NOT_ORTHONORMAL},
    "reflection": lambda a: {**a, "rotation": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]},
}


@st.composite
def faulty_agent_lists(draw) -> list:
    """Agent lists of which none, one or two entries carry a fault, anywhere."""
    agents = draw(agent_lists())
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        k = draw(st.integers(0, len(agents) - 1))
        agents[k] = AGENT_FAULTS[draw(st.sampled_from(sorted(AGENT_FAULTS)))](agents[k])
    return agents


def agent_at(translation) -> dict:
    return {"rotation": EXACT_ROTATIONS[0], "translation": translation,
            "linear_velocity": [0, 0, 0], "angular_velocity": [0, 0, 0]}


@given(faulty_agent_lists())
# the largest int a float holds, rounded to the largest finite float, and the
# smallest that rounds to inf
@example([agent_at([2**1024 - 2**970 - 1, 0, 0])])
@example([agent_at([0, 0, 0]), agent_at([0, -(2**1024 - 2**970), 0])])
def test_stacked_agents_equal_the_checked_objects(agents):
    # valid agents: the objects hold rows of the stacks, each value converted
    # as the per-agent objects convert it and read-only like theirs; a fault
    # anywhere: the stacks flag the oracle's first agent, whose own check
    # raises the oracle's message
    try:
        want_poses, want_twists = agents_one_by_one(agents)
    except ConfigurationError as err:
        with pytest.raises(ConfigurationError) as got:
            cli._agents(agents)
        assert str(got.value) == str(err)
        return
    poses, twists = cli._agents(agents)
    for got, want in zip(poses, want_poses, strict=True):
        assert same_bits(got.rotation.r, want.rotation.r)
        assert same_bits(got.translation, want.translation)
        assert not (got.rotation.r.flags.writeable or got.translation.flags.writeable)
    for got, want in zip(twists, want_twists, strict=True):
        assert same_bits(got.linear, want.linear) and same_bits(got.angular, want.angular)
        assert not (got.linear.flags.writeable or got.angular.flags.writeable)


FAULT_NAMES = sorted(AGENT_FAULTS)


@pytest.mark.parametrize("fault, first", [
    *(pytest.param(fault, False, id=fault) for fault in FAULT_NAMES),
    *(pytest.param(fault, True, id=f"{fault}-first") for fault in FAULT_NAMES),
])
def test_each_agent_fault_is_flagged_at_its_agent(fault, first):
    # every fault of the list above, alone on the last of three agents, or on
    # the first of three with the fault before it in the list on the third
    agents = [agent_at([0, 0, 0]) for _ in range(3)]
    if first:
        agents[0] = AGENT_FAULTS[fault](agents[0])
        fault = FAULT_NAMES[FAULT_NAMES.index(fault) - 1]
    agents[2] = AGENT_FAULTS[fault](agents[2])
    with pytest.raises(ConfigurationError) as want:
        agents_one_by_one(agents)
    assert str(want.value).startswith("agents[1]: " if first else "agents[3]: ")
    with pytest.raises(ConfigurationError) as got:
        cli._agents(agents)
    assert str(got.value) == str(want.value)


NAN, INF = float("nan"), float("inf")
NOT_A_NUMBER = [NAN, INF, True, "1"]
# invalid values per field, keyed by the name of the innermost object key
# above the leaf (every entry of "rotation" is keyed "rotation")
INVALID = {
    "n": NOT_A_NUMBER + [2.5, -1],
    "edges": NOT_A_NUMBER + [2.5, -1],
    "stride": NOT_A_NUMBER + [2.5, -1],
    "seed": NOT_A_NUMBER + [2.5, -1],
    "dt": NOT_A_NUMBER + [-1.0],
    "t_end": NOT_A_NUMBER + [-1.0],
    "alpha": NOT_A_NUMBER + [-1.0],
    "epsilon": NOT_A_NUMBER + [-1.0],
    "rotation": NOT_A_NUMBER,
    "translation": NOT_A_NUMBER,
    "linear_velocity": NOT_A_NUMBER,
    "angular_velocity": NOT_A_NUMBER,
    "directed": [NAN, INF, "no", 2.5, -1, 0],
    "name": ["bogus", True, 1],
    "reconstruction": ["bogus", True, 1],
    "description": [True, 1.5, ["text"]],
}
OPTIONAL = {"description", "alpha", "epsilon"}


def walk(doc, path=()):
    """(path, key, node) of every node below doc; key is the innermost object key."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for k, v in items:
        here = path + (k,)
        key = next(x for x in reversed(here) if isinstance(x, str))
        yield here, key, v
        if isinstance(v, (dict, list)):
            yield from walk(v, here)


def node_at(doc, path):
    for k in path:
        doc = doc[k]
    return doc


@st.composite
def broken_demos(draw) -> tuple:
    """(what, doc): a bundled demo with one field made invalid, and how."""
    doc = json.loads(bundled_scenario_path(draw(st.sampled_from(
        ["demo_asymptotic", "demo_finite_time"]
    ))).read_text())
    nodes = list(walk(doc))
    kind = draw(st.sampled_from(["value", "missing", "unknown"]))
    if kind == "value":
        leaves = {}
        for path, key, v in nodes:
            if not isinstance(v, (dict, list)):
                leaves.setdefault(key, []).append(path)
        key = draw(st.sampled_from(sorted(leaves)))
        path = draw(st.sampled_from(leaves[key]))
        value = draw(st.sampled_from(INVALID[key]))
        node_at(doc, path[:-1])[path[-1]] = value
        return (path, value), doc
    objects = [()] + [path for path, _, v in nodes if isinstance(v, dict)]
    path = draw(st.sampled_from(objects))
    target = node_at(doc, path)
    if kind == "unknown":
        target["bogus"] = 1
        return (path, "unknown key"), doc
    key = draw(st.sampled_from(sorted(set(target) - OPTIONAL)))
    del target[key]
    return (path, f"missing {key}"), doc


@settings(max_examples=150)
@given(broken_demos())
def test_any_invalid_field_stops_the_run_with_one_error_line(case):
    what, doc = case
    with tempfile.TemporaryDirectory() as d:
        path, out = Path(d) / "s.json", Path(d) / "out"
        path.write_text(json.dumps(doc))
        code, stdout, err = main_output(["run", "--config", str(path), "--out", str(out)])
        assert code == 1, what
        assert len(err) == 1 and err[0].startswith("error: "), (what, err)
        assert stdout == ""
        assert not out.exists()


@st.composite
def invalid_overrides(draw) -> list:
    """argv of `framelocal run` on a bundled demo with one override flag set
    to an invalid value that argparse still accepts."""
    path = bundled_scenario_path(draw(st.sampled_from(["demo_asymptotic", "demo_finite_time"])))
    integration = json.loads(path.read_text())["integration"]
    dt, t_end = integration["dt"], integration["t_end"]
    non_finite = st.sampled_from([NAN, INF, -INF])
    non_positive = st.floats(max_value=0.0, allow_nan=False)
    flag, value = draw(st.one_of(
        st.tuples(st.just("--dt"), st.one_of(
            non_finite,
            non_positive,
            st.floats(min_value=t_end, exclude_min=True, allow_infinity=False),
            st.floats(min_value=5e-324, max_value=t_end / 1e308 / 2),  # t_end / dt overflows
        )),
        st.tuples(st.just("--t-end"), st.one_of(
            non_finite,
            non_positive,
            st.floats(min_value=0.0, max_value=dt, exclude_min=True, exclude_max=True),
            st.floats(min_value=dt * 1e308 * 2, allow_infinity=False),  # t_end / dt overflows
        )),
        st.tuples(st.just("--alpha"), st.one_of(
            non_finite, non_positive, st.floats(min_value=1.0, allow_infinity=False)
        )),
        st.tuples(st.just("--seed"), st.integers(max_value=-1)),
        st.tuples(st.just("--stride"), st.integers(max_value=0)),
    ))
    # "--flag=value": argparse would read a separate "-inf" as an option
    return ["run", "--config", str(path), f"{flag}={value!r}"]


@settings(max_examples=100)
@given(invalid_overrides())
def test_any_invalid_override_stops_the_run_with_one_error_line(argv):
    with tempfile.TemporaryDirectory() as d:
        out = Path(d) / "out"
        code, stdout, err = main_output([*argv, "--out", str(out)])
        assert code == 1, argv
        assert len(err) == 1 and err[0].startswith("error: "), (argv, err)
        assert stdout == ""
        assert not out.exists()
