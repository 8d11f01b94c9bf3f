"""Importing the package, running scenarios, reporting and the closed-form
oracle never load SciPy; the package needs numpy alone. A run or report
that succeeds writes nothing to stderr, not even a warning, and a refused
start writes one ``error:`` line and no traceback.

Each check runs in a fresh interpreter, because the test suite itself
imports scipy.linalg, so this process's sys.modules says nothing about
what the package loads.
"""

import os
import subprocess
import sys
from pathlib import Path

from framelocal.cli import bundled_scenario_path, load_scenario
from framelocal.simulation import closed_form_aligned

SRC = Path(__file__).resolve().parents[1] / "src"
CLOSED_FORM_T = 1.5

LOADED_SCIPY = 'sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))'

RUN_AND_REPORT = f"""
import sys
import framelocal
from framelocal import cli
for name in ("demo_asymptotic", "demo_finite_time"):
    path = str(cli.bundled_scenario_path(name))
    assert cli.main(["run", "--config", path, "--out", name, "--full-state"]) == 0
assert cli.main(["report", "demo_asymptotic/summary.json", "demo_finite_time/summary.json"]) == 0
print({LOADED_SCIPY})
"""

CLOSED_FORM = f"""
import sys
from framelocal.cli import bundled_scenario_path, load_scenario
from framelocal.simulation import closed_form_aligned
s = load_scenario(bundled_scenario_path("demo_asymptotic"))
assert {LOADED_SCIPY} == []
flow = closed_form_aligned(s, {CLOSED_FORM_T!r})
assert {LOADED_SCIPY} == []
sys.stdout.buffer.write(flow.tobytes())
"""


REFUSED_START = """
import json, sys
from framelocal import cli
doc = json.loads(cli.bundled_scenario_path("demo_finite_time").read_text())
doc["agents"][0]["translation"] = [1.45e154, 0.0, 0.0]
with open("edited.json", "w", encoding="utf-8") as fh:
    json.dump(doc, fh)
sys.exit(cli.main(["run", "--config", "edited.json", "--out", "out"]))
"""


def fresh_process(code: str, cwd: Path) -> subprocess.CompletedProcess:
    """code run by a new interpreter that imports framelocal from src, with
    warnings as errors."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        timeout=300,
        check=False,
    )


def fresh_python(code: str, cwd: Path) -> bytes:
    """Standard output of code run by ``fresh_process``; a run that succeeds
    leaves stderr empty."""
    done = fresh_process(code, cwd)
    assert done.returncode == 0 and done.stderr == b"", done.stderr.decode()
    return done.stdout


def test_run_and_report_never_load_scipy(tmp_path):
    out = fresh_python(RUN_AND_REPORT, tmp_path).decode().splitlines()
    assert out[-1] == "[]"
    for name in ("demo_asymptotic", "demo_finite_time"):
        assert (tmp_path / name / "state.csv").is_file()


def test_closed_form_never_loads_scipy_and_matches_in_process(tmp_path):
    s = load_scenario(bundled_scenario_path("demo_asymptotic"))
    expected = closed_form_aligned(s, CLOSED_FORM_T).tobytes()
    assert fresh_python(CLOSED_FORM, tmp_path) == expected


def test_refused_start_is_one_error_line_with_warnings_as_errors(tmp_path):
    # agent 1 at 1.45e154 overflowed a squared link distance: numpy's warning
    # became a traceback under -W error. The magnitude bound refuses it first
    done = fresh_process(REFUSED_START, tmp_path)
    err = done.stderr.decode().splitlines()
    assert done.returncode == 1 and len(err) == 1 and err[0].startswith("error: "), err
    assert not (tmp_path / "out").exists()
