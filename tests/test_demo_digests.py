"""The bundled demos' outputs, byte for byte, against committed digests."""

import contextlib
import hashlib
import io
from pathlib import Path

from framelocal.cli import bundled_scenario_path, main

DIGESTS = Path(__file__).with_name("demo_outputs.sha256")
DEMOS = ("demo_asymptotic", "demo_finite_time")
MODES = ("twocol", "full")
FILES = ("trace.csv", "state.csv", "summary.json", "oracle.json")


def committed_digests() -> dict:
    """{"<demo>_<mode>/<file>": sha256 hex} from the fixture, in sha256sum format."""
    pairs = (line.split() for line in DIGESTS.read_text(encoding="utf-8").splitlines())
    return {name: digest for digest, name in pairs}


def test_demo_outputs_match_committed_digests(tmp_path):
    """Both demos x both reconstruction modes x all four files of
    ``framelocal run --full-state``, regenerated in process through
    ``cli.main``, hash to the committed ``demo_outputs.sha256``.

    The digests hold only on the toolchain they were made with: numpy 2.4
    with OpenBLAS 0.3.31, whose x86_64 kernels use FMA, on Python 3.11.
    Another BLAS or numpy build may round a product differently and move
    the last digits.
    A change that means to alter an output updates the fixture in the same
    commit and names, in CHANGES.md, the files that moved and by how much.
    Regenerate it with ``sha256sum`` over the 16 files from the directory
    holding the ``<demo>_<mode>`` output folders.
    """
    got = {}
    for demo in DEMOS:
        for mode in MODES:
            out = tmp_path / f"{demo}_{mode}"
            args = ["run", "--config", str(bundled_scenario_path(demo)), "--mode", mode,
                    "--out", str(out), "--full-state"]
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(args) == 0
            for name in FILES:
                got[f"{out.name}/{name}"] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    want = committed_digests()
    assert len(want) == 16
    moved = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert moved == []
