"""The bundled demos' outputs, and the kernel's stacks on two larger graphs,
byte for byte, against committed digests."""

import contextlib
import hashlib
import io
from pathlib import Path

import numpy as np

from framelocal import Topology
from framelocal.cli import bundled_scenario_path, main
from framelocal.estimators import Asymptotic, FiniteTime
from framelocal.simulation import run
from conftest import make_scenario

DIGESTS = Path(__file__).with_name("demo_outputs.sha256")
KERNEL_DIGESTS = Path(__file__).with_name("kernel_outputs.sha256")
DEMOS = ("demo_asymptotic", "demo_finite_time")
MODES = ("twocol", "full")
FILES = ("trace.csv", "state.csv", "summary.json", "oracle.json")


def committed_digests(path: Path = DIGESTS) -> dict:
    """{name: sha256 hex} from a fixture in sha256sum format."""
    pairs = (line.split() for line in path.read_text(encoding="utf-8").splitlines())
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


def rooted_digraph(n: int, ring: int, in_degree: int, seed: int) -> Topology:
    """Digraph rooted in a directed ring of the `ring` highest agents; every
    other agent i hears `in_degree` seeded agents numbered above it."""
    rng = np.random.default_rng(seed)
    first = n - ring + 1
    edges = [(i, i + 1 if i < n else first) for i in range(first, n + 1)]
    for i in range(1, first):
        edges += [(i, int(j)) for j in rng.choice(np.arange(i + 1, n + 1), in_degree, replace=False)]
    return Topology(n, tuple(edges))


def ring_with_chords(n: int, chords: int, seed: int) -> Topology:
    """Undirected ring over n agents plus `chords` distinct seeded extra links."""
    rng = np.random.default_rng(seed)
    links = {(min(i, i % n + 1), max(i, i % n + 1)) for i in range(1, n + 1)}
    target = len(links) + chords
    while len(links) < target:
        i, j = sorted(int(x) for x in rng.integers(1, n + 1, 2))
        if i != j:
            links.add((i, j))
    return Topology.undirected(n, sorted(links))


def test_kernel_stacks_match_committed_digests():
    """``run`` on a 64-agent digraph rooted in an 8-ring (asymptotic law) and
    on a 512-agent ring with 256 chords (finite-time law) stores truth, aux
    and V that hash to the committed ``kernel_outputs.sha256``.

    Neither graph is one the demos reach: the digraph has no mirror rows and
    receivers far from their senders, and on the ring agents sum up to eight
    senders on both sides of their own index, which pins the kernel's
    sorted-edge summation order. The toolchain caveat of the demo digests
    holds here too. Regenerate the fixture only with a change that means to
    alter the kernel's arithmetic.
    """
    cases = {
        "rooted_digraph_64": make_scenario(
            rooted_digraph(64, 8, 2, seed=11), seed=12, law=Asymptotic(),
            dt=1e-2, t_end=0.4, stride=4,
        ),
        "ring_chords_512": make_scenario(
            ring_with_chords(512, 256, seed=13), seed=14, law=FiniteTime(alpha=0.5),
            dt=1e-3, t_end=0.03, stride=6,
        ),
    }
    got = {}
    for name, s in cases.items():
        trace, _ = run(s)
        for field in ("truth", "aux", "lyapunov"):
            got[f"{name}/{field}"] = hashlib.sha256(getattr(trace, field).tobytes()).hexdigest()
    assert got == committed_digests(KERNEL_DIGESTS)
