"""Bundled demonstration scenarios.

The two files under ``scenarios/`` are the one definition of the demos: four
agents on screw trajectories, three spinning about different body axes
while translating and the fourth translating without rotating.
``demo_asymptotic.json`` runs the asymptotic law on a ring-with-chord
digraph and ``demo_finite_time.json`` the finite-time law on a square. Their
initial orientations are ``seeded_rotations(4, DEMO_ROTATION_SEED)``, each
the orthonormalization of a seeded random matrix. ``demo_scenario`` loads
one of the files and replaces only the values it is given.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .cli import bundled_scenario_path, load_scenario
from .estimators import FiniteTime, Law
from .se3 import DegenerateInputError, Pose, gsop
from .simulation import Scenario

DEMO_ROTATION_SEED = 2357   # the seed of the bundled files' rotations


def seeded_rotations(n: int, seed: int) -> tuple:
    """Reproducible random rotations: orthonormalized uniform(-1, 1) matrices."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        try:
            out.append(gsop(rng.uniform(-1.0, 1.0, (3, 3))))
        except DegenerateInputError:
            continue
    return tuple(out)


def demo_scenario(
    law: Law | None = None,
    seed: int | None = None,
    dt: float | None = None,
    t_end: float | None = None,
    stride: int | None = None,
    rotation_seed: int = DEMO_ROTATION_SEED,
) -> Scenario:
    """The bundled four-agent scenario under either law.

    A FiniteTime law loads ``demo_finite_time.json`` (the undirected square);
    any other law, or None for the file's asymptotic law, loads
    ``demo_asymptotic.json`` (the directed ring with a chord). Each of law,
    seed, dt, t_end and stride replaces the file's value unless it is None;
    the reconstruction mode is the file's. Another rotation_seed replaces
    the initial orientations with ``seeded_rotations(4, rotation_seed)`` and
    keeps the file's translations and twists.
    """
    finite = isinstance(law, FiniteTime)
    s = load_scenario(bundled_scenario_path("demo_finite_time" if finite else "demo_asymptotic"))
    given = {"law": law, "seed": seed, "dt": dt, "t_end": t_end, "stride": stride}
    changes = {name: value for name, value in given.items() if value is not None}
    if rotation_seed != DEMO_ROTATION_SEED:
        rotations = seeded_rotations(4, rotation_seed)
        changes["initial_poses"] = [Pose(r, p.translation) for r, p in zip(rotations, s.initial_poses)]
    return dataclasses.replace(s, **changes)
