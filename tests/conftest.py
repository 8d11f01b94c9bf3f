"""Shared helpers: random SE(3) draws, series oracles, and graph generators."""

from __future__ import annotations

import numpy as np
import scipy.linalg
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from framelocal import (
    Pose,
    Rotation,
    Topology,
    Twist,
    analyze,
    build_laplacian,
    gsop,
    has_spanning_tree,
)
from framelocal.estimators import Asymptotic
from framelocal.scenarios import seeded_rotations
from framelocal.simulation import Scenario

# One profile for every property test: the same examples on every run, no
# wall-clock deadline (timings vary on a shared machine), a bounded count.
settings.register_profile("framelocal", derandomize=True, deadline=None, max_examples=60)
settings.load_profile("framelocal")

# Matrix entries: a few exact values make equal, opposite and zero columns,
# and so rank loss, common; the rest are arbitrary floats in [-1, 1].
ENTRY = st.sampled_from([-1.0, 0.0, 0.5, 1.0]) | st.floats(-1.0, 1.0)


def blocks(shape) -> st.SearchStrategy:
    """Arrays of the given shape with ENTRY elements."""
    return arrays(np.float64, shape, elements=ENTRY)


def stacks(rows: int, cols: int) -> st.SearchStrategy:
    """(k, n, rows, cols) arrays with 1 <= k <= 3 samples of 1 <= n <= 4 items."""
    return st.tuples(st.integers(1, 3), st.integers(1, 4)).flatmap(
        lambda kn: blocks((*kn, rows, cols))
    )


def random_rotation(rng) -> np.ndarray:
    while True:
        m = rng.uniform(-1.0, 1.0, (3, 3))
        if abs(np.linalg.det(m)) > 1e-3:
            return gsop(m).r


def make_pose(rng, span: float = 5.0) -> Pose:
    return Pose(Rotation(random_rotation(rng)), rng.uniform(-span, span, 3))


def make_twist(rng, scale: float = 0.5) -> Twist:
    return Twist(rng.uniform(-scale, scale, 3), rng.uniform(-scale, scale, 3))


def make_aux_matrix(rng) -> np.ndarray:
    """A random valid estimator matrix as a raw 4x4 array."""
    m = np.eye(4)
    m[:3, :3] = rng.uniform(-1.0, 1.0, (3, 3))
    m[:3, 3] = rng.uniform(-1.0, 1.0, 3)
    return m


def compose(a: Pose, b: Pose) -> Pose:
    """Pose product a * b."""
    return Pose(
        Rotation(a.rotation.r @ b.rotation.r),
        a.rotation.r @ b.translation + a.translation,
    )


def series_exp(m: np.ndarray, terms: int = 30) -> np.ndarray:
    """Truncated power series of the matrix exponential (independent oracle)."""
    out = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for k in range(1, terms + 1):
        term = term @ m / k
        out = out + term
    return out


def gram_schmidt_oracle(m: np.ndarray) -> np.ndarray:
    """Column-wise Gram-Schmidt with the explicit sign coefficient."""
    z = [m[:, k].astype(float) for k in range(3)]
    q1 = z[0] / np.linalg.norm(z[0])
    v2 = z[1] - (z[1] @ q1) * q1
    q2 = v2 / np.linalg.norm(v2)
    v3 = z[2] - (z[2] @ q1) * q1 - (z[2] @ q2) * q2
    u3 = v3 / np.linalg.norm(v3)
    alpha = np.sign(np.linalg.det(np.column_stack([q1, q2, u3])))
    return np.column_stack([q1, q2, alpha * u3])


def spanning_digraph(n: int, seed: int) -> Topology:
    """Random directed graph with a spanning tree and a healthy spectral gap.

    Builds a random rooted tree (each agent receives from its parent), adds
    random extra edges, and accepts the draw once the consensus flow at
    t = 40 has contracted to the weighted projector within 1e-9.
    """
    rng = np.random.default_rng(seed)
    for _ in range(200):
        order = [int(x) + 1 for x in rng.permutation(n)]
        edges = set()
        for k in range(1, n):
            parent = order[int(rng.integers(0, k))]
            edges.add((order[k], parent))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j and rng.random() < 0.45:
                    edges.add((i, j))
        topo = Topology(n, tuple(sorted(edges)), directed=True)
        if not has_spanning_tree(topo):
            continue
        lap = build_laplacian(topo)
        w1 = analyze(topo).w1
        residual = np.abs(scipy.linalg.expm(-40.0 * lap) - np.outer(np.ones(n), w1)).max()
        if residual < 1e-9:
            return topo
    raise RuntimeError(f"no well-conditioned digraph found for n={n}, seed={seed}")


def make_scenario(
    topo: Topology,
    seed: int,
    law=None,
    dt: float = 1e-3,
    t_end: float = 5.0,
    stride: int = 10,
) -> Scenario:
    """Scenario with seeded random truth poses and bounded constant twists."""
    if law is None:
        law = Asymptotic()
    rng = np.random.default_rng(seed + 7919)
    rotations = seeded_rotations(topo.n, seed + 104729)
    poses = tuple(
        Pose(r, rng.uniform(-5.0, 5.0, 3)) for r in rotations
    )
    twists = tuple(make_twist(rng) for _ in range(topo.n))
    return Scenario(
        topo=topo,
        initial_poses=poses,
        twists=twists,
        law=law,
        dt=dt,
        t_end=t_end,
        seed=seed,
        stride=stride,
    )
