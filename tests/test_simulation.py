"""Truth propagation, the integrator, oracles, and error metrics."""

import collections
import dataclasses
import json
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framelocal import (
    AuxMatrix,
    ConfigurationError,
    EstimatorState,
    Pose,
    Rotation,
    Topology,
    Twist,
    build_laplacian,
    closed_form_aligned,
    error_metrics,
    exp_se3,
    init_aux,
    inverse,
    lyapunov_chain_check,
    oracle_report,
    reconstruct,
    run,
    settling_time,
)
from framelocal import cli, graphs, simulation
from framelocal.estimators import Asymptotic, FiniteTime, ReconstructionMode
from framelocal.scenarios import demo_scenario, seeded_rotations
from framelocal.simulation import Scenario, _make_rhs, _neg_generators, footprint
from conftest import (
    compose,
    counting_reconstruct,
    identity_pose,
    identity_rotation,
    make_pose,
    make_scenario,
    make_twist,
    spanning_digraph,
    square_demo_topology,
    zero_twist,
)
from rhs_oracle import edge_rhs, edge_rk4, hat6, law_rhs, synthesize_measurements


def propagate_truth(pose: Pose, twist: Twist, dt: float) -> Pose:
    """Exact pose advance under a constant body twist."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    return compose(pose, exp_se3(twist, dt))


def kernel(s: Scenario):
    """The stacked kernel of s as a function of (tt, pp): tt goes into the
    first truth slot, and each call returns a new derivative."""
    truths, rhs = _make_rhs(s)

    def call(tt, pp):
        truths[0, :, :4] = tt
        return rhs(0, pp, np.empty(pp.shape))

    return call


def stack_of(state: EstimatorState) -> np.ndarray:
    """The (n, 4, 4) stack of an estimator state's matrices."""
    return np.stack([a.matrix for a in state.aux])


def test_propagate_zero_twist():
    rng = np.random.default_rng(30)
    p = make_pose(rng)
    out = propagate_truth(p, zero_twist(), 0.5)
    assert np.array_equal(out.matrix, p.matrix)


def test_propagate_matches_fine_rk4_on_kinematics():
    # agent-1 style screw motion from the origin, checked against RK4 on the
    # raw kinematic ODE dT = T hat6(twist) at a 100x finer step
    tw = Twist(np.array([1.0, 0.0, 0.0]), np.array([0.3, 0.0, 0.0]))
    pose = identity_pose()
    dt = 0.05
    out = propagate_truth(pose, tw, dt)

    m = pose.matrix
    gen = hat6(tw)
    h = dt / 100.0
    for _ in range(100):
        k1 = m @ gen
        k2 = (m + h / 2 * k1) @ gen
        k3 = (m + h / 2 * k2) @ gen
        k4 = (m + h * k3) @ gen
        m = m + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    assert np.abs(out.matrix - m).max() < 1e-12


def test_propagate_one_parameter_composition():
    rng = np.random.default_rng(31)
    for _ in range(10):
        p = make_pose(rng)
        tw = make_twist(rng)
        a, b = rng.uniform(0.05, 0.5, 2)
        two_step = propagate_truth(propagate_truth(p, tw, a), tw, b)
        one_step = propagate_truth(p, tw, a + b)
        assert np.abs(two_step.matrix - one_step.matrix).max() < 1e-12


def test_synthesize_identical_poses():
    rng = np.random.default_rng(32)
    p = make_pose(rng)
    topo = Topology.undirected(2, [(1, 2)])
    meas = synthesize_measurements([p, p], [zero_twist()] * 2, topo)
    assert np.abs(meas[0].rel[2].matrix - np.eye(4)).max() < 1e-12


def test_synthesize_axis_displacement():
    t1 = identity_pose()
    t2 = Pose(identity_rotation(), np.array([4.0, 0.0, 0.0]))
    topo = Topology.undirected(2, [(1, 2)])
    meas = synthesize_measurements([t1, t2], [zero_twist()] * 2, topo)
    assert np.allclose(meas[0].rel[2].translation, [4.0, 0.0, 0.0])
    assert np.allclose(meas[1].rel[1].translation, [-4.0, 0.0, 0.0])


def test_synthesize_inverse_pair():
    rng = np.random.default_rng(33)
    topo = Topology.undirected(2, [(1, 2)])
    truth = [make_pose(rng), make_pose(rng)]
    meas = synthesize_measurements(truth, [zero_twist()] * 2, topo)
    prod = compose(meas[0].rel[2], meas[1].rel[1])
    assert np.abs(prod.matrix - np.eye(4)).max() < 1e-12


def test_run_rejects_root_free_digraph():
    s = make_scenario(Topology(4, ((1, 2), (2, 1), (3, 4), (4, 3))), seed=1, t_end=0.1)
    with pytest.raises(ConfigurationError, match="spanning tree"):
        run(s)


@pytest.mark.parametrize("law", ["finite", None])
def test_scenario_rejects_a_law_that_is_not_one(law):
    # a string was taken, and save_scenario then failed on law.alpha
    with pytest.raises(ValueError, match=f"^law: expected Asymptotic or FiniteTime, got {type(law).__name__}$"):
        dataclasses.replace(demo_scenario(), law=law)


def test_bias_of_a_consensus_with_a_tiny_column_is_undefined():
    # det Q_c = 1e-11 * 1e6 * 1e6 = 10 passes WELL_POSED_DET, but the first
    # column fails Gram-Schmidt: the report used to raise DegenerateInputError
    s = dataclasses.replace(demo_scenario(), t_end=0.1)
    aligned = np.tile(np.eye(4), (s.topo.n, 1, 1))
    aligned[:, :3, :3] = np.diag([1e-11, 1e6, 1e6])
    s = dataclasses.replace(s, initial_state=np.linalg.inv(s.initial_poses.arrays[0]) @ aligned)
    report = oracle_report(s)
    assert report.transform_bias is None
    assert report.det_qc == pytest.approx(10.0, rel=1e-9)
    trace, _ = run(s)
    assert np.isnan(trace.orientation_errors).all()
    assert np.isnan(trace.position_errors).all()


def test_run_rejects_directed_topology_for_finite_law():
    s = make_scenario(
        Topology(2, ((1, 2), (2, 1))), seed=1, law=FiniteTime(), t_end=0.1
    )
    with pytest.raises(ConfigurationError, match="undirected"):
        run(s)


def test_oracle_report_searches_the_roots_once(monkeypatch):
    calls = []
    search = graphs._search_roots
    monkeypatch.setattr(graphs, "_search_roots", lambda t: calls.append(t) or search(t))
    for topo, law in ((spanning_digraph(6, 3), Asymptotic()), (square_demo_topology(), FiniteTime())):
        # a rebuilt copy: equal to topo, but with a root cache of its own
        s = make_scenario(Topology(topo.n, topo.edges, topo.directed), seed=57, law=law, t_end=0.1)
        calls.clear()
        oracle_report(s)
        assert calls == [s.topo]


def test_oracle_report_checks_the_law_before_the_dense_bound(monkeypatch):
    # with every dense matrix refused, a law that does not fit the graph is
    # still named first, and only a graph that fits meets the bound
    digraph = spanning_digraph(6, 3)
    monkeypatch.setattr(graphs, "MAX_DENSE_BYTES", 0)
    cases = (
        (digraph, FiniteTime(), "^finite-time law requires a connected undirected"),
        (Topology.undirected(4, [(1, 2), (3, 4)]), FiniteTime(), "^finite-time law requires"),
        (Topology(4, ((1, 2), (2, 1), (3, 4), (4, 3))), Asymptotic(), "^asymptotic law requires"),
        (digraph, Asymptotic(), "^graph: "),
        (square_demo_topology(), FiniteTime(), "^graph: "),
    )
    for topo, law, message in cases:
        with pytest.raises(ConfigurationError, match=message):
            oracle_report(make_scenario(topo, seed=58, law=law, t_end=0.1))


def test_stacked_rhs_matches_public_operations():
    rng = np.random.default_rng(34)
    for law in (Asymptotic(), FiniteTime(alpha=0.4)):
        topo = (
            Topology(3, ((1, 2), (2, 3), (3, 1)))
            if isinstance(law, Asymptotic)
            else Topology.undirected(3, [(1, 2), (2, 3)])
        )
        s = make_scenario(topo, seed=9, law=law, t_end=0.1)
        state = init_aux(3, s.seed, law)
        truth = list(s.initial_poses)
        meas = synthesize_measurements(truth, list(s.twists), topo)
        public = law_rhs(state, meas, topo)
        t0, p0 = s.initial_poses.arrays[0], stack_of(state)
        fast = kernel(s)(t0, p0)
        for i in range(3):
            assert np.abs(fast[i] - public[i]).max() < 1e-12


def assert_kernel_is_the_edge_pass(s: Scenario, tt: np.ndarray, pp: np.ndarray) -> np.ndarray:
    """The mirrored kernel's derivative, asserted byte-equal to the full-edge pass."""
    fast = kernel(s)(tt, pp)
    assert fast.tobytes() == edge_rhs(s, tt, pp).tobytes()
    return fast


def kernel_against_oracle(s: Scenario, state: EstimatorState | None = None) -> tuple:
    """Stacked kernel, full-edge pass and per-agent oracle at the initial data of s.

    Asserts the kernel equals the full-edge pass bit for bit, that its
    bottom rows are exactly zero and that it matches the oracle to 1e-12
    relative; returns (t0, p0, kernel derivative).
    """
    if state is None:
        state = init_aux(s.topo.n, s.seed, s.law)
    t0, p0 = s.initial_poses.arrays[0], stack_of(state)
    fast = assert_kernel_is_the_edge_pass(s, t0, p0)
    meas = synthesize_measurements(list(s.initial_poses), list(s.twists), s.topo)
    oracle = np.stack(law_rhs(state, meas, s.topo))
    assert np.all(fast[:, 3, :] == 0.0)
    assert np.abs(fast - oracle).max() <= 1e-12 * np.abs(oracle).max()
    return t0, p0, fast


def drift_only(s: Scenario, p0: np.ndarray) -> np.ndarray:
    """The -hat6(twist_i) P_i part of every derivative."""
    return -(np.stack([hat6(tw) for tw in s.twists]) @ p0)


def assert_average_invariant(s: Scenario, t0, p0, fast):
    # sum_i T_i (dP_i + hat6(twist_i) P_i) = sum of all neighbor terms in
    # aligned coordinates, which cancel pairwise on an undirected graph
    total = np.sum(t0 @ (fast - drift_only(s, p0)), axis=0)
    assert np.abs(total).max() < 1e-12


def test_kernel_rooted_digraph_root_sum_is_zero():
    # agent 5 is the root and receives from nobody, so its bins are the
    # trailing ones that only minlength allocates
    topo = Topology(5, ((1, 5), (2, 5), (3, 1), (4, 2), (4, 3)))
    s = make_scenario(topo, seed=41, t_end=0.1)
    _, p0, fast = kernel_against_oracle(s)
    drift = drift_only(s, p0)
    assert np.array_equal(fast[4], drift[4])
    assert np.abs(fast[:4] - drift[:4]).max() > 1e-3


def ring_with_chords(n: int, links: int, seed: int) -> Topology:
    """Undirected ring over n agents plus seeded chords, `links` links in all."""
    rng = np.random.default_rng(seed)
    pairs = {(i, i + 1) for i in range(1, n)} | {(1, n)}
    while len(pairs) < links:
        i, j = sorted(int(x) for x in rng.choice(np.arange(1, n + 1), 2, replace=False))
        pairs.add((i, j))
    return Topology.undirected(n, sorted(pairs))


def test_kernel_ring_with_chords_both_laws():
    topo = ring_with_chords(64, 96, seed=42)
    assert np.bincount(topo.edge_index[0]).max() >= 3
    for law in (Asymptotic(), FiniteTime(alpha=0.5)):
        s = make_scenario(topo, seed=43, law=law, t_end=0.1)
        assert_average_invariant(s, *kernel_against_oracle(s))


def test_kernel_is_the_full_edge_pass_bit_for_bit():
    # undirected graphs from a ring to near-complete under both laws, and
    # digraphs (with and without mutual pairs, which stay two edges), at
    # states over twelve decades, so some finite-law edges fall in the guard
    rng = np.random.default_rng(49)
    topos = [ring_with_chords(n, links, seed=50 + n) for n, links in ((3, 3), (9, 20), (40, 300))]
    topos += [spanning_digraph(n, seed=60 + n) for n in (2, 7, 30)]
    topos.append(Topology(4, ((1, 2), (2, 1), (2, 3), (3, 2), (4, 3)), directed=True))
    for k, topo in enumerate(topos):
        laws = [Asymptotic()] + ([] if topo.directed else [FiniteTime(a, 1e-9) for a in (0.2, 0.7)])
        for law in laws:
            s = make_scenario(topo, seed=70 + k, law=law, t_end=0.1)
            for scale in (1.0, 1e-6, 1e-12):
                pp = rng.standard_normal((topo.n, 4, 4)) * scale
                assert_kernel_is_the_edge_pass(s, s.initial_poses.arrays[0], pp)


def test_run_is_the_full_edge_rk4_bit_for_bit():
    # every step recorded, so truth, aux and V are the oracle's step by step
    topos = (ring_with_chords(32, 48, seed=51), spanning_digraph(32, seed=52))
    for topo, law in ((topos[0], FiniteTime()), (topos[0], Asymptotic()), (topos[1], Asymptotic())):
        s = make_scenario(topo, seed=53, law=law, dt=1e-3, t_end=0.05, stride=1)
        assert s.n_steps == 50
        trace, report = run(s)
        truth, aux, v = edge_rk4(s, s._p0, report.consensus_state)
        assert trace.truth.tobytes() == truth.tobytes()
        assert trace.aux.tobytes() == aux.tobytes()
        assert trace.lyapunov.tobytes() == v.tobytes()


def bundled(name: str) -> Scenario:
    return cli.load_scenario(cli.bundled_scenario_path(name))


@pytest.mark.parametrize("make", [
    lambda: make_scenario(Topology(1), seed=91),
    lambda: make_scenario(Topology.undirected(1, []), seed=92, law=FiniteTime()),
    lambda: make_scenario(Topology(2, ((1, 2),)), seed=93),
    lambda: make_scenario(Topology.undirected(2, [(1, 2)]), seed=94),
    lambda: make_scenario(Topology.undirected(2, [(1, 2)]), seed=95, law=FiniteTime()),
    lambda: bundled("demo_asymptotic"),
    lambda: bundled("demo_finite_time"),
], ids=["one-agent", "one-agent-finite", "directed-pair", "undirected-pair",
        "undirected-pair-finite", "demo-asymptotic", "demo-finite"])
def test_run_is_the_full_edge_rk4_at_small_n_and_on_the_demos(make):
    # an empty gather, a digraph (no mirror rows), one mirrored link and the
    # shipped demos: truth, aux and V of every step are the oracle's
    s = dataclasses.replace(make(), stride=1)
    s = dataclasses.replace(s, t_end=50 * s.dt)
    assert s.n_steps == 50
    trace, report = run(s)
    truth, aux, v = edge_rk4(s, s._p0, report.consensus_state)
    assert trace.truth.tobytes() == truth.tobytes()
    assert trace.aux.tobytes() == aux.tobytes()
    assert trace.lyapunov.tobytes() == v.tobytes()


def rooted_digraph(n: int, ring: int, seed: int) -> Topology:
    """Digraph whose one root component is a directed ring of the `ring`
    highest agents; every other agent hears two seeded agents above it."""
    rng = np.random.default_rng(seed)
    first = n - ring + 1
    edges = [(i, i + 1 if i < n else first) for i in range(first, n + 1)]
    for i in range(1, first):
        edges += [(i, int(j)) for j in rng.choice(np.arange(i + 1, n + 1), 2, replace=False)]
    return Topology(n, tuple(edges), directed=True)


@pytest.mark.parametrize("make", [
    lambda: make_scenario(rooted_digraph(1024, 8, seed=61), seed=62, t_end=0.02),
    lambda: make_scenario(ring_with_chords(512, 768, seed=63), seed=64, law=FiniteTime(), t_end=0.02),
], ids=["rooted-digraph-1024", "ring-with-chords-512-finite"])
def test_run_working_set_is_the_trace_plus_the_step_formula(make):
    # run's peak is the trace plus the step loop's working set, as
    # footprint counts it. It was 0.72 MiB more on the digraph, with
    # six RK4 stacks, a separate link-end buffer and V's temporaries
    s = make()
    s._p0, s.topo.links   # the scenario's own start and links, built once
    tracemalloc.start()
    try:
        trace, _ = run(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stored = trace.truth.nbytes + trace.aux.nbytes + trace.lyapunov.nbytes
    predicted = stored + footprint(s).loop_bytes
    assert abs(peak - predicted) <= 0.05 * predicted, (peak / 2**20, predicted / 2**20)


@st.composite
def kernel_inputs(draw) -> tuple:
    """(scenario, tt, pp): a random graph over 1 to 6 agents under a law it
    admits, and states in which some agents repeat an earlier agent's pose
    and matrix, so a link between them has an aligned difference of exactly 0."""
    n = draw(st.integers(1, 6))
    ends = st.tuples(st.integers(1, n), st.integers(1, n))
    pairs = [(i, j) for i, j in draw(st.lists(ends, max_size=2 * n)) if i != j]
    directed = draw(st.booleans())
    topo = Topology(n, tuple(pairs)) if directed else Topology.undirected(n, pairs)
    laws = st.just(Asymptotic())
    if not directed:
        laws |= st.builds(FiniteTime, st.floats(0.05, 0.95), st.sampled_from([1e-12, 1e-6, 1.0]))
    law = draw(laws)
    s = make_scenario(topo, seed=draw(st.integers(0, 2**16)), law=law, t_end=0.1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tt = s.initial_poses.arrays[0].copy()
    pp = rng.standard_normal((n, 4, 4)) * 10.0 ** draw(st.integers(-12, 0))
    for i in range(1, n):
        twin = draw(st.integers(0, i))
        tt[i], pp[i] = tt[twin], pp[twin]
    return s, tt, pp


@given(kernel_inputs())
@example((make_scenario(Topology(1), seed=96), np.eye(4)[None], np.eye(4)[None]))
def test_kernel_is_the_full_edge_pass_on_random_small_graphs(inputs):
    assert_kernel_is_the_edge_pass(*inputs)


@pytest.mark.parametrize("n", [1, 4, 33])
def test_one_stacked_product_gives_each_row_block_bit_for_bit(n):
    # the kernel takes T P and -hat(twist) P from one product of the stacked
    # [T; -hat(twist)] with P: exact only if the BLAS gives each output row
    # the same bits whatever the row count of its stack, zeros and -0.0 included
    rng = np.random.default_rng(57 + n)
    for _ in range(100):
        a, row, b, p = (
            rng.standard_normal((n, rows, 4)) * 10.0 ** rng.integers(-8, 9, (n, rows, 4))
            for rows in (3, 1, 4, 4)
        )
        for x in (a, b, p):
            x[rng.random(x.shape) < 0.3] = 0.0
            x[rng.random(x.shape) < 0.2] = -0.0
        stacked = np.concatenate((a, row, b), axis=1) @ p
        assert stacked[:, :3].tobytes() == (a @ p).tobytes()
        assert stacked[:, 4:].tobytes() == (b @ p).tobytes()


def test_run_and_kernel_write_no_input_and_no_earlier_result():
    s = make_scenario(ring_with_chords(8, 12, seed=54), seed=55, law=FiniteTime(), t_end=0.05)
    p0 = s._p0.copy()
    run(s)
    assert np.array_equal(s._p0, p0)
    state = simulation.init_aux_stack(8, 56)
    kept_state = state.copy()
    run(dataclasses.replace(s, initial_state=state))
    assert state.tobytes() == kept_state.tobytes()
    # the kernel reuses its edge rows, never a derivative it handed out,
    # and reads its estimator stack and truth slots without writing them
    truths, rhs = _make_rhs(s)
    truths[0, :, :4] = s.initial_poses.arrays[0]
    truths[1, :, :4] = truths[0, :, :4] @ truths[0, :, :4]
    kept_truths = truths.copy()
    first = rhs(0, state, np.empty_like(state))
    kept = first.copy()
    rhs(1, 2.0 * state, np.empty_like(state))
    assert first.tobytes() == kept.tobytes()
    assert state.tobytes() == kept_state.tobytes()
    assert truths.tobytes() == kept_truths.tobytes()


def test_kernel_finite_pair_at_consensus():
    # identical poses and estimator matrices: the aligned difference is
    # exactly zero and the epsilon guard removes the neighbor term
    topo = Topology.undirected(2, [(1, 2)])
    s = make_scenario(topo, seed=44, law=FiniteTime(), t_end=0.1)
    s = dataclasses.replace(s, initial_poses=(s.initial_poses[0],) * 2)
    a = init_aux(1, s.seed).aux[0]
    t0, p0, fast = kernel_against_oracle(s, EstimatorState((a, a), s.law))
    assert np.array_equal(fast, drift_only(s, p0))
    assert_average_invariant(s, t0, p0, fast)


def test_kernel_single_agent_without_edges():
    for topo, law in ((Topology(1), Asymptotic()), (Topology.undirected(1, []), FiniteTime())):
        s = make_scenario(topo, seed=45, law=law, t_end=0.1)
        _, p0, fast = kernel_against_oracle(s)
        assert np.array_equal(fast, drift_only(s, p0))


def edge_norms(s: Scenario, tt: np.ndarray, pp: np.ndarray) -> tuple:
    """(diff, norms): the kernel's aligned edge differences and their norms."""
    src, dst = s.topo.edge_index
    aligned = (tt[:, :3, :] @ pp).reshape(s.topo.n, 12)
    diff = aligned[dst] - aligned[src]
    return diff, np.sqrt(np.einsum("ej,ej->e", diff, diff))


def masked_rhs(s: Scenario, tt: np.ndarray, pp: np.ndarray) -> np.ndarray:
    """The kernel with its first form of the finite-time weights: zeros, a
    mask of the norms at or above epsilon, their power, a masked assignment."""
    n = s.topo.n
    diff, norms = edge_norms(s, tt, pp)
    w = np.zeros(len(norms))
    live = norms >= s.law.epsilon
    w[live] = norms[live] ** -s.law.alpha
    diff *= w[:, None]
    src, _ = s.topo.edge_index
    bins = (12 * src[:, None] + np.arange(12)).ravel()
    acc = np.bincount(bins, diff.ravel(), minlength=12 * n).reshape(n, 3, 4)
    dp = _neg_generators(s) @ pp
    dp[:, :3, :] += tt[:, :3, :3].transpose(0, 2, 1) @ acc
    return dp


def assert_weights_equal_masked_form(s: Scenario, pp: np.ndarray, eps: float, alpha: float):
    g = dataclasses.replace(s, law=FiniteTime(alpha, float(eps)))
    tt = g.initial_poses.arrays[0]
    assert kernel(g)(tt, pp).tobytes() == masked_rhs(g, tt, pp).tobytes()


def test_finite_weights_equal_the_masked_form_at_the_guard():
    # a path whose aligned differences are exactly zero, 1e-14, 1e-9 and of
    # order one, with epsilon on each nonzero norm and one ulp either side
    n = 6
    topo = Topology.undirected(n, [(i, i + 1) for i in range(1, n)])
    s = make_scenario(topo, seed=46, law=FiniteTime(), t_end=0.1)
    s = dataclasses.replace(s, initial_poses=(identity_pose(),) * n)
    pp = simulation.init_aux_stack(n, 46)
    pp[1] = pp[0]
    pp[2] = pp[1]
    pp[2, 0, 0] += 1e-14
    pp[3] = pp[2]
    pp[3, 1, 2] += 1e-9
    _, norms = edge_norms(s, s.initial_poses.arrays[0], pp)
    assert (norms == 0).any() and ((0 < norms) & (norms < 1e-13)).any()
    for norm in np.unique(norms[norms > 0]):
        for eps in (np.nextafter(norm, 0.0), norm, np.nextafter(norm, np.inf)):
            for alpha in (0.1, 0.5, 0.9):
                assert_weights_equal_masked_form(s, pp, eps, alpha)
    # random rings with a chord and states over twelve decades, epsilon on
    # the middle norm
    rng = np.random.default_rng(47)
    for k in range(20):
        chord = (1, int(rng.integers(3, 12)))
        topo = Topology.undirected(12, [(i, i % 12 + 1) for i in range(1, 13)] + [chord])
        s = make_scenario(topo, seed=48 + k, law=FiniteTime(), t_end=0.1)
        pp = rng.standard_normal((12, 4, 4)) * 10.0 ** rng.integers(-12, 1, (12, 1, 1))
        _, norms = edge_norms(s, s.initial_poses.arrays[0], pp)
        assert_weights_equal_masked_form(s, pp, np.sort(norms)[len(norms) // 2], rng.uniform(0.05, 0.95))


def test_trace_stores_only_what_cannot_be_derived():
    s = make_scenario(Topology(2, ((1, 2), (2, 1))), seed=2, dt=1e-2, t_end=0.2, stride=5)
    trace, report = run(s)
    assert trace.scenario is s and trace.report is report
    # nothing derived is stored until it is read
    fields = {"scenario", "report", "truth", "aux", "lyapunov"}
    assert {f.name for f in dataclasses.fields(trace)} == set(vars(trace)) == fields
    assert np.array_equal(trace.times, [step * s.dt for step in range(0, 21, 5)])
    assert trace.orientation_errors.shape == (5, 2) and trace.position_errors.shape == (5, 1)
    stored = {name for name, v in vars(trace).items() if isinstance(v, np.ndarray)}
    assert stored == {"truth", "aux", "lyapunov"}
    assert np.array_equal(trace.aligned, trace.truth @ trace.aux)
    estimates, valid = reconstruct(trace.aux, s.reconstruction)
    assert np.array_equal(trace.estimates, estimates)
    assert np.array_equal(trace.estimate_valid, valid) and valid.shape == (5, 2)


def test_run_builds_no_objects_per_step_or_sample(monkeypatch):
    # validated objects belong to setup and do not scale with the run: the
    # step loop and the recording of samples work on arrays, and the truth
    # exponentials come as stacks, so the count grows neither with the run
    # length nor with the number of agents
    def ring(n):
        return Topology(n, tuple((k, k % n + 1) for k in range(1, n + 1)))

    runs = [
        make_scenario(ring(n), seed=3, dt=1e-2, t_end=t_end, stride=1)
        for n, t_end in ((3, 0.02), (3, 0.5), (30, 0.02))
    ]
    built = collections.Counter()
    for cls in (Pose, Rotation, AuxMatrix, EstimatorState):
        def counting(self, _post_init=cls.__post_init__, _name=cls.__name__):
            built[_name] += 1
            _post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    counts = []
    for s in runs:
        built.clear()
        run(s)
        counts.append(dict(built))
    assert counts[0] == counts[1] == counts[2]


def test_trace_reconstructs_once(monkeypatch):
    s = make_scenario(Topology(2, ((1, 2), (2, 1))), seed=2, dt=1e-2, t_end=0.2, stride=5)
    trace, _ = run(s)
    calls = counting_reconstruct(monkeypatch)
    estimates, valid = trace.estimates, trace.estimate_valid
    assert trace.estimates is estimates and trace.estimate_valid is valid
    assert calls == [(5, 2)]


@pytest.mark.parametrize("block", [None, 8])
def test_run_errors_come_from_blocks_after_integration(monkeypatch, block):
    # the step loop only copies samples and run reconstructs nothing; the
    # errors of all samples come from one reconstruct per block on their
    # first read, and equal each sample's own errors exactly
    if block is not None:
        monkeypatch.setattr(simulation, "BLOCK_MATRICES", block)
    s = make_scenario(Topology(2, ((1, 2), (2, 1))), seed=8, dt=1e-2, t_end=0.5, stride=1)
    calls = counting_reconstruct(monkeypatch)
    counts = []
    for stride in (1, 50):
        calls.clear()
        trace, _ = run(dataclasses.replace(s, stride=stride))
        assert calls == []
        trace.orientation_errors
        trace.position_errors
        counts.append(len(calls))
    if block is None:
        assert counts == [1, 1]   # 51 samples of 2 agents fit in one block
    else:
        assert counts == [13, 1]  # 4 samples per block, 3 in the last one
    trace, report = run(s)
    r_c = report.transform_bias.rotation.r
    links = s.topo.links
    assert not np.isnan(trace.orientation_errors).any()
    for k in range(len(trace.times)):
        orient, pos = error_metrics(
            trace.truth[k], *reconstruct(trace.aux[k], s.reconstruction), r_c, links
        )
        assert np.array_equal(trace.orientation_errors[k], orient)
        assert np.array_equal(trace.position_errors[k], pos)


def test_run_stops_on_non_finite_state():
    # RK4 at dt = 3 diverges; V overflows after about 130 steps, and the run
    # names the first sampled step whose state is not finite instead of
    # returning NaNs (and without numpy overflow warnings)
    ring = Topology(3, ((1, 2), (2, 3), (3, 1)))
    s = make_scenario(ring, seed=4, dt=3.0, t_end=3000.0, stride=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match=r"integration: .* at step \d+ \(t = ") as exc:
            run(s)
    step = int(str(exc.value).split("step ")[1].split()[0])
    assert step % 10 == 0 and 10 < step < 1000
    # the samples before it are finite and recorded
    trace, _ = run(dataclasses.replace(s, t_end=(step - 10) * 3.0))
    assert np.isfinite(trace.lyapunov).all() and np.isfinite(trace.aux).all()


@pytest.mark.parametrize("field", ["stride", "seed"])
@pytest.mark.parametrize("value", [2.5, True, "3"], ids=["fraction", "bool", "string"])
def test_scenario_rejects_non_integer_stride_and_seed(field, value):
    # one rule for both, that of Topology and the loader: True used to pass
    # as 1, and only the loader rejected non-numbers by name
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        dataclasses.replace(demo_scenario(t_end=0.05), **{field: value})


@pytest.mark.parametrize("field", ["stride", "seed"])
def test_scenario_integral_float_runs_as_int(field):
    # 2.0 used to pass validation, then crash in numpy inside run
    s = demo_scenario(t_end=0.05, stride=1, seed=1)
    as_float = dataclasses.replace(s, **{field: 2.0})
    as_int = dataclasses.replace(s, **{field: 2})
    assert getattr(as_float, field) == 2 and type(getattr(as_float, field)) is int
    a, _ = run(as_float)
    b, _ = run(as_int)
    assert np.array_equal(a.times, b.times) and np.array_equal(a.aux, b.aux)


@pytest.mark.parametrize("field, changes, refused", [
    ("topo", lambda: {"topo": None}, True),
    ("dt", lambda: {"dt": "0.001"}, True),
    ("dt", lambda: {"dt": None}, True),
    ("alpha", lambda: {"law": FiniteTime(alpha="0.5")}, True),
    ("dt", lambda: {"dt": True}, True),
    ("epsilon", lambda: {"law": FiniteTime(epsilon=True)}, True),
    ("dt", lambda: {"dt": np.float32(1e-3)}, False),
    ("t_end", lambda: {"t_end": np.float32(1.0)}, False),
    ("alpha", lambda: {"law": FiniteTime(alpha=np.float32(0.5))}, False),
], ids=["topo-none", "dt-string", "dt-none", "alpha-string", "dt-bool", "epsilon-bool",
        "dt-float32", "t_end-float32", "alpha-float32"])
def test_scenario_checks_field_types_and_stores_real_numbers_as_floats(tmp_path, field, changes, refused):
    # a wrong type used to end in AttributeError or TypeError, a bool passed
    # as a number, and a numpy float was stored as it came, so the file
    # save_scenario wrote was refused by load_scenario or not written at all
    s = demo_scenario(law=FiniteTime())
    if refused:
        with pytest.raises(ValueError, match=rf"^{field}\b"):
            dataclasses.replace(s, **changes())
        return
    s = dataclasses.replace(s, **changes())
    assert {type(x) for x in (s.dt, s.t_end, s.law.alpha, s.law.epsilon)} == {float}
    cli.save_scenario(s, tmp_path / "s.json")
    back = cli.load_scenario(tmp_path / "s.json")
    assert (back.dt, back.t_end, back.law) == (s.dt, s.t_end, s.law)


def test_trace_bound_checked_before_allocation(monkeypatch):
    # 1e10 samples of 4 agents would need about 10 TB; the run is refused
    # before the oracle report and before any trace array
    big = make_scenario(spanning_digraph(4, 9), seed=5, dt=1e-9, t_end=10.0, stride=1)
    monkeypatch.setattr(simulation, "oracle_report", None)
    with pytest.raises(ConfigurationError, match=r"integration: .*GiB.*larger stride"):
        run(big)
    monkeypatch.undo()
    # the prediction is exactly the bytes the trace stores, plus the times
    # and errors it derives once they are read
    s = make_scenario(square_demo_topology(), seed=6, dt=1e-2, t_end=0.3, stride=2)
    trace, _ = run(s)
    nbytes = sum(v.nbytes for v in vars(trace).values() if isinstance(v, np.ndarray))
    nbytes += sum(a.nbytes for a in (trace.times, trace.orientation_errors, trace.position_errors))
    monkeypatch.setattr(simulation, "MAX_TRACE_BYTES", nbytes)
    run(s)
    monkeypatch.setattr(simulation, "MAX_TRACE_BYTES", nbytes - 1)
    with pytest.raises(ConfigurationError, match="integration: "):
        run(s)


def test_step_work_bound_checked_before_integration(monkeypatch):
    # 1e10 steps in 11 samples pass the trace bound; the step work is
    # refused before the oracle report and before the kernel is built
    big = make_scenario(spanning_digraph(4, 9), seed=5, dt=1e-9, t_end=10.0, stride=10**9)
    monkeypatch.setattr(simulation, "oracle_report", None)
    monkeypatch.setattr(simulation, "_make_rhs", None)
    with pytest.raises(ConfigurationError, match=r"integration: 10000000000 steps .*step work"):
        run(big)
    monkeypatch.undo()
    # the prediction is n_steps x (n + E + 150), checked inclusively
    s = make_scenario(square_demo_topology(), seed=6, dt=1e-2, t_end=0.3, stride=2)
    monkeypatch.setattr(simulation, "MAX_STEP_WORK", 30 * (4 + 8 + 150))
    run(s)
    monkeypatch.setattr(simulation, "MAX_STEP_WORK", 30 * (4 + 8 + 150) - 1)
    with pytest.raises(ConfigurationError, match="integration: 30 steps "):
        run(s)


def test_run_bytes_bound_checked_before_the_oracle(monkeypatch):
    # the peak is the trace plus the step loop, checked inclusively, and
    # refused before the oracle report
    s = make_scenario(square_demo_topology(), seed=6, dt=1e-2, t_end=0.3, stride=2)
    size = footprint(s)
    monkeypatch.setattr(simulation, "MAX_RUN_BYTES", size.trace_bytes + size.loop_bytes)
    run(s)
    monkeypatch.setattr(simulation, "MAX_RUN_BYTES", size.trace_bytes + size.loop_bytes - 1)
    monkeypatch.setattr(simulation, "oracle_report", None)
    with pytest.raises(ConfigurationError, match=(
        r"^integration: the run would peak at .* GiB of it the step loop over 4 agents "
        r"and 8 edges, over the .* GiB limit; use fewer agents or edges$"
    )):
        run(s)


def test_epsilon_over_every_link_refused_before_integration(monkeypatch):
    s = demo_scenario(law=FiniteTime(epsilon=1000.0))
    message = r"^finite-time law: epsilon = 1000 .*\(the largest is 6\.848\)"
    with pytest.raises(ConfigurationError, match=message):
        oracle_report(s)
    monkeypatch.setattr(simulation, "_make_rhs", None)
    with pytest.raises(ConfigurationError, match=message):
        run(s)


def test_epsilon_over_every_link_runs_where_the_law_has_nothing_to_do():
    law = FiniteTime(epsilon=1000.0)
    # a single agent has no link
    run(make_scenario(Topology.undirected(1, []), seed=3, law=law, t_end=0.05))
    # a start already at consensus: every aligned state equal, V0 = 0
    s = make_scenario(square_demo_topology(), seed=3, law=law, t_end=0.05)
    s = dataclasses.replace(s, initial_poses=(identity_pose(),) * 4)
    s = dataclasses.replace(s, initial_state=np.repeat(s._p0[:1], 4, axis=0))
    assert oracle_report(s).v0 == 0.0
    run(s)
    # epsilon inside some of the demo's links (4.76 to 6.85 apart)
    run(demo_scenario(law=FiniteTime(epsilon=5.0), t_end=0.05))


def test_steps_after_the_last_sample_change_nothing():
    # t_end = 0.57 at stride 5 samples steps 0, 5, ..., 55: the same trace,
    # bit for bit, as t_end = 0.55, which has no steps past its last sample
    s = make_scenario(square_demo_topology(), seed=8, law=FiniteTime(), dt=1e-2, t_end=0.57, stride=5)
    whole = dataclasses.replace(s, t_end=0.55)
    assert (s.n_steps, whole.n_steps) == (57, 55)
    a, b = run(s)[0], run(whole)[0]
    for name in ("truth", "aux", "lyapunov", "times"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def test_trace_shape_and_time_column():
    s = make_scenario(Topology(2, ((1, 2), (2, 1))), seed=2, dt=1e-2, t_end=0.5, stride=5)
    trace, _ = run(s)
    assert len(trace.times) == s.n_steps // s.stride + 1 == 11
    assert np.all(np.diff(trace.times) > 0)
    assert trace.times[0] == 0.0


def test_bottom_rows_preserved_bit_exactly():
    s = make_scenario(Topology(2, ((1, 2), (2, 1))), seed=3, dt=1e-2, t_end=0.3, stride=1)
    trace, _ = run(s)
    want = np.array([0.0, 0.0, 0.0, 1.0])
    for k in range(len(trace.times)):
        for i in range(2):
            assert np.array_equal(trace.aux[k, i, 3], want)
            assert np.array_equal(trace.aligned[k, i, 3], want)


def test_closed_form_at_zero_is_initial_state():
    s = make_scenario(Topology(2, ((1, 2), (2, 1))), seed=4, t_end=0.5)
    t0, p0 = s.initial_poses.arrays[0], s._p0
    for i, block in enumerate(closed_form_aligned(s, 0.0)):
        assert np.abs(block - t0[i] @ p0[i]).max() < 1e-12


def test_closed_form_long_horizon_limit():
    s = make_scenario(Topology(2, ((1, 2), (2, 1))), seed=5, t_end=0.5)
    rep = oracle_report(s)
    for block in closed_form_aligned(s, 25.0):
        assert np.abs(block - rep.consensus_state).max() < 1e-9


def test_closed_form_two_agent_hand_solution():
    # undirected pair: average plus difference mode decaying at rate 2
    s = make_scenario(Topology(2, ((1, 2), (2, 1))), seed=6, t_end=0.5)
    t0, p0 = s.initial_poses.arrays[0], s._p0
    s0 = [t0[i] @ p0[i] for i in range(2)]
    avg = (s0[0] + s0[1]) / 2.0
    for t in (0.1, 0.7, 2.0):
        expected_1 = avg + (s0[0] - avg) * np.exp(-2.0 * t)
        got = closed_form_aligned(s, t)[0]
        assert np.abs(got - expected_1).max() < 1e-10


def kron_closed_form(s, t: float) -> np.ndarray:
    """Oracle: the 4n x 4n flow expm(-(L kron I4) t) on the stacked aligned states."""
    t0, p0 = s.initial_poses.arrays[0], s._p0
    flow = scipy.linalg.expm(-np.kron(build_laplacian(s.topo), np.eye(4)) * t)
    return (flow @ (t0 @ p0).reshape(4 * s.topo.n, 4)).reshape(s.topo.n, 4, 4)


def test_closed_form_matches_kronecker_flow():
    rooted = Topology(5, ((1, 5), (2, 5), (3, 1), (4, 2), (4, 3)))
    for seed, topo in enumerate((spanning_digraph(3, 501), spanning_digraph(6, 502), rooted)):
        s = make_scenario(topo, seed=20 + seed, t_end=0.5)
        for t in (0.0, 0.3, 2.0, 10.0):
            got = closed_form_aligned(s, t)
            assert got.shape == (topo.n, 4, 4)
            assert np.abs(got - kron_closed_form(s, t)).max() < 1e-12


def test_run_draws_the_initial_state_once(monkeypatch):
    # the oracle reports, the integration and every closed-form call share
    # the scenario's one cached draw
    calls = []
    draw = simulation.init_aux_stack
    monkeypatch.setattr(
        simulation, "init_aux_stack", lambda n, seed: calls.append(seed) or draw(n, seed)
    )
    s = make_scenario(Topology(2, ((1, 2), (2, 1))), seed=9, t_end=0.01)
    oracle_report(s)
    trace, report = run(s)
    for t in (0.0, 0.5, 2.0):
        closed_form_aligned(s, t)
    assert calls == [9]
    assert np.array_equal(trace.aux[0], draw(2, 9))
    assert np.allclose(report.consensus_state, trace.aligned[0].mean(axis=0), atol=1e-12)


def test_a_replaced_initial_state_is_never_drawn(monkeypatch):
    # the seeded draw used to be part of the scenario's stacks, so a run, a
    # report or a closed form given their own start still paid for it
    calls = []
    draw = simulation.init_aux_stack
    monkeypatch.setattr(
        simulation, "init_aux_stack", lambda n, seed: calls.append(seed) or draw(n, seed)
    )
    p0 = draw(2, 10)
    s = make_scenario(Topology(2, ((1, 2), (2, 1))), seed=9, t_end=0.01)
    s = dataclasses.replace(s, initial_state=p0)
    oracle_report(s)
    trace, _ = run(s)
    closed_form_aligned(s, 0.5)
    dataclasses.replace(s, t_end=0.02)
    assert calls == []
    assert np.array_equal(trace.aux[0], p0)


def report_fields(report) -> tuple:
    """An OracleReport as bytes and numbers, for an exact comparison."""
    bias = report.transform_bias
    return (
        report.w1.tobytes(), report.consensus_state.tobytes(),
        None if bias is None else bias.matrix.tobytes(), report.det_qc, report.lambda2,
        report.settling_bound, report.settling_bound_optimistic, report.v0,
    )


@settings(deadline=None, max_examples=20)
@given(st.booleans(), st.none() | st.integers(0, 2**32 - 1), st.floats(0.25, 4.0))
@example(False, 7, 2.0).via("the asymptotic demo with the top rows of its seeded start doubled")
def test_a_trace_scenario_is_its_run(finite, start_seed, scale):
    # a given start used to be a side argument of run, oracle_report and
    # closed_form_aligned, so a trace's scenario described the seeded run:
    # in the example the closed form at 0 was off by 1.39 and V0 read 26.65
    # against the run's 50.46
    s = demo_scenario(law=FiniteTime() if finite else None, t_end=0.02, stride=5)
    if start_seed is not None:
        state = simulation.init_aux_stack(s.topo.n, start_seed)
        state[:, :3] *= scale
        s = dataclasses.replace(s, initial_state=state)
    trace, report = run(s)
    assert trace.scenario is s
    again, again_report = run(trace.scenario)
    for name in ("truth", "aux", "lyapunov"):
        assert getattr(again, name).tobytes() == getattr(trace, name).tobytes()
    assert report_fields(oracle_report(trace.scenario)) == report_fields(report)
    assert report_fields(again_report) == report_fields(report)
    assert report.v0 == trace.lyapunov[0]
    if not finite:
        assert np.array_equal(closed_form_aligned(trace.scenario, 0.0), trace.aligned[0])


def test_a_start_is_checked_against_the_graph_it_is_built_with():
    # a start of the old n does not ride along into a larger graph
    s = dataclasses.replace(demo_scenario(), initial_state=simulation.init_aux_stack(4, 3))
    ring = Topology(5, [(k, k % 5 + 1) for k in range(1, 6)])
    agents = {"initial_poses": s.initial_poses[:1] * 5, "twists": s.twists[:1] * 5}
    with pytest.raises(ValueError, match=r"^initial state has shape \(4, 4, 4\), expected \(5, 4, 4\)$"):
        dataclasses.replace(s, topo=ring, **agents)
    assert dataclasses.replace(s, topo=ring, initial_state=None, **agents)._p0.shape == (5, 4, 4)


def test_a_given_start_is_stored_read_only_and_apart_from_the_caller():
    state = simulation.init_aux_stack(4, 3)
    s = dataclasses.replace(demo_scenario(), initial_state=state)
    assert s._p0 is s.initial_state and s.initial_state is not state
    with pytest.raises(ValueError, match="read-only"):
        s.initial_state[0, 0, 0] = 1.0
    state[0, 0, 0] += 1.0
    assert s.initial_state[0, 0, 0] != state[0, 0, 0]


def test_closed_form_refuses_a_flow_past_the_dense_bound(monkeypatch):
    # a 20000-agent ring used to end in numpy's MemoryError; the bound is
    # checked before the Laplacian is built
    s = demo_scenario()
    monkeypatch.setattr(graphs, "MAX_DENSE_BYTES", 6 * 8 * 4**2)
    assert closed_form_aligned(s, 0.5).shape == (4, 4, 4)
    monkeypatch.setattr(graphs, "MAX_DENSE_BYTES", 6 * 8 * 4**2 - 1)
    monkeypatch.setattr(simulation, "build_laplacian", None)
    message = r"^the closed-form flow over 4 agents would hold 0\.0007324 MiB of dense matrices, over the"
    with pytest.raises(ValueError, match=message):
        closed_form_aligned(s, 0.5)


def test_scenario_takes_a_reconstruction_mode_by_value():
    # "twocol" used to stay a string, which reconstruct ran as the full mode
    s = make_scenario(Topology(2, ((1, 2), (2, 1))), seed=15, t_end=0.2)
    estimates = {}
    for mode in ReconstructionMode:
        by_value = dataclasses.replace(s, reconstruction=mode.value)
        assert by_value.reconstruction is mode
        estimates[mode] = run(by_value)[0].estimates
        assert np.array_equal(
            estimates[mode], run(dataclasses.replace(s, reconstruction=mode))[0].estimates
        )
    assert not np.array_equal(*estimates.values())


@pytest.mark.parametrize("mode", ["bogus", "TWO_COLUMN_CROSS", None, 1])
def test_scenario_rejects_an_unknown_reconstruction_mode(mode):
    # "bogus" used to run the full mode
    with pytest.raises(ValueError, match="is not a valid ReconstructionMode"):
        dataclasses.replace(demo_scenario(t_end=0.05), reconstruction=mode)


# a rotation and vectors with -0.0 entries, so byte checks see the signs
SIGNED_ROTATION = [[1.0, -0.0, 0.0], [-0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


def agent_bytes(x) -> bytes:
    """The rows an agent object is stored as: its matrix, or its twist parts."""
    return x.matrix.tobytes() if isinstance(x, Pose) else x.linear.tobytes() + x.angular.tobytes()


def count_object_checks(monkeypatch) -> collections.Counter:
    """Count the checks each Rotation, Pose and Twist runs when it is built."""
    calls = collections.Counter()
    for cls in (Rotation, Pose, Twist):
        def counting(obj, name=cls.__name__, real=cls.__post_init__):
            calls[name] += 1
            real(obj)
        monkeypatch.setattr(cls, "__post_init__", counting)
    return calls


def test_scenario_stacks_are_read_only():
    rng = np.random.default_rng(11)
    poses = [make_pose(rng), Pose(Rotation(SIGNED_ROTATION), [-0.0, 1.0, 0.0])]
    twists = [make_twist(rng), Twist([-0.0, 0.0, 1.0], [0.0, -0.0, 0.5])]
    s = Scenario(topo=Topology(2, ((1, 2), (2, 1))), initial_poses=poses, twists=twists,
                 law=Asymptotic(), dt=1e-3, t_end=0.01, seed=11)
    (t0,), (linear, angular) = s.initial_poses.arrays, s.twists.arrays
    assert t0 is s.initial_poses.arrays[0] and s._p0 is s._p0
    for a in (t0, linear, angular, s._p0):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    # the stacks are byte-equal to the matrices and parts of the objects given
    assert t0.tobytes() == np.stack([p.matrix for p in poses]).tobytes()
    assert linear.tobytes() == np.stack([tw.linear for tw in twists]).tobytes()
    assert angular.tobytes() == np.stack([tw.angular for tw in twists]).tobytes()
    assert np.array_equal(s._p0, simulation.init_aux_stack(2, 11))


def test_replaced_scenario_has_a_fresh_cache(monkeypatch):
    s = make_scenario(Topology(2, ((1, 2), (2, 1))), seed=12, t_end=0.01)
    first_p0 = s._p0
    built = count_object_checks(monkeypatch)
    same_seed = dataclasses.replace(s, stride=1)
    other_seed = dataclasses.replace(s, seed=13)
    # a scalar field changes: the stacks go along as they are, and no agent
    # object is built to carry them
    assert built == {}
    for r in (same_seed, other_seed):
        assert r.initial_poses is s.initial_poses and r.twists is s.twists
    assert same_seed._p0 is not first_p0
    assert np.array_equal(same_seed._p0, first_p0)
    assert np.array_equal(other_seed._p0, simulation.init_aux_stack(2, 13))
    assert not np.array_equal(other_seed._p0, first_p0)


def test_agent_sequences_index_like_tuples(monkeypatch):
    rng = np.random.default_rng(15)
    given_agents = {
        "initial_poses": tuple(make_pose(rng) for _ in range(3)),
        "twists": tuple(make_twist(rng) for _ in range(3)),
    }
    s = Scenario(topo=spanning_digraph(3, 15), **given_agents, law=Asymptotic(),
                 dt=1e-3, t_end=0.01, seed=15)
    built = count_object_checks(monkeypatch)
    for field, given in given_agents.items():
        got = getattr(s, field)
        assert len(got) == 3
        for k in range(-3, 3):
            item = got[k]
            assert type(item) is type(given[k]) and agent_bytes(item) == agent_bytes(given[k])
        for k in (3, -4):
            with pytest.raises(IndexError):
                got[k]
        for cut in (slice(None, -1), slice(None, None, -1), slice(5, None)):
            part = got[cut]
            assert type(part) is tuple
            assert [*map(agent_bytes, part)] == [*map(agent_bytes, given[cut])]
        assert [*map(agent_bytes, got)] == [*map(agent_bytes, given)]
    # each item read builds and checks one object: 6 + (2 + 3 + 0) + 3 per field
    assert built == {"Pose": 14, "Rotation": 14, "Twist": 14}
    assert len(s.twists[:-1] + (zero_twist(),)) == 3


def test_scenario_repr_shows_its_agents():
    # a hypothesis falsifying example prints a scenario by its repr; the
    # stacks showed as <..._PoseStack object at 0x...>, which told nothing
    s = demo_scenario()
    text = repr(s)
    assert " at 0x" not in text
    with np.printoptions(floatmode="unique", threshold=sys.maxsize):
        assert f"initial_poses=_PoseStack({s.initial_poses.arrays[0]!r})" in text
        assert "twists=_TwistStack({!r}, {!r})".format(*s.twists.arrays) in text
    again = dataclasses.replace(s, initial_poses=list(s.initial_poses), twists=list(s.twists))
    assert again.initial_poses.arrays[0] is not s.initial_poses.arrays[0]
    assert repr(again) == text


@pytest.mark.parametrize("n", [4, 64])
def test_stack_repr_evaluates_to_the_same_bytes(n):
    # every digit and every entry is printed, -0.0 included, so a falsifying
    # example printed by its repr can be replayed
    s = make_scenario(Topology(n, [(k, k % n + 1) for k in range(1, n + 1)]), seed=n, t_end=0.01)
    poses = s.initial_poses.arrays[0].copy()
    poses[0, 3, :3] = -0.0
    for stack in (simulation._PoseStack(poses), s.twists):
        again = eval(repr(stack), {"array": np.array, type(stack).__name__: type(stack)})
        assert [a.tobytes() for a in again.arrays] == [a.tobytes() for a in stack.arrays]


@pytest.mark.parametrize("n", [4, 64])
def test_scenario_repr_prints_a_given_initial_state_exactly(n):
    # a given start printed 8 digits, and from 64 agents an ellipsis
    p0 = simulation.init_aux_stack(n, 1)
    p0[0, 0, 0] = -0.0
    s = make_scenario(Topology(n, [(k, k % n + 1) for k in range(1, n + 1)]), seed=n, t_end=0.01)
    text = repr(dataclasses.replace(s, initial_state=p0))
    head = "initial_state="
    assert text.count(head) == 1 and text.endswith(")")
    again = eval(text[text.index(head) + len(head):-1], {"array": np.array})
    assert again.tobytes() == p0.tobytes()


@pytest.mark.parametrize("field", ["initial_poses", "twists"])
def test_scenario_rejects_an_agent_that_is_not_an_object(field):
    # an array in place of a Pose or Twist used to be taken, and run then
    # failed on it with an AttributeError
    s = make_scenario(Topology(3, ((1, 2), (2, 3), (3, 1))), seed=16, t_end=0.01)
    cls, array, other = (("Pose", np.eye(4), s.twists) if field == "initial_poses"
                         else ("Twist", np.zeros(6), s.initial_poses))
    items = list(getattr(s, field))
    items[1] = array
    for given, k, got in (([array] * 3, 1, "ndarray"), (items, 2, "ndarray"),
                          (other, 1, type(other[0]).__name__)):
        with pytest.raises(ValueError, match=rf"^{field}\[{k}\]: expected a {cls}, got {got}$"):
            dataclasses.replace(s, **{field: given})


def test_generator_stack_matches_per_agent_hat6_bytewise():
    # tobytes compares signed zeros too: the bottom rows are -0.0, as in
    # -hat6(twist_i) agent by agent
    s = make_scenario(spanning_digraph(6, 503), seed=14, t_end=0.01)
    s = dataclasses.replace(s, twists=s.twists[:-1] + (zero_twist(),))
    want = -np.stack([hat6(tw) for tw in s.twists])
    got = _neg_generators(s)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert np.signbit(got[:, 3]).all()


def test_initial_state_as_objects_or_stack():
    # the stack of init_aux's objects starts a run exactly as the seeded draw
    s = make_scenario(Topology(2, ((1, 2), (2, 1))), seed=12, t_end=0.01)
    seeded = dataclasses.replace(s, seed=5)
    stack = stack_of(init_aux(2, 5))
    given = dataclasses.replace(s, initial_state=stack)
    assert np.array_equal(
        oracle_report(given).consensus_state, oracle_report(seeded).consensus_state
    )
    assert np.array_equal(closed_form_aligned(given, 0.5), closed_form_aligned(seeded, 0.5))
    with pytest.raises(ValueError, match=r"^initial state has shape \(1, 4, 4\), expected \(2, 4, 4\)$"):
        dataclasses.replace(s, initial_state=stack[:1])


def test_a_given_initial_state_is_finite_with_bottom_rows_0001():
    # a bottom row of (0, 0, 1, 1) used to run to the end and return a trace
    # off SE(3), and a NaN was blamed on dt after a warning from det
    s = make_scenario(Topology(3, ((1, 2), (2, 3), (3, 1))), seed=13, t_end=0.01)
    good = simulation.init_aux_stack(3, 14)
    bent, nan = good.copy(), good.copy()
    bent[2, 3, 2] = 1.0
    nan[1, 0, 0] = np.nan
    cases = (
        (bent, r"^initial state: the matrix of agent 3 has bottom row \[0\.0, 0\.0, 1\.0, 1\.0\]"),
        (nan, "^initial state: the matrix of agent 2 is not finite"),
    )
    for state, message in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message) as raised:
                dataclasses.replace(s, initial_state=state)
        assert type(raised.value) is ValueError
    # -0.0 compares equal to 0.0, so bottom rows of (-0, -0, -0, 1) pass
    signed = good.copy()
    signed[:, 3, :3] = -0.0
    trace, _ = run(dataclasses.replace(s, initial_state=signed))
    assert trace.aux[0].tobytes() == signed.tobytes()


def test_closed_form_rejects_finite_time_law():
    s = make_scenario(square_demo_topology(), seed=7, law=FiniteTime(), t_end=0.5)
    with pytest.raises(ValueError):
        closed_form_aligned(s, 1.0)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, 1e300, -1e300, -1e3])
def test_closed_form_rejects_non_finite_time_or_flow(t):
    # a NaN or infinite t used to give a non-finite array (or a numpy warning),
    # and so did a t whose flow expm(-L t) overflows
    s = make_scenario(square_demo_topology(), seed=7, t_end=0.5)
    with pytest.raises(ValueError, match="finite"):
        closed_form_aligned(s, t)
    assert np.isfinite(closed_form_aligned(s, 1e6)).all()


FLOW_TIMES = (0.0, 1e-3, 0.3, 2.0, 10.0, 40.0, 1e3, 1e6)
UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2.0


def flow_tol(lap: np.ndarray, t: float) -> float:
    """Tolerance of the flow at t: 64 u max(1, c t), c = max(1, largest degree).

    Both the flow and scipy.linalg.expm scale and square, so their rounding
    grows as 2^s u over s squarings. Over the digraphs and times of the
    tests below, the gap between them measured at most 8.75 * 2^s u; over
    20000 random Laplacians like those of ``laplacians()`` with t up to 1e6,
    the flow's row sums were at most 8 * 2^s u off 1. Since
    2^s < 2 max(1, c t), this bound is at least 32 * 2^s u and holds both
    with a margin of more than 3.
    """
    c = max(1.0, float(lap.diagonal().max()))
    return 64.0 * UNIT_ROUNDOFF * max(1.0, c * t)


def assert_flow_matches_scipy(lap: np.ndarray):
    for t in FLOW_TIMES:
        got = simulation._consensus_flow(lap, t)
        assert np.abs(got - scipy.linalg.expm(-lap * t)).max() <= flow_tol(lap, t), t


@pytest.mark.parametrize("n", range(2, 9))
def test_consensus_flow_matches_scipy_on_spanning_digraphs(n):
    assert_flow_matches_scipy(build_laplacian(spanning_digraph(n, 600 + n)))


def test_consensus_flow_matches_scipy_on_a_defective_laplacian():
    # the directed chain 3 -> 2 -> 1: eigenvalue 1 twice with one eigenvector,
    # so expm(-L t) has a t e^-t entry
    lap = build_laplacian(Topology(3, ((1, 2), (2, 3))))
    assert np.linalg.matrix_rank(lap - np.eye(3)) == 2
    assert_flow_matches_scipy(lap)


@st.composite
def laplacians(draw) -> np.ndarray:
    """Laplacians of 1 to 8 agents: nonnegative off-diagonal weights, some
    exactly 0 or 1 (so graphs with and without a spanning tree), rows summing
    to 0 on the diagonal."""
    n = draw(st.integers(1, 8))
    weights = st.sampled_from([0.0, 0.0, 1.0]) | st.floats(0.0, 4.0)
    adj = np.array(draw(st.lists(weights, min_size=n * n, max_size=n * n))).reshape(n, n)
    np.fill_diagonal(adj, 0.0)
    return np.diag(adj.sum(axis=1)) - adj


@given(laplacians(), st.floats(0.0, 1e3))
def test_consensus_flow_is_stochastic(lap, t):
    flow = simulation._consensus_flow(lap, t)
    assert (flow >= 0.0).all()
    assert np.abs(flow.sum(axis=1) - 1.0).max() <= flow_tol(lap, t)


def test_consensus_flow_at_its_largest_t_is_the_weighted_projector():
    # past the squaring bound the rounding keeps doubling: at t = 2^58 this
    # ring's flow was off by 1e6, a finite and wrong answer
    lap = build_laplacian(Topology(4, ((1, 2), (2, 3), (3, 4), (4, 1))))
    t = 2.0**simulation.MAX_FLOW_SQUARINGS   # the degree is 1
    flow = simulation._consensus_flow(lap, t)
    assert np.abs(flow - 0.25).max() <= flow_tol(lap, t)
    for beyond in (np.nextafter(t, np.inf), 2.0 * t, 1e300):
        with pytest.raises(ValueError, match="finite"):
            simulation._consensus_flow(lap, beyond)


def test_simulated_aligned_matches_closed_form():
    s = make_scenario(Topology(3, ((1, 2), (2, 3), (3, 1))), seed=8, dt=1e-3, t_end=1.0, stride=100)
    trace, _ = run(s)
    for k, t in enumerate(trace.times):
        oracle = closed_form_aligned(s, float(t))
        for i in range(3):
            assert np.abs(trace.aligned[k, i] - oracle[i]).max() < 1e-8


def test_rk4_is_of_order_four_against_the_closed_form():
    # the asymptotic demo over t <= 2, compared at the multiples of 0.04:
    # each halving of dt divides the largest deviation by about 2^4 (measured
    # 16.1-16.5; rounding sits four decades below the finest deviation)
    deviations = []
    for dt in (4e-2, 2e-2, 1e-2, 5e-3):
        s = demo_scenario(dt=dt, t_end=2.0, stride=round(0.04 / dt))
        trace, _ = run(s)
        assert len(trace.times) == 51
        deviations.append(max(
            np.abs(aligned - closed_form_aligned(s, float(t))).max()
            for aligned, t in zip(trace.aligned, trace.times)
        ))
    ratios = np.array(deviations[:-1]) / deviations[1:]
    assert ((14.0 <= ratios) & (ratios <= 18.0)).all(), (deviations, ratios)


def test_consensus_at_start_stays_put():
    # All aligned states equal from the outset. The normalized law amplifies
    # O(dt^2) stage roundoff near its non-Lipschitz equilibrium, so the run
    # hovers at the integrator noise floor rather than exact zero: V stays
    # below the settled threshold and errors at the corresponding scale.
    rng = np.random.default_rng(35)
    topo = square_demo_topology()
    s = make_scenario(topo, seed=10, law=FiniteTime(), dt=1e-3, t_end=0.5, stride=10)
    common = make_pose(rng).matrix @ np.diag([1.3, 0.8, 1.1, 1.0])
    aux = tuple(
        AuxMatrix((np.linalg.inv(p.matrix) @ common)[:3, :3], (np.linalg.inv(p.matrix) @ common)[:3, 3])
        for p in s.initial_poses
    )
    trace, rep = run(dataclasses.replace(s, initial_state=np.stack([a.matrix for a in aux])))
    assert rep.v0 < 1e-25
    assert trace.lyapunov.max() < 1e-10
    assert np.nanmax(trace.orientation_errors) < 1e-5
    assert np.nanmax(trace.position_errors) < 1e-5
    check = lyapunov_chain_check(trace, rep.lambda2, s.law.alpha)
    assert not check.checked.any()
    assert check.fraction_passed == 1.0


def test_lyapunov_chain_rejects_asymptotic_trace():
    s = make_scenario(Topology(2, ((1, 2), (2, 1))), seed=11, t_end=0.3)
    trace, _ = run(s)
    with pytest.raises(ValueError):
        lyapunov_chain_check(trace, 2.0, 0.5)


@pytest.mark.parametrize(
    "lambda2, alpha, match",
    [
        (-1.0, 0.5, "lambda2"),   # used to give a complex kappa and a full pass
        (0.0, 0.5, "lambda2"),
        (np.nan, 0.5, "lambda2"),  # used to fail every checked sample
        (np.inf, 0.5, "lambda2"),
        (2.0, 1.5, "alpha"),
        (2.0, 0.0, "alpha"),
        (2.0, 1.0, "alpha"),
        (2.0, np.nan, "alpha"),
        # not a real number: each used to raise TypeError from the comparison
        (None, 0.5, "^lambda2 .* got None$"),
        ("2.0", 0.5, "^lambda2 .* got '2.0'$"),
        (2.0, None, "^alpha .* got None$"),
        (2.0, "0.5", "^alpha .* got '0.5'$"),
    ],
)
def test_lyapunov_chain_rejects_invalid_constants(lambda2, alpha, match):
    s = make_scenario(square_demo_topology(), seed=12, law=FiniteTime(), dt=1e-2, t_end=0.5)
    trace, _ = run(s)
    with pytest.raises(ValueError, match=match):
        lyapunov_chain_check(trace, lambda2, alpha)


def test_lyapunov_chain_refuses_the_lambda2_of_a_lone_agent():
    # one agent has no spectral gap, and its report says so with None
    s = make_scenario(Topology.undirected(1, []), seed=12, law=FiniteTime(), dt=1e-2, t_end=0.05)
    trace, report = run(s)
    assert report.lambda2 is None
    with pytest.raises(ValueError, match="^lambda2 must be finite and positive, got None$"):
        lyapunov_chain_check(trace, report.lambda2, 0.5)


def test_lyapunov_chain_passes_on_finite_run():
    s = make_scenario(square_demo_topology(), seed=12, law=FiniteTime(), dt=1e-3, t_end=3.0)
    trace, rep = run(s)
    check = lyapunov_chain_check(trace, rep.lambda2, s.law.alpha)
    assert check.fraction_passed == 1.0


SQUARE_LINKS = square_demo_topology().links   # (1,2), (1,4), (2,3), (3,4)


def metrics_of(truth, estimates, r_c, valid=(True,) * 4) -> tuple:
    """error_metrics on the square's links for lists of Pose objects."""
    return error_metrics(
        np.stack([p.matrix for p in truth]),
        np.stack([p.matrix for p in estimates]),
        np.array(valid),
        r_c,
        SQUARE_LINKS,
    )


def test_error_metrics_exact_bias_limit():
    rng = np.random.default_rng(36)
    truth = [make_pose(rng) for _ in range(4)]
    t_c = make_pose(rng)
    orient, pos = metrics_of(truth, [compose(inverse(t_c), p) for p in truth], t_c.rotation.r)
    assert orient.shape == (4,) and pos.shape == (4,)
    assert orient.max() < 1e-12
    assert pos.max() < 1e-12


def test_error_metrics_identity_bias():
    rng = np.random.default_rng(37)
    truth = [make_pose(rng) for _ in range(4)]
    orient, pos = metrics_of(truth, truth, np.eye(3))
    assert orient.max() < 1e-12
    assert pos.max() < 1e-12


def test_error_metrics_position_perturbation():
    rng = np.random.default_rng(38)
    truth = [make_pose(rng) for _ in range(4)]
    delta = 0.125
    ests = []
    for idx, p in enumerate(truth):
        shift = np.array([delta, 0.0, 0.0]) if idx == 0 else np.zeros(3)
        ests.append(Pose(p.rotation, p.translation + shift))
    orient, pos = metrics_of(truth, ests, np.eye(3))
    by_link = dict(zip(SQUARE_LINKS, pos))
    assert by_link[(1, 2)] == pytest.approx(delta, abs=1e-12)
    assert by_link[(1, 4)] == pytest.approx(delta, abs=1e-12)
    assert by_link[(2, 3)] == pytest.approx(0.0, abs=1e-12)
    # a leading sample axis gives every sample's values exactly
    t = np.stack([p.matrix for p in truth])
    e = np.stack([p.matrix for p in ests])
    both = error_metrics(np.stack([t, e]), np.stack([e, t]), np.ones((2, 4), bool), np.eye(3), SQUARE_LINKS)
    assert np.array_equal(both[0][0], orient) and np.array_equal(both[1][0], pos)
    swapped = error_metrics(e, t, np.ones(4, bool), np.eye(3), SQUARE_LINKS)
    assert np.array_equal(both[0][1], swapped[0]) and np.array_equal(both[1][1], swapped[1])


def test_error_metrics_invalid_agents_missing():
    # an invalid estimate yields NaN for its agent and its links, never 0,
    # even when its placeholder pose happens to match the truth exactly
    rng = np.random.default_rng(39)
    truth = [make_pose(rng) for _ in range(3)] + [identity_pose()]
    orient, pos = metrics_of(truth, truth, np.eye(3), valid=(True, True, True, False))
    assert np.isnan(orient[3]) and not np.isnan(orient[:3]).any()
    by_link = dict(zip(SQUARE_LINKS, pos))
    assert np.isnan(by_link[(3, 4)]) and np.isnan(by_link[(1, 4)])
    assert by_link[(1, 2)] < 1e-12 and by_link[(2, 3)] < 1e-12


def test_error_link_pairs_deduplicates():
    assert square_demo_topology().links == ((1, 2), (1, 4), (2, 3), (3, 4))
    assert Topology(3, ((1, 2), (2, 1), (3, 1))).links == ((1, 2), (1, 3))
    assert Topology(3).links == ()


@pytest.mark.parametrize(
    "topo",
    [spanning_digraph(9, seed=5), ring_with_chords(16, 24, seed=3)],
    ids=["digraph", "undirected-ring"],
)
def test_error_link_pairs_are_cached_on_the_topology(topo):
    assert any((j, i) in topo.edges for i, j in topo.edges)   # mutual pairs to merge
    links = topo.links
    assert topo.links is links
    # the set-based definition, one tuple per unordered pair
    assert links == tuple(sorted({(min(i, j), max(i, j)) for i, j in topo.edges}))
    assert all(type(k) is int for link in links for k in link)


def test_oracle_report_fields():
    s = make_scenario(square_demo_topology(), seed=13, law=FiniteTime(alpha=0.5), t_end=1.0)
    rep = oracle_report(s)
    t0, p0 = s.initial_poses.arrays[0], s._p0
    s_c = sum(0.25 * t0[i] @ p0[i] for i in range(4))
    assert np.abs(rep.consensus_state - s_c).max() < 1e-12
    assert np.array_equal(rep.consensus_state[3], [0.0, 0.0, 0.0, 1.0])
    v0 = 0.5 * sum(np.sum((t0[i] @ p0[i] - s_c) ** 2) for i in range(4))
    assert rep.v0 == pytest.approx(v0, rel=1e-12)
    kappa = (2.0 * 2.0) ** 0.75
    assert rep.settling_bound == pytest.approx(2.0 * v0**0.25 / (kappa * 0.5), rel=1e-12)
    assert rep.settling_bound_optimistic == pytest.approx(rep.settling_bound / 2.0, rel=1e-12)
    assert rep.lambda2 == pytest.approx(2.0)
    # bias rotation is the orthonormalized consensus block
    from framelocal import gsop

    assert np.abs(rep.transform_bias.rotation.r - gsop(s_c[:3, :3]).r).max() < 1e-12
    assert np.allclose(rep.transform_bias.translation, s_c[:3, 3])


def test_oracle_report_refuses_a_start_too_large_for_v0(monkeypatch):
    # a finite translation of 1e160 squares past the largest float: V0 used
    # to overflow with a numpy warning, and run then blamed dt at step 0
    s = demo_scenario(law=FiniteTime())
    poses = list(s.initial_poses)
    poses[0] = Pose(poses[0].rotation, [1e160, 0.0, 0.0])
    s = dataclasses.replace(s, initial_poses=poses)
    monkeypatch.setattr(simulation, "_make_rhs", None)
    message = r"^initial state: agent 1 is too large: .* = 1e\+160, over the limit 1e\+100$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for oracle in (oracle_report, run):
            with pytest.raises(ConfigurationError, match=message):
                oracle(s)


SCALED_PARTS = ("translations", "linear velocities", "angular velocities", "initial state")


@settings(deadline=None)
@given(st.sampled_from(SCALED_PARTS), st.floats(90.0, 160.0))
@example("translations", 99.39).via("translations of 9.8e99, just inside the bound")
@example("initial state", 99.0).via("a determinant of Q_c of 1.8e295")
def test_a_scaled_start_is_refused_or_runs_finite(part, exponent):
    # the finite demo over 10 steps with one part scaled by 10^exponent, from
    # below MAX_MAGNITUDE to past the square root of the largest float:
    # either oracle_report refuses it, or the run, its blocks and its JSON
    # documents hold only finite numbers, without a numpy warning. A turn of
    # up to MAX_MAGNITUDE per step may also make RK4 diverge; run refuses that
    s = demo_scenario(law=FiniteTime(), t_end=0.01, stride=5)
    factor = 10.0**exponent
    if part == "translations":
        poses = [Pose(p.rotation, p.translation * factor) for p in s.initial_poses]
        s = dataclasses.replace(s, initial_poses=poses)
    elif part == "initial state":
        state = s._p0.copy()
        state[:, :3] *= factor
        s = dataclasses.replace(s, initial_state=state)
    else:
        scale = (1.0, factor) if part == "angular velocities" else (factor, 1.0)
        twists = [Twist(*(x * k for x, k in zip(pair, scale))) for pair in zip(*s.twists.arrays)]
        s = dataclasses.replace(s, twists=twists)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            report = oracle_report(s)
        except ConfigurationError as e:
            assert str(e).startswith(("initial state: agent ", "integration: agent "))
            assert str(e).endswith(("over the limit 1e+100", "over the limit 1e+100; use a smaller dt"))
            return
        try:
            trace, _ = run(s)
        except ConfigurationError as e:
            assert part == "angular velocities" and "estimator state is not finite" in str(e)
            return
        for array in (trace.truth, trace.aux, trace.lyapunov):
            assert np.isfinite(array).all()
        for block in trace.blocks():
            assert block.valid.all()
            for array in (block.estimates, block.orient, block.pos):
                assert np.isfinite(array).all()
        docs = cli._oracle_doc(report), cli._summary_doc(trace, float(trace.times[-1]), block)
        for doc in docs:
            json.dumps(doc, allow_nan=False)
    assert report.v0 < math.inf and report.det_qc < math.inf


def test_no_perfbench_sized_start_is_refused():
    # 2048 agents at the benchmark's ranges (|p| <= 5, |v| and |w| <= 1) over
    # a long horizon pass the bound by about 98 orders of magnitude
    n = 2048
    rng = np.random.default_rng(2048)
    poses = [Pose(r, p) for r, p in zip(seeded_rotations(n, 2048), rng.uniform(-5.0, 5.0, (n, 3)))]
    twists = [Twist(v, w) for v, w in rng.uniform(-1.0, 1.0, (n, 2, 3))]
    ring = Topology(n, [(k, k % n + 1) for k in range(1, n + 1)])
    s = Scenario(topo=ring, initial_poses=poses, twists=twists, law=Asymptotic(), dt=1e-3,
                 t_end=1000.0, seed=1)
    report = oracle_report(s)
    assert report.v0 < 1e6 and report.transform_bias is not None


def test_settling_bound_past_the_largest_float_is_none():
    # at alpha = 1e-310 the bound overflows to inf; on a 7-agent path
    # (lambda2 = 0.198) kappa alpha rounds to 0 at the smallest alpha, which
    # raised ZeroDivisionError
    path = Topology.undirected(7, [(k, k + 1) for k in range(1, 7)])
    cases = (
        (demo_scenario(law=FiniteTime(alpha=1e-310)), 1e-310),
        (make_scenario(path, seed=5, law=FiniteTime(alpha=5e-324), t_end=0.1), 5e-324),
    )
    rates = []
    for s, alpha in cases:
        rep = oracle_report(s)
        assert rep.settling_bound is None and rep.settling_bound_optimistic is None
        rates.append((2.0 * rep.lambda2) ** ((2.0 - alpha) / 2.0) * alpha)
    # V0^(alpha / 2) is 1 at these alphas: 2 / rate is the bound
    assert 2.0 / rates[0] == math.inf and rates[1] == 0.0


def test_settling_time_none_before_settling():
    s = make_scenario(square_demo_topology(), seed=14, law=FiniteTime(), dt=1e-3, t_end=0.5)
    trace, _ = run(s)
    assert settling_time(trace) is None


def test_power_sum_inequality():
    rng = np.random.default_rng(40)
    for _ in range(500):
        d = int(rng.integers(1, 9))
        xi = rng.uniform(0.0, 10.0, d)
        p = rng.uniform(0.0, 1.0)
        assert np.sum(xi) ** p <= np.sum(xi**p) + 1e-12
