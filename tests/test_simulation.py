"""Truth propagation, the integrator, oracles, and error metrics."""

import dataclasses

import numpy as np
import pytest

from framelocal import (
    AuxMatrix,
    ConfigurationError,
    EstimatorState,
    Pose,
    PoseEstimate,
    Rotation,
    Topology,
    Twist,
    closed_form_aligned,
    compose,
    error_metrics,
    hat6,
    init_aux,
    inverse,
    lyapunov_chain_check,
    oracle_report,
    propagate_truth,
    run,
    settling_time,
)
from framelocal.estimators import Asymptotic, FiniteTime
from framelocal.scenarios import demo_scenario, square_demo_topology
from framelocal.simulation import Scenario, _initial_stacks, _make_rhs, error_link_pairs
from conftest import make_pose, make_scenario, make_twist
from rhs_oracle import law_rhs, synthesize_measurements


def test_propagate_zero_twist():
    rng = np.random.default_rng(30)
    p = make_pose(rng)
    out = propagate_truth(p, Twist.zero(), 0.5)
    assert np.array_equal(out.matrix, p.matrix)


def test_propagate_matches_fine_rk4_on_kinematics():
    # agent-1 style screw motion from the origin, checked against RK4 on the
    # raw kinematic ODE dT = T hat6(twist) at a 100x finer step
    tw = Twist(np.array([1.0, 0.0, 0.0]), np.array([0.3, 0.0, 0.0]))
    pose = Pose.identity()
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
    meas = synthesize_measurements([p, p], [Twist.zero()] * 2, topo)
    assert np.abs(meas[0].rel[2].matrix - np.eye(4)).max() < 1e-12


def test_synthesize_axis_displacement():
    t1 = Pose.identity()
    t2 = Pose(Rotation.identity(), np.array([4.0, 0.0, 0.0]))
    topo = Topology.undirected(2, [(1, 2)])
    meas = synthesize_measurements([t1, t2], [Twist.zero()] * 2, topo)
    assert np.allclose(meas[0].rel[2].translation, [4.0, 0.0, 0.0])
    assert np.allclose(meas[1].rel[1].translation, [-4.0, 0.0, 0.0])


def test_synthesize_inverse_pair():
    rng = np.random.default_rng(33)
    topo = Topology.undirected(2, [(1, 2)])
    truth = [make_pose(rng), make_pose(rng)]
    meas = synthesize_measurements(truth, [Twist.zero()] * 2, topo)
    prod = compose(meas[0].rel[2], meas[1].rel[1])
    assert np.abs(prod.matrix - np.eye(4)).max() < 1e-12


def test_run_rejects_root_free_digraph():
    s = make_scenario(Topology(4, ((1, 2), (2, 1), (3, 4), (4, 3))), seed=1, t_end=0.1)
    with pytest.raises(ConfigurationError, match="spanning tree"):
        run(s)


def test_run_rejects_directed_topology_for_finite_law():
    s = make_scenario(
        Topology(2, ((1, 2), (2, 1))), seed=1, law=FiniteTime(), t_end=0.1
    )
    with pytest.raises(ConfigurationError, match="undirected"):
        run(s)


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
        t0, p0 = _initial_stacks(s, state)
        fast = _make_rhs(s)(t0, p0)
        for i in range(3):
            assert np.abs(fast[i] - public[i]).max() < 1e-12


def kernel_against_oracle(s: Scenario, state: EstimatorState | None = None) -> tuple:
    """Stacked kernel and per-agent oracle at the initial data of s.

    Asserts the kernel's bottom rows are exactly zero and that it matches
    the oracle to 1e-12 relative; returns (t0, p0, kernel derivative).
    """
    if state is None:
        state = init_aux(s.topo.n, s.seed, s.law)
    t0, p0 = _initial_stacks(s, state)
    fast = _make_rhs(s)(t0, p0)
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


def test_kernel_ring_with_chords_both_laws():
    n = 64
    rng = np.random.default_rng(42)
    pairs = {(i, i + 1) for i in range(1, n)} | {(1, n)}
    while len(pairs) < 96:
        i, j = sorted(int(x) for x in rng.choice(np.arange(1, n + 1), 2, replace=False))
        pairs.add((i, j))
    topo = Topology.undirected(n, sorted(pairs))
    for law in (Asymptotic(), FiniteTime(alpha=0.5)):
        s = make_scenario(topo, seed=43, law=law, t_end=0.1)
        assert_average_invariant(s, *kernel_against_oracle(s))


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
    t0, p0 = _initial_stacks(s)
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
    t0, p0 = _initial_stacks(s)
    s0 = [t0[i] @ p0[i] for i in range(2)]
    avg = (s0[0] + s0[1]) / 2.0
    for t in (0.1, 0.7, 2.0):
        expected_1 = avg + (s0[0] - avg) * np.exp(-2.0 * t)
        got = closed_form_aligned(s, t)[0]
        assert np.abs(got - expected_1).max() < 1e-10


def test_closed_form_rejects_finite_time_law():
    s = make_scenario(square_demo_topology(), seed=7, law=FiniteTime(), t_end=0.5)
    with pytest.raises(ValueError):
        closed_form_aligned(s, 1.0)


def test_simulated_aligned_matches_closed_form():
    s = make_scenario(Topology(3, ((1, 2), (2, 3), (3, 1))), seed=8, dt=1e-3, t_end=1.0, stride=100)
    trace, _ = run(s)
    for k, t in enumerate(trace.times):
        oracle = closed_form_aligned(s, float(t))
        for i in range(3):
            assert np.abs(trace.aligned[k, i] - oracle[i]).max() < 1e-8


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
    trace, rep = run(s, initial_state=EstimatorState(aux, s.law))
    assert rep.v0 < 1e-25
    assert trace.lyapunov.max() < 1e-10
    assert np.nanmax(trace.orientation_errors) < 1e-5
    assert np.nanmax(trace.position_errors) < 1e-5
    check = lyapunov_chain_check(trace, rep.lambda2, s.law.alpha)
    assert not check.checked.any()
    assert check.all_passed and check.fraction_passed == 1.0


def test_lyapunov_chain_rejects_asymptotic_trace():
    s = make_scenario(Topology(2, ((1, 2), (2, 1))), seed=11, t_end=0.3)
    trace, _ = run(s)
    with pytest.raises(ValueError):
        lyapunov_chain_check(trace, 2.0, 0.5)


def test_lyapunov_chain_passes_on_finite_run():
    s = make_scenario(square_demo_topology(), seed=12, law=FiniteTime(), dt=1e-3, t_end=3.0)
    trace, rep = run(s)
    check = lyapunov_chain_check(trace, rep.lambda2, s.law.alpha)
    assert check.fraction_passed == 1.0


def test_error_metrics_exact_bias_limit():
    rng = np.random.default_rng(36)
    topo = square_demo_topology()
    truth = [make_pose(rng) for _ in range(4)]
    t_c = make_pose(rng)
    ests = [
        PoseEstimate(compose(inverse(t_c), p), np.zeros(3)) for p in truth
    ]
    rec = error_metrics(truth, ests, t_c.rotation, topo)
    assert rec.max_orientation < 1e-12
    assert rec.max_position < 1e-12


def test_error_metrics_identity_bias():
    rng = np.random.default_rng(37)
    topo = square_demo_topology()
    truth = [make_pose(rng) for _ in range(4)]
    ests = [PoseEstimate(p, np.zeros(3)) for p in truth]
    rec = error_metrics(truth, ests, Rotation.identity(), topo)
    assert rec.max_orientation < 1e-12
    assert rec.max_position < 1e-12


def test_error_metrics_position_perturbation():
    rng = np.random.default_rng(38)
    topo = square_demo_topology()
    truth = [make_pose(rng) for _ in range(4)]
    delta = 0.125
    ests = []
    for idx, p in enumerate(truth):
        shift = np.array([delta, 0.0, 0.0]) if idx == 0 else np.zeros(3)
        ests.append(PoseEstimate(Pose(p.rotation, p.translation + shift), np.zeros(3)))
    rec = error_metrics(truth, ests, Rotation.identity(), topo)
    assert rec.position[(1, 2)] == pytest.approx(delta, abs=1e-12)
    assert rec.position[(1, 4)] == pytest.approx(delta, abs=1e-12)
    assert rec.position[(2, 3)] == pytest.approx(0.0, abs=1e-12)


def test_error_metrics_invalid_agents_missing():
    rng = np.random.default_rng(39)
    topo = square_demo_topology()
    truth = [make_pose(rng) for _ in range(4)]
    ests = [PoseEstimate(p, np.zeros(3)) for p in truth[:3]]
    ests.append(PoseEstimate(Pose.identity(), np.zeros(3), valid=False))
    rec = error_metrics(truth, ests, Rotation.identity(), topo)
    assert 4 not in rec.orientation
    assert (3, 4) not in rec.position and (1, 4) not in rec.position
    assert (1, 2) in rec.position


def test_error_link_pairs_deduplicates():
    assert error_link_pairs(square_demo_topology()) == ((1, 2), (1, 4), (2, 3), (3, 4))
    assert error_link_pairs(Topology(3, ((1, 2), (2, 1), (3, 1)))) == ((1, 2), (1, 3))


def test_oracle_report_fields():
    s = make_scenario(square_demo_topology(), seed=13, law=FiniteTime(alpha=0.5), t_end=1.0)
    rep = oracle_report(s)
    t0, p0 = _initial_stacks(s)
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
