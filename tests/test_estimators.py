"""Localization laws, reconstruction, and the well-posedness of the limit."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from framelocal import (
    AuxMatrix,
    EstimatorState,
    Pose,
    Topology,
    exp_se3,
    gsop,
    init_aux,
    inverse,
    oracle_report,
    reconstruct,
    relative_transform,
)
from framelocal.estimators import Asymptotic, FiniteTime, ReconstructionMode, init_aux_stack
from framelocal.simulation import Scenario
from conftest import (
    compose,
    identity_pose,
    make_pose,
    make_twist,
    random_rotation,
    stacks,
    zero_twist,
)
from rhs_oracle import (
    Measurement,
    MeasurementError,
    asymptotic_rhs,
    finite_time_rhs,
    hat6,
    neighbors,
    synthesize_measurements,
)


def aux_from(m: np.ndarray) -> AuxMatrix:
    return AuxMatrix(np.asarray(m)[:3, :3], np.asarray(m)[:3, 3])


def aux_matrix(q_block, q_vec=(0.0, 0.0, 0.0)) -> np.ndarray:
    m = np.eye(4)
    m[:3, :3] = q_block
    m[:3, 3] = q_vec
    return m


def test_init_aux_is_deterministic():
    a = init_aux(4, rng_seed=11)
    b = init_aux(4, rng_seed=11)
    for x, y in zip(a.aux, b.aux):
        assert np.array_equal(x.q_block, y.q_block)
        assert np.array_equal(x.q_vec, y.q_vec)


def test_init_aux_determinant_floor():
    for seed in range(10):
        state = init_aux(6, rng_seed=seed)
        for a in state.aux:
            assert abs(np.linalg.det(a.q_block)) >= 1e-6


def test_init_aux_states_are_distinct():
    state = init_aux(4, rng_seed=0)
    mats = [a.matrix for a in state.aux]
    for i in range(4):
        for j in range(i + 1, 4):
            assert np.abs(mats[i] - mats[j]).max() > 1e-3


def test_asymptotic_rhs_zero_at_consensus():
    topo = Topology.undirected(3, [(1, 2), (2, 3)])
    state = init_aux(3, rng_seed=1)
    common = state.aux[0]
    state = EstimatorState((common, common, common), Asymptotic())
    meas = [
        Measurement(zero_twist(), {j: identity_pose() for j in neighbors(topo, i)})
        for i in range(1, 4)
    ]
    for d in asymptotic_rhs(state, meas, topo):
        assert np.abs(d).max() < 1e-15


def test_asymptotic_rhs_single_agent():
    rng = np.random.default_rng(22)
    topo = Topology(1)
    state = init_aux(1, rng_seed=2)
    tw = make_twist(rng)
    (d,) = asymptotic_rhs(state, [Measurement(tw, {})], topo)
    assert np.allclose(d, -(hat6(tw) @ state.aux[0].matrix))


def test_asymptotic_rhs_matches_aligned_dynamics():
    # T_i dP_i + dT_i P_i must equal the consensus field on S_i = T_i P_i,
    # checked both algebraically and by an explicit Euler step of the flow.
    rng = np.random.default_rng(23)
    topo = Topology(2, ((1, 2), (2, 1)))
    truth = [make_pose(rng), make_pose(rng)]
    twists = [make_twist(rng), make_twist(rng)]
    state = init_aux(2, rng_seed=3)
    meas = synthesize_measurements(truth, twists, topo)
    derivs = asymptotic_rhs(state, meas, topo)

    s_mats = [truth[i].matrix @ state.aux[i].matrix for i in range(2)]
    for i in range(2):
        lhs = truth[i].matrix @ derivs[i] + truth[i].matrix @ hat6(twists[i]) @ state.aux[i].matrix
        rhs = sum(s_mats[j] - s_mats[i] for j in [1 - i])
        assert np.abs(lhs - rhs).max() < 1e-12

    h = 1e-6
    new_truth = [compose(truth[i], exp_se3(twists[i], h)) for i in range(2)]
    new_aux = [aux_from(state.aux[i].matrix + h * derivs[i]) for i in range(2)]
    for i in range(2):
        s_new = new_truth[i].matrix @ new_aux[i].matrix
        fd = (s_new - s_mats[i]) / h
        expected = sum(s_mats[j] - s_mats[i] for j in [1 - i])
        assert np.abs(fd - expected).max() < 1e-4


def test_asymptotic_rhs_zero_bottom_row_exactly():
    rng = np.random.default_rng(24)
    topo = Topology(3, ((1, 2), (2, 3), (3, 1)))
    truth = [make_pose(rng) for _ in range(3)]
    twists = [make_twist(rng) for _ in range(3)]
    state = init_aux(3, rng_seed=4)
    for d in asymptotic_rhs(state, synthesize_measurements(truth, twists, topo), topo):
        assert np.array_equal(d[3], np.zeros(4))


def test_asymptotic_rhs_missing_measurement():
    topo = Topology(2, ((1, 2), (2, 1)))
    state = init_aux(2, rng_seed=5)
    meas = [Measurement(zero_twist(), {}), Measurement(zero_twist(), {1: identity_pose()})]
    with pytest.raises(MeasurementError):
        asymptotic_rhs(state, meas, topo)


def test_asymptotic_rhs_rejects_wrong_law():
    topo = Topology(1)
    state = init_aux(1, rng_seed=6, law=FiniteTime())
    with pytest.raises(ValueError):
        asymptotic_rhs(state, [Measurement(zero_twist(), {})], topo)


def test_finite_time_rhs_zero_at_consensus():
    topo = Topology.undirected(2, [(1, 2)])
    state0 = init_aux(2, rng_seed=7, law=FiniteTime())
    state = EstimatorState((state0.aux[0], state0.aux[0]), FiniteTime())
    meas = [
        Measurement(zero_twist(), {2: identity_pose()}),
        Measurement(zero_twist(), {1: identity_pose()}),
    ]
    for d in finite_time_rhs(state, meas, topo):
        assert np.abs(d).max() == 0.0


def test_finite_time_rhs_scalar_reduction():
    # identity truth, states differing in a single entry by d: each derivative
    # has magnitude d^(1-alpha) pointing toward the other state
    alpha = 0.5
    d = 0.01
    base = np.eye(4)
    other = np.eye(4)
    other[0, 1] = d
    topo = Topology.undirected(2, [(1, 2)])
    state = EstimatorState((aux_from(base), aux_from(other)), FiniteTime(alpha=alpha))
    meas = [
        Measurement(zero_twist(), {2: identity_pose()}),
        Measurement(zero_twist(), {1: identity_pose()}),
    ]
    d1, d2 = finite_time_rhs(state, meas, topo)
    assert d1[0, 1] == pytest.approx(d ** (1 - alpha), rel=1e-12)
    assert d2[0, 1] == pytest.approx(-(d ** (1 - alpha)), rel=1e-12)
    assert np.abs(d1 + d2).max() < 1e-15


def test_finite_time_rhs_epsilon_guard():
    eps = 1e-9
    base = np.eye(4)
    other = np.eye(4)
    other[0, 1] = eps / 10.0
    topo = Topology.undirected(2, [(1, 2)])
    state = EstimatorState((aux_from(base), aux_from(other)), FiniteTime(epsilon=eps))
    meas = [
        Measurement(zero_twist(), {2: identity_pose()}),
        Measurement(zero_twist(), {1: identity_pose()}),
    ]
    for d in finite_time_rhs(state, meas, topo):
        assert np.abs(d).max() == 0.0


def test_finite_time_guard_jump_bounded():
    # crossing the guard radius changes the RHS by at most epsilon^(1-alpha)
    eps, alpha = 1e-2, 0.5
    topo = Topology.undirected(2, [(1, 2)])
    meas = [
        Measurement(zero_twist(), {2: identity_pose()}),
        Measurement(zero_twist(), {1: identity_pose()}),
    ]

    def rhs_at(d):
        other = np.eye(4)
        other[0, 1] = d
        state = EstimatorState(
            (aux_from(np.eye(4)), aux_from(other)), FiniteTime(alpha=alpha, epsilon=eps)
        )
        return finite_time_rhs(state, meas, topo)[0]

    jump = np.abs(rhs_at(eps * 1.0000001) - rhs_at(eps * 0.9999999)).max()
    assert jump <= eps ** (1 - alpha) * 1.001


def test_finite_time_alpha_validation():
    with pytest.raises(ValueError):
        FiniteTime(alpha=0.0)
    with pytest.raises(ValueError):
        FiniteTime(alpha=1.0)
    with pytest.raises(ValueError):
        FiniteTime(alpha=-0.3)


def test_finite_time_rhs_rejects_directed_topology():
    topo = Topology(2, ((1, 2),))
    state = init_aux(2, rng_seed=8, law=FiniteTime())
    meas = [
        Measurement(zero_twist(), {2: identity_pose()}),
        Measurement(zero_twist(), {}),
    ]
    with pytest.raises(ValueError):
        finite_time_rhs(state, meas, topo)


def test_denominator_equivalence():
    # the locally computable difference norm equals the frame-aligned one
    rng = np.random.default_rng(25)
    for _ in range(200):
        ti, tj = make_pose(rng), make_pose(rng)
        pi = np.eye(4)
        pi[:3, :3] = rng.uniform(-1, 1, (3, 3))
        pi[:3, 3] = rng.uniform(-1, 1, 3)
        pj = np.eye(4)
        pj[:3, :3] = rng.uniform(-1, 1, (3, 3))
        pj[:3, 3] = rng.uniform(-1, 1, 3)
        local = np.linalg.norm(relative_transform(ti, tj).matrix @ pj - pi)
        aligned = np.linalg.norm(tj.matrix @ pj - ti.matrix @ pi)
        assert abs(local - aligned) < 1e-10


def test_reconstruct_fixed_point():
    rng = np.random.default_rng(26)
    r = random_rotation(rng)
    poses, valid = reconstruct(aux_matrix(r.T)[None], ReconstructionMode.FULL_GSOP)
    assert valid.tolist() == [True]
    assert np.abs(poses[0, :3, :3] - r).max() < 1e-12
    assert np.allclose(poses[0, :3, 3], 0.0)
    assert np.array_equal(poses[0, 3], [0.0, 0.0, 0.0, 1.0])


def test_reconstruct_limit_equals_biased_truth():
    # aux at its steady state: the estimate is the truth premultiplied by the
    # inverse of the common bias transform
    rng = np.random.default_rng(27)
    q_c = rng.uniform(-1.0, 1.0, (3, 3))
    while abs(np.linalg.det(q_c)) < 1e-2:
        q_c = rng.uniform(-1.0, 1.0, (3, 3))
    q_vec = rng.uniform(-1.0, 1.0, 3)
    t_c = Pose(gsop(q_c), q_vec)
    for mode in ReconstructionMode:
        truths = [make_pose(rng) for _ in range(5)]
        aux = np.stack([
            aux_matrix(t.rotation.r.T @ q_c, t.rotation.r.T @ (q_vec - t.translation))
            for t in truths
        ])
        poses, valid = reconstruct(aux, mode)
        assert valid.all()
        for truth, pose in zip(truths, poses):
            expected = compose(inverse(t_c), truth)
            assert np.abs(pose - expected.matrix).max() < 1e-9


def test_reconstruct_degenerate_full_gsop():
    # a degenerate item next to a valid one: only the degenerate one is
    # replaced by the identity placeholder
    q = np.column_stack([np.ones(3), np.ones(3), np.array([1.0, 0.0, 0.0])])
    aux = np.stack([aux_matrix(q, (1.0, 2.0, 3.0)), aux_matrix(np.eye(3), (1.0, 2.0, 3.0))])
    poses, valid = reconstruct(aux, ReconstructionMode.FULL_GSOP)
    assert valid.tolist() == [False, True]
    assert np.array_equal(poses[0], np.eye(4))
    assert np.array_equal(poses[1, :3, 3], [-1.0, -2.0, -3.0])


def test_reconstruct_two_column_survives_bad_third_column():
    q = np.column_stack([np.array([2.0, 0, 0]), np.array([1.0, 1, 0]), np.zeros(3)])
    _, valid = reconstruct(aux_matrix(q)[None], ReconstructionMode.TWO_COLUMN_CROSS)
    assert valid.tolist() == [True]
    _, valid = reconstruct(aux_matrix(q)[None], ReconstructionMode.FULL_GSOP)
    assert valid.tolist() == [False]


def resting_scenario(topo: Topology, poses) -> Scenario:
    """Asymptotic-law scenario with the given truth poses and zero twists."""
    still = (zero_twist(),) * topo.n
    return Scenario(topo, tuple(poses), still, Asymptotic(), 1e-3, 1e-3, seed=0)


def test_well_posedness_single_agent():
    # identity truth and estimator: the mix sum_i w1_i R_i Q_i is the identity
    state = np.eye(4)[None]
    rep = oracle_report(resting_scenario(Topology(1), [identity_pose()]), initial_state=state)
    assert abs(np.linalg.det(rep.consensus_state[:3, :3])) == pytest.approx(1.0)
    assert np.allclose(rep.consensus_state[:3, :3], np.eye(3))
    assert np.allclose(rep.transform_bias.matrix, np.eye(4))


def test_well_posedness_cancellation():
    # two agents whose rotated blocks cancel under equal weights
    rng = np.random.default_rng(28)
    q1 = rng.uniform(-1.0, 1.0, (3, 3))
    state = np.stack([aux_matrix(q1), aux_matrix(-q1)])
    s = resting_scenario(Topology.undirected(2, [(1, 2)]), [identity_pose()] * 2)
    rep = oracle_report(s, initial_state=state)
    assert np.array_equal(rep.w1, [0.5, 0.5])
    assert abs(np.linalg.det(rep.consensus_state[:3, :3])) < 1e-12
    assert rep.transform_bias is None


def test_well_posedness_random_starts():
    rng = np.random.default_rng(29)
    square = Topology.undirected(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
    for seed in range(5):
        state = init_aux_stack(4, rng_seed=seed)
        s = resting_scenario(square, [make_pose(rng) for _ in range(4)])
        rep = oracle_report(s, initial_state=state)
        assert np.array_equal(rep.w1, np.full(4, 0.25))
        assert rep.transform_bias is not None


def test_reconstruct_default_mode_is_two_column():
    q = np.column_stack([np.array([2.0, 0, 0]), np.array([1.0, 1, 0]), np.zeros(3)])
    _, valid = reconstruct(aux_matrix(q)[None])
    assert valid.tolist() == [True]


def with_bottom_row(top: np.ndarray) -> np.ndarray:
    """(..., 3, 4) top rows completed to (..., 4, 4) with the row (0, 0, 0, 1)."""
    bottom = np.broadcast_to([0.0, 0.0, 0.0, 1.0], (*top.shape[:-2], 1, 4))
    return np.concatenate([top, bottom], axis=-2)


@given(stacks(3, 4).map(with_bottom_row), st.sampled_from(ReconstructionMode))
def test_reconstruct_stack_equals_its_slices(aux, mode):
    poses, valid = reconstruct(aux, mode)
    assert poses.shape == aux.shape and valid.shape == aux.shape[:-2]
    for k in range(aux.shape[0]):
        p_k, v_k = reconstruct(aux[k], mode)
        assert np.array_equal(poses[k], p_k) and np.array_equal(valid[k], v_k)
        for i in range(aux.shape[1]):
            p_ki, v_ki = reconstruct(aux[k, i].copy(), mode)
            assert np.array_equal(poses[k, i], p_ki) and v_ki == valid[k, i]
    assert np.array_equal(poses[~valid], np.broadcast_to(np.eye(4), poses[~valid].shape))
    r_hat = poses[valid][:, :3, :3]
    q_vec = aux[valid][:, :3, 3]
    assert np.abs(poses[valid][:, :3, 3] + np.einsum("nij,nj->ni", r_hat, q_vec)).max(initial=0) < 1e-12
    assert np.all(poses[..., 3, :] == [0.0, 0.0, 0.0, 1.0])
