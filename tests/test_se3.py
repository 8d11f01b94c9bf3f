"""Rotation/pose/twist arithmetic against independent oracles."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from framelocal import (
    AuxMatrix,
    DegenerateInputError,
    Pose,
    Rotation,
    Twist,
    exp_se3,
    gsop,
    gsop_two_column,
    hat3,
    inverse,
    relative_transform,
)
from framelocal.se3 import (
    _SMALL_ANGLE,
    GS_RANK_TOL,
    SKEW_TOL,
    exp_twists,
    gram_schmidt,
    rotation_check,
)
from framelocal.simulation import MAX_MAGNITUDE
from conftest import (
    blocks,
    compose,
    gram_schmidt_oracle,
    identity_pose,
    identity_rotation,
    make_pose,
    make_twist,
    random_rotation,
    series_exp,
    stacks,
    zero_twist,
)
from rhs_oracle import hat6


def vee3(m: np.ndarray) -> np.ndarray:
    """Inverse of hat3. Rejects inputs that are not skew within tolerance."""
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (3, 3):
        raise ValueError(f"expected 3x3 matrix, got {m.shape}")
    if np.max(np.abs(m + m.T)) > SKEW_TOL:
        raise ValueError("matrix is not skew-symmetric")
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def vee6(m: np.ndarray) -> Twist:
    """Inverse of hat6. Rejects matrices whose bottom row is not zero."""
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (4, 4):
        raise ValueError(f"expected 4x4 matrix, got {m.shape}")
    if np.max(np.abs(m[3])) > SKEW_TOL:
        raise ValueError(f"bottom row must be zero, got {m[3]}")
    return Twist(m[:3, 3].copy(), vee3(m[:3, :3]))


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    """sqrt(tr((a-b)^T (a-b))) for same-shaped matrices."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.sqrt(np.sum((a - b) ** 2)))


def exp_se3_oracle(t: Twist, dt: float) -> np.ndarray:
    """The exponential of dt * hat6(t) for one twist, branching in Python."""
    phi = np.asarray(t.angular, dtype=np.float64) * dt
    rho = np.asarray(t.linear, dtype=np.float64) * dt
    theta = float(np.linalg.norm(phi))
    k = hat3(phi)
    k2 = k @ k
    if theta < _SMALL_ANGLE:
        t2 = theta * theta
        a = 1.0 - t2 / 6.0 + t2 * t2 / 120.0
        b = 0.5 - t2 / 24.0 + t2 * t2 / 720.0
        c = 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0
    else:
        a = np.sin(theta) / theta
        b = (1.0 - np.cos(theta)) / (theta * theta)
        c = (theta - np.sin(theta)) / (theta * theta * theta)
    m = np.eye(4)
    m[:3, :3] = np.eye(3) + a * k + b * k2
    m[:3, 3] = (np.eye(3) + b * k + c * k2) @ rho
    return m


def test_hat3_zero():
    assert np.array_equal(hat3((0.0, 0.0, 0.0)), np.zeros((3, 3)))


def test_hat3_layout():
    expected = np.array([[0.0, -3.0, 2.0], [3.0, 0.0, -1.0], [-2.0, 1.0, 0.0]])
    assert np.array_equal(hat3((1.0, 2.0, 3.0)), expected)


def test_hat3_matches_cross_product():
    rng = np.random.default_rng(1)
    for _ in range(20):
        w = rng.normal(size=3)
        x = rng.normal(size=3)
        assert np.allclose(hat3(w) @ x, np.cross(w, x))
        assert np.allclose(hat3(w) @ w, np.zeros(3))


def test_hat3_stack_equals_its_items():
    w = np.random.default_rng(6).normal(size=(2, 5, 3))
    whole = hat3(w)
    assert whole.shape == (2, 5, 3, 3)
    for k in range(2):
        for i in range(5):
            assert np.array_equal(whole[k, i], hat3(w[k, i]))
    with pytest.raises(ValueError):
        hat3(np.zeros(4))


def test_vee3_roundtrip():
    w = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(vee3(hat3(w)), w)
    assert np.array_equal(vee3(np.zeros((3, 3))), np.zeros(3))


def test_vee3_rejects_non_skew():
    with pytest.raises(ValueError):
        vee3(np.eye(3))


def test_hat6_pure_linear():
    m = hat6(Twist(np.array([1.0, 0.0, 0.0]), np.zeros(3)))
    expected = np.zeros((4, 4))
    expected[0, 3] = 1.0
    assert np.array_equal(m, expected)


def test_hat6_vee6_roundtrip():
    rng = np.random.default_rng(2)
    tw = make_twist(rng, scale=2.0)
    back = vee6(hat6(tw))
    assert np.array_equal(back.linear, tw.linear)
    assert np.array_equal(back.angular, tw.angular)


def test_vee6_rejects_homogeneous_bottom_row():
    m = np.zeros((4, 4))
    m[3, 3] = 1.0
    with pytest.raises(ValueError):
        vee6(m)


def test_exp_zero_twist_is_identity():
    p = exp_se3(zero_twist(), 0.5)
    assert np.array_equal(p.matrix, np.eye(4))


def test_exp_quarter_turn_about_z():
    dt = 0.25
    tw = Twist(np.zeros(3), np.array([0.0, 0.0, np.pi / 2]) / dt)
    p = exp_se3(tw, dt)
    oracle = series_exp(dt * hat6(tw))
    assert np.abs(p.matrix - oracle).max() < 1e-12
    assert np.allclose(p.rotation.r, [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-12)
    assert np.allclose(p.translation, 0.0)


def test_exp_pure_translation():
    v = np.array([0.3, -1.2, 2.0])
    p = exp_se3(Twist(v, np.zeros(3)), 0.7)
    assert np.allclose(p.translation, 0.7 * v)
    assert np.array_equal(p.rotation.r, np.eye(3))


def test_exp_matches_series_on_random_twists():
    rng = np.random.default_rng(3)
    for _ in range(50):
        tw = make_twist(rng, scale=2.0)
        dt = rng.uniform(0.01, 1.5)
        err = np.abs(exp_se3(tw, dt).matrix - series_exp(dt * hat6(tw))).max()
        assert err < 1e-10


def test_exp_small_angle_branch():
    rng = np.random.default_rng(4)
    for _ in range(20):
        tw = Twist(rng.normal(size=3), rng.normal(size=3) * 1e-7)
        err = np.abs(exp_se3(tw, 1.0).matrix - series_exp(hat6(tw))).max()
        assert err < 1e-14


def test_compose_with_identity():
    rng = np.random.default_rng(5)
    x = make_pose(rng)
    out = compose(identity_pose(), x)
    assert np.allclose(out.matrix, x.matrix)


def test_inverse_closed_form():
    rng = np.random.default_rng(6)
    a = make_pose(rng)
    inv = inverse(a)
    assert np.allclose(inv.rotation.r, a.rotation.r.T)
    assert np.allclose(inv.translation, -(a.rotation.r.T @ a.translation))


def test_compose_inverse_is_identity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = make_pose(rng)
        assert np.abs(compose(a, inverse(a)).matrix - np.eye(4)).max() < 1e-12
        assert np.abs(compose(inverse(a), a).matrix - np.eye(4)).max() < 1e-12


def test_compose_associative():
    rng = np.random.default_rng(8)
    for _ in range(20):
        a, b, c = make_pose(rng), make_pose(rng), make_pose(rng)
        left = compose(compose(a, b), c).matrix
        right = compose(a, compose(b, c)).matrix
        assert np.abs(left - right).max() < 1e-12


def test_relative_transform_same_pose():
    rng = np.random.default_rng(9)
    a = make_pose(rng)
    assert np.abs(relative_transform(a, a).matrix - np.eye(4)).max() < 1e-12


def test_relative_transform_from_identity():
    rng = np.random.default_rng(10)
    b = make_pose(rng)
    assert np.allclose(relative_transform(identity_pose(), b).matrix, b.matrix)


def test_relative_transform_matches_matrix_product():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, b = make_pose(rng), make_pose(rng)
        oracle = np.linalg.inv(a.matrix) @ b.matrix
        assert np.abs(relative_transform(a, b).matrix - oracle).max() < 1e-12


def test_relative_transform_chain():
    rng = np.random.default_rng(12)
    for _ in range(10):
        a, b, c = make_pose(rng), make_pose(rng), make_pose(rng)
        chained = compose(relative_transform(a, b), relative_transform(b, c))
        assert np.abs(chained.matrix - relative_transform(a, c).matrix).max() < 1e-12


def test_gsop_identity():
    assert np.array_equal(gsop(np.eye(3)).r, np.eye(3))


def test_gsop_fixes_rotations():
    rng = np.random.default_rng(13)
    for _ in range(20):
        r = random_rotation(rng)
        assert np.abs(gsop(r).r - r).max() < 1e-12


def test_gsop_negative_diag_sign_fix():
    m = np.diag([2.0, 3.0, -5.0])
    out = gsop(m).r
    assert np.abs(out - gram_schmidt_oracle(m)).max() < 1e-12
    assert np.allclose(out, np.eye(3))


def test_gsop_matches_oracle_on_random_matrices():
    rng = np.random.default_rng(14)
    for _ in range(100):
        m = rng.uniform(-1.0, 1.0, (3, 3))
        if abs(np.linalg.det(m)) < 1e-3:
            continue
        assert np.abs(gsop(m).r - gram_schmidt_oracle(m)).max() < 1e-9


def test_gsop_rank_deficient_reports_column():
    m = np.column_stack([np.ones(3), 2.0 * np.ones(3), np.array([1.0, 0.0, 0.0])])
    with pytest.raises(DegenerateInputError) as exc:
        gsop(m)
    assert exc.value.index == 2


def test_gsop_left_invariance():
    rng = np.random.default_rng(15)
    for _ in range(100):
        r = random_rotation(rng)
        m = rng.uniform(-1.0, 1.0, (3, 3))
        if abs(np.linalg.det(m)) < 1e-3:
            continue
        assert np.abs(gsop(r.T @ m).r - r.T @ gsop(m).r).max() < 1e-9


def test_gsop_two_column_identity_and_fixed_point():
    rng = np.random.default_rng(16)
    assert np.array_equal(gsop_two_column(np.eye(3)).r, np.eye(3))
    for _ in range(20):
        r = random_rotation(rng)
        assert np.abs(gsop_two_column(r).r - r).max() < 1e-12


def test_gsop_two_column_ignores_third_column():
    m = np.column_stack([np.array([2.0, 0, 0]), np.array([1.0, 1, 0]), np.zeros(3)])
    out = gsop_two_column(m).r
    assert np.allclose(out, np.eye(3))
    with pytest.raises(DegenerateInputError):
        gsop(m)


def test_gsop_two_column_dependent_columns_error():
    m = np.column_stack([np.ones(3), 3.0 * np.ones(3), np.array([0.0, 1.0, 0.0])])
    with pytest.raises(DegenerateInputError) as exc:
        gsop_two_column(m)
    assert exc.value.index == 2


def test_gsop_two_column_left_invariance():
    rng = np.random.default_rng(17)
    for _ in range(100):
        r = random_rotation(rng)
        m = rng.uniform(-1.0, 1.0, (3, 3))
        if abs(np.linalg.det(m[:, :2].T @ m[:, :2])) < 1e-3:
            continue
        assert np.abs(gsop_two_column(r.T @ m).r - r.T @ gsop_two_column(m).r).max() < 1e-9


def test_gsop_variants_agree_on_full_rank_input():
    rng = np.random.default_rng(18)
    for _ in range(50):
        m = rng.uniform(-1.0, 1.0, (3, 3))
        if abs(np.linalg.det(m)) < 1e-2:
            continue
        assert np.abs(gsop(m).r - gsop_two_column(m).r).max() < 1e-9


def test_frobenius_distance_basics():
    assert frobenius_distance(np.eye(3), np.eye(3)) == 0.0
    assert abs(frobenius_distance(np.eye(3), np.zeros((3, 3))) - np.sqrt(3.0)) < 1e-15


def test_frobenius_distance_equals_flattened_norm():
    rng = np.random.default_rng(19)
    a = rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4))
    assert abs(frobenius_distance(a, b) - np.linalg.norm((a - b).ravel())) < 1e-12


def test_frobenius_distance_shape_mismatch():
    with pytest.raises(ValueError):
        frobenius_distance(np.eye(3), np.eye(4))


def test_rotation_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        Rotation(np.eye(3) + 1e-6)
    with pytest.raises(ValueError):
        Rotation(np.diag([1.0, 1.0, -1.0]))


def test_pose_from_matrix_validates_bottom_row():
    m = np.eye(4)
    m[3, 0] = 1e-6
    with pytest.raises(ValueError):
        Pose.from_matrix(m)


def test_values_are_immutable():
    rng = np.random.default_rng(20)
    p = make_pose(rng)
    with pytest.raises(ValueError):
        p.rotation.r[0, 0] = 2.0
    with pytest.raises(ValueError):
        p.translation[0] = 2.0
    a = AuxMatrix(np.eye(3), np.zeros(3))
    with pytest.raises(ValueError):
        a.q_block[0, 0] = 5.0


def residual_norms(m: np.ndarray, columns: int) -> np.ndarray:
    """Norms of the orthogonalized columns, one column at a time."""
    q, norms = [], []
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(columns):
            v = m[:, k].copy()
            for prev in q:
                v -= (m[:, k] @ prev) * prev
            norms.append(np.linalg.norm(v))
            q.append(v / norms[-1])
    return np.array(norms)


@given(stacks(3, 3), st.booleans())
def test_gram_schmidt_stack_equals_its_slices(m, two_column):
    # bit-exact, invalid items included: state.csv re-derives samples one at
    # a time and must match what a run recorded from whole stacks
    whole = gram_schmidt(m, two_column)
    for k in range(m.shape[0]):
        per_sample = gram_schmidt(m[k], two_column)
        for i in range(m.shape[1]):
            alone = gram_schmidt(m[k, i].copy(), two_column)
            for w, s, a in zip(whole, per_sample, alone):
                assert np.array_equal(w[k], s, equal_nan=True)
                assert np.array_equal(w[k, i], a, equal_nan=True)


@given(blocks((3, 3)), st.booleans())
def test_gram_schmidt_valid_iff_pivots_clear_tolerance(m, two_column):
    q, valid, pivots = gram_schmidt(m, two_column)
    norms = residual_norms(m, 2 if two_column else 3)
    assert np.array_equal(pivots, norms, equal_nan=True)
    assert valid == bool(np.all(norms > GS_RANK_TOL))
    single = gsop_two_column if two_column else gsop
    if valid:
        assert np.abs(q.T @ q - np.eye(3)).max() < 1e-9
        assert abs(np.linalg.det(q) - 1.0) < 1e-9
        assert np.array_equal(single(m).r, q)
    else:
        k = int(np.argmin(norms > GS_RANK_TOL))
        with pytest.raises(DegenerateInputError) as exc:
            single(m)
        assert exc.value.index == k + 1
        assert np.array_equal(exc.value.norm, norms[k], equal_nan=True)


@given(blocks((3, 3)), st.integers(0, 2**32 - 1), st.booleans())
def test_gram_schmidt_left_invariance_property(m, seed, two_column):
    assume(abs(np.linalg.det(m)) > 1e-3)
    r = random_rotation(np.random.default_rng(seed))
    q_rm, valid_rm, _ = gram_schmidt(r @ m, two_column)
    q_m, valid_m, _ = gram_schmidt(m, two_column)
    assert valid_rm and valid_m
    assert np.abs(q_rm - r @ q_m).max() < 1e-9


@given(blocks((3, 3)), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_two_column_survives_rank_loss_in_third_column(m, a, b):
    assume(np.linalg.norm(np.cross(m[:, 0], m[:, 1])) > 1e-3)
    dependent = m.copy()
    dependent[:, 2] = a * m[:, 0] + b * m[:, 1]
    q, valid, _ = gram_schmidt(np.stack([m, dependent]), two_column=True)
    assert valid.all()
    assert np.array_equal(q[0], q[1])
    assert abs(np.linalg.det(q[1]) - 1.0) < 1e-12
    assert not gram_schmidt(dependent)[1]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_constructors_reject_non_finite_entries(bad):
    r = np.eye(3)
    r[0, 0] = bad
    vec = np.array([0.0, bad, 0.0])
    with pytest.raises(ValueError, match="non-finite"):
        Rotation(r)
    with pytest.raises(ValueError, match="non-finite"):
        Rotation(np.full((3, 3), bad))
    with pytest.raises(ValueError, match="non-finite"):
        Pose(identity_rotation(), vec)
    with pytest.raises(ValueError, match="non-finite"):
        Twist(vec, np.zeros(3))
    with pytest.raises(ValueError, match="non-finite"):
        Twist(np.zeros(3), vec)
    with pytest.raises(DegenerateInputError):
        gsop(np.full((3, 3), bad))


# Rotation angles |omega dt|: exact zero, both sides of the switch to the
# series at 1e-6, and up to and past pi.
ANGLE = (
    st.sampled_from([0.0, np.nextafter(_SMALL_ANGLE, 0.0), _SMALL_ANGLE, np.pi, 2.0 * np.pi])
    | st.floats(1e-8, 1e-5)
    | st.floats(0.0, 10.0)
)
AXIS = arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)).filter(
    lambda v: np.linalg.norm(v) > 1e-3
)
LINEAR = arrays(np.float64, 3, elements=st.floats(-5.0, 5.0))


@given(st.lists(st.tuples(AXIS, ANGLE, LINEAR), min_size=1, max_size=5), st.floats(1e-4, 2.0))
def test_exp_twists_equals_scalar_oracle_bit_for_bit(parts, dt):
    angular = np.stack([axis / np.linalg.norm(axis) * angle / dt for axis, angle, _ in parts])
    linear = np.stack([v for _, _, v in parts])
    m = exp_twists(linear, angular, dt)
    assert m.shape == (len(parts), 4, 4)
    # a stack of stacks, in two orders
    both = exp_twists(np.stack([linear, linear[::-1]]), np.stack([angular, angular[::-1]]), dt)
    for i in range(len(parts)):
        tw = Twist(linear[i], angular[i])
        assert np.array_equal(m[i], exp_se3_oracle(tw, dt))
        assert np.array_equal(exp_twists(linear[i], angular[i], dt), m[i])
        assert np.array_equal(exp_twists(linear[i:], angular[i:], dt)[0], m[i])
        assert np.array_equal(exp_se3(tw, dt).matrix, m[i])
        assert np.array_equal(both[0, i], m[i])
        assert np.array_equal(both[1, -1 - i], m[i])


def test_exp_twists_over_a_dt_stack_is_each_dt_alone():
    # a run takes its half and full step exponentials from one call over a
    # (2, 1, 1) dt; each is byte-equal to the call at its own dt, on a
    # generic twist, one in the small-angle series and a zero twist
    rng = np.random.default_rng(22)
    linear, angular = rng.normal(size=(2, 3, 3))
    angular[1] *= 1e-7
    linear[2] = angular[2] = 0.0
    for dt in (1e-3, 0.7):
        dts = (dt / 2.0, dt)
        m = exp_twists(linear, angular, np.array(dts).reshape(2, 1, 1))
        assert m.shape == (2, 3, 4, 4)
        theta = np.linalg.norm(angular[1]) * dt
        assert theta < _SMALL_ANGLE
        for k, dt_k in enumerate(dts):
            assert m[k].tobytes() == exp_twists(linear, angular, dt_k).tobytes()
        assert np.array_equal(m[:, 2], np.broadcast_to(np.eye(4), (2, 4, 4)))


def test_exp_se3_refuses_a_transform_that_is_not_finite():
    # a huge angle overflows inside Rodrigues' formula and a huge speed
    # overflows the translation; exp_twists returns both as computed, without
    # a warning, exp_se3 refuses both, and a zero twist is exact
    angular = np.array([[1e200, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    linear = np.array([[0.0, 0.0, 0.0], [1e308, 0.0, 0.0], [0.0, 0.0, 0.0]])
    m = exp_twists(linear, angular, 10.0)
    assert not np.isfinite(m[0, :3, :3]).all() and not np.isfinite(m[1, :3, 3]).all()
    assert np.array_equal(m[2], np.eye(4))
    with pytest.raises(ValueError, match="non-finite"):
        exp_se3(Twist(linear[0], angular[0]), 10.0)
    with pytest.raises(ValueError, match="non-finite"):
        exp_se3(Twist(linear[1], angular[1]), 10.0)


def test_exp_twists_up_to_the_magnitude_bound_is_exact():
    # a run admits a turn of up to MAX_MAGNITUDE per step. There theta^3 is
    # still finite, so every Rodrigues coefficient is right: the rotation
    # passes the rotation test, and the translation V (dt * linear) is its
    # part along the axis, the rest turning through a full circle many times
    rng = np.random.default_rng(27)
    axes = rng.normal(size=(64, 3))
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    linear = rng.normal(size=(64, 3))
    along = np.sum(linear * axes, axis=1)[:, None] * axes
    for theta in (1e50, 1e77, 1e99, MAX_MAGNITUDE):
        m = exp_twists(linear, axes * theta, 1.0)
        assert rotation_check(m[:, :3, :3])[0].all()
        assert np.abs(m[:, :3, 3] - along).max() < 1e-14 * np.abs(linear).max()


@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]), blocks((3, 3)))
def test_rotation_check_is_the_rotation_constructor_test(seed, scale, noise):
    r = random_rotation(np.random.default_rng(seed)) + scale * noise
    valid, finite, ortho, det = rotation_check(np.stack([r, -r]))
    assert finite.all() and not valid[1]
    try:
        Rotation(r)
    except ValueError:
        assert not valid[0]
    else:
        assert valid[0]
        assert ortho[0] <= 1e-9 and abs(det[0] - 1.0) <= 1e-9
