"""Tests of the 6-component tensor algebra: storage, rotation, invariants."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.spatial.transform import Rotation

from rotta.voigt import (
    COMPONENT_NAMES,
    VOIGT_PAIRS,
    check_orientation_tensor,
    conjugate,
    from_matrix,
    to_matrix,
    trace,
    von_mises,
)

# 90 degrees about the x3 axis, written out by hand
R_X3_90 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def _random_voigt(rng, scale=1.0):
    return scale * rng.standard_normal(6)


def _random_rotation(rng):
    # scipy is an independent source of uniform rotations for property tests
    return Rotation.random(random_state=rng).as_matrix()


# ---------------------------------------------------------------- storage


def test_component_order_round_trip():
    v = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    m = to_matrix(v)
    expected = np.array([[1.0, 4.0, 5.0], [4.0, 2.0, 6.0], [5.0, 6.0, 3.0]])
    assert_allclose(m, expected, rtol=0, atol=0)
    assert_allclose(from_matrix(m), v, rtol=0, atol=0)


def test_names_match_pairs():
    assert len(COMPONENT_NAMES) == len(VOIGT_PAIRS) == 6
    for name, (i, j) in zip(COMPONENT_NAMES, VOIGT_PAIRS):
        assert name == f"{i + 1}{j + 1}"


def test_to_matrix_batched():
    rng = np.random.default_rng(0)
    batch = rng.standard_normal((4, 5, 6))
    m = to_matrix(batch)
    assert m.shape == (4, 5, 3, 3)
    assert_allclose(m, np.swapaxes(m, -1, -2), rtol=0, atol=0)  # symmetric
    assert_allclose(from_matrix(m), batch, rtol=0, atol=0)


def test_trace():
    assert trace(np.array([1.0, 2.0, 3.0, 9.0, 9.0, 9.0])) == 6.0
    rng = np.random.default_rng(1)
    batch = rng.standard_normal((7, 6))
    assert_allclose(trace(batch), np.trace(to_matrix(batch), axis1=-2, axis2=-1))


# --------------------------------------------------------------- rotation


def test_rotate_identity_is_noop():
    x = np.array([1.0, 2.0, 3.0, 0.5, 0.0, 0.0])
    assert_allclose(conjugate(np.eye(3)[None], x)[0], x, rtol=0, atol=0)


def test_rotate_axis_permutation():
    # a uniaxial tensor along x1 lands on x2 after a quarter turn about x3
    x = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert_allclose(conjugate(R_X3_90[None], x)[0], [0.0, 1.0, 0.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_rotate_hand_case():
    # hand-evaluated R . X . R^T for the quarter turn about x3:
    # normal components 11/22 swap and the 12 shear flips sign
    x = np.array([1.0, 2.0, 3.0, 0.5, 0.0, 0.0])
    assert_allclose(conjugate(R_X3_90[None], x)[0], [2.0, 1.0, 3.0, -0.5, 0.0, 0.0], atol=1e-15)


def test_inverse_rotate_hand_case():
    x = np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    assert_allclose(conjugate(R_X3_90.T[None], x)[0], [1.0, 0.0, 0.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_rotate_round_trip():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = _random_voigt(rng, scale=10.0)
        r = _random_rotation(rng)
        assert_allclose(conjugate(r.T[None], conjugate(r[None], x)[0])[0], x, atol=1e-13)
        assert_allclose(conjugate(r[None], conjugate(r.T[None], x)[0])[0], x, atol=1e-13)


def test_rotate_matches_dense_conjugation():
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = _random_voigt(rng)
        r = _random_rotation(rng)
        dense = r @ to_matrix(x) @ r.T
        assert_allclose(to_matrix(conjugate(r[None], x)[0]), dense, atol=1e-14)


def test_rotate_path_batch():
    rng = np.random.default_rng(4)
    path = rng.standard_normal((9, 6))
    r = _random_rotation(rng)
    rotated = conjugate(r[None], path)[0]
    for t in range(9):
        assert_allclose(rotated[t], conjugate(r[None], path[t])[0], rtol=0, atol=0)


# -------------------------------------------------------------- von Mises


def test_von_mises_uniaxial():
    for s in (0.0, 1.0, 7.25, 120.0):
        assert von_mises(np.array([s, 0.0, 0.0, 0.0, 0.0, 0.0])) == pytest.approx(s, abs=1e-13)


def test_von_mises_pure_shear():
    for s in (0.5, -2.0):
        x = np.array([0.0, 0.0, 0.0, s, 0.0, 0.0])
        assert von_mises(x) == pytest.approx(np.sqrt(3.0) * abs(s), abs=1e-13)


def test_von_mises_hydrostatic_is_zero():
    assert von_mises(np.array([3.0, 3.0, 3.0, 0.0, 0.0, 0.0])) == 0.0


def test_von_mises_rotation_invariant():
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = _random_voigt(rng, scale=10.0 ** rng.integers(-2, 3))
        r = _random_rotation(rng)
        vm = von_mises(x)
        assert abs(von_mises(conjugate(r[None], x)[0]) - vm) <= 1e-10 * max(1.0, vm)


def test_von_mises_path():
    s = 4.0
    const = np.zeros((3, 6))
    const[:, 0] = s
    assert_allclose(von_mises(const), [s, s, s], atol=1e-13)
    assert_allclose(von_mises(np.zeros((5, 6))), np.zeros(5), rtol=0, atol=0)

    rng = np.random.default_rng(6)
    path = rng.standard_normal((8, 6))
    per_step = von_mises(path)
    for t in range(8):
        assert per_step[t] == pytest.approx(von_mises(path[t]), abs=0)


# ------------------------------------------------------------- validators


def test_check_orientation_tensor():
    check_orientation_tensor(np.array([0.5, 0.3, 0.2, 0.0, 0.0, 0.0]))
    check_orientation_tensor(np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0]) / 3.0 * 3.0)

    with pytest.raises(ValueError):  # trace off
        check_orientation_tensor(np.array([0.6, 0.4, 0.2, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):  # indefinite
        check_orientation_tensor(np.array([0.9, 0.9, -0.8, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):  # wrong shape
        check_orientation_tensor(np.zeros(5))
    with pytest.raises(ValueError):  # non-finite
        check_orientation_tensor(np.array([np.nan, 0.5, 0.5, 0.0, 0.0, 0.0]))
