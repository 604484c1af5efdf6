"""Tests of the seeded deviate stream, the uniform rotation sampler, and the
synthetic micro-structure draws."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rotta.rotations import (
    RotationStream,
    identity_rotation,
    rotation_list,
    sample_orientation_tensor,
    sample_rotations,
    sample_volume_fraction,
)
from rotta.voigt import conjugate, to_matrix, trace


# ----------------------------------------------------------------- stream


def test_uniforms_range_and_replay():
    s = RotationStream(123)
    u = s.uniforms(1000)
    assert u.shape == (1000,)
    assert np.all((u >= 0.0) & (u < 1.0))

    replay = RotationStream(123).uniforms(1001)
    assert np.array_equal(u, replay[:1000])
    assert np.array_equal(s.uniforms(1), replay[1000:])  # a draw continues where the last one stopped


def test_different_seeds_differ():
    a = RotationStream(0).uniforms(100)
    b = RotationStream(1).uniforms(100)
    assert not np.array_equal(a, b)


def test_substream_is_independent_and_replayable():
    root = RotationStream(42)
    sub3 = root.substream(3)
    assert sub3.stream_id == 4  # root is id 0, sample k gets 1+k
    assert np.array_equal(sub3.uniforms(50), RotationStream(42).substream(3).uniforms(50))
    assert not np.array_equal(RotationStream(42).substream(0).uniforms(50),
                              RotationStream(42).substream(1).uniforms(50))
    with pytest.raises(ValueError):
        root.substream(-1)


def test_normals_moments():
    # Box-Muller output should look standard normal in bulk
    z = RotationStream(7).normals(20000)
    assert abs(np.mean(z)) < 0.03
    assert abs(np.std(z) - 1.0) < 0.03
    assert np.all(np.isfinite(z))


def test_normals_odd_count():
    assert RotationStream(7).normals(7).shape == (7,)


# ---------------------------------------------------------------- sampler


def test_rotations_are_proper():
    rots = sample_rotations(RotationStream(11), 500)
    eye = np.eye(3)
    for r in rots:
        assert np.max(np.abs(r @ r.T - eye)) <= 1e-12
        assert abs(np.linalg.det(r) - 1.0) <= 1e-12


def test_rotation_replay_is_bitwise():
    a = sample_rotations(RotationStream(5), 64)
    b = sample_rotations(RotationStream(5), 64)
    assert np.array_equal(a, b)


def test_rotated_axis_mean_is_near_zero():
    # the image of a fixed vector under uniform rotations has expectation 0
    rots = sample_rotations(RotationStream(9), 10000)
    images = rots @ np.array([0.0, 0.0, 1.0])
    assert np.linalg.norm(images.mean(axis=0)) <= 0.05


def test_sample_rotation_draws_sequentially():
    s = RotationStream(2)
    first = sample_rotations(s, 1)[0]
    second = sample_rotations(s, 1)[0]
    assert not np.allclose(first, second)
    both = sample_rotations(RotationStream(2), 2)
    assert np.array_equal(first, both[0])
    assert np.array_equal(second, both[1])


def test_zero_and_negative_counts():
    assert sample_rotations(RotationStream(0), 0).shape == (0, 3, 3)
    with pytest.raises(ValueError):
        sample_rotations(RotationStream(0), -1)


# ---------------------------------------------------------- rotation list


def test_identity_rotation():
    eye = identity_rotation()
    assert np.array_equal(eye, np.eye(3))
    x = np.array([1.0, 2.0, 3.0, 0.5, -0.25, 0.0])
    assert np.array_equal(conjugate(eye[None], x)[0], x)
    assert np.array_equal(eye, eye.T)


def test_rotation_list_starts_with_identity():
    lst = rotation_list(RotationStream(3), 0)
    assert lst.shape == (1, 3, 3)
    assert np.array_equal(lst[0], np.eye(3))

    lst = rotation_list(RotationStream(3), 3)
    assert lst.shape == (4, 3, 3)
    assert np.array_equal(lst[0], np.eye(3))
    for r in lst[1:]:
        assert np.max(np.abs(r @ r.T - np.eye(3))) <= 1e-12
        assert abs(np.linalg.det(r) - 1.0) <= 1e-12


def test_rotation_list_replay_and_prefix():
    big = rotation_list(RotationStream(17), 200)
    again = rotation_list(RotationStream(17), 200)
    assert np.array_equal(big, again)
    # a shorter list on the same seed is a bitwise prefix of the longer one
    small = rotation_list(RotationStream(17), 50)
    assert np.array_equal(small, big[:51])


def test_rotation_list_rejects_negative():
    with pytest.raises(ValueError):
        rotation_list(RotationStream(0), -2)


# ---------------------------------------------------------- microstructure


def test_volume_fraction_range_and_mean():
    s = RotationStream(21)
    draws = np.array([sample_volume_fraction(s) for _ in range(10000)])
    assert np.all((draws >= 0.10) & (draws <= 0.15))
    # uniform on [0.10, 0.15] has mean 0.125
    assert abs(draws.mean() - 0.125) <= 0.003
    assert sample_volume_fraction(RotationStream(21)) == draws[0]


def test_orientation_tensor_invariants():
    for seed in range(20):
        a = sample_orientation_tensor(RotationStream(seed))
        assert trace(a) == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.eigvalsh(to_matrix(a)).min() >= -1e-9


def test_orientation_tensor_spectrum_matches_simplex_draw():
    # conjugation preserves the spectrum, so the eigenvalues must equal the
    # stick-breaking diagonal drawn from the same stream position
    for seed in range(10):
        cuts = np.sort(RotationStream(seed).uniforms(2))
        diag = np.sort([cuts[0], cuts[1] - cuts[0], 1.0 - cuts[1]])
        a = sample_orientation_tensor(RotationStream(seed))
        assert_allclose(np.linalg.eigvalsh(to_matrix(a)), diag, atol=1e-12)


def test_orientation_tensor_replay():
    a = sample_orientation_tensor(RotationStream(33))
    b = sample_orientation_tensor(RotationStream(33))
    assert np.array_equal(a, b)
