"""Property tests of the augmentation kernel against the per-rotation loop.

The kernel must give every back-rotated row the same bits as rotating,
predicting and back-rotating one rotation at a time, for any chunk size and
any prefix of the rotation list: the noisy oracle hashes its quantized
working-frame inputs, so a change in the last bits changes the noise.
"""

import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotta import tta
from rotta.models import (
    EquivariantOracle,
    ExternalModel,
    ExternalModelError,
    ModelInput,
    NoisyOracle,
    OracleParams,
    predict,
)
from rotta.rotations import RotationStream, rotation_list, sample_orientation_tensor
from rotta.tta import augment, rotate_input
from rotta.voigt import from_matrix, inverse_rotate_sym, rotate_sym, to_matrix

FIXTURE = str(Path(__file__).with_name("external_fixture.py"))


def _input(seed, n_steps, scale):
    s = RotationStream(seed)
    a = sample_orientation_tensor(s)
    strain = scale * s.normals(6 * n_steps).reshape(n_steps, 6)
    return ModelInput(a=a, vf=0.1 + 0.05 * float(s.uniforms(1)[0]), strain=strain)


def _model(noisy, seed):
    if noisy:
        return NoisyOracle(OracleParams(noise_amp=5.0, noise_seed=seed))
    return EquivariantOracle()


def _loop(model, inp, rotations):
    """The reference: one rotate -> predict -> back-rotate per rotation."""
    return np.stack([inverse_rotate_sym(predict(model, rotate_input(inp, r)), r) for r in rotations])


def _augment(model, inp, rotations, chunk):
    with mock.patch.object(tta, "_CHUNK_STEPS", chunk * inp.n_steps):
        return augment(model, inp, rotations)


class PredictOnly:
    """A model without ``predict_batch``, such as an external process."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def predict(self, inp):
        self.calls += 1
        return self.inner.predict(inp)


cases = dict(
    seed=st.integers(0, 2**32 - 1),
    n_steps=st.integers(1, 40),
    scale=st.sampled_from([1e-4, 0.02, 0.3]),
    noisy=st.booleans(),
)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 60), chunk=st.integers(1, 70), **cases)
def test_kernel_matches_per_rotation_loop(seed, n_steps, scale, noisy, n, chunk):
    inp = _input(seed, n_steps, scale)
    model = _model(noisy, seed)
    rotations = rotation_list(RotationStream(seed + 1), n)
    assert np.array_equal(_augment(model, inp, rotations, chunk), _loop(model, inp, rotations))
    with mock.patch.object(tta, "_CHUNK_STEPS", chunk * n_steps):
        starts = [lo for lo, _ in tta.augment_chunks(model, inp, rotations)]
    assert starts == list(range(0, n + 1, chunk))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 50), k=st.integers(0, 50), chunk=st.integers(1, 20), **cases)
def test_kernel_rows_are_prefix_stable(seed, n_steps, scale, noisy, n, k, chunk):
    k = min(k, n)
    inp = _input(seed, n_steps, scale)
    model = _model(noisy, seed)
    full = _augment(model, inp, rotation_list(RotationStream(seed), n), chunk)
    head = _augment(model, inp, rotation_list(RotationStream(seed), k), chunk + 3)
    assert np.array_equal(full[:k + 1], head)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(0, 20), **cases)
def test_model_without_predict_batch_takes_the_loop(seed, n_steps, scale, noisy, n):
    inp = _input(seed, n_steps, scale)
    inner = _model(noisy, seed)
    rotations = rotation_list(RotationStream(seed + 2), n)
    fallback = PredictOnly(inner)
    out = augment(fallback, inp, rotations)
    assert fallback.calls == n + 1
    assert np.array_equal(out, augment(inner, inp, rotations))


def test_wrong_batch_shape_is_an_external_error():
    class Short(EquivariantOracle):
        def predict_batch(self, a, vf, strain):
            return super().predict_batch(a, vf, strain)[..., :-1, :]

    inp = _input(1, 6, 0.02)
    rotations = rotation_list(RotationStream(2), 5)
    with pytest.raises(ExternalModelError, match=r"rotation indices 0-2: model returned shape \(3, 5, 6\)"):
        _augment(Short(), inp, rotations, chunk=3)
    # the same model through the per-rotation loop fails the same way
    with pytest.raises(ExternalModelError, match=r"rotation index 0: model returned shape \(5, 6\)"):
        augment(PredictOnly(Short()), inp, rotations)


def test_non_finite_prediction_passes_through_as_in_the_loop():
    class Holes(EquivariantOracle):
        def predict_batch(self, a, vf, strain):
            out = super().predict_batch(a, vf, strain)
            out[..., 0, 0] = np.nan
            out[..., -1, 3] = np.inf
            return out

    inp = _input(3, 7, 0.02)
    rotations = rotation_list(RotationStream(4), 6)
    out = _augment(Holes(), inp, rotations, chunk=4)
    assert not np.all(np.isfinite(out))
    assert np.array_equal(out, _loop(Holes(), inp, rotations), equal_nan=True)


def test_rotated_input_must_be_finite():
    # finite in the sample frame, overflowing once rotated
    inp = ModelInput(a=np.array([0.5, 0.3, 0.2, 0.0, 0.0, 0.0]), vf=0.12, strain=np.full((3, 6), 1.7e308))
    rotations = rotation_list(RotationStream(5), 3)
    with pytest.raises(ValueError, match="non-finite"), np.errstate(over="ignore", invalid="ignore"):
        _loop(EquivariantOracle(), inp, rotations)  # row 0, the identity, predicts on the finite input
    with pytest.raises(ValueError, match="non-finite"):
        augment(EquivariantOracle(), inp, rotations)


def test_contraction_order_is_pinned():
    # einsum's optimized path contracts pairwise and lands a few ulp away
    # from the per-rotation loop; the kernel must keep the loop's order
    inp = _input(7, 30, 0.02)
    rotations = rotation_list(RotationStream(8), 40)
    per_rotation = np.stack([rotate_sym(inp.strain, r) for r in rotations])
    optimized = from_matrix(np.einsum("pij,tjk,plk->ptil", rotations, to_matrix(inp.strain), rotations, optimize=True))
    assert not np.array_equal(optimized, per_rotation)
    model = NoisyOracle(OracleParams(noise_amp=5.0, noise_seed=9))
    assert np.array_equal(augment(model, inp, rotations), _loop(model, inp, rotations))


# --------------------------------------------------- external processes


@pytest.fixture(scope="module")
def echo_process():
    with ExternalModel([sys.executable, FIXTURE, "echo"], timeout=20.0) as model:
        yield model


@pytest.mark.parametrize("n, n_steps", [(0, 1), (9, 7), (15, 100), (16, 100), (40, 100), (5, 333), (2, 1700)])
def test_external_model_batches_match_the_per_rotation_loop(echo_process, n, n_steps):
    # the echo child returns its input's exact bits, so any difference
    # would come from the kernel's rotations or from row matching
    inp = _input(n + n_steps, n_steps, 0.02)
    rotations = rotation_list(RotationStream(n_steps), n)
    sent = echo_process._next_id
    out = augment(echo_process, inp, rotations)
    assert echo_process._next_id - sent == n + 1
    assert np.array_equal(out, _loop(echo_process, inp, rotations))


@pytest.mark.parametrize("mode, message", [
    ("badid", r"response id \d+ matches no outstanding request"),
    ("nan", "external model returned non-finite stress values"),
    ("short", r"external model returned \(99, 6\), expected \(100, 6\)"),
    ("badjson", "malformed response line"),
    ("list", "response is not a JSON object"),
    ("exit", "external model closed its output"),
])
@pytest.mark.parametrize("k", [5, 20])
def test_external_error_names_its_rotation_index(mode, message, k):
    # 16 rotations per chunk at T=100: k=5 fails inside the first chunk,
    # k=20 inside the second
    inp = _input(11, 100, 0.02)
    rotations = rotation_list(RotationStream(12), 30)
    with ExternalModel([sys.executable, FIXTURE, mode, str(k)], timeout=10.0) as model:
        with pytest.raises(ExternalModelError, match=rf"^rotation index {k}: {message}") as err:
            augment(model, inp, rotations)
    assert err.value.row is None
