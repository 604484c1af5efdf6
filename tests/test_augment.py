"""Property tests of the augmentation kernel against the per-rotation loop.

The kernel must give every back-rotated row the same bits as rotating,
predicting and back-rotating one rotation at a time, for any chunk size and
any prefix of the rotation list: the noisy oracle hashes its quantized
working-frame inputs, so a change in the last bits changes the noise.  Its
two arithmetic layers, the Voigt conjugation and the oracle, must also keep
the bits of the full-matrix einsum forms they replace, which stay here as
oracles.
"""

import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotta import tta
from rotta.models import (
    EquivariantOracle,
    ExternalModel,
    ExternalModelError,
    ModelInput,
    NoisyOracle,
    OracleParams,
)
from rotta.rotations import RotationStream, rotation_list, sample_orientation_tensor
from rotta.tta import augment
from rotta.voigt import conjugate, from_matrix, inverse_rotate_sym, rotate_sym, to_matrix, trace, von_mises

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
    """The reference: one rotate -> predict a one-row batch -> back-rotate per rotation."""
    rows = []
    for r in rotations:
        rotated = ModelInput(a=rotate_sym(inp.a, r), vf=inp.vf, strain=rotate_sym(inp.strain, r)).validate()
        rows.append(inverse_rotate_sym(model.predict_batch(rotated.a[None], inp.vf, rotated.strain[None])[0], r))
    return np.stack(rows)


def _augment(model, inp, rotations, chunk):
    with mock.patch.object(tta, "_CHUNK_STEPS", chunk * inp.n_steps):
        return augment(model, inp, rotations)


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


def test_wrong_batch_shape_is_an_external_error():
    class Short(EquivariantOracle):
        def predict_batch(self, a, vf, strain):
            return super().predict_batch(a, vf, strain)[..., :-1, :]

    inp = _input(1, 6, 0.02)
    rotations = rotation_list(RotationStream(2), 5)
    with pytest.raises(ExternalModelError, match=r"rotation indices 0-2: model returned shape \(3, 5, 6\)"):
        _augment(Short(), inp, rotations, chunk=3)


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


@pytest.mark.parametrize("n", [80, 1000])
def test_a_chunk_holds_the_step_budget(n):
    # the unpatched budget: 81 rotations of a 100-step path go in one call
    inp = _input(21, 100, 0.02)
    model = _model(True, 21)
    rotations = rotation_list(RotationStream(22), n)
    with mock.patch.object(model, "predict_batch", wraps=model.predict_batch) as batch:
        out = augment(model, inp, rotations)
    per_call = tta._CHUNK_STEPS // inp.n_steps
    rows = [len(call.args[2]) for call in batch.call_args_list]
    assert len(rows) == -(-(n + 1) // per_call)
    assert sum(rows) == n + 1 and set(rows[:-1]) <= {per_call}
    if n == 80:
        assert rows == [81]
    assert np.array_equal(out, _loop(model, inp, rotations))


# ------------------------------------- bits of the conjugation and oracle


def assert_same_bits(got, want):
    """Equal as uint64 words, so -0.0 and +0.0 differ; NaN only has to sit in the same places.

    The sign of a NaN is not part of the contract: numpy's own in-place add
    of ``+nan`` to ``-nan`` keeps one or the other depending on where the
    element sits in the array, so no summation order can pin it.
    """
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def _einsum_conjugate(r, x):
    """The full-matrix forms the kernel used for ``x`` of shape (6,), (T, 6) and (P, T, 6)."""
    spec = {1: "pij,jk,plk->pil", 2: "pij,tjk,plk->ptil", 3: "pij,ptjk,plk->ptil"}[x.ndim]
    return from_matrix(np.einsum(spec, r, to_matrix(x), r, optimize=False))


def _einsum_oracle(p, a, vf, strain):
    """The full-matrix form of ``EquivariantOracle.predict_batch``."""
    eps_m = to_matrix(strain)
    a_m = to_matrix(a)[..., None, :, :]
    coupling = np.einsum("...ij,...jk->...ik", a_m, eps_m) + np.einsum("...ij,...jk->...ik", eps_m, a_m)
    s_m = p.lam * trace(strain)[..., None, None] * np.eye(3) + 2.0 * p.mu * eps_m + vf * p.kappa * coupling
    s = from_matrix(s_m)
    mean = trace(s) / 3.0
    dev = s.copy()
    dev[..., :3] -= mean[..., None]
    vm = von_mises(s)
    scale = np.where(vm > p.sigma_y, p.sigma_y / np.where(vm > 0, vm, 1.0), 1.0)
    return dev * scale[..., None] + mean[..., None] * np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])


_HALF_TURNS = np.array([np.diag(d) for d in ([1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0])])


def _rotations(rng, seed, n, kind):
    """``n`` rotations: random (row 0 the identity), all identity, all half-turns, or a mix of the three."""
    r = rotation_list(RotationStream(seed), n - 1)
    if kind == "identity":
        r[:] = np.eye(3)
    elif kind == "half":
        r = _HALF_TURNS[rng.integers(0, 3, n)]
    elif kind == "mixed":
        pick = rng.integers(0, 3, n)
        r[pick == 1] = np.eye(3)
        r[pick == 2] = _HALF_TURNS[rng.integers(0, 3, int(np.sum(pick == 2)))]
    return r


def _values(rng, shape, scale, sign, zeros, special):
    """Normal entries of one sign pattern, a share of them exact +0.0/-0.0, optionally inf and NaN."""
    x = scale * rng.standard_normal(shape)
    if sign == "negative":
        x = -np.abs(x)
    u = rng.random(shape)
    x[u < zeros] = 0.0
    x[(u >= zeros) & (u < 2 * zeros)] = -0.0
    if special:
        x[rng.random(shape) < 0.04] = np.inf
        x[rng.random(shape) < 0.04] = -np.inf
        x[rng.random(shape) < 0.04] = np.nan
    return x


bit_cases = dict(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(1, 20),
    t=st.integers(1, 120),
    kind=st.sampled_from(["random", "identity", "half", "mixed"]),
    scale=st.sampled_from([1e-300, 1e-4, 1.0, 3e3, 1e300]),
    sign=st.sampled_from(["any", "negative"]),
    zeros=st.sampled_from([0.0, 0.2, 0.5]),
    special=st.booleans(),
)


@settings(max_examples=150, deadline=None)
@given(shape=st.sampled_from(["one", "path", "stack"]), **bit_cases)
@example(shape="one", seed=0, p=1, t=1, kind="random", scale=1.0, sign="any", zeros=0.0, special=False)
@example(shape="path", seed=0, p=1, t=1, kind="random", scale=1.0, sign="any", zeros=0.0, special=False)
@example(shape="stack", seed=0, p=1, t=1, kind="random", scale=1.0, sign="any", zeros=0.0, special=False)
def test_conjugate_has_the_bits_of_the_einsum(shape, seed, p, t, kind, scale, sign, zeros, special):
    rng = np.random.default_rng(seed)
    r = _rotations(rng, seed, p, kind)
    x = _values(rng, {"one": (6,), "path": (t, 6), "stack": (p, t, 6)}[shape], scale, sign, zeros, special)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # silent on overflow and inf * 0, as einsum is
        got = conjugate(r, x)
        assert_same_bits(got, _einsum_conjugate(r, x))
        # back-rotation: the forward form of the transposed rotations
        rt = r.transpose(0, 2, 1)
        assert_same_bits(conjugate(rt, x), _einsum_conjugate(np.ascontiguousarray(rt), x))


@settings(max_examples=60, deadline=None)
@given(**bit_cases)
@example(seed=0, p=1, t=1, kind="random", scale=1.0, sign="any", zeros=0.0, special=False)
def test_rotate_sym_has_the_bits_of_the_einsum(seed, p, t, kind, scale, sign, zeros, special):
    rng = np.random.default_rng(seed)
    r = _rotations(rng, seed, 1, kind)[0]
    for shape in [(6,), (t, 6), (p, t, 6)]:
        x = _values(rng, shape, scale, sign, zeros, special)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_same_bits(rotate_sym(x, r), from_matrix(np.einsum("ij,...jk,lk->...il", r, to_matrix(x), r)))
            assert_same_bits(inverse_rotate_sym(x, r), from_matrix(np.einsum("ji,...jk,kl->...il", r, to_matrix(x), r)))


def test_conjugate_sums_from_positive_zero():
    # every term is -0.0: a sum that starts from its first term keeps -0.0,
    # einsum starts from +0.0 and gives +0.0
    x = np.full(6, -0.0)
    x[3:] = -1.0
    for r in (np.eye(3)[None], _HALF_TURNS[:1]):
        want = _einsum_conjugate(r, x)
        assert not np.any(np.signbit(want[:, :3]))
        assert_same_bits(conjugate(r, x), want)


@settings(max_examples=120, deadline=None)
@given(batched=st.booleans(), vf=st.floats(-1.0, 1.0), **bit_cases)
@example(batched=True, vf=0.1, seed=0, p=1, t=1, kind="random", scale=1.0, sign="any", zeros=0.0, special=False)
def test_oracle_has_the_bits_of_the_einsum(batched, vf, seed, p, t, kind, scale, sign, zeros, special):
    rng = np.random.default_rng(seed)
    a_shape, eps_shape = ((p, 6), (p, t, 6)) if batched else ((6,), (t, 6))
    a = _values(rng, a_shape, 1.0, sign, zeros, special)
    strain = _values(rng, eps_shape, scale * 1e-3, sign, zeros, special)
    oracle = EquivariantOracle()
    with np.errstate(all="ignore"):  # both forms warn alike outside the sums
        assert_same_bits(oracle.predict_batch(a, vf, strain), _einsum_oracle(oracle.params, a, vf, strain))


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
