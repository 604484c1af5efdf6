"""Tests of the analytic oracles, the frame-noise perturbation, and the
external line-protocol adapter."""

import json
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from rotta.dataset import Sample
from rotta.models import (
    EquivariantOracle,
    ExternalModel,
    ExternalModelError,
    NoisyOracle,
    OracleParams,
    _frame_noise,
)
from rotta.rotations import RotationStream, sample_orientation_tensor, sample_rotations
from rotta.voigt import conjugate, to_matrix, trace, von_mises

FIXTURE = str(Path(__file__).with_name("external_fixture.py"))


def _fixture_cmd(mode, *args):
    return [sys.executable, FIXTURE, mode, *map(str, args)]


def _sample_input(seed=0, n_steps=6, scale=0.02):
    s = RotationStream(seed)
    a = sample_orientation_tensor(s)
    strain = scale * s.normals(6 * n_steps).reshape(n_steps, 6)
    return Sample(id=f"s{seed}", a=a, vf=0.12, strain=strain)


def predict(model, inp):
    """The stress path of one sample's input: the model's batch of one row."""
    return model.predict_batch(inp.a[None], inp.vf, inp.strain[None])[0]


def _rotated(inp, r):
    return inp._replace(a=conjugate(r[None], inp.a)[0], strain=conjugate(r[None], inp.strain)[0])


# ------------------------------------------------------------ parameters


def test_oracle_params_validation():
    with pytest.raises(ValueError):
        OracleParams(lam=0.0)
    with pytest.raises(ValueError):
        OracleParams(sigma_y=-1.0)
    with pytest.raises(ValueError):
        OracleParams(noise_amp=-0.5)


# ----------------------------------------------------- equivariant oracle


def test_zero_strain_gives_zero_stress():
    inp = Sample(id="zero", a=np.array([0.5, 0.3, 0.2, 0.0, 0.0, 0.0]), vf=0.12,
                 strain=np.zeros((5, 6)))
    out = predict(EquivariantOracle(), inp)
    assert out.shape == (5, 6)
    assert np.array_equal(out, np.zeros((5, 6)))


def test_output_length_matches_input():
    for n_steps in (1, 3, 17):
        out = predict(EquivariantOracle(), _sample_input(n_steps=n_steps))
        assert out.shape == (n_steps, 6)


def test_oracle_hand_case():
    # lam = mu = kappa = 1, vf = 0.1, eps = 0.01*I:
    #   S = tr(eps)*I + 2*eps + 0.1*(a.eps + eps.a) = 0.05*I + 0.002*a
    params = OracleParams(lam=1.0, mu=1.0, kappa=1.0, sigma_y=1e9)
    a = np.array([0.5, 0.3, 0.2, 0.0, 0.0, 0.0])
    eps = np.array([[0.01, 0.01, 0.01, 0.0, 0.0, 0.0]])
    out = predict(EquivariantOracle(params), Sample(id="hand", a=a, vf=0.1, strain=eps))
    assert_allclose(out[0], [0.0510, 0.0506, 0.0504, 0.0, 0.0, 0.0], atol=1e-12)


def test_oracle_pure_shear_isotropic():
    # for a = I/3 the coupling term reduces to (2/3)*eps, so a pure shear
    # strain maps to a pure shear stress with factor 2*mu + (2/3)*vf*kappa
    params = OracleParams(lam=1.0, mu=3.0, kappa=9.0, sigma_y=1e9)
    a = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]) / 3.0
    e = 0.004
    eps = np.array([[0.0, 0.0, 0.0, e, 0.0, 0.0]])
    vf = 0.25
    out = predict(EquivariantOracle(params), Sample(id="shear", a=a, vf=vf, strain=eps))
    expected = (2.0 * params.mu + (2.0 / 3.0) * vf * params.kappa) * e
    assert_allclose(out[0], [0.0, 0.0, 0.0, expected, 0.0, 0.0], atol=1e-15)


def test_oracle_matches_dense_formula():
    # independent evaluation with plain 3x3 matrix algebra
    params = OracleParams(sigma_y=1e9)
    inp = _sample_input(seed=3, n_steps=4)
    out = predict(EquivariantOracle(params), inp)
    a_m = to_matrix(inp.a)
    for t in range(4):
        e_m = to_matrix(inp.strain[t])
        s_m = (
            params.lam * np.trace(e_m) * np.eye(3)
            + 2.0 * params.mu * e_m
            + inp.vf * params.kappa * (a_m @ e_m + e_m @ a_m)
        )
        assert_allclose(to_matrix(out[t]), s_m, atol=1e-12)


def test_oracle_cap_limits_von_mises():
    # push far beyond the cap; von Mises must land exactly on sigma_y while
    # the hydrostatic part is untouched
    params = OracleParams()
    inp = _sample_input(seed=5, n_steps=8, scale=0.2)
    out = predict(EquivariantOracle(params), inp)
    vm = von_mises(out)
    assert np.all(vm <= params.sigma_y + 1e-9)
    uncapped = predict(EquivariantOracle(OracleParams(sigma_y=1e9)), inp)
    capped_steps = von_mises(uncapped) > params.sigma_y
    assert np.any(capped_steps)
    assert_allclose(vm[capped_steps], params.sigma_y, atol=1e-9)
    assert_allclose(trace(out), trace(uncapped), atol=1e-9)


def test_oracle_is_equivariant():
    model = EquivariantOracle()  # default params, cap active
    for seed in range(8):
        inp = _sample_input(seed=seed, n_steps=5, scale=0.05)
        r = sample_rotations(RotationStream(100 + seed), 1)[0]
        direct = predict(model, inp)
        rotated = predict(model, _rotated(inp, r))
        assert_allclose(rotated, conjugate(r[None], direct)[0], atol=1e-10)


def test_default_params_give_plausible_magnitudes():
    # strains of a few percent should produce stresses of order 10-100 MPa
    inp = _sample_input(seed=8, n_steps=50, scale=0.015)
    vm = von_mises(predict(EquivariantOracle(), inp))
    assert 10.0 < vm.max() <= 120.0 + 1e-9


# ----------------------------------------------------------- noisy oracle


def test_noisy_requires_positive_amp():
    with pytest.raises(ValueError):
        NoisyOracle(OracleParams(noise_amp=0.0))


def test_zero_amp_equals_equivariant():
    # the perturbation scales with noise_amp, so the limit is the base model
    inp = _sample_input(seed=1)
    base = predict(EquivariantOracle(), inp)
    tiny = predict(NoisyOracle(OracleParams(noise_amp=1e-300)), inp)
    assert_allclose(tiny, base, atol=1e-290)


def test_noise_is_bounded_and_nontrivial():
    amp = 2.0
    inp = _sample_input(seed=2, n_steps=30)
    base = predict(EquivariantOracle(), inp)
    noisy = predict(NoisyOracle(OracleParams(noise_amp=amp, noise_seed=4)), inp)
    delta = noisy - base
    assert np.max(np.abs(delta)) <= amp
    assert np.max(np.abs(delta)) > 0.1 * amp
    assert np.std(delta) > 0.0


def test_noisy_is_deterministic():
    inp = _sample_input(seed=3)
    model = NoisyOracle(OracleParams(noise_amp=1.5, noise_seed=9))
    assert np.array_equal(predict(model, inp), predict(model, inp))
    again = NoisyOracle(OracleParams(noise_amp=1.5, noise_seed=9))
    assert np.array_equal(predict(model, inp), predict(again, inp))


def test_noise_seed_changes_output():
    inp = _sample_input(seed=3)
    a = predict(NoisyOracle(OracleParams(noise_amp=1.0, noise_seed=0)), inp)
    b = predict(NoisyOracle(OracleParams(noise_amp=1.0, noise_seed=1)), inp)
    assert not np.array_equal(a, b)


def test_noisy_breaks_equivariance_boundedly():
    # the back-rotated prediction of a rotated input differs from the direct
    # prediction by independent noise on both sides: nonzero, at most 4*amp
    amp = 0.5
    model = NoisyOracle(OracleParams(noise_amp=amp, noise_seed=7))
    for seed in range(5):
        inp = _sample_input(seed=seed, n_steps=10)
        r = sample_rotations(RotationStream(200 + seed), 1)[0]
        direct = predict(model, inp)
        back = conjugate(r.T[None], predict(model, _rotated(inp, r)))[0]
        diff = np.max(np.abs(back - direct))
        assert 0.0 < diff <= 4.0 * amp


def test_noise_depends_on_working_frame():
    # the same physical state described in a rotated frame hashes differently
    inp = _sample_input(seed=4)
    r = sample_rotations(RotationStream(300), 1)[0]
    model = NoisyOracle(OracleParams(noise_amp=1.0, noise_seed=0))
    base = EquivariantOracle()
    noise_direct = predict(model, inp) - predict(base, inp)
    rotated = _rotated(inp, r)
    noise_rotated = predict(model, rotated) - predict(base, rotated)
    assert not np.allclose(noise_direct, conjugate(r.T[None], noise_rotated)[0], atol=1e-3)


def _mix_allocating(x):
    with np.errstate(over="ignore"):
        x = x + np.uint64(0x9E3779B97F4A7C15)
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return x


def _frame_noise_allocating(seed, a, vf, strain):
    """The frame noise as it was before it mixed in place: a new array per step."""
    quantize = lambda v: np.round(np.asarray(v, dtype=float) / 1e-9).astype(np.int64).astype(np.uint64)  # noqa: E731
    a_words = quantize(a)
    h = _mix_allocating(np.full(a_words.shape[:-1], int(seed) & 0xFFFFFFFFFFFFFFFF, dtype=np.uint64))
    for c in range(6):
        h = _mix_allocating(h ^ a_words[..., c])
    h = _mix_allocating(h ^ quantize(vf))
    eps_words = quantize(strain)
    t_hash = h[..., None]
    for c in range(6):
        t_hash = _mix_allocating(t_hash ^ eps_words[..., c])
    t_hash = _mix_allocating(t_hash ^ np.arange(1, eps_words.shape[-2] + 1, dtype=np.uint64))
    comp_hash = _mix_allocating(t_hash[..., None] ^ np.arange(1, 7, dtype=np.uint64))
    return 2.0 * ((comp_hash >> np.uint64(11)) * 2.0**-53) - 1.0


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    shape=st.sampled_from([(7, 30), (30,), (1,), (2, 1)]),
    exponent=st.integers(-5, 4),
    zeros=st.sampled_from([0.0, 0.3]),
)
def test_in_place_noise_has_the_words_of_the_allocating_form(seed, shape, exponent, zeros):
    # (P, T, 6) stacks, a (T, 6) path, a single step; signed zeros and magnitudes 1e-5 to 1e4
    rng = np.random.default_rng(seed % 2**32)
    a = rng.standard_normal(shape[:-1] + (6,)) * 10.0**exponent
    strain = rng.standard_normal(shape + (6,)) * 10.0**exponent
    for x in (a, strain):
        u = rng.random(x.shape)
        x[u < zeros / 2] = 0.0
        x[(u >= zeros / 2) & (u < zeros)] = -0.0
    vf = float(rng.random())
    got = _frame_noise(seed, a, vf, strain)
    assert got.shape == strain.shape
    assert np.array_equal(got.view(np.uint64), _frame_noise_allocating(seed, a, vf, strain).view(np.uint64))


def test_noise_peak_memory_stays_below_three_results():
    # an (81, 100, 6) kernel chunk: the spent strain words serve as the last mix's scratch
    rng = np.random.default_rng(5)
    a, strain = rng.standard_normal((81, 6)), rng.standard_normal((81, 100, 6))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        noise = _frame_noise(3, a, 0.2, strain)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 3 * noise.nbytes  # 3.5 results when the last mix allocated its own scratch


# ------------------------------------------------------- external adapter


def test_external_echo_round_trip():
    inp = _sample_input(seed=6, n_steps=5)
    with ExternalModel(_fixture_cmd("echo")) as model:
        out = predict(model, inp)
    assert_allclose(out, inp.strain, rtol=0, atol=0)


def test_external_multiple_requests_same_process():
    with ExternalModel(_fixture_cmd("echo")) as model:
        for seed in (1, 2, 3):
            inp = _sample_input(seed=seed, n_steps=4)
            assert_allclose(predict(model, inp), inp.strain, rtol=0, atol=0)


def test_external_short_response_rejected():
    with ExternalModel(_fixture_cmd("short")) as model:
        with pytest.raises(ExternalModelError, match="expected"):
            predict(model, _sample_input())


def test_external_nan_rejected():
    with ExternalModel(_fixture_cmd("nan")) as model:
        with pytest.raises(ExternalModelError, match="non-finite"):
            predict(model, _sample_input())


def test_external_malformed_line_rejected():
    with ExternalModel(_fixture_cmd("badjson")) as model:
        with pytest.raises(ExternalModelError, match="malformed"):
            predict(model, _sample_input())


def test_external_id_mismatch_rejected():
    with ExternalModel(_fixture_cmd("badid")) as model:
        with pytest.raises(ExternalModelError, match="id"):
            predict(model, _sample_input())


def test_external_non_object_rejected():
    with ExternalModel(_fixture_cmd("list")) as model:
        with pytest.raises(ExternalModelError, match=r"not a JSON object: b'\[1, 2\]'"):
            predict(model, _sample_input())


def test_external_early_exit_rejected():
    with ExternalModel(_fixture_cmd("quit")) as model:
        with pytest.raises(ExternalModelError, match="closed"):
            predict(model, _sample_input())


def test_external_closed_output_reports_the_exit_status_of_a_child_still_exiting():
    # the child closes stdout 0.2 s before it exits: the status is waited for, not polled
    with ExternalModel(_fixture_cmd("hangup"), timeout=10.0) as model:
        with pytest.raises(ExternalModelError, match=r"closed its output \(exit status 3\)"):
            predict(model, _sample_input())


def test_external_closed_output_of_a_child_that_keeps_running_says_so():
    real_wait = subprocess.Popen.wait

    def never_exits(self, timeout=None):  # every bounded wait runs out
        if timeout is None:
            return real_wait(self)
        raise subprocess.TimeoutExpired(self.args, timeout)

    with mock.patch.object(subprocess.Popen, "wait", never_exits):
        with ExternalModel(_fixture_cmd("hangup"), timeout=10.0) as model:
            with pytest.raises(ExternalModelError, match=r"closed its output \(still running after the 10\.0 s timeout\)"):
                predict(model, _sample_input())


def test_external_dead_child_is_not_respawned():
    inp = _sample_input(seed=3, n_steps=4)
    with ExternalModel(_fixture_cmd("once")) as model:
        assert_allclose(predict(model, inp), inp.strain, rtol=0, atol=0)
        child = model._proc
        child.wait(timeout=10.0)
        for _ in range(2):
            with pytest.raises(ExternalModelError, match="exit status 0"):
                predict(model, inp)
        assert model._proc is child


def test_external_close_kills_and_reaps_a_child_that_ignores_terminate():
    inp = _sample_input(seed=2, n_steps=3)
    model = ExternalModel(_fixture_cmd("stubborn"))
    assert_allclose(predict(model, inp), inp.strain, rtol=0, atol=0)  # its SIGTERM handler is set
    child = model._proc
    real_wait = subprocess.Popen.wait

    def short_wait(self, timeout=None):  # the grace period after terminate, cut short
        return real_wait(self, None if timeout is None else min(timeout, 0.2))

    with mock.patch.object(subprocess.Popen, "wait", short_wait):
        model.close()
    assert child.returncode == -signal.SIGKILL
    assert child.stdin.closed and child.stdout.closed
    assert model._proc is None


def test_external_timeout():
    with ExternalModel(_fixture_cmd("silent"), timeout=0.3) as model:
        with pytest.raises(ExternalModelError, match="timed out"):
            predict(model, _sample_input())


def test_external_unstartable_command():
    with ExternalModel(["/nonexistent/binary/xyz"]) as model:
        with pytest.raises(ExternalModelError, match="cannot start"):
            predict(model, _sample_input())


def test_external_command_string_is_split():
    model = ExternalModel(f"{sys.executable} {FIXTURE} echo")
    try:
        inp = _sample_input(seed=9, n_steps=2)
        assert_allclose(predict(model, inp), inp.strain, rtol=0, atol=0)
    finally:
        model.close()


# ---------------------------------------------------- pipelined batches


def _batch(n_rows, n_steps, seed=0):
    s = RotationStream(seed)
    a = np.stack([sample_orientation_tensor(s) for _ in range(n_rows)])
    return a, 0.12, 0.02 * s.normals(n_rows * n_steps * 6).reshape(n_rows, n_steps, 6)


def test_external_batch_matches_rows_by_id():
    a, vf, strain = _batch(16, 7, seed=4)
    with ExternalModel(_fixture_cmd("echo")) as model:
        assert np.array_equal(model.predict_batch(a, vf, strain), strain)
        assert np.array_equal(model.predict_batch(a[:3], vf, strain[:3]), strain[:3])
        assert model._next_id == 19


def test_external_batch_out_of_order_with_lines_split_across_writes():
    # responses arrive out of order, cut mid-line and several to one write
    a, vf, strain = _batch(16, 9, seed=5)
    with ExternalModel(_fixture_cmd("split"), timeout=10.0) as model:
        assert np.array_equal(model.predict_batch(a, vf, strain), strain)
        assert np.array_equal(predict(model, Sample("row", a[2], vf, strain[2])), strain[2])


def test_external_batch_larger_than_the_pipes_does_not_deadlock():
    # every request and every response exceeds a 64 KiB pipe buffer, so a
    # client that wrote the whole batch before reading would block forever
    a, vf, strain = _batch(16, 1500, seed=6)
    with ExternalModel(_fixture_cmd("echo"), timeout=20.0) as model:
        start = time.monotonic()
        out = model.predict_batch(a, vf, strain)
        assert time.monotonic() - start < 20.0
    assert len(json.dumps(strain[0].tolist())) > 65536
    assert np.array_equal(out, strain)


def test_external_timeout_covers_writes():
    # a request far larger than the pipe buffer, to a child that never reads
    with ExternalModel(_fixture_cmd("deaf"), timeout=0.5) as model:
        start = time.monotonic()
        with pytest.raises(ExternalModelError, match="timed out") as err:
            predict(model, _sample_input(n_steps=5000))
        assert time.monotonic() - start < 5.0
    assert err.value.row == 0


def test_external_timeout_counts_from_the_last_progress():
    # 16 answers 0.05 s apart take longer than the timeout, but none is late
    a, vf, strain = _batch(16, 4, seed=8)
    with ExternalModel(_fixture_cmd("slow"), timeout=0.4) as model:
        assert np.array_equal(model.predict_batch(a, vf, strain), strain)
