"""Tests of the analytic oracles, the frame-noise perturbation, and the
external line-protocol adapter."""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rotta.models import (
    EquivariantOracle,
    ExternalModel,
    ExternalModelError,
    ModelInput,
    NoisyOracle,
    OracleParams,
    predict,
)
from rotta.rotations import RotationStream, sample_orientation_tensor, sample_rotation
from rotta.voigt import rotate_sym, to_matrix, trace, von_mises, von_mises_path

FIXTURE = str(Path(__file__).with_name("external_fixture.py"))


def _fixture_cmd(mode, *args):
    return [sys.executable, FIXTURE, mode, *map(str, args)]


def _sample_input(seed=0, n_steps=6, scale=0.02):
    s = RotationStream(seed)
    a = sample_orientation_tensor(s)
    strain = scale * s.normals(6 * n_steps).reshape(n_steps, 6)
    return ModelInput(a=a, vf=0.12, strain=strain)


def _rotated(inp, r):
    return ModelInput(a=rotate_sym(inp.a, r), vf=inp.vf, strain=rotate_sym(inp.strain, r))


# ------------------------------------------------------------ model input


def test_model_input_validate():
    _sample_input().validate()
    with pytest.raises(ValueError):
        ModelInput(a=np.zeros(5), vf=0.1, strain=np.zeros((3, 6))).validate()
    with pytest.raises(ValueError):
        ModelInput(a=np.zeros(6), vf=0.1, strain=np.zeros((0, 6))).validate()
    with pytest.raises(ValueError):
        ModelInput(a=np.zeros(6), vf=1.5, strain=np.zeros((3, 6))).validate()
    bad = np.zeros((3, 6))
    bad[1, 2] = np.inf
    with pytest.raises(ValueError):
        ModelInput(a=np.zeros(6), vf=0.1, strain=bad).validate()


def test_oracle_params_validation():
    with pytest.raises(ValueError):
        OracleParams(lam=0.0)
    with pytest.raises(ValueError):
        OracleParams(sigma_y=-1.0)
    with pytest.raises(ValueError):
        OracleParams(noise_amp=-0.5)


def test_predict_checks_output_shape():
    class Truncating:
        def predict(self, inp):
            return np.zeros((inp.n_steps - 1, 6))

    with pytest.raises(ExternalModelError):
        predict(Truncating(), _sample_input())


# ----------------------------------------------------- equivariant oracle


def test_zero_strain_gives_zero_stress():
    inp = ModelInput(a=np.array([0.5, 0.3, 0.2, 0.0, 0.0, 0.0]), vf=0.12,
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
    out = predict(EquivariantOracle(params), ModelInput(a=a, vf=0.1, strain=eps))
    assert_allclose(out[0], [0.0510, 0.0506, 0.0504, 0.0, 0.0, 0.0], atol=1e-12)


def test_oracle_pure_shear_isotropic():
    # for a = I/3 the coupling term reduces to (2/3)*eps, so a pure shear
    # strain maps to a pure shear stress with factor 2*mu + (2/3)*vf*kappa
    params = OracleParams(lam=1.0, mu=3.0, kappa=9.0, sigma_y=1e9)
    a = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]) / 3.0
    e = 0.004
    eps = np.array([[0.0, 0.0, 0.0, e, 0.0, 0.0]])
    vf = 0.25
    out = predict(EquivariantOracle(params), ModelInput(a=a, vf=vf, strain=eps))
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
    vm = von_mises_path(out)
    assert np.all(vm <= params.sigma_y + 1e-9)
    uncapped = predict(EquivariantOracle(OracleParams(sigma_y=1e9)), inp)
    capped_steps = von_mises_path(uncapped) > params.sigma_y
    assert np.any(capped_steps)
    assert_allclose(vm[capped_steps], params.sigma_y, atol=1e-9)
    assert_allclose(trace(out), trace(uncapped), atol=1e-9)


def test_oracle_is_equivariant():
    model = EquivariantOracle()  # default params, cap active
    for seed in range(8):
        inp = _sample_input(seed=seed, n_steps=5, scale=0.05)
        r = sample_rotation(RotationStream(100 + seed))
        direct = predict(model, inp)
        rotated = predict(model, _rotated(inp, r))
        assert_allclose(rotated, rotate_sym(direct, r), atol=1e-10)


def test_default_params_give_plausible_magnitudes():
    # strains of a few percent should produce stresses of order 10-100 MPa
    inp = _sample_input(seed=8, n_steps=50, scale=0.015)
    vm = von_mises_path(predict(EquivariantOracle(), inp))
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
        r = sample_rotation(RotationStream(200 + seed))
        direct = predict(model, inp)
        back = rotate_sym(predict(model, _rotated(inp, r)), r.T)
        diff = np.max(np.abs(back - direct))
        assert 0.0 < diff <= 4.0 * amp


def test_noise_depends_on_working_frame():
    # the same physical state described in a rotated frame hashes differently
    inp = _sample_input(seed=4)
    r = sample_rotation(RotationStream(300))
    model = NoisyOracle(OracleParams(noise_amp=1.0, noise_seed=0))
    base = EquivariantOracle()
    noise_direct = predict(model, inp) - predict(base, inp)
    rotated = _rotated(inp, r)
    noise_rotated = predict(model, rotated) - predict(base, rotated)
    assert not np.allclose(noise_direct, rotate_sym(noise_rotated, r.T), atol=1e-3)


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
        assert np.array_equal(model.predict(ModelInput(a[2], vf, strain[2])), strain[2])


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
