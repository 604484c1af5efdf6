"""Tests of the rotation-augmented inference engine: input rotation,
aggregation, spread, and the numerics audit."""

from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rotta import tta
from rotta.dataset import Sample, generate_synthetic
from rotta.models import EquivariantOracle, ExternalModelError, NoisyOracle, OracleParams
from rotta.rotations import RotationStream, rotation_list, sample_orientation_tensor, sample_rotations
from rotta.tta import (
    EmptyInput,
    augment,
    compensated_sums,
    mean_divisor,
    numerics_audit,
    run_tta,
)
from rotta.voigt import trace, von_mises

R_X3_90 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def _sample(seed=0, n_steps=8, scale=0.02):
    s = RotationStream(seed)
    a = sample_orientation_tensor(s)
    strain = scale * s.normals(6 * n_steps).reshape(n_steps, 6)
    return Sample(id=f"s{seed}", a=a, vf=0.13, strain=strain)


def _samples(*seeds, n_steps=8):
    """One-path dataset per seed: the samples ``s<seed>`` of :func:`_sample`."""
    return [_sample(seed=seed, n_steps=n_steps) for seed in seeds]


def _reduce(paths, mode="count"):
    """The reducer's result for one sample's ``(P, T, 6)`` back-rotated paths, as a dataset of one."""
    paths = np.asarray(paths, dtype=float)
    p, t = paths.shape[:2]
    reduced = tta._reduce_sample(np.empty((p, 7 * t)), [(0, paths)], mean_divisor(p, mode))
    return tta.TTAResult(*(array[None] for array in reduced))


# ------------------------------------------------------------ input rotation


class Recorder(EquivariantOracle):
    """The equivariant oracle, keeping the rotated inputs the kernel passes it."""

    def predict_batch(self, a, vf, strain):
        self.seen = (a, vf, strain)
        return super().predict_batch(a, vf, strain)


def _rotated_input(inp, rotations):
    """The ``(a, vf, strain)`` batch the kernel hands a model for ``rotations``."""
    model = Recorder()
    augment(model, inp, rotations)
    return model.seen


def test_rotate_input_identity():
    inp = _sample()
    a, vf, strain = _rotated_input(inp, np.eye(3)[None])
    assert np.array_equal(a[0], inp.a)
    assert np.array_equal(strain[0], inp.strain)
    assert vf == inp.vf


def test_rotate_input_preserves_orientation_trace():
    for seed in range(10):
        inp = _sample(seed=seed)
        r = RotationStream(seed)
        r.uniforms(3)  # desynchronize from the input draw
        a, _, _ = _rotated_input(inp, sample_rotations(r, 1))
        assert trace(a[0]) == pytest.approx(trace(inp.a), abs=1e-12)


def test_rotate_input_hand_case():
    a = np.array([0.6, 0.3, 0.1, 0.0, 0.0, 0.0])
    inp = Sample(id="hand", a=a, vf=0.1, strain=np.zeros((2, 6)))
    rotated, _, _ = _rotated_input(inp, R_X3_90[None])
    assert_allclose(rotated[0], [0.3, 0.6, 0.1, 0.0, 0.0, 0.0], atol=1e-15)


# ------------------------------------------------------------- aggregation


def test_aggregate_identical_predictions():
    p = np.full((5, 3, 6), 2.5)
    assert_allclose(_reduce(p, "count").aggregated[0], np.full((3, 6), 2.5), rtol=0, atol=0)


def test_aggregate_divisor_modes():
    # two single-step paths holding 0 and 2 in one component
    p = np.zeros((2, 1, 6))
    p[1, 0, 0] = 2.0
    assert _reduce(p, "count").aggregated[0, 0, 0] == 1.0  # (0+2)/2
    assert _reduce(p, "paper").aggregated[0, 0, 0] == 2.0  # (0+2)/1, sum over 0..N divided by N


def test_aggregate_rejects_bad_input():
    with pytest.raises(EmptyInput):
        _reduce(np.zeros((1, 3, 6)), "paper")  # N = 0 has no divisor
    with pytest.raises(EmptyInput):
        mean_divisor(1, "paper")
    with pytest.raises(ValueError):
        mean_divisor(2, "banana")


def test_aggregate_order_independence():
    # compensated summation keeps the mean identical under any ordering of
    # well-scaled predictions
    rng = np.random.default_rng(0)
    p = rng.standard_normal((64, 4, 6))
    mean = _reduce(p).aggregated
    perm = rng.permutation(64)
    assert_allclose(_reduce(p[perm]).aggregated, mean, atol=1e-14)


def test_compensated_sums_are_the_kahan_loop_at_each_checkpoint():
    rng = np.random.default_rng(4)
    p = rng.standard_normal((12, 3, 6)) * 10.0 ** rng.integers(-8, 8, (12, 3, 6))
    p[rng.random(p.shape) < 0.2] = -0.0
    at = [0, 3, 4, 11]
    # any iterable of rows: the sweep streams the kernel's rows
    totals = iter(compensated_sums((row for row in p), at))
    total, carry = np.zeros((3, 6)), np.zeros((3, 6))  # the reference starts from zero arrays
    for k, row in enumerate(p):
        y = row - carry
        t = total + y
        carry = (t - total) - y
        total = t
        if k in at:
            assert next(totals).tobytes() == total.tobytes()
    assert next(totals, None) is None


# ------------------------------------------------------------------ spread


def test_sd_of_identical_predictions_is_zero():
    res = _reduce(np.full((4, 3, 6), 1.25))
    assert np.array_equal(res.sd[0], np.zeros((3, 6)))
    assert np.array_equal(res.vm_sd[0], np.zeros(3))


def _uniaxial(*values):
    """Single-step paths holding ``values`` in the 11 component, whose von Mises stresses are ``abs(values)``."""
    p = np.zeros((len(values), 1, 6))
    p[:, 0, 0] = values
    return p


def test_sd_hand_case():
    # rows 0..N hold 2, 1 and 3, aggregated value 2; rows 1..N about it:
    # sqrt(((1-2)^2 + (3-2)^2) / 2) = 1, the same for the von Mises channel
    res = _reduce(_uniaxial(2.0, 1.0, 3.0))
    assert res.aggregated[0, 0, 0] == 2.0
    assert res.sd[0, 0, 0] == 1.0
    assert res.vm_sd[0, 0] == 1.0


def test_sd_homogeneity():
    rng = np.random.default_rng(1)
    p = rng.standard_normal((6, 4, 6))
    sd = _reduce(p).sd
    for c in (3.0, -2.0):
        assert_allclose(_reduce(c * p).sd, abs(c) * sd, atol=1e-12)


def test_vm_sd_nonnegative_and_zero_on_identical():
    rng = np.random.default_rng(2)
    p = rng.uniform(1.0, 5.0, size=(5, 7, 6))
    assert np.all(_reduce(p).vm_sd >= 0.0)
    same = np.tile(rng.integers(-40, 40, size=(1, 7, 6)) / 8.0, (4, 1, 1))  # dyadic: every sum is exact
    assert np.array_equal(_reduce(same).vm_sd, np.zeros((1, 7)))


def test_sd_needs_two_rows():
    # a single prediction has no spread to form: both spreads are zeros
    res = _reduce(np.full((1, 2, 6), 3.0))
    assert np.array_equal(res.sd, np.zeros((1, 2, 6)))
    assert np.array_equal(res.vm_sd, np.zeros((1, 2)))


# ------------------------------------------------------------------ engine


def test_equivariant_predictions_all_agree():
    samples, rotations = _samples(0, 1), rotation_list(RotationStream(3), 8)
    res = run_tta(EquivariantOracle(), samples, rotations)
    stack = np.stack([augment(EquivariantOracle(), s, rotations) for s in samples])
    spread = stack.max(axis=1) - stack.min(axis=1)
    assert np.max(spread) <= 1e-10
    assert np.max(res.sd) <= 1e-10
    assert np.max(res.vm_sd) <= 1e-10


def test_zero_rotations_is_identity_prediction():
    res = run_tta(EquivariantOracle(), _samples(4), rotation_list(RotationStream(0), 0))
    assert res.vm_individual.shape[1] == 1
    assert np.array_equal(res.aggregated, res.initial)
    assert np.array_equal(res.sd, np.zeros_like(res.aggregated))


def test_noisy_sd_scales_with_amplitude():
    amp = 2.0
    model = NoisyOracle(OracleParams(noise_amp=amp, noise_seed=1))
    res = run_tta(model, _samples(5, n_steps=20), rotation_list(RotationStream(6), 64))
    mean_sd = float(np.mean(res.sd))
    assert 0.2 * amp <= mean_sd <= 3.0 * amp


def test_result_shapes_and_vm_channels():
    res = run_tta(EquivariantOracle(), _samples(6, 7, n_steps=7), rotation_list(RotationStream(7), 5))
    assert res.initial.shape == (2, 7, 6)
    assert res.aggregated.shape == (2, 7, 6)
    assert res.sd.shape == (2, 7, 6)
    assert res.vm_individual.shape == (2, 6, 7)
    assert res.vm_aggregated.shape == (2, 7)
    assert res.vm_sd.shape == (2, 7)
    # the aggregated von Mises channel is derived from the aggregated path
    for aggregated, vm_aggregated in zip(res.aggregated, res.vm_aggregated):
        assert_allclose(vm_aggregated, von_mises(aggregated), rtol=0, atol=0)


def test_run_is_deterministic():
    samples = _samples(7)
    a = run_tta(EquivariantOracle(), samples, rotation_list(RotationStream(11), 5))
    b = run_tta(EquivariantOracle(), samples, rotation_list(RotationStream(11), 5))
    assert np.array_equal(a.aggregated, b.aggregated)
    assert np.array_equal(a.initial, b.initial)
    assert np.array_equal(a.vm_individual, b.vm_individual)


def test_paper_divisor_scales_mean():
    samples, rotations = _samples(9), rotation_list(RotationStream(1), 2)
    count = run_tta(EquivariantOracle(), samples, rotations)
    paper = run_tta(EquivariantOracle(), samples, rotations, "paper")
    # same 3-term sum, divisors 3 versus 2
    assert_allclose(paper.aggregated, count.aggregated * 1.5, atol=1e-12)


def test_external_error_is_annotated_with_rotation_index():
    class Flaky:
        def predict_batch(self, a, vf, strain):
            raise ExternalModelError("boom", row=2)

    with pytest.raises(ExternalModelError, match=r"^sample s0: rotation index 2: boom$") as err:
        run_tta(Flaky(), _samples(0), rotation_list(RotationStream(2), 5))
    assert err.value.row is None


class Counting(EquivariantOracle):
    """The equivariant oracle, counting its ``predict_batch`` calls."""

    calls = 0

    def predict_batch(self, a, vf, strain):
        self.calls += 1
        return super().predict_batch(a, vf, strain)


def test_rejects_invalid_input():
    rotations = rotation_list(RotationStream(3), 3)
    swapped = rotations[[1, 0, 2, 3]]
    cases = [
        ([], rotations, "count", "at least one sample"),
        (_samples(0) + _samples(1, n_steps=5), rotations, "count", "sample s1: strain path shape"),
        (_samples(0), rotations[:0], "count", r"a \(P, 3, 3\) list with P >= 1, got shape \(0, 3, 3\)"),
        (_samples(0), rotations[0], "count", r"got shape \(3, 3\)"),
        (_samples(0), rotations[:, :2], "count", r"got shape \(4, 2, 3\)"),
        (_samples(0), swapped, "count", "rotation index 0 must be exactly the identity"),
        (_samples(0), rotations, "median", "unknown divisor mode 'median'"),
        (_samples(0), rotations[:1], "paper", "at least one random rotation"),  # EmptyInput
    ]
    for samples, rots, mode, message in cases:
        model = Counting()
        with pytest.raises(ValueError, match=message):
            run_tta(model, samples, rots, mode)
        assert model.calls == 0  # raised before the first prediction


def test_mixed_path_length_is_rejected_before_any_prediction():
    samples = _samples(0, 1, n_steps=10) + _samples(2, n_steps=12)
    message = r"^sample s2: strain path shape \(12, 6\) differs from the first sample's \(10, 6\)$"
    model = Counting()
    with pytest.raises(ValueError, match=message):
        run_tta(model, samples, rotation_list(RotationStream(0), 3))
    assert model.calls == 0


def test_each_sample_is_reduced_in_two_compensated_passes():
    with mock.patch.object(tta, "compensated_sums", wraps=tta.compensated_sums) as sums:
        run_tta(NoisyOracle(OracleParams(noise_amp=5.0)), _samples(0, 1, 2), rotation_list(RotationStream(3), 6))
    assert sums.call_count == 2 * 3  # per sample: the mean, then both spreads
    res = _reduce(np.random.default_rng(0).standard_normal((5, 4, 6)))
    assert res.sd.flags.c_contiguous and res.vm_sd.flags.c_contiguous


# ------------------------------------------------------------------- audit


def test_audit_identity_only_is_exact():
    samples = generate_synthetic(4, 10, stream=RotationStream(0))
    report = numerics_audit(samples, EquivariantOracle(), RotationStream(1), identity_only=True)
    assert report.input_err == 0.0
    assert report.target_err == 0.0
    assert report.output_err == 0.0
    assert report.n_samples == 4
    assert report.n_with_target == 4


def test_audit_errors_are_rounding_sized():
    samples = generate_synthetic(6, 12, stream=RotationStream(2))
    report = numerics_audit(samples, EquivariantOracle(), RotationStream(3))
    assert 0.0 < report.input_err < 1e-12
    assert 0.0 < report.target_err < 1e-10
    assert 0.0 < report.output_err < 1e-10


def test_audit_scales_with_magnitude():
    # round-trip error is relative: inputs scaled by 1e3 must scale the
    # reported errors by roughly the same factor
    base = []
    scaled = []
    s = RotationStream(4)
    oracle = EquivariantOracle(OracleParams(sigma_y=1e12))
    for m in range(5):
        sub = s.substream(m)
        a = sample_orientation_tensor(sub)
        strain = sub.normals(6 * 8).reshape(8, 6)  # order-one strains
        target = oracle.predict_batch(a, 0.12, strain)
        base.append(Sample(id=f"b{m}", a=a, vf=0.12, strain=strain, target_stress=target))
        scaled.append(Sample(id=f"s{m}", a=a, vf=0.12, strain=1e3 * strain,
                             target_stress=1e3 * target))
    rep1 = numerics_audit(base, oracle, RotationStream(5))
    rep2 = numerics_audit(scaled, oracle, RotationStream(5))
    for small, big in ((rep1.input_err, rep2.input_err),
                       (rep1.target_err, rep2.target_err),
                       (rep1.output_err, rep2.output_err)):
        assert 1e2 <= big / small <= 1e4


def test_audit_report_text():
    samples = generate_synthetic(2, 5, stream=RotationStream(6))
    report = numerics_audit(samples, EquivariantOracle(), RotationStream(7))
    assert "samples: 2" in report.to_text()


def test_audit_rejects_empty():
    with pytest.raises(ValueError):
        numerics_audit([], EquivariantOracle(), RotationStream(0))
