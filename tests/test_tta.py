"""Tests of the rotation-augmented inference engine: input rotation,
aggregation, spread, and the numerics audit."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from rotta.dataset import Sample, generate_synthetic
from rotta.models import (
    EquivariantOracle,
    ExternalModelError,
    ModelInput,
    NoisyOracle,
    OracleParams,
)
from rotta.rotations import RotationStream, rotation_list, sample_orientation_tensor, sample_rotation
from rotta.tta import (
    EmptyInput,
    TTAConfig,
    aggregate_mean,
    augment,
    compensated_sums,
    numerics_audit,
    pointwise_sd,
    run_tta,
)
from rotta.voigt import trace, von_mises_path

R_X3_90 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def _sample_input(seed=0, n_steps=8, scale=0.02):
    s = RotationStream(seed)
    a = sample_orientation_tensor(s)
    strain = scale * s.normals(6 * n_steps).reshape(n_steps, 6)
    return ModelInput(a=a, vf=0.13, strain=strain)


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
    inp = _sample_input()
    a, vf, strain = _rotated_input(inp, np.eye(3)[None])
    assert np.array_equal(a[0], inp.a)
    assert np.array_equal(strain[0], inp.strain)
    assert vf == inp.vf


def test_rotate_input_preserves_orientation_trace():
    for seed in range(10):
        inp = _sample_input(seed=seed)
        r = RotationStream(seed)
        r.uniforms(3)  # desynchronize from the input draw
        a, _, _ = _rotated_input(inp, sample_rotation(r)[None])
        assert trace(a[0]) == pytest.approx(trace(inp.a), abs=1e-12)


def test_rotate_input_hand_case():
    a = np.array([0.6, 0.3, 0.1, 0.0, 0.0, 0.0])
    inp = ModelInput(a=a, vf=0.1, strain=np.zeros((2, 6)))
    rotated, _, _ = _rotated_input(inp, R_X3_90[None])
    assert_allclose(rotated[0], [0.3, 0.6, 0.1, 0.0, 0.0, 0.0], atol=1e-15)


# ------------------------------------------------------------------ config


def test_config_validation():
    with pytest.raises(ValueError):
        TTAConfig(n_rotations=-1)
    with pytest.raises(ValueError):
        TTAConfig(n_rotations=4, divisor_mode="banana")


# ------------------------------------------------------------- aggregation


def test_aggregate_identical_predictions():
    p = np.full((5, 3, 6), 2.5)
    assert_allclose(aggregate_mean(p, "count"), np.full((3, 6), 2.5), rtol=0, atol=0)


def test_aggregate_divisor_modes():
    # two single-step paths holding 0 and 2 in one component
    p = np.zeros((2, 1, 6))
    p[1, 0, 0] = 2.0
    assert aggregate_mean(p, "count")[0, 0] == 1.0  # (0+2)/2
    assert aggregate_mean(p, "paper")[0, 0] == 2.0  # (0+2)/1, sum over 0..N divided by N


def test_aggregate_rejects_bad_input():
    with pytest.raises(EmptyInput):
        aggregate_mean(np.empty((0, 3, 6)))
    with pytest.raises(EmptyInput):
        aggregate_mean(np.zeros((1, 3, 6)), "paper")  # N = 0 has no divisor
    with pytest.raises(ValueError):
        aggregate_mean(np.zeros((2, 6)))
    with pytest.raises(ValueError):
        aggregate_mean(np.zeros((2, 3, 6)), "banana")


def test_aggregate_order_independence():
    # compensated summation keeps the mean identical under any ordering of
    # well-scaled predictions
    rng = np.random.default_rng(0)
    p = rng.standard_normal((64, 4, 6))
    mean = aggregate_mean(p)
    perm = rng.permutation(64)
    assert_allclose(aggregate_mean(p[perm]), mean, atol=1e-14)


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
    p = np.full((4, 3, 6), 1.25)
    agg = aggregate_mean(p)
    assert np.array_equal(pointwise_sd(p, agg), np.zeros((3, 6)))


def test_sd_hand_case():
    # rows 1..N hold 1 and 3 about an aggregated value of 2:
    # sqrt(((1-2)^2 + (3-2)^2) / 2) = 1
    p = np.zeros((3, 1, 6))
    p[1, 0, 0] = 1.0
    p[2, 0, 0] = 3.0
    agg = np.full((1, 6), 2.0)
    assert pointwise_sd(p, agg)[0, 0] == 1.0

    vm = np.array([[5.0], [1.0], [3.0]])
    assert pointwise_sd(vm, np.array([2.0]))[0] == 1.0


def test_sd_include_first():
    p = np.zeros((3, 1, 1))
    p[0, 0, 0] = 2.0
    p[1, 0, 0] = 1.0
    p[2, 0, 0] = 3.0
    agg = np.full((1, 1), 2.0)
    # rows {1, 3} about 2 with divisor 2 vs rows {2, 1, 3} with divisor 3
    assert pointwise_sd(p, agg)[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert pointwise_sd(p, agg, include_first=True)[0, 0] == pytest.approx(
        np.sqrt(2.0 / 3.0), abs=1e-15
    )


def test_sd_homogeneity():
    rng = np.random.default_rng(1)
    p = rng.standard_normal((6, 4, 6))
    agg = aggregate_mean(p)
    sd = pointwise_sd(p, agg)
    for c in (3.0, -2.0):
        assert_allclose(pointwise_sd(c * p, c * agg), abs(c) * sd, atol=1e-12)


def test_vm_sd_nonnegative_and_zero_on_identical():
    rng = np.random.default_rng(2)
    vm = rng.uniform(1.0, 5.0, size=(5, 7))
    assert np.all(pointwise_sd(vm, vm.mean(axis=0)) >= 0.0)
    same = np.tile(vm[:1], (4, 1))
    assert np.array_equal(pointwise_sd(same, vm[0]), np.zeros(7))


def test_sd_needs_two_rows():
    with pytest.raises(ValueError):
        pointwise_sd(np.zeros((1, 2, 6)), np.zeros((2, 6)))
    with pytest.raises(ValueError):
        pointwise_sd(np.zeros((1, 4)), np.zeros(4))


# ------------------------------------------------------------------ engine


def test_equivariant_predictions_all_agree():
    res = run_tta(EquivariantOracle(), _sample_input(), TTAConfig(n_rotations=8, seed=3))
    spread = res.predictions.max(axis=0) - res.predictions.min(axis=0)
    assert np.max(spread) <= 1e-10
    assert np.max(res.sd) <= 1e-10
    assert np.max(res.vm_sd) <= 1e-10


def test_zero_rotations_is_identity_prediction():
    inp = _sample_input(seed=4)
    res = run_tta(EquivariantOracle(), inp, TTAConfig(n_rotations=0))
    assert res.predictions.shape[0] == 1
    assert np.array_equal(res.aggregated, res.predictions[0])
    assert np.array_equal(res.sd, np.zeros_like(res.aggregated))
    assert np.array_equal(res.rotations[0], np.eye(3))


def test_noisy_sd_scales_with_amplitude():
    amp = 2.0
    model = NoisyOracle(OracleParams(noise_amp=amp, noise_seed=1))
    res = run_tta(model, _sample_input(seed=5, n_steps=20), TTAConfig(n_rotations=64, seed=6))
    mean_sd = float(np.mean(res.sd))
    assert 0.2 * amp <= mean_sd <= 3.0 * amp


def test_result_shapes_and_vm_channels():
    inp = _sample_input(seed=6, n_steps=7)
    res = run_tta(EquivariantOracle(), inp, TTAConfig(n_rotations=5, seed=7))
    assert res.predictions.shape == (6, 7, 6)
    assert res.aggregated.shape == (7, 6)
    assert res.vm_individual.shape == (6, 7)
    assert res.vm_aggregated.shape == (7,)
    assert res.vm_sd.shape == (7,)
    assert res.rotations.shape == (6, 3, 3)
    # the aggregated von Mises channel is derived from the aggregated path
    assert_allclose(res.vm_aggregated, von_mises_path(res.aggregated), rtol=0, atol=0)


def test_run_is_deterministic():
    inp = _sample_input(seed=7)
    cfg = TTAConfig(n_rotations=5, seed=11)
    a = run_tta(EquivariantOracle(), inp, cfg)
    b = run_tta(EquivariantOracle(), inp, cfg)
    assert np.array_equal(a.aggregated, b.aggregated)
    assert np.array_equal(a.predictions, b.predictions)
    assert np.array_equal(a.rotations, b.rotations)


def test_paper_divisor_scales_mean():
    inp = _sample_input(seed=9)
    count = run_tta(EquivariantOracle(), inp, TTAConfig(n_rotations=2, seed=1))
    paper = run_tta(EquivariantOracle(), inp, TTAConfig(n_rotations=2, seed=1, divisor_mode="paper"))
    # same 3-term sum, divisors 3 versus 2
    assert_allclose(paper.aggregated, count.aggregated * 1.5, atol=1e-12)


def test_external_error_is_annotated_with_rotation_index():
    class Flaky:
        def predict_batch(self, a, vf, strain):
            raise ExternalModelError("boom", row=2)

    with pytest.raises(ExternalModelError, match=r"^rotation index 2: boom$") as err:
        run_tta(Flaky(), _sample_input(), TTAConfig(n_rotations=5, seed=2))
    assert err.value.row is None


def test_given_rotation_list_matches_own_draw():
    inp = _sample_input(seed=4)
    cfg = TTAConfig(n_rotations=6, seed=11)
    rotations = rotation_list(RotationStream(cfg.seed), cfg.n_rotations)
    given = run_tta(NoisyOracle(OracleParams(noise_amp=3.0)), inp, cfg, rotations)
    own = run_tta(NoisyOracle(OracleParams(noise_amp=3.0)), inp, cfg)
    assert given.predictions.tobytes() == own.predictions.tobytes()
    assert given.rotations.tobytes() == own.rotations.tobytes()
    with pytest.raises(ValueError, match="7 rotations"):
        run_tta(EquivariantOracle(), inp, cfg, rotations[:-1])


def test_rejects_invalid_input():
    bad = ModelInput(a=np.zeros(6), vf=2.0, strain=np.zeros((3, 6)))
    with pytest.raises(ValueError):
        run_tta(EquivariantOracle(), bad, TTAConfig(n_rotations=2))


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
