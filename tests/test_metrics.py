"""Tests of the error, shape, and uncertainty metrics."""

import json
import math

import numpy as np
import pytest
import scipy.stats
from numpy.testing import assert_allclose

from rotta.metrics import (
    AllStepsExcluded,
    DegenerateSequence,
    ZeroTargetMax,
    component_error_correlation,
    evaluate_dataset,
    first_differences,
    jsonable,
    mare,
    mere,
    mere_av,
    mere_histogram,
    pearson_r,
    percentile_of,
    sd_mere,
    shape_ratio,
    shape_report,
    uncertainty_curves,
)
from rotta.models import EquivariantOracle, ModelInput, NoisyOracle, OracleParams
from rotta.rotations import RotationStream, sample_orientation_tensor
from rotta.tta import TTAConfig, run_tta
from rotta.voigt import von_mises


# ---------------------------------------------------------------- mere


def test_mere_zero_for_perfect_prediction():
    target = np.array([[1.0, 2.0, 3.0, 2.0]])
    assert mere(target, target) == 0.0


def test_mere_hand_case():
    # T = 4, constant error e, peak s: sqrt(4 e^2) / (4 s) = e / (2 s)
    s, e = 5.0, 0.25
    target = np.array([s, 0.5 * s, 0.5 * s, 0.5 * s])
    prediction = target - e
    assert mere(target, prediction) == pytest.approx(e / (2.0 * s), abs=1e-12)
    # the rms variant keeps T inside the root: sqrt(e^2) / s
    assert mere(target, prediction, rms=True) == pytest.approx(e / s, abs=1e-12)


def test_mere_scale_invariance():
    rng = np.random.default_rng(0)
    target = rng.uniform(1.0, 5.0, size=(3, 10))
    prediction = target + rng.standard_normal((3, 10))
    assert mere(2.0 * target, 2.0 * prediction) == pytest.approx(
        mere(target, prediction), abs=1e-12
    )


def test_mere_rejects_zero_target():
    with pytest.raises(ZeroTargetMax):
        mere(np.zeros((1, 4)), np.ones((1, 4)))


def test_mere_shape_mismatch():
    with pytest.raises(ValueError):
        mere(np.ones((2, 4)), np.ones((2, 5)))


# ---------------------------------------------------------------- mare


def test_mare_zero_for_perfect_prediction():
    target = np.array([[1.0, 2.0, 3.0]])
    assert mare(target, target) == 0.0


def test_mare_signed_undershoot():
    c = 0.3
    target = np.array([4.0, 2.0, 1.0])
    assert mare(target, target - c) == pytest.approx(c / 4.0, abs=1e-12)


def test_mare_signed_vs_absolute_overshoot():
    c = 0.3
    target = np.array([4.0, 2.0, 1.0])
    overshoot = target + c
    # the signed convention makes a pure overshoot negative
    assert mare(target, overshoot) == pytest.approx(-c / 4.0, abs=1e-12)
    assert mare(target, overshoot, absolute=True) == pytest.approx(c / 4.0, abs=1e-12)
    assert mare(target, target - c, absolute=True) == pytest.approx(
        mare(target, overshoot, absolute=True), abs=1e-12
    )


# ------------------------------------------------------------- averages


def test_mere_av():
    assert mere_av([0.04]) == 0.04
    assert mere_av([0.02, 0.04]) == pytest.approx(0.03, abs=1e-15)
    with pytest.raises(ValueError):
        mere_av([])


def test_mere_av_between_min_and_max():
    for seed in range(10):
        values = np.random.default_rng(seed).uniform(0.0, 0.1, size=13)
        av = mere_av(values)
        assert values.min() <= av <= values.max()


def test_sd_mere():
    assert sd_mere([1.0, 3.0], center=2.0) == pytest.approx(1.0, abs=1e-15)
    assert sd_mere([0.5, 0.5, 0.5], center=0.5) == 0.0
    assert sd_mere([1.0, 2.0], center=5.0) > 0.0
    with pytest.raises(ValueError):
        sd_mere([], center=0.0)


# ------------------------------------------------------------- histogram


def test_histogram_density_integrates_to_one():
    rng = np.random.default_rng(1)
    values = rng.normal(0.04, 0.003, size=200)
    hist = mere_histogram(values, bin_width=1e-3)
    assert np.sum(hist.density) * hist.bin_width == pytest.approx(1.0, abs=1e-9)
    assert hist.counts.sum() == 200


def test_histogram_single_bin():
    hist = mere_histogram([0.42, 0.44, 0.46], bin_width=0.1)
    assert hist.bin_edges[0] == pytest.approx(0.4, abs=1e-12)
    assert hist.density.size == 1
    assert hist.density[0] == pytest.approx(1.0 / 0.1, abs=1e-9)


def test_histogram_edges_align_to_width_multiples():
    hist = mere_histogram([0.0123, 0.0345], bin_width=1e-2)
    assert_allclose(hist.bin_edges / 1e-2, np.round(hist.bin_edges / 1e-2), atol=1e-9)


def test_histogram_fit_matches_plain_average():
    values = np.array([0.01, 0.02, 0.025, 0.05])
    hist = mere_histogram(values, bin_width=1e-2)
    assert hist.fit_mean == pytest.approx(mere_av(values), abs=1e-12)
    assert hist.fit_sd == pytest.approx(np.std(values), abs=1e-12)
    # peak of the fitted density sits at 1/(sd*sqrt(2*pi))
    assert hist.pdf(hist.fit_mean) == pytest.approx(
        1.0 / (hist.fit_sd * math.sqrt(2.0 * math.pi)), abs=1e-12
    )


def test_histogram_rejects_bad_input():
    with pytest.raises(ValueError):
        mere_histogram([0.1])
    with pytest.raises(ValueError):
        mere_histogram([0.1, 0.2], bin_width=0.0)


# ------------------------------------------------------------ percentile


def test_percentile_of():
    population = [1.0, 2.0, 3.0]
    assert percentile_of(0.5, population) == 0.0
    assert percentile_of(9.0, population) == 100.0
    # strict-below convention: exactly one of three values is below 2
    assert percentile_of(2.0, population) == pytest.approx(100.0 / 3.0, abs=1e-9)
    with pytest.raises(ValueError):
        percentile_of(1.0, [])


# ----------------------------------------------------------- differences


def test_first_differences():
    assert_allclose(first_differences([1.0, 1.0, 1.0]), [0.0, 0.0], rtol=0, atol=0)
    assert_allclose(first_differences([0.0, 1.0, 3.0]), [1.0, 2.0], rtol=0, atol=0)
    ramp = 0.7 * np.arange(6)
    assert_allclose(first_differences(ramp), np.full(5, 0.7), atol=1e-15)
    with pytest.raises(ValueError):
        first_differences([1.0])


# ----------------------------------------------------------- correlation


def test_pearson_limits():
    x = np.array([0.0, 1.0, 3.0, 4.0])
    assert pearson_r(x, x) == pytest.approx(1.0, abs=1e-15)
    assert pearson_r(x, -x) == pytest.approx(-1.0, abs=1e-15)


def test_pearson_hand_case():
    # closed form for x = [1,2,3], y = [1,2,4]: r = sqrt(27/28)
    r = pearson_r([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
    assert r == pytest.approx(math.sqrt(27.0 / 28.0), abs=1e-12)


def test_pearson_matches_scipy():
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.standard_normal(40)
        y = 0.5 * x + rng.standard_normal(40)
        assert pearson_r(x, y) == pytest.approx(scipy.stats.pearsonr(x, y)[0], abs=1e-12)


def test_pearson_degenerate_and_invalid():
    with pytest.raises(DegenerateSequence):
        pearson_r([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateSequence):
        pearson_r([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
    with pytest.raises(ValueError):
        pearson_r([1.0], [2.0])
    with pytest.raises(ValueError):
        pearson_r([1.0, 2.0], [1.0, 2.0, 3.0])


# ----------------------------------------------------------- shape ratio


def test_shape_ratio_equal_predictions():
    target = np.array([0.0, 1.0, 0.0, 2.0, 0.5])
    pred = np.array([0.1, 0.9, 0.3, 1.7, 0.2])
    res = shape_ratio(target, pred, pred)
    assert res.c_ratio == pytest.approx(1.0, abs=1e-12)
    assert not res.perfect


def test_shape_ratio_perfect_aggregated():
    target = np.array([0.0, 1.0, 0.0, 2.0, 0.5])
    initial = np.array([0.2, 0.8, 0.4, 1.5, 0.9])
    res = shape_ratio(target, initial, target + 0.3)  # offset keeps diffs identical
    assert math.isinf(res.c_ratio)
    assert res.perfect


def test_shape_ratio_matches_independent_computation():
    rng = np.random.default_rng(3)
    target = np.cumsum(rng.standard_normal(30))
    initial = target + rng.standard_normal(30)
    aggregated = target + 0.2 * rng.standard_normal(30)
    r0 = scipy.stats.pearsonr(np.diff(initial), np.diff(target))[0]
    rt = scipy.stats.pearsonr(np.diff(aggregated), np.diff(target))[0]
    res = shape_ratio(target, initial, aggregated)
    assert res.r_initial == pytest.approx(r0, abs=1e-12)
    assert res.r_aggregated == pytest.approx(rt, abs=1e-12)
    assert res.c_ratio == pytest.approx((1.0 - r0) / (1.0 - rt), abs=1e-12)


def test_shape_ratio_needs_three_steps():
    with pytest.raises(ValueError):
        shape_ratio([1.0, 2.0], [1.0, 2.0], [1.0, 2.0])


def test_shape_report_flags_degenerate_channels():
    rng = np.random.default_rng(4)
    target = rng.standard_normal((2, 12, 6))
    target[1, :, 5] = 7.0  # constant channel: zero-variance differences
    initial = target + rng.standard_normal(target.shape)
    aggregated = target + 0.1 * rng.standard_normal(target.shape)
    report = shape_report(target, initial, aggregated)
    assert report.c_ratio.shape == (2, 7)
    assert report.degenerate[1, 6]  # channel order: von Mises then components
    assert math.isnan(report.c_ratio[1, 6])
    assert report.n_degenerate == 1
    finite = report.c_ratio[np.isfinite(report.c_ratio)]
    assert report.mean_c_ratio == pytest.approx(float(np.mean(finite)), abs=1e-12)
    assert report.fraction_below_one == pytest.approx(
        float(np.mean(finite < 1.0)), abs=1e-12
    )


# ---------------------------------------------------- uncertainty curves


def test_uncertainty_perfect_predictions():
    target = np.abs(np.random.default_rng(5).standard_normal((3, 8))) + 1.0
    sd = np.zeros_like(target)
    report = uncertainty_curves(sd, target, target)
    assert np.array_equal(report.e_abs_curve, np.zeros(8))
    assert np.array_equal(report.sd_curve, np.zeros(8))
    # both curves are constant, so the coefficients are undefined
    assert report.r_abs_degenerate and math.isnan(report.r_abs)
    assert report.r_rel_degenerate and math.isnan(report.r_rel)


def test_uncertainty_single_sample_curves():
    target = np.array([[2.0, 3.0, 4.0, 5.0]])
    aggregated = np.array([[2.5, 2.5, 4.5, 4.0]])
    sd = np.array([[0.1, 0.2, 0.3, 0.4]])
    report = uncertainty_curves(sd, target, aggregated)
    assert_allclose(report.e_abs_curve, np.abs(target - aggregated)[0], atol=1e-15)
    assert_allclose(report.sd_curve, sd[0], atol=1e-15)
    assert_allclose(report.e_rel_curve, np.abs(target - aggregated)[0] / aggregated[0],
                    atol=1e-15)
    assert report.n_excluded == 0


def test_uncertainty_excludes_guarded_steps():
    target = np.ones((2, 5))
    aggregated = np.ones((2, 5))
    aggregated[1, 2] = 0.0  # below the division guard for one sample
    sd = np.full((2, 5), 0.1)
    sd[0, 0] = 0.3  # break constancy so correlation is defined
    report = uncertainty_curves(sd, target, aggregated)
    assert not report.included[2]
    assert report.n_excluded == 1
    assert math.isnan(report.e_rel_curve[2])
    assert math.isnan(report.sd_rel_curve[2])
    assert np.all(np.isfinite(report.e_rel_curve[report.included]))


def test_uncertainty_all_steps_excluded():
    with pytest.raises(AllStepsExcluded):
        uncertainty_curves(np.ones((1, 3)), np.ones((1, 3)), np.zeros((1, 3)))


def test_uncertainty_shape_mismatch():
    with pytest.raises(ValueError):
        uncertainty_curves(np.ones((2, 3)), np.ones((2, 3)), np.ones((2, 4)))


def test_component_error_correlation_perfect_alignment():
    rng = np.random.default_rng(6)
    err = np.abs(rng.standard_normal((2, 6, 6)))
    target = rng.standard_normal((2, 6, 6))
    aggregated = target - err  # |target - aggregated| == err
    r = component_error_correlation(err, target, aggregated)
    assert r == pytest.approx(1.0, abs=1e-12)


# -------------------------------------------------------------- jsonable


def test_jsonable_handles_special_floats():
    payload = {
        "a": np.array([1.0, np.nan]),
        "b": math.inf,
        "c": -math.inf,
        "d": np.float64(2.5),
        "e": np.int32(3),
        "f": np.bool_(True),
        "g": (1, 2),
    }
    out = jsonable(payload)
    assert out["a"] == [1.0, "nan"]
    assert out["b"] == "inf"
    assert out["c"] == "-inf"
    assert out["d"] == 2.5 and isinstance(out["d"], float)
    assert out["e"] == 3 and isinstance(out["e"], int)
    assert out["f"] is True
    assert out["g"] == [1, 2]
    json.dumps(out)  # must be serializable


# ------------------------------------------------------- dataset evaluation


def _mini_run(model, n_samples=3, n_steps=12, n_rotations=4, seed=0):
    root = RotationStream(900 + seed)
    targets = []
    results = []
    oracle = EquivariantOracle()
    for m in range(n_samples):
        sub = root.substream(m)
        a = sample_orientation_tensor(sub)
        strain = 0.02 * sub.normals(6 * n_steps).reshape(n_steps, 6)
        inp = ModelInput(a=a, vf=0.12, strain=strain)
        targets.append(oracle.predict_batch(inp.a, inp.vf, inp.strain))
        results.append(run_tta(model, inp, TTAConfig(n_rotations=n_rotations, seed=seed)))
    return np.stack(targets), results


def test_evaluate_equivariant_dataset():
    targets, results = _mini_run(EquivariantOracle())
    report = evaluate_dataset(targets, results)
    assert report.n_samples == 3
    assert report.n_steps == 12
    assert report.n_rotations == 4
    assert len(report.mere_per_rotation) == 5
    # augmentation of an equivariant model changes nothing
    assert abs(report.mere_tta - report.mere_i0) <= 1e-9
    assert abs(report.mare_tta - report.mare_i0) <= 1e-9
    assert report.mere_tta == pytest.approx(0.0, abs=1e-9)
    assert report.histogram is not None
    assert report.shape is not None
    assert report.uncertainty is not None


def test_evaluate_matches_scalar_metrics():
    model = NoisyOracle(OracleParams(noise_amp=1.0, noise_seed=2))
    targets, results = _mini_run(model, seed=1)
    report = evaluate_dataset(targets, results)
    target_vm = von_mises(targets)
    for i in (0, 2, 4):
        vm_i = np.stack([r.vm_individual[i] for r in results])
        assert report.mere_per_rotation[i] == pytest.approx(mere(target_vm, vm_i), abs=1e-12)
        assert report.mare_per_rotation[i] == pytest.approx(mare(target_vm, vm_i), abs=1e-12)
    vm_tta = np.stack([r.vm_aggregated for r in results])
    assert report.mere_tta == pytest.approx(mere(target_vm, vm_tta), abs=1e-12)
    assert report.mere_av == pytest.approx(
        mere_av(list(report.mere_per_rotation.values())), abs=1e-12
    )
    assert report.sd_mere == pytest.approx(
        sd_mere([report.mere_per_rotation[i] for i in (1, 2, 3, 4)], report.mere_av),
        abs=1e-12,
    )
    assert 0.0 <= report.mere_tta_percentile <= 100.0


def test_evaluate_mare_abs_flag():
    model = NoisyOracle(OracleParams(noise_amp=1.0, noise_seed=3))
    targets, results = _mini_run(model, seed=2)
    signed = evaluate_dataset(targets, results)
    absolute = evaluate_dataset(targets, results, mare_abs=True)
    assert absolute.mare_tta >= signed.mare_tta
    assert absolute.mare_per_rotation[1] >= signed.mare_per_rotation[1]


def test_evaluate_report_serialization():
    targets, results = _mini_run(EquivariantOracle(), n_samples=2)
    report = evaluate_dataset(targets, results)
    text = report.to_text()
    for key in ("mere_tta", "mere_av", "r_abs", "component_r"):
        assert key in text
    json.dumps(report.to_dict())


def test_evaluate_validation():
    targets, results = _mini_run(EquivariantOracle())
    with pytest.raises(ValueError):
        evaluate_dataset(targets[:, :, :5], results)
    with pytest.raises(ValueError):
        evaluate_dataset(targets, results[:2])
    with pytest.raises(ValueError):
        evaluate_dataset(targets[:0], [])
    skewed = results[:2] + [
        run_tta(
            EquivariantOracle(),
            ModelInput(a=results[0].predictions[0, 0] * 0.0 + np.array([1, 0, 0, 0, 0, 0.0]),
                       vf=0.1, strain=np.zeros((12, 6)) + 0.01),
            TTAConfig(n_rotations=2, seed=0),
        )
    ]
    with pytest.raises(ValueError):
        evaluate_dataset(targets, skewed)
