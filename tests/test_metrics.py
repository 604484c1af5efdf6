"""Tests of the error, shape, and uncertainty metrics."""

import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from rotta.metrics import (
    _pearson,
    _shape_ratios,
    AllStepsExcluded,
    ZeroTargetMax,
    evaluate_dataset,
    first_differences,
    jsonable,
    mare,
    mere,
    mere_av,
    mere_histogram,
    percentile_of,
    sd_mere,
    shape_report,
    uncertainty_curves,
)
from rotta.dataset import Sample
from rotta.models import EquivariantOracle, NoisyOracle, OracleParams
from rotta.rotations import RotationStream, rotation_list, sample_orientation_tensor
from rotta.tta import TTAResult, run_tta
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


@settings(max_examples=200, deadline=None)
@given(data=st.data(), shape=st.tuples(st.integers(1, 6), st.integers(1, 40)))
def test_pearson_rows_are_the_rows_alone_and_constant_rows_are_degenerate(data, shape):
    # the claims of _pearson's docstring that shape_report's (M, 7) rows rely on
    values = arrays(np.float64, shape, elements=st.floats(-1e150, 1e150))
    x, y = data.draw(values), data.draw(values)
    flat = [data.draw(arrays(bool, shape[:1])) for _ in "xy"]
    x[flat[0]] = x[flat[0], :1]
    y[flat[1]] = data.draw(st.floats(-1e150, 1e150))
    r, degenerate = _pearson(x, y)
    for row in range(shape[0]):
        alone = _pearson(x[row], y[row])
        assert (r[row].tobytes(), degenerate[row]) == (alone[0].tobytes(), alone[1])
    constant = flat[0] | flat[1]
    assert np.all(degenerate[constant]) and np.all(np.isnan(r[constant]))



def test_pearson_limits():
    x = np.array([0.0, 1.0, 3.0, 4.0])
    assert float(_pearson(x, x)[0]) == pytest.approx(1.0, abs=1e-15)
    assert float(_pearson(x, -x)[0]) == pytest.approx(-1.0, abs=1e-15)


def test_pearson_hand_case():
    # closed form for x = [1,2,3], y = [1,2,4]: r = sqrt(27/28)
    r, degenerate = _pearson(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 4.0]))
    assert float(r) == pytest.approx(math.sqrt(27.0 / 28.0), abs=1e-12)
    assert not degenerate


def test_pearson_matches_scipy():
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.standard_normal(40)
        y = 0.5 * x + rng.standard_normal(40)
        assert float(_pearson(x, y)[0]) == pytest.approx(scipy.stats.pearsonr(x, y)[0], abs=1e-12)


# ----------------------------------------------------------- shape ratio


def test_shape_ratio_equal_predictions():
    target = np.array([0.0, 1.0, 0.0, 2.0, 0.5])
    pred = np.array([0.1, 0.9, 0.3, 1.7, 0.2])
    _, _, c_ratio, perfect, degenerate = _shape_ratios(target, pred, pred)
    assert float(c_ratio) == pytest.approx(1.0, abs=1e-12)
    assert not perfect and not degenerate


def test_shape_ratio_perfect_aggregated():
    target = np.array([0.0, 1.0, 0.0, 2.0, 0.5])
    initial = np.array([0.2, 0.8, 0.4, 1.5, 0.9])
    _, _, c_ratio, perfect, _ = _shape_ratios(target, initial, target + 0.3)  # offset keeps diffs identical
    assert math.isinf(c_ratio)
    assert perfect


def test_shape_ratio_matches_independent_computation():
    rng = np.random.default_rng(3)
    target = np.cumsum(rng.standard_normal(30))
    initial = target + rng.standard_normal(30)
    aggregated = target + 0.2 * rng.standard_normal(30)
    r0 = scipy.stats.pearsonr(np.diff(initial), np.diff(target))[0]
    rt = scipy.stats.pearsonr(np.diff(aggregated), np.diff(target))[0]
    r_initial, r_aggregated, c_ratio, _, _ = _shape_ratios(target, initial, aggregated)
    assert float(r_initial) == pytest.approx(r0, abs=1e-12)
    assert float(r_aggregated) == pytest.approx(rt, abs=1e-12)
    assert float(c_ratio) == pytest.approx((1.0 - r0) / (1.0 - rt), abs=1e-12)


def test_shape_ratio_needs_three_steps():
    with pytest.raises(ValueError):
        _shape_ratios(*np.array([[1.0, 2.0]] * 3))


def test_shape_report_flags_degenerate_channels():
    rng = np.random.default_rng(4)
    target = rng.standard_normal((2, 12, 6))
    target[1, :, 5] = 7.0  # constant channel: zero-variance differences
    initial = target + rng.standard_normal(target.shape)
    aggregated = target + 0.1 * rng.standard_normal(target.shape)
    report = shape_report(target, initial, aggregated)
    assert report.c_ratio.shape == (2, 7)
    degenerate = np.zeros((2, 7), dtype=bool)
    degenerate[1, 6] = True  # channel order: von Mises then components
    assert np.array_equal(np.isnan(report.c_ratio), degenerate)
    assert math.isnan(report.r_initial[1, 6]) and math.isnan(report.r_aggregated[1, 6])
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
    excluded = np.array([False, False, True, False, False])
    assert report.n_excluded == 1
    assert np.array_equal(np.isnan(report.e_rel_curve), excluded)
    assert np.array_equal(np.isnan(report.sd_rel_curve), excluded)
    assert np.all(np.isfinite(report.e_rel_curve[~excluded]))


def test_uncertainty_single_included_step_is_degenerate():
    # one step clears the division guard: a relative coefficient over one point is undefined
    target = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 3.0]])
    aggregated = np.array([[0.0, 0.0, 2.5], [0.0, 0.0, 2.0]])
    sd = np.array([[0.0, 0.0, 0.1], [0.0, 0.0, 0.3]])
    report = uncertainty_curves(sd, target, aggregated)
    assert report.n_excluded == 2
    assert np.array_equal(np.isnan(report.e_rel_curve), [True, True, False])
    assert math.isnan(report.r_rel) and report.r_rel_degenerate is True
    assert report.r_abs == pytest.approx(1.0, abs=1e-12) and report.r_abs_degenerate is False
    assert type(report.r_rel) is float and type(report.r_abs) is float
    json.dumps(jsonable(report._asdict()), allow_nan=False)
    # a one-step dataset: both coefficients are over one point
    one = uncertainty_curves(sd[:, 2:], target[:, 2:], aggregated[:, 2:])
    assert one.r_abs_degenerate and one.r_rel_degenerate
    assert math.isnan(one.r_abs) and math.isnan(one.r_rel)


def test_uncertainty_all_steps_excluded():
    with pytest.raises(AllStepsExcluded):
        uncertainty_curves(np.ones((1, 3)), np.ones((1, 3)), np.zeros((1, 3)))


def test_uncertainty_shape_mismatch():
    with pytest.raises(ValueError):
        uncertainty_curves(np.ones((2, 3)), np.ones((2, 3)), np.ones((2, 4)))


def _result_of(aggregated, sd):
    """A :class:`TTAResult` of three predictions per sample, all equal to ``aggregated``, with spread ``sd``."""
    vm = von_mises(aggregated)
    return TTAResult(aggregated, aggregated, sd, np.repeat(vm[:, None], 3, axis=1), vm, von_mises(sd))


def test_component_r_perfect_alignment():
    rng = np.random.default_rng(6)
    err = np.abs(rng.standard_normal((2, 6, 6)))
    target = rng.standard_normal((2, 6, 6))
    aggregated = target - err  # |target - aggregated| == err
    report = evaluate_dataset(target, _result_of(aggregated, err))
    assert report.component_r == pytest.approx(1.0, abs=1e-12)
    assert report.component_r_degenerate is False
    constant = evaluate_dataset(target, _result_of(aggregated, np.full_like(err, 0.5)))
    assert math.isnan(constant.component_r) and constant.component_r_degenerate is True


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
    samples = []
    oracle = EquivariantOracle()
    for m in range(n_samples):
        sub = root.substream(m)
        a = sample_orientation_tensor(sub)
        strain = 0.02 * sub.normals(6 * n_steps).reshape(n_steps, 6)
        samples.append(Sample(f"m{m}", a=a, vf=0.12, strain=strain,
                              target_stress=oracle.predict_batch(a, 0.12, strain)))
    targets = np.stack([s.target_stress for s in samples])
    return targets, run_tta(model, samples, rotation_list(RotationStream(seed), n_rotations))


def test_evaluate_equivariant_dataset():
    targets, result = _mini_run(EquivariantOracle())
    report = evaluate_dataset(targets, result)
    assert report.n_samples == 3
    assert report.n_steps == 12
    assert report.n_rotations == 4
    assert report.mere_per_rotation.shape == report.mare_per_rotation.shape == (5,)
    # augmentation of an equivariant model changes nothing
    assert abs(report.mere_tta - report.mere_i0) <= 1e-9
    assert abs(report.mare_tta - report.mare_i0) <= 1e-9
    assert report.mere_tta == pytest.approx(0.0, abs=1e-9)
    assert report.histogram is not None
    assert report.shape is not None
    assert report.uncertainty is not None


def test_evaluate_matches_scalar_metrics():
    model = NoisyOracle(OracleParams(noise_amp=1.0, noise_seed=2))
    targets, result = _mini_run(model, seed=1)
    report = evaluate_dataset(targets, result)
    target_vm = von_mises(targets)
    for i in (0, 2, 4):
        vm_i = result.vm_individual[:, i]
        assert report.mere_per_rotation[i] == pytest.approx(mere(target_vm, vm_i), abs=1e-12)
        assert report.mare_per_rotation[i] == pytest.approx(mare(target_vm, vm_i), abs=1e-12)
    assert report.mere_tta == pytest.approx(mere(target_vm, result.vm_aggregated), abs=1e-12)
    assert report.mere_av == pytest.approx(mere_av(report.mere_per_rotation), abs=1e-12)
    assert report.sd_mere == pytest.approx(
        sd_mere([report.mere_per_rotation[i] for i in (1, 2, 3, 4)], report.mere_av),
        abs=1e-12,
    )
    assert 0.0 <= report.mere_tta_percentile <= 100.0


def test_evaluate_mare_abs_flag():
    model = NoisyOracle(OracleParams(noise_amp=1.0, noise_seed=3))
    targets, result = _mini_run(model, seed=2)
    signed = evaluate_dataset(targets, result)
    absolute = evaluate_dataset(targets, result, mare_abs=True)
    assert absolute.mare_tta >= signed.mare_tta
    assert absolute.mare_per_rotation[1] >= signed.mare_per_rotation[1]


def test_evaluate_report_serialization():
    targets, result = _mini_run(EquivariantOracle(), n_samples=2)
    report = evaluate_dataset(targets, result)
    text = report.to_text()
    for key in ("mere_tta", "mere_av", "r_abs", "component_r"):
        assert key in text
    d = json.loads(json.dumps(report.to_dict()))
    for key in ("mere_per_rotation", "mare_per_rotation"):
        assert d[key] == {str(i): float(v) for i, v in enumerate(getattr(report, key))}


def test_evaluate_validation():
    targets, result = _mini_run(EquivariantOracle())
    with pytest.raises(ValueError):
        evaluate_dataset(targets[:, :, :5], result)
    with pytest.raises(ValueError):
        evaluate_dataset(targets[:2], result)
    with pytest.raises(ValueError):
        evaluate_dataset(targets[:0], result)
    with pytest.raises(ValueError):
        evaluate_dataset(targets[:, :6], result)


def _per_rotation_loop(target_vm, vm_pred, mare_abs):
    """The inline per-rotation MeRE/MaRE of ``evaluate_dataset`` that ``mere``/``mare`` replaced."""
    tmax = np.max(target_vm, axis=-1)  # (M,)
    n_steps = target_vm.shape[-1]
    err = vm_pred - target_vm[:, None, :]
    per_sample = np.sqrt(np.sum(err * err, axis=-1)) / (tmax[:, None] * n_steps)
    mere_vec = np.mean(per_sample, axis=0)  # (P,)
    diff = np.abs(err) if mare_abs else -err
    mare_vec = np.mean(np.max(diff, axis=-1) / tmax[:, None], axis=0)
    return mere_vec, mare_vec


def _scalar_loop(target_vm, vm, mare_abs):
    """``mere``/``mare`` of ``(M, T)`` paths before they took middle axes."""
    n_steps = target_vm.shape[-1]
    tmax = np.max(target_vm, axis=-1)
    root = np.sqrt(np.sum((target_vm - vm) ** 2, axis=-1))
    per_sample = root / (tmax * n_steps)
    diff = np.abs(target_vm - vm) if mare_abs else target_vm - vm
    return float(np.mean(per_sample)), float(np.mean(np.max(diff, axis=-1) / tmax))


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 40),
    p=st.integers(1, 12),
    t=st.integers(1, 30),
    mare_abs=st.booleans(),
)
@example(seed=1, m=26, p=41, t=100, mare_abs=False)
@example(seed=2, m=39, p=5, t=7, mare_abs=True)
def test_stacked_mere_mare_have_the_bits_of_the_per_rotation_formulas(seed, m, p, t, mare_abs):
    rng = np.random.default_rng(seed)
    target_vm = rng.random((m, t)) * 10.0 ** rng.integers(-3, 4) + 1e-3
    vm_pred = target_vm[:, None, :] * (1.0 + 0.05 * rng.standard_normal((m, p, t)))
    vm_pred[:, 0, : t // 2] = target_vm[:, : t // 2]  # exact steps: differences of +-0
    mere_vec, mare_vec = _per_rotation_loop(target_vm, vm_pred, mare_abs)
    got_mere, got_mare = mere(target_vm, vm_pred), mare(target_vm, vm_pred, absolute=mare_abs)
    assert got_mere.shape == got_mare.shape == (p,)
    assert np.array_equal(_bits(got_mere), _bits(mere_vec))
    assert np.array_equal(_bits(got_mare), _bits(mare_vec))
    # an (M, T) prediction still gives the scalar of the 1-d sample mean
    want_mere, want_mare = _scalar_loop(target_vm, vm_pred[:, -1], mare_abs)
    got = (mere(target_vm, vm_pred[:, -1]), mare(target_vm, vm_pred[:, -1], absolute=mare_abs))
    assert all(type(v) is float for v in got)
    assert np.array_equal(_bits(got), _bits((want_mere, want_mare)))
    # the middle axes keep their shape
    assert mere(target_vm, vm_pred[:, None]).shape == (1, p)


def test_evaluate_dataset_peak_memory_stays_below_one_and_a_half_tables():
    m, p, t = 26, 201, 100
    rng = np.random.default_rng(5)
    targets = rng.standard_normal((m, t, 6)) + 3.0
    predictions = targets[:, None] * (1.0 + 0.01 * rng.standard_normal((m, p, t, 6)))
    aggregated = predictions.mean(axis=1)
    vm_individual, vm_aggregated = von_mises(predictions), von_mises(aggregated)
    result = TTAResult(predictions[:, 0], aggregated, predictions.std(axis=1), vm_individual, vm_aggregated,
                       vm_individual.std(axis=1))
    table = m * p * t * 8  # bytes of one (M, P, T) float table
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        evaluate_dataset(targets, result)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * table, f"peak {peak / table:.2f} (M, P, T) tables"
