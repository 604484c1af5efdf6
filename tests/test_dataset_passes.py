"""Property tests of the whole-dataset passes after the kernel.

``run`` reduces a group of samples at once, computes every shape-consistency
correlation as a row of one array, and writes each artifact array with one
``repr``.  Each pass must keep the bits of the per-sample, per-channel and
per-value forms it replaced, which stay here as oracles.
"""

import json
import math
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rotta import tta
from rotta.dataset import Sample, csv_text, format_float, format_path
from rotta.experiment import _OutputWriter
from rotta.metrics import CHANNEL_NAMES, jsonable, shape_report
from rotta.models import EquivariantOracle, NoisyOracle, OracleParams
from rotta.rotations import RotationStream, rotation_list, sample_orientation_tensor
from rotta.spheremap import seeds_csv
from rotta.tta import EmptyInput, augment, reduce_predictions, run_tta
from rotta.voigt import von_mises

RESULT_FIELDS = ("initial", "aggregated", "sd", "vm_individual", "vm_aggregated", "vm_sd")


def assert_same_bits(got, want):
    """Equal bits, signed zeros included; every NaN counts as one (no artifact writes a NaN's sign or payload)."""
    got, want = (np.where(np.isnan(x), np.nan, x) for x in (np.asarray(got), np.asarray(want)))
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# ------------------------------------------------------------ reductions


def _kahan(rows):
    total = carry = 0.0
    for row in rows:
        y = row - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return total


def _per_sample(stack, mode):
    """The per-sample reduction the batched pass replaced: ``(aggregated, sd, vm_individual, vm_aggregated, vm_sd)``."""
    n = stack.shape[0]
    aggregated = _kahan(stack) / (n if mode == "count" else n - 1)
    vm, vm_aggregated = von_mises(stack), von_mises(aggregated)
    if n < 2:
        return aggregated, np.zeros_like(aggregated), vm, vm_aggregated, np.zeros_like(vm_aggregated)
    sd = np.sqrt(_kahan((stack[1:] - aggregated) ** 2) / (n - 1))
    vm_sd = np.sqrt(_kahan((vm[1:] - vm_aggregated) ** 2) / (n - 1))
    return aggregated, sd, vm, vm_aggregated, vm_sd


def _sample(seed, n_steps):
    s = RotationStream(seed)
    strain = 0.02 * s.normals(6 * n_steps).reshape(n_steps, 6)
    return Sample(id=f"s{seed}", a=sample_orientation_tensor(s), vf=0.15, strain=strain)


reduction_cases = dict(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 5),
    n=st.integers(0, 12),
    t=st.integers(1, 30),
    mode=st.sampled_from(["count", "paper"]),
    chunk=st.integers(1, 400),
    group=st.integers(1, 6),
)


@settings(max_examples=60, deadline=None)
@given(**reduction_cases)
@example(seed=0, m=3, n=1, t=5, mode="count", chunk=8192, group=3)
@example(seed=1, m=2, n=0, t=4, mode="count", chunk=8192, group=1)
@example(seed=2, m=5, n=3, t=6, mode="paper", chunk=8192, group=2)
def test_batched_reduction_equals_per_sample_run_tta(seed, m, n, t, mode, chunk, group):
    samples = [_sample(seed + k, t) for k in range(m)]
    model = NoisyOracle(OracleParams(noise_amp=5.0, noise_seed=seed))
    rotations = rotation_list(RotationStream(seed), n)
    stack = np.stack([augment(model, s, rotations) for s in samples])
    sample_bytes = (n + 1) * t * 6 * 8  # one sample's stack: groups of `group` samples, the last one shorter
    with mock.patch.object(tta, "_CHUNK_STEPS", chunk), mock.patch.object(tta, "_GROUP_BYTES", group * sample_bytes):
        if mode == "paper" and n == 0:
            with pytest.raises(EmptyInput):
                run_tta(model, samples, rotations, mode)
            return
        batched = run_tta(model, samples, rotations, mode)
    assert batched.initial.shape == (m, t, 6)
    assert_same_bits(batched.initial, stack[:, 0])
    for k, sample in enumerate(samples):
        alone = run_tta(model, [sample], rotations, mode)
        reduced = reduce_predictions(stack[k:k + 1], mode)  # the sample's augment rows, reduced alone
        for field in RESULT_FIELDS:
            assert_same_bits(getattr(batched, field)[k], getattr(alone, field)[0])
            assert_same_bits(getattr(batched, field)[k], getattr(reduced, field)[0])
        for field, oracle in zip(RESULT_FIELDS[1:], _per_sample(stack[k], mode)):
            assert_same_bits(getattr(batched, field)[k], oracle)


def test_one_sample_groups_peak_well_below_the_dataset_stack():
    m, n, t = 8, 200, 40
    samples = [_sample(k, t) for k in range(m)]
    rotations = rotation_list(RotationStream(3), n)
    stack = m * (n + 1) * t * 6 * 8  # bytes of the (M, P, T, 6) back-rotated stack
    run_tta(EquivariantOracle(), samples[:1], rotations)  # warm up
    # one sample per group, ten rotations per kernel chunk: what stays is the
    # (M, P, T) von Mises table (1/6 of the stack) and one sample's buffer (1/M)
    with mock.patch.multiple(tta, _GROUP_BYTES=stack // m, _CHUNK_STEPS=10 * t):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            run_tta(EquivariantOracle(), samples, rotations)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
    assert peak < 0.5 * stack, f"peak {peak / stack:.2f} (M, P, T, 6) stacks"


def test_reducing_a_group_peaks_well_below_its_stack():
    stack = np.random.default_rng(0).standard_normal((8, 200, 40, 6))
    reduce_predictions(stack[:1], "count")  # warm up
    # what stays is the (M, P, T) von Mises table (1/6 of the stack); the
    # deviation rows are formed a block at a time, never for the whole group
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        reduce_predictions(stack, "count")
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * stack.nbytes, f"peak {peak / stack.nbytes:.2f} stacks"


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 4),
    p=st.integers(1, 9),
    t=st.integers(1, 12),
    mode=st.sampled_from(["count", "paper"]),
    chunk=st.integers(1, 60),
)
def test_batched_reduction_keeps_signed_zeros_and_specials(seed, m, p, t, mode, chunk):
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((m, p, t, 6)) * 10.0 ** rng.integers(-8, 8, (m, p, t, 6))
    u = rng.random(stack.shape)
    stack[u < 0.1] = 0.0
    stack[(u >= 0.1) & (u < 0.2)] = -0.0
    stack[(u >= 0.2) & (u < 0.22)] = np.inf
    stack[(u >= 0.22) & (u < 0.24)] = np.nan
    if mode == "paper" and p == 1:
        return
    with np.errstate(all="ignore"), mock.patch.object(tta, "_CHUNK_STEPS", chunk):
        batched = reduce_predictions(stack, mode)
        for k in range(m):
            aggregated, sd, vm, vm_aggregated, vm_sd = _per_sample(stack[k], mode)
            for field, want in zip(RESULT_FIELDS, (stack[k, 0], aggregated, sd, vm, vm_aggregated, vm_sd)):
                assert_same_bits(getattr(batched, field)[k], want)


# --------------------------------------------------------- shape report


def _pearson_loop(x, y):
    dx = x - np.mean(x)
    dy = y - np.mean(y)
    sxx = np.sum(dx * dx)
    syy = np.sum(dy * dy)
    if sxx == 0.0 or syy == 0.0:
        return None
    return float(np.sum(dx * dy) / (np.sqrt(sxx) * np.sqrt(syy)))


def _shape_report_loop(target, initial, aggregated):
    """The per-sample, per-channel loop the vectorized ``shape_report`` replaced."""
    m = target.shape[0]
    c_ratio, r_init, r_aggr = (np.full((m, 7), np.nan) for _ in range(3))
    perfect, degenerate = np.zeros((m, 7), bool), np.zeros((m, 7), bool)
    for i in range(m):
        channels = [(von_mises(target[i]), von_mises(initial[i]), von_mises(aggregated[i]))]
        channels += [(target[i, :, c], initial[i, :, c], aggregated[i, :, c]) for c in range(6)]
        for k, (tgt, init, aggr) in enumerate(channels):
            d_target = np.diff(tgt)
            r0 = _pearson_loop(np.diff(init), d_target)
            rt = None if r0 is None else _pearson_loop(np.diff(aggr), d_target)
            if rt is None:
                degenerate[i, k] = True
                continue
            r_init[i, k], r_aggr[i, k] = r0, rt
            if 1.0 - rt < 1e-12:
                c_ratio[i, k], perfect[i, k] = math.inf, True
            else:
                c_ratio[i, k] = (1.0 - r0) / (1.0 - rt)
    return c_ratio, r_init, r_aggr, perfect, degenerate


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 6),
    t=st.integers(3, 60),
    scale=st.sampled_from([1e-6, 1.0, 1e4]),
    n_constant=st.integers(0, 4),
    n_perfect=st.integers(0, 4),
)
@example(seed=0, m=2, t=3, scale=1.0, n_constant=4, n_perfect=4)
def test_vectorized_shape_report_equals_the_channel_loop(seed, m, t, scale, n_constant, n_perfect):
    rng = np.random.default_rng(seed)
    target = scale * rng.standard_normal((m, t, 6))
    initial = target + scale * rng.standard_normal(target.shape)
    aggregated = target + 0.1 * scale * rng.standard_normal(target.shape)
    for _ in range(n_constant):  # zero-variance differences in one array's channel, or a whole constant path
        which = (target, initial, aggregated)[rng.integers(0, 3)]
        i, c = rng.integers(0, m), rng.integers(0, 7)
        if c == 6:
            which[i] = rng.standard_normal(6)
        else:
            which[i, :, c] = rng.standard_normal()
    for _ in range(n_perfect):  # an offset keeps the differences of the target
        i, c = rng.integers(0, m), rng.integers(0, 6)
        aggregated[i, :, c] = target[i, :, c] + 0.5
    report = shape_report(target, initial, aggregated)
    c_ratio, r_init, r_aggr, perfect, degenerate = _shape_report_loop(target, initial, aggregated)
    assert np.array_equal(report.c_ratio, c_ratio, equal_nan=True)
    assert np.array_equal(report.r_initial, r_init, equal_nan=True)
    assert np.array_equal(report.r_aggregated, r_aggr, equal_nan=True)
    assert np.array_equal(report.perfect, perfect)
    assert np.array_equal(report.degenerate, degenerate)
    assert report.c_ratio.shape == (m, len(CHANNEL_NAMES))
    assert (report.n_perfect, report.n_degenerate) == (int(perfect.sum()), int(degenerate.sum()))


# ------------------------------------------------------------ artifacts


def _format_path_loop(values):
    """The per-float formatter ``format_path`` replaced."""
    if np.ndim(values) > 1:
        return "[" + ", ".join(map(_format_path_loop, values)) + "]"
    return "[" + ", ".join(map(format_float, values)) + "]"


def _csv_loop(header, rows):
    """The per-value CSV rule ``write_csv`` and ``seeds_csv`` replaced."""
    lines = [header]
    for row in rows:
        lines.append(",".join(
            format_float(v) if isinstance(v, (int, float, np.floating)) and not isinstance(v, bool) else str(v)
            for v in row
        ))
    return "\n".join(lines) + "\n"


SPECIALS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e16, 1e-5, 0.1, 123456789.125]
floats = st.one_of(st.sampled_from(SPECIALS), st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=100, deadline=None)
@given(values=st.lists(floats, min_size=0, max_size=40), width=st.sampled_from([1, 2, 6]))
def test_format_path_has_the_bytes_of_the_per_float_formatter(values, width):
    vector = np.array(values, dtype=float)
    assert format_path(vector) == _format_path_loop(vector)
    assert format_path(values) == _format_path_loop(values)
    path = vector[: len(vector) // width * width].reshape(-1, width)
    assert format_path(path) == _format_path_loop(path)


cells = st.one_of(
    floats,
    st.integers(-10**6, 10**6),
    floats.map(np.float64),
    st.just(""),
    st.booleans(),
)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.lists(cells, min_size=1, max_size=7), max_size=12))
def test_csv_rows_have_the_bytes_of_the_per_value_rule(rows):
    assert csv_text("h", rows) == _csv_loop("h", rows)
    with tempfile.TemporaryDirectory() as out:
        writer = _OutputWriter(out)
        path = writer.write_csv("rows.csv", "h", rows)
        assert path.read_bytes() == _csv_loop("h", rows).encode()


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.tuples(floats, floats, floats), max_size=20), ints=st.booleans())
def test_float_array_csv_and_seeds_csv_have_the_bytes_of_the_per_value_rule(values, ints):
    table = np.array(values, dtype=float).reshape(-1, 3)
    assert csv_text("a,b,c", table) == _csv_loop("a,b,c", values)
    seeds = values
    if ints:  # a seed built from Python ints is written as floats, 1 as 1.0
        seeds = [(k, -k, 2 * k) for k in range(len(values))]
    assert seeds_csv(seeds) == _csv_loop("x,y,mere", seeds)
    assert seeds_csv(np.array(seeds, dtype=float).reshape(-1, 3)) == _csv_loop("x,y,mere", seeds)


def test_artifact_formats_on_the_named_edge_values():
    row = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-5]
    assert format_path(row) == "[-0.0, nan, inf, -inf, 5e-324, 1e+16, 1e-05]"
    assert csv_text("h", [[0, 3, "", True, np.float64(-0.0)]]) == "h\n0.0,3.0,,True,-0.0\n"
    assert csv_text("t,v", np.array([[0, 1e16], [1, -0.0]])) == "t,v\n0.0,1e+16\n1.0,-0.0\n"


@settings(max_examples=100, deadline=None)
@given(values=st.lists(floats, max_size=30), ints=st.lists(st.integers(-10**6, 10**6), max_size=10))
def test_jsonable_arrays_match_the_per_element_conversion(values, ints):
    # a finite float array, an int array and a bool array take one tolist(); NaN and inf still become strings
    for array in (np.array(values, dtype=float), np.array(ints, dtype=np.int64), np.array(ints, dtype=np.int64) > 0):
        per_element = [jsonable(v) for v in array.tolist()]
        assert json.dumps(jsonable(array), indent=2) == json.dumps(per_element, indent=2)
