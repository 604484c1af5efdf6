"""Acceptance suite: one test per numbered criterion, each printing a
single ``[PASS]``/``[FAIL]`` verdict line with the measured values.

The heavyweight fixtures (five augmented runs over a 26-sample dataset)
are shared across criteria 3, 5, 6, and 7.
"""

import json
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from rotta.cli import main as cli_main
from rotta.dataset import generate_synthetic, save_dataset
from rotta.experiment import ExperimentConfig, run_sweep
from rotta.metrics import (
    _pearson,
    _shape_ratios,
    first_differences,
    mare,
    mere,
    mere_av,
    mere_histogram,
    percentile_of,
    sd_mere,
)
from rotta.models import EquivariantOracle, NoisyOracle, OracleParams
from rotta.rotations import RotationStream, rotation_list, sample_rotations
from rotta.metrics import evaluate_dataset
from rotta.spheremap import (
    mollweide_project,
    project_rotations,
    solve_theta,
    voronoi_rasterize,
)
from rotta.tta import numerics_audit, run_tta
from rotta.voigt import conjugate, von_mises

SEEDS = (101, 102, 103, 104, 105)
N_ROTATIONS = 200
NOISE_FRACTION = 0.05
NOISE_SEED = 9


def _verdict(num, name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}"
    print(line)
    assert ok, line


def _five_seed_runs(uniaxial):
    samples = generate_synthetic(26, 100, stream=RotationStream(42), uniaxial=uniaxial)
    vm = np.concatenate([von_mises(s.target_stress) for s in samples])
    amp = float(NOISE_FRACTION * vm.mean())
    targets = np.stack([s.target_stress for s in samples])
    reports = []
    start = time.perf_counter()
    for seed in SEEDS:
        model = NoisyOracle(OracleParams(noise_amp=amp, noise_seed=NOISE_SEED))
        result = run_tta(model, samples, rotation_list(RotationStream(seed), N_ROTATIONS))
        reports.append(evaluate_dataset(targets, result))
    elapsed = time.perf_counter() - start
    return SimpleNamespace(samples=samples, amp=amp, reports=reports, elapsed=elapsed)


@pytest.fixture(scope="module")
def noisy_runs():
    """Five N=200 runs (rotation seeds 101-105) on the random-walk dataset."""
    return _five_seed_runs(uniaxial=False)


@pytest.fixture(scope="module")
def cyclic_runs():
    """Same five runs on the cyclic uniaxial dataset (shared loading path)."""
    return _five_seed_runs(uniaxial=True)


@pytest.fixture(scope="module")
def noisy_dataset_file(tmp_path_factory, noisy_runs):
    path = tmp_path_factory.mktemp("acceptance") / "noisy.ndjson"
    save_dataset(noisy_runs.samples, path)
    return str(path)


def test_criterion_01_numerics_audit():
    samples = generate_synthetic(50, 100, stream=RotationStream(3))
    start = time.perf_counter()
    report = numerics_audit(samples, EquivariantOracle(), RotationStream(12))
    elapsed = time.perf_counter() - start
    worst = max(report.input_err, report.target_err, report.output_err)
    ok = worst <= 1e-12 and elapsed < 5.0
    _verdict(
        1, "numerics audit", ok,
        f"input={report.input_err:.2e} target={report.target_err:.2e} "
        f"output={report.output_err:.2e} (bound 1e-12), {elapsed:.2f} s (< 5 s)",
    )


def test_criterion_02_equivariant_no_op():
    samples = generate_synthetic(20, 100, stream=RotationStream(7))
    start = time.perf_counter()
    model = EquivariantOracle()
    result = run_tta(model, samples, rotation_list(RotationStream(0), 64))
    report = evaluate_dataset(np.stack([s.target_stress for s in samples]), result)
    elapsed = time.perf_counter() - start
    spread = float(np.max(np.abs(result.aggregated - result.initial)))
    sd_max = float(np.max(result.vm_sd))
    mere_gap = abs(report.mere_tta - report.mere_i0)
    ok = spread <= 1e-9 and sd_max <= 1e-9 and mere_gap <= 1e-9 and elapsed < 10.0
    _verdict(
        2, "equivariant no-op", ok,
        f"max|sigma_tta-sigma_i0|={spread:.2e} max SD_v={sd_max:.2e} "
        f"|dMeRE|={mere_gap:.2e} (bounds 1e-9), {elapsed:.2f} s (< 10 s)",
    )


def test_criterion_03_tta_improvement(noisy_runs):
    reductions = [
        (r.mere_av - r.mere_tta) / r.mere_av for r in noisy_runs.reports
    ]
    ok = (
        all(r.mere_tta < r.mere_av for r in noisy_runs.reports)
        and all(red >= 0.10 for red in reductions)
        and noisy_runs.elapsed < 120.0
    )
    _verdict(
        3, "TTA improvement", ok,
        f"reductions {['%.1f%%' % (100 * r) for r in reductions]} (each >= 10%), "
        f"5 runs in {noisy_runs.elapsed:.1f} s (< 120 s)",
    )


def test_criterion_04_plateau(noisy_dataset_file, noisy_runs, tmp_path):
    cfg = ExperimentConfig(
        dataset=noisy_dataset_file,
        out_dir=str(tmp_path),
        model="noisy",
        n_rotations=N_ROTATIONS,
        seed=SEEDS[0],
        noise_amp=noisy_runs.amp,
        noise_seed=NOISE_SEED,
    )
    rows = run_sweep(cfg, [N_ROTATIONS, 1000], write=False)
    mere_200, mere_1000 = rows[0][1], rows[1][1]
    ratio = abs(mere_200 - mere_1000) / mere_200
    ok = ratio <= 0.05
    _verdict(
        4, "plateau", ok,
        f"mere_tta(200)={mere_200:.4e} mere_tta(1000)={mere_1000:.4e} "
        f"relative change {ratio:.3f} (bound 0.05); independent per-rotation noise "
        f"decays as 1/sqrt(N) with no error floor, predicted change "
        f"1-sqrt(201/1001)={1 - math.sqrt(201 / 1001):.3f}",
    )


def test_criterion_05_repeat_stability(noisy_runs):
    values = np.array([r.mere_tta for r in noisy_runs.reports])
    mean = float(values.mean())
    sd = float(values.std(ddof=1))
    ok = sd <= 0.02 * mean
    _verdict(
        5, "repeat stability", ok,
        f"5-repeat mere_tta mean={mean:.4e} sd={sd:.2e} sd/mean={sd / mean:.2%} (<= 2%)",
    )


def test_criterion_06_shape_consistency(noisy_runs):
    shape = noisy_runs.reports[0].shape
    ok = shape.mean_c_ratio > 1.0 and shape.fraction_below_one <= 0.20
    _verdict(
        6, "shape consistency", ok,
        f"mean C_ratio={shape.mean_c_ratio:.2f} (> 1), "
        f"fraction below one={shape.fraction_below_one:.2%} (<= 20%), "
        f"degenerate channels={shape.n_degenerate}",
    )


def test_criterion_07_uncertainty_correlation(cyclic_runs):
    r_abs = [r.uncertainty.r_abs for r in cyclic_runs.reports]
    r_rel = [r.uncertainty.r_rel for r in cyclic_runs.reports]
    n_rel_wins = sum(rel >= ab for rel, ab in zip(r_rel, r_abs))
    ok = all(r >= 0.3 for r in r_abs)
    _verdict(
        7, "uncertainty correlation", ok,
        f"r_abs per seed {['%.3f' % r for r in r_abs]} (each >= 0.3, anchor 0.73); "
        f"observed r_rel >= r_abs in {n_rel_wins}/5 seeds (not asserted)",
    )


def test_criterion_08_rotation_sampler():
    rotations = sample_rotations(RotationStream(1), 100_000)
    gram = np.einsum("nji,njk->nik", rotations, rotations)
    ortho = float(np.max(np.abs(gram - np.eye(3))))
    det = float(np.max(np.abs(np.linalg.det(rotations) - 1.0)))
    v = rotations[:, :, 2]  # image of e3 under each rotation
    octant = (
        (v[:, 0] > 0).astype(int) * 4 + (v[:, 1] > 0) * 2 + (v[:, 2] > 0)
    )
    counts = np.bincount(octant, minlength=8)
    worst_count = int(np.max(np.abs(counts - 12500)))
    mean_norm = float(np.linalg.norm(v.mean(axis=0)))
    ok = ortho <= 1e-12 and det <= 1e-12 and worst_count <= 600 and mean_norm <= 0.02
    _verdict(
        8, "rotation sampler", ok,
        f"ortho={ortho:.2e} det={det:.2e} (bounds 1e-12), octant max "
        f"deviation {worst_count} (<= 600), mean norm {mean_norm:.4f} (<= 0.02)",
    )


def test_criterion_09_von_mises_invariance():
    rng = np.random.default_rng(2)
    tensors = 50.0 * rng.standard_normal((10_000, 6))
    rotations = sample_rotations(RotationStream(2), 10_000)
    vm = von_mises(tensors)
    worst = 0.0
    for s, r, v in zip(tensors, rotations, vm):
        err = abs(von_mises(conjugate(r[None], s)[0]) - v) / max(1.0, v)
        worst = max(worst, float(err))
    ok = worst <= 1e-10
    _verdict(
        9, "von Mises invariance", ok,
        f"10^4 pairs, worst scaled deviation {worst:.2e} (bound 1e-10)",
    )


def test_criterion_10_projection_and_raster():
    rng = np.random.default_rng(4)
    lats = rng.uniform(-math.pi / 2, math.pi / 2, size=10_000)
    theta = solve_theta(lats)
    residual = float(np.max(np.abs(2 * theta + np.sin(2 * theta) - math.pi * np.sin(lats))))

    x0, y0 = mollweide_project(0.0, 0.0, radius=2.0)
    xp, yp = mollweide_project(math.pi / 2, 0.0, radius=2.0)
    center_err = max(abs(x0), abs(y0))
    pole_err = max(abs(xp), abs(yp - 2.0 * math.sqrt(2.0)))

    seeds = project_rotations(
        sample_rotations(RotationStream(10), 50), np.arange(50, dtype=float), radius=2.0
    )
    raster = voronoi_rasterize(seeds, grid=(64, 32), radius=2.0)
    min_gap = math.inf
    mismatches = 0
    for j, yc in enumerate(raster.y_centers):
        for i, xc in enumerate(raster.x_centers):
            if not raster.inside[j, i]:
                continue
            d2 = [(xc - sx) ** 2 + (yc - sy) ** 2 for sx, sy, _ in seeds]
            order = sorted(range(len(seeds)), key=d2.__getitem__)
            min_gap = min(min_gap, d2[order[1]] - d2[order[0]])
            if raster.values[j, i] != seeds[order[0], 2]:
                mismatches += 1

    ok = (
        residual <= 1e-12
        and center_err <= 1e-12
        and pole_err <= 1e-12
        and mismatches == 0
        and min_gap > 0.0
    )
    _verdict(
        10, "projection and raster", ok,
        f"Newton residual {residual:.2e} (bound 1e-12), fixed-point errors "
        f"{center_err:.1e}/{pole_err:.1e}, raster mismatches {mismatches}/64x32 "
        f"(tie gap {min_gap:.2e})",
    )


def test_criterion_11_metric_unit_identities():
    tol = 1e-12
    checks = []

    s, e = 5.0, 0.25
    target = np.array([s, 0.5 * s, 0.5 * s, 0.5 * s])
    checks.append(("mere hand case", abs(mere(target, target - e) - e / (2 * s)) <= tol))

    rng = np.random.default_rng(11)
    t2 = rng.uniform(1.0, 4.0, size=(3, 9))
    p2 = t2 + 0.3 * rng.standard_normal((3, 9))
    checks.append(
        ("mere scale invariance", abs(mere(7.3 * t2, 7.3 * p2) - mere(t2, p2)) <= tol)
    )
    checks.append(
        ("mare scale invariance", abs(mare(7.3 * t2, 7.3 * p2) - mare(t2, p2)) <= tol)
    )

    t3 = np.array([4.0, 2.0, 1.0])
    checks.append(("mare undershoot", abs(mare(t3, t3 - 0.3) - 0.3 / 4.0) <= tol))
    checks.append(("mare signed overshoot", abs(mare(t3, t3 + 0.3) + 0.3 / 4.0) <= tol))
    checks.append(
        ("mare absolute mode",
         abs(mare(t3, t3 + 0.3, absolute=True) - 0.3 / 4.0) <= tol)
    )

    checks.append(("mere_av hand case", abs(mere_av([0.02, 0.04]) - 0.03) <= tol))
    checks.append(("sd_mere hand case", abs(sd_mere([1.0, 3.0], center=2.0) - 1.0) <= tol))
    checks.append(
        ("percentile strict-below", abs(percentile_of(2.0, [1.0, 2.0, 3.0]) - 100.0 / 3.0) <= tol)
    )

    def pearson(a, b):
        return float(_pearson(np.asarray(a), np.asarray(b))[0])

    checks.append(
        ("pearson hand case",
         abs(pearson([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) - math.sqrt(27.0 / 28.0)) <= tol)
    )
    x = np.array([0.0, 1.0, 3.0, 4.0])
    checks.append(("pearson perfect", abs(pearson(x, x) - 1.0) <= tol))
    y = 0.5 * x + rng.standard_normal(4)
    checks.append(
        ("pearson affine invariance", abs(pearson(x, 2.0 * y + 5.0) - pearson(x, y)) <= 1e-10)
    )

    hist = mere_histogram([0.42, 0.44, 0.46], bin_width=0.1)
    checks.append(("histogram aligned edge", abs(hist.bin_edges[0] - 0.4) <= tol))
    checks.append(("histogram single-bin density", abs(hist.density[0] - 10.0) <= 1e-9))
    checks.append(
        ("histogram area",
         abs(float(np.sum(hist.density)) * hist.bin_width - 1.0) <= 1e-9)
    )
    checks.append(("histogram fit mean", abs(hist.fit_mean - mere_av([0.42, 0.44, 0.46])) <= tol))

    checks.append(
        ("first differences ramp",
         bool(np.all(np.abs(first_differences([0.0, 0.7, 1.4, 2.1]) - 0.7) <= tol)))
    )

    tgt = np.array([0.0, 1.0, 0.0, 2.0, 0.5])
    prd = np.array([0.1, 0.9, 0.3, 1.7, 0.2])
    c_ratio = _shape_ratios(tgt, prd, prd)[2]
    checks.append(("shape ratio identity", abs(c_ratio - 1.0) <= tol))
    r_initial, r_aggregated, c_ratio, _, _ = _shape_ratios(tgt, prd, tgt + 0.1 * (prd - tgt))
    checks.append(
        ("C_ratio orders correlations",
         (c_ratio > 1.0) == (r_aggregated > r_initial))
    )

    failures = [name for name, passed in checks if not passed]
    _verdict(
        11, "metric unit identities", not failures,
        f"{len(checks) - len(failures)}/{len(checks)} identities at 1e-12"
        + (f"; failed: {failures}" if failures else ""),
    )


def test_criterion_12_run_determinism(noisy_dataset_file, noisy_runs, tmp_path, capsys):
    args = [
        "run",
        "--dataset", noisy_dataset_file,
        "--model", "noisy",
        "--noise-amp", repr(noisy_runs.amp),
        "--noise-seed", str(NOISE_SEED),
        "--rotations", "24",
        "--seed", str(SEEDS[0]),
        "--sphere-map", "--grid", "120x60",
    ]
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    code1 = cli_main(args + ["--out", str(out1)])
    code2 = cli_main(args + ["--out", str(out2)])
    capsys.readouterr()
    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    differing = [
        name for name in names1
        if (out1 / name).read_bytes() != (out2 / name).read_bytes()
    ] if names1 == names2 else ["<file sets differ>"]
    manifests_equal = (
        json.loads((out1 / "manifest.json").read_text())
        == json.loads((out2 / "manifest.json").read_text())
    )
    ok = code1 == 0 and code2 == 0 and not differing and manifests_equal
    _verdict(
        12, "run determinism", ok,
        f"two runs, {len(names1)} files each, byte-identical"
        + (f" except {differing}" if differing else "")
        + ", manifests identical",
    )
