"""Tests of experiment orchestration and persisted artifacts."""

import json
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import rotta.experiment as experiment
import rotta.models as models
import rotta.tta as tta
from rotta.dataset import InvariantViolation, generate_synthetic, save_dataset
from rotta.experiment import (
    ConfigError,
    ExperimentConfig,
    run_audit,
    run_experiment,
    run_repeats,
    run_sphere_map,
    run_sweep,
    sha256_file,
)
from rotta.metrics import evaluate_dataset
from rotta.rotations import RotationStream, rotation_list
from rotta.spheremap import project_rotations, seeds_csv

FIXTURE = str(Path(__file__).with_name("external_fixture.py"))

RUN_FILES = (
    "metrics.json",
    "metrics.txt",
    "aggregated.ndjson",
    "sd_curve.csv",
    "e_abs_curve.csv",
    "e_rel_curve.csv",
    "sd_rel_curve.csv",
    "mere_histogram.csv",
    "manifest.json",
)


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "small.ndjson"
    save_dataset(generate_synthetic(4, 12, stream=RotationStream(31)), path)
    return str(path)


def _cfg(dataset_path, out_dir, **overrides):
    base = dict(
        dataset=dataset_path,
        out_dir=str(out_dir),
        model="noisy",
        n_rotations=8,
        seed=5,
        noise_amp=2.0,
        noise_seed=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------- run


def test_run_experiment_writes_expected_files(dataset_path, tmp_path):
    cfg = _cfg(dataset_path, tmp_path / "out")
    report, manifest_path = run_experiment(cfg)
    out = tmp_path / "out"
    for name in RUN_FILES:
        assert (out / name).is_file(), name
    assert sorted(p.name for p in out.iterdir()) == sorted(RUN_FILES)

    manifest = json.loads(manifest_path.read_text())
    assert "out_dir" not in manifest["config"]
    assert manifest["config"]["model"] == "noisy"
    assert manifest["seed"] == 5
    assert manifest["dataset_sha256"] == sha256_file(dataset_path)
    # every artifact hash in the manifest matches the file on disk
    assert sorted(manifest["outputs"]) == sorted(n for n in RUN_FILES if n != "manifest.json")
    for name, digest in manifest["outputs"].items():
        assert digest == sha256_file(out / name)

    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["mere_tta"] == pytest.approx(report.mere_tta)
    assert (out / "sd_curve.csv").read_text().startswith("t,value\n")
    hist_header = (out / "mere_histogram.csv").read_text().splitlines()[0]
    assert hist_header == "bin_left,bin_right,density,normal_fit"


def test_rerun_is_byte_identical_across_directories(dataset_path, tmp_path):
    cfg1 = _cfg(dataset_path, tmp_path / "one", sphere_map=True, grid=(120, 60))
    cfg2 = cfg1._replace(out_dir=str(tmp_path / "two"))
    run_experiment(cfg1)
    run_experiment(cfg2)
    names1 = sorted(p.name for p in (tmp_path / "one").iterdir())
    names2 = sorted(p.name for p in (tmp_path / "two").iterdir())
    assert names1 == names2
    for name in names1:
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes(), name


def test_zero_rotations_degenerates_to_identity(dataset_path, tmp_path):
    cfg = _cfg(dataset_path, tmp_path / "out", n_rotations=0)
    report, _ = run_experiment(cfg)
    assert report.mere_tta == report.mere_i0
    assert report.mare_tta == report.mare_i0
    assert report.histogram is None
    assert not (tmp_path / "out" / "mere_histogram.csv").exists()


def test_augmentation_beats_average_rotation(dataset_path, tmp_path):
    cfg = _cfg(dataset_path, tmp_path / "out", n_rotations=32)
    report, _ = run_experiment(cfg)
    assert report.mere_tta < report.mere_av


def test_sphere_map_artifacts(dataset_path, tmp_path):
    cfg = _cfg(dataset_path, tmp_path / "out", n_rotations=6, sphere_map=True,
               grid=(80, 40))
    run_experiment(cfg)
    svg = (tmp_path / "out" / "map.svg").read_text()
    assert svg.endswith("</svg>\n")
    seeds = (tmp_path / "out" / "map_seeds.csv").read_text().splitlines()
    assert seeds[0] == "x,y,mere"
    assert len(seeds) == 1 + 7  # identity + six rotations


def test_run_sphere_map_standalone(dataset_path, tmp_path):
    cfg = _cfg(dataset_path, tmp_path / "out", n_rotations=4, grid=(60, 30))
    run_sphere_map(cfg)
    names = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert names == ["manifest.json", "map.svg", "map_seeds.csv"]


def _count_draws(monkeypatch):
    """Route the one lookup site of ``rotation_list``, in ``experiment``, through a counter."""
    draws = []

    def counted(stream, n):
        draws.append(n)
        return rotation_list(stream, n)

    monkeypatch.setattr(experiment, "rotation_list", counted)
    return draws


def test_compute_results_draws_rotations_once(dataset_path, tmp_path, monkeypatch):
    cfg = _cfg(dataset_path, tmp_path / "out", n_rotations=7)
    samples = experiment._load_evaluable(cfg)
    draws = _count_draws(monkeypatch)
    rotations, result = experiment.compute_results(cfg, experiment.build_model(cfg), samples)
    assert result.vm_individual.shape[:2] == (4, 8) and draws == [7]
    fresh = rotation_list(RotationStream(cfg.seed), cfg.n_rotations)
    assert rotations.tobytes() == fresh.tobytes()


def test_sphere_map_draws_rotations_once(dataset_path, tmp_path, monkeypatch):
    cfg = _cfg(dataset_path, tmp_path / "out", n_rotations=9, grid=(40, 20))
    fresh = rotation_list(RotationStream(cfg.seed), cfg.n_rotations)
    samples = experiment._load_evaluable(cfg)
    rotations, result = experiment.compute_results(cfg, experiment.build_model(cfg), samples)
    assert np.array_equal(rotations, fresh)

    # the map reuses the results' list: the run draws it once, for the results
    draws = _count_draws(monkeypatch)
    run_sphere_map(cfg)
    assert draws == [cfg.n_rotations]
    report = evaluate_dataset(np.stack([s.target_stress for s in samples]), result)
    expected = seeds_csv(project_rotations(fresh, report.mere_per_rotation, radius=cfg.radius))
    assert (tmp_path / "out" / "map_seeds.csv").read_text() == expected


# ---------------------------------------------------------------- audit


def test_audit_identity_mode_is_exact(dataset_path, tmp_path):
    cfg = _cfg(dataset_path, tmp_path / "out", model="equivariant", noise_amp=0.0)
    report = run_audit(cfg, identity_only=True)
    assert report.input_err == 0.0
    assert report.target_err == 0.0
    assert report.output_err == 0.0
    assert report.n_samples == 4
    assert report.n_with_target == 4


def test_audit_random_rotations_are_rounding_sized(dataset_path, tmp_path):
    cfg = _cfg(dataset_path, tmp_path / "out", model="equivariant", noise_amp=0.0)
    report = run_audit(cfg)
    assert 0.0 < report.input_err <= 1e-12
    assert 0.0 < report.target_err <= 1e-9  # stresses carry the oracle's scale
    assert report.output_err > 0.0
    assert "samples: 4" in report.to_text()


# ---------------------------------------------------------------- sweep


def test_sweep_rows_and_zero_checkpoint(dataset_path, tmp_path):
    cfg = _cfg(dataset_path, tmp_path / "sweep")
    rows = run_sweep(cfg, [8, 0, 4])
    assert [r[0] for r in rows] == [0, 4, 8]
    report, _ = run_experiment(cfg._replace(out_dir=str(tmp_path / "ref0"), n_rotations=0))
    assert rows[0][1] == pytest.approx(report.mere_i0, abs=1e-12)
    csv = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    assert csv[0] == "n,mere_tta,mare_tta"
    assert len(csv) == 4
    manifest = json.loads((tmp_path / "sweep" / "manifest.json").read_text())
    assert manifest["n_values"] == [0, 4, 8]


def test_sweep_agrees_with_full_run(dataset_path, tmp_path):
    # sweep row n is `run --rotations n`, bit for bit; three rotations per
    # kernel chunk make the sweep's running sum cross chunk boundaries
    for divisor_mode in ("count", "paper"):
        cfg = _cfg(dataset_path, tmp_path / divisor_mode / "sweep", divisor_mode=divisor_mode)
        n_values = [1, 2, 3, 7, 11] + ([0] if divisor_mode == "count" else [])
        with mock.patch.object(tta, "_CHUNK_STEPS", 3 * 12):
            rows = run_sweep(cfg, n_values, write=False)
        assert not (tmp_path / divisor_mode / "sweep").exists()
        assert [n for n, _, _ in rows] == sorted(n_values)
        for n, mere_tta, mare_tta in rows:
            report, _ = run_experiment(cfg._replace(n_rotations=n, out_dir=str(tmp_path / divisor_mode / str(n))))
            assert (mere_tta, mare_tta) == (report.mere_tta, report.mare_tta), (divisor_mode, n)


def test_sweep_rejects_bad_requests(dataset_path, tmp_path):
    cfg = _cfg(dataset_path, tmp_path / "out")
    with pytest.raises(ConfigError):
        run_sweep(cfg, [])
    with pytest.raises(ConfigError):
        run_sweep(cfg, [-1, 4])
    with pytest.raises(ConfigError):
        run_sweep(cfg._replace(divisor_mode="paper"), [0, 4])


# --------------------------------------------------------------- repeats


def test_repeats_rows_and_summary(dataset_path, tmp_path):
    cfg = _cfg(dataset_path, tmp_path / "rep", n_rotations=4)
    rows, (mean, sd) = run_repeats(cfg, n_repeats=3)
    assert [r[0] for r in rows] == [1, 2, 3]
    assert [r[1] for r in rows] == [5, 6, 7]  # consecutive rotation seeds
    tta = np.array([r[5] for r in rows])
    assert mean == pytest.approx(float(np.mean(tta)), abs=1e-15)
    assert sd == pytest.approx(float(np.std(tta, ddof=1)), abs=1e-15)
    csv = (tmp_path / "rep" / "repeats.csv").read_text().splitlines()
    assert csv[0] == "repeat,seed,mere_i0,mere_av,sd_mere,mere_tta,mare_tta"
    assert len(csv) == 1 + 3 + 2
    assert csv[-2].startswith("mean,")
    assert csv[-1].startswith("sd,")


def test_repeats_single_run_has_zero_sd(dataset_path, tmp_path):
    cfg = _cfg(dataset_path, tmp_path / "rep", n_rotations=2)
    rows, (_, sd) = run_repeats(cfg, n_repeats=1, write=False)
    assert len(rows) == 1
    assert sd == 0.0


# sha256 of repeats.csv for three repeats of the echo fixture (sigma = eps) on
# the module's dataset, recorded when every repeat started its own child.
GOLDEN_ECHO_REPEATS = "96a8842190d333922fe7afaa27c08373b8290437c31e850758feee92530d816d"


def test_repeats_share_one_external_child(dataset_path, tmp_path):
    cfg = _cfg(dataset_path, tmp_path / "rep", model=f"external:{sys.executable} {FIXTURE} echo",
               noise_amp=0.0, n_rotations=4)
    with mock.patch.object(models.subprocess, "Popen", wraps=subprocess.Popen) as popen:
        run_repeats(cfg, n_repeats=3)
    assert popen.call_count == 1
    assert sha256_file(tmp_path / "rep" / "repeats.csv") == GOLDEN_ECHO_REPEATS


def test_repeats_rejects_zero_repeats(dataset_path, tmp_path):
    with pytest.raises(ConfigError):
        run_repeats(_cfg(dataset_path, tmp_path / "rep"), n_repeats=0)


# --------------------------------------------------------------- cleanup


def test_failed_run_removes_partial_outputs(dataset_path, tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(experiment, "render_svg", boom)
    cfg = _cfg(dataset_path, tmp_path / "out", sphere_map=True, grid=(40, 20))
    with pytest.raises(RuntimeError, match="injected"):
        run_experiment(cfg)
    # the sphere map fails after the metrics files were written; all are removed
    assert list((tmp_path / "out").iterdir()) == []


# ---------------------------------------------------------- configuration


def test_config_validation_errors(dataset_path, tmp_path):
    out = str(tmp_path / "out")
    good = _cfg(dataset_path, out)
    good.validate()
    cases = [
        good._replace(model="magic"),
        good._replace(model="external:   "),
        good._replace(model="noisy", noise_amp=0.0),
        good._replace(n_rotations=-1),
        good._replace(divisor_mode="median"),
        good._replace(bin_width=0.0),
        good._replace(radius=-2.0),
        good._replace(grid=(0, 10)),
        good._replace(grid=(10,)),
        good._replace(colormap="jet"),
        good._replace(external_timeout=0.0),
        good._replace(dataset=str(tmp_path / "nope.ndjson")),
    ]
    for bad in cases:
        with pytest.raises(ConfigError):
            bad.validate()


def test_config_roundtrip_dict(dataset_path, tmp_path):
    cfg = _cfg(dataset_path, tmp_path / "out", grid=(12, 6))
    d = cfg.to_dict()
    assert d["grid"] == [12, 6]
    assert d["model"] == "noisy"
    json.dumps(d)


def test_config_to_dict_pins_keys_order_and_values(tmp_path):
    cfg = ExperimentConfig(
        dataset=tmp_path / "d.ndjson", out_dir=tmp_path / "out", model="external:echo", n_rotations=17,
        seed=4, divisor_mode="paper", mare_abs=True, bin_width=2e-5,
        noise_amp=1.5, noise_seed=9, sphere_map=True, grid=(np.int64(12), 6), radius=3.0,
        colormap="gray", external_timeout=7.5,
    )
    expected = {
        "dataset": str(tmp_path / "d.ndjson"),
        "out_dir": str(tmp_path / "out"),
        "model": "external:echo",
        "n_rotations": 17,
        "seed": 4,
        "divisor_mode": "paper",
        "mare_abs": True,
        "bin_width": 2e-5,
        "noise_amp": 1.5,
        "noise_seed": 9,
        "sphere_map": True,
        "grid": [12, 6],
        "radius": 3.0,
        "colormap": "gray",
        "external_timeout": 7.5,
    }
    d = cfg.to_dict()
    assert list(d) == list(expected) == list(ExperimentConfig._fields)
    assert d == expected
    assert type(d["grid"][0]) is int and type(d["dataset"]) is str
    assert json.dumps(d) == json.dumps(expected)


def test_dataset_without_targets_rejected(tmp_path):
    samples = generate_synthetic(2, 6, stream=RotationStream(33))
    stripped = [s._replace(target_stress=None) for s in samples]
    path = tmp_path / "untargeted.ndjson"
    save_dataset(stripped, path)
    cfg = _cfg(str(path), tmp_path / "out")
    with pytest.raises(InvariantViolation, match="sigma"):
        run_experiment(cfg)


def test_mixed_path_lengths_rejected(tmp_path):
    a = generate_synthetic(1, 6, stream=RotationStream(34))
    b = generate_synthetic(2, 9, stream=RotationStream(35))[1:]
    path = tmp_path / "mixed.ndjson"
    save_dataset(a + b, path)
    cfg = _cfg(str(path), tmp_path / "out")
    with pytest.raises(InvariantViolation, match="path length"):
        run_experiment(cfg)


def test_empty_dataset_rejected(tmp_path):
    path = tmp_path / "empty.ndjson"
    path.write_text("")
    cfg = _cfg(str(path), tmp_path / "out")
    with pytest.raises(InvariantViolation, match="empty"):
        run_experiment(cfg)
