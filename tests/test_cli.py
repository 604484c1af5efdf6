"""End-to-end tests of the command-line interface."""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rotta
from rotta import cli, dataset, experiment
from rotta.cli import main
from rotta.dataset import generate_synthetic, save_dataset
from rotta.experiment import ExperimentConfig
from rotta.metrics import Histogram, MetricsReport, ShapeReport, UncertaintyReport
from rotta.models import EquivariantOracle
from rotta.rotations import RotationStream
from rotta.spheremap import COLORMAPS
from rotta.tta import DIVISOR_MODES

FIXTURE = str(Path(__file__).with_name("external_fixture.py"))
PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("clidata") / "small.ndjson"
    save_dataset(generate_synthetic(4, 10, stream=RotationStream(41)), path)
    return str(path)


def _noisy(dataset_path, out, *extra, rotations=6):
    """Flags of a noisy run with N = ``rotations``; ``None`` for sweep, which takes its counts from ``--n-values``."""
    return [
        "--dataset", dataset_path, "--out", str(out),
        "--model", "noisy", "--noise-amp", "2.0", *(() if rotations is None else ("--rotations", str(rotations))),
        *extra,
    ]


# ------------------------------------------------------------- commands


def test_generate(tmp_path, capsys):
    path = tmp_path / "gen.ndjson"
    code = main(["generate", "--dataset", str(path), "--samples", "3", "--steps", "8"])
    assert code == 0
    assert len(path.read_text().splitlines()) == 3
    assert "3 samples x 8 steps" in capsys.readouterr().out


@pytest.mark.parametrize("args", [
    ["--samples", "0"],
    ["--steps", "0"],
    ["--max-strain", "-1"],
    ["--max-strain", "nan"],
    ["--uniaxial", "--steps", "3"],
], ids=" ".join)
def test_generate_argument_errors_are_config_errors(tmp_path, capsys, args):
    path = tmp_path / "gen.ndjson"
    assert main(["generate", "--dataset", str(path), *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: ") and "Traceback" not in captured.err
    assert not path.exists()


def test_generate_uniaxial_default_count(tmp_path):
    path = tmp_path / "uni.ndjson"
    assert main(["generate", "--dataset", str(path), "--steps", "12", "--uniaxial"]) == 0
    lines = path.read_text().splitlines()
    assert len(lines) == 11
    assert '"id": "uni-0000"' in lines[0]


def test_run(dataset_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", *_noisy(dataset_path, out)]) == 0
    captured = capsys.readouterr().out
    assert "mere_tta" in captured
    assert "manifest:" in captured
    assert (out / "metrics.json").is_file()


@pytest.mark.parametrize("rotations", [0, 3])
def test_metrics_json_is_the_report_fields_in_order(dataset_path, tmp_path, rotations):
    out = tmp_path / "out"
    assert main(["run", *_noisy(dataset_path, out), "--rotations", str(rotations)]) == 0
    d = json.loads((out / "metrics.json").read_text())
    top = [name for name in MetricsReport._fields if rotations or name != "histogram"]  # no histogram at N = 0
    assert list(d) == top
    assert list(d["shape"]) == ["channels", *ShapeReport._fields]
    assert list(d["uncertainty"]) == list(UncertaintyReport._fields)
    if rotations:
        assert list(d["histogram"]) == list(Histogram._fields)
    for key in ("mere_per_rotation", "mare_per_rotation"):
        assert list(d[key]) == [str(i) for i in range(rotations + 1)]


def test_audit(dataset_path, capsys):
    assert main(["audit", "--dataset", dataset_path]) == 0
    assert "Input" in capsys.readouterr().out


def test_audit_identity_only(dataset_path, capsys):
    assert main(["audit", "--dataset", dataset_path, "--identity-only"]) == 0
    out = capsys.readouterr().out
    assert "0.0000e+00" in out


# `rotta audit` of `rotta generate --samples 4 --steps 10 --seed 41` under
# the noisy model (--noise-amp 2 --seed 5), recorded when the audit still
# predicted outside the augmentation kernel
AUDIT_TABLE = (
    "         Input         Target         Output\n"
    "    1.2837e-16     8.7930e-14     7.8160e-14\n"
    "samples: 4 (4 with targets)\n"
)


def test_audit_table_is_pinned(tmp_path, capsys):
    data = tmp_path / "d.ndjson"
    assert main(["generate", "--dataset", str(data), "--samples", "4", "--steps", "10", "--seed", "41"]) == 0
    capsys.readouterr()
    assert main(["audit", "--dataset", str(data), "--model", "noisy", "--noise-amp", "2.0", "--seed", "5"]) == 0
    assert capsys.readouterr().out == AUDIT_TABLE


@pytest.mark.parametrize("command", ["audit", "run", "sweep", "repeats", "sphere-map"])
def test_audit_external_failure_names_the_sample(dataset_path, tmp_path, capsys, command):
    extra = {"audit": [], "sweep": ["--n-values", "0,2"]}.get(command, ["--rotations", "2"])
    if command != "audit":
        extra += ["--out", str(tmp_path / "out")]
    code = main([command, "--dataset", dataset_path,
                 "--model", f"external:{sys.executable} {FIXTURE} quit", *extra])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("external model error: sample rve-0000: rotation index 0: ")
    assert "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["audit", "run", "sweep", "repeats", "sphere-map"])
def test_empty_dataset_is_data_error(tmp_path, capsys, command):
    empty = tmp_path / "empty.ndjson"
    empty.write_text("")
    extra = [] if command == "audit" else ["--out", str(tmp_path / "out")]
    if command == "sweep":
        extra += ["--n-values", "0,2"]
    assert main([command, "--dataset", str(empty), *extra]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "data error: sample '<dataset>', field 'samples': dataset is empty\n"
    assert not (tmp_path / "out").exists()


def test_sweep(dataset_path, tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(["sweep", *_noisy(dataset_path, out, rotations=None), "--n-values", "0,4"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,mere_tta,mare_tta"
    assert lines[1].startswith("0,")
    assert lines[2].startswith("4,")
    assert (out / "sweep.csv").is_file()


def test_sphere_map(dataset_path, tmp_path, capsys):
    out = tmp_path / "map"
    code = main(["sphere-map", *_noisy(dataset_path, out), "--grid", "40x20"])
    assert code == 0
    assert "manifest:" in capsys.readouterr().out
    assert (out / "map.svg").is_file()
    assert (out / "map_seeds.csv").is_file()


# sha256 of `rotta sphere-map` artifacts on a fixed input (2 samples x 10
# steps, noisy model, N=40, 90x45 grid), recorded from the per-point
# projection and per-cell renderer that the array code replaced.
GOLDEN_DATASET = "3de9974d885ac7b8592de059fe567e9911f57b2704f98bf27771073ea6d62cc2"
GOLDEN_SEEDS_CSV = "559a4bbf4fc09bc44a8a043b9f094f53ea4d9cc67f3075413707f3658af3371c"
GOLDEN_SVG = {
    "viridis": "26baec7af4133cafbea7ed3d89a3be8420d7db454dad53b8c0f4c7292d0d6512",
    "gray": "9ef8dd751cd25251c701a1fe4c0ad2b6829cb2289a93b7550d5bd44f4d9e8cc8",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("colormap", sorted(GOLDEN_SVG))
def test_sphere_map_golden_digests(tmp_path, colormap):
    data = tmp_path / "golden.ndjson"
    assert main(["generate", "--dataset", str(data), "--seed", "0",
                 "--samples", "2", "--steps", "10"]) == 0
    assert _sha256(data) == GOLDEN_DATASET
    out = tmp_path / "map"
    assert main(["sphere-map", "--dataset", str(data), "--out", str(out),
                 "--rotations", "40", "--model", "noisy", "--noise-amp", "50",
                 "--grid", "90x45", "--colormap", colormap]) == 0
    assert _sha256(out / "map_seeds.csv") == GOLDEN_SEEDS_CSV
    assert _sha256(out / "map.svg") == GOLDEN_SVG[colormap]


def test_repeats(dataset_path, tmp_path, capsys):
    out = tmp_path / "rep"
    code = main(["repeats", *_noisy(dataset_path, out), "--rotations", "3",
                 "--repeats", "2"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "repeat,seed,mere_i0,mere_av,sd_mere,mere_tta,mare_tta"
    assert lines[-1].startswith("mean mere_tta")
    assert (out / "repeats.csv").is_file()


@pytest.mark.parametrize("command, extra", [("sphere-map", ["--grid", "40x20"]), ("repeats", ["--repeats", "2"])],
                         ids=["sphere-map", "repeats"])
def test_errors_too_wide_for_the_histogram_stop_only_run(tmp_path, capsys, command, extra):
    # only run writes the per-rotation error histogram, so only run rejects a bin width too fine for the errors
    data = tmp_path / "d.ndjson"
    assert main(["generate", "--dataset", str(data), "--samples", "3", "--steps", "20", "--seed", "1"]) == 0
    args = ["--dataset", str(data), "--model", "noisy", "--noise-amp", "1e6", "--rotations", "10"]
    assert main(["run", *args, "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith("configuration error: bin_width 1e-05 is too fine for the error range [")
    out = tmp_path / "out"
    assert main([command, *args, "--out", str(out), *extra]) == 0
    assert list(json.loads((out / "manifest.json").read_text())["outputs"]) == (
        ["map.svg", "map_seeds.csv"] if command == "sphere-map" else ["repeats.csv"])


# ------------------------------------------------------------ exit codes


def test_missing_dataset_is_config_error(tmp_path, capsys):
    code = main(["run", "--dataset", str(tmp_path / "nope.ndjson"),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_unknown_model_is_config_error(dataset_path, tmp_path, capsys):
    code = main(["run", "--dataset", dataset_path, "--out", str(tmp_path / "out"),
                 "--model", "magic"])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("command, below, extra", [
    ("run", (), ()),
    ("sweep", ("sub",), ("--n-values", "0,4")),
])
def test_out_that_is_a_file_is_config_error(dataset_path, tmp_path, capsys, monkeypatch, command, below, extra):
    # rejected with the configuration, before the model is built
    monkeypatch.setattr(experiment, "build_model", lambda cfg: pytest.fail("a model was built"))
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    code = main([command, *_noisy(dataset_path, blocker.joinpath(*below), rotations=None if command == "sweep" else 6),
                 *extra])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"configuration error: output path is not a directory: {blocker}\n"
    assert blocker.read_text() == "not a directory\n"


PAPER_DIVISOR_ERROR = "configuration error: paper divisor mode needs at least one random rotation (N >= 1)\n"


@pytest.mark.parametrize("command", ["run", "repeats"])
def test_paper_divisor_without_rotations_is_config_error(dataset_path, tmp_path, capsys, command):
    # the paper mean divides by N: rejected with the configuration, before any prediction
    out = tmp_path / "out"
    code = main([command, *_noisy(dataset_path, out), "--divisor", "paper", "--rotations", "0"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == PAPER_DIVISOR_ERROR
    assert not out.exists()


def test_sweep_ignores_rotations_under_the_paper_divisor(tmp_path, capsys):
    # sweep reads its counts from --n-values, and the paper divisor rejects a count of 0 there;
    # it takes no --rotations, which would change nothing it writes
    path = tmp_path / "small.ndjson"
    save_dataset(generate_synthetic(2, 5, stream=RotationStream(44)), path)
    args = ["--dataset", str(path), "--divisor", "paper"]
    assert main(["sweep", *args, "--out", str(tmp_path / "bad"), "--n-values", "0,5"]) == 2
    assert capsys.readouterr().err == PAPER_DIVISOR_ERROR
    assert not (tmp_path / "bad").exists()
    with pytest.raises(SystemExit) as err:
        main(["sweep", *args, "--out", str(tmp_path / "ok"), "--n-values", "5", "--rotations", "0"])
    assert err.value.code == 2
    assert "unrecognized arguments: --rotations 0" in capsys.readouterr().err
    assert not (tmp_path / "ok").exists()


@pytest.mark.parametrize("args", [
    ["--bin-width", "nan"],
    ["--bin-width", "inf"],
    ["--model", "noisy", "--noise-amp", "nan"],
    ["--model", "noisy", "--noise-amp", "inf"],
    ["--radius", "nan", "--sphere-map"],
    ["--timeout", "nan"],
    ["--timeout", "inf"],
], ids=" ".join)
def test_non_finite_setting_is_config_error(dataset_path, tmp_path, capsys, args):
    out = tmp_path / "out"
    assert main(["run", "--dataset", dataset_path, "--out", str(out), "--rotations", "2", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: ") and "must be finite" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    # select() cannot wait that long: it raised OverflowError once the child ran
    pytest.param(["--timeout", "1e300"], f"external_timeout must lie in (0, {threading.TIMEOUT_MAX}] s, got 1e+300",
                 id="--timeout 1e300"),
    pytest.param(["--timeout", repr(1.01 * threading.TIMEOUT_MAX)], "external_timeout must lie in (0, ",
                 id="--timeout 1.01 TIMEOUT_MAX"),
    # numpy raised "Maximum allowed size exceeded" allocating the bins (noisy), or overflowed an edge index (echo)
    pytest.param(["--model", "noisy", "--noise-amp", "2", "--bin-width", "1e-300"],
                 "bin_width 1e-300 is too fine for the error range [", id="--bin-width 1e-300 noisy"),
    pytest.param(["--bin-width", "1e-300"], "bin_width 1e-300 is too fine for the error range [",
                 id="--bin-width 1e-300 echo"),
])
def test_out_of_range_setting_is_config_error(dataset_path, tmp_path, capsys, args, message):
    out = tmp_path / "out"
    echo = f"external:{sys.executable} {FIXTURE} echo"  # an args --model replaces it
    assert main(["run", "--dataset", dataset_path, "--out", str(out), "--rotations", "6", "--model", echo, *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"configuration error: {message}")
    assert not out.exists()


def _parsed(values, text=str):
    """Strategy of ``(argument text, value the flag parses it to)`` pairs."""
    return values.map(lambda value: (text(value), value))


# flag -> (the ExperimentConfig field it sets, its argument as _parsed pairs; None for a switch)
CONFIG_FLAGS = {
    "--out": ("out_dir", _parsed(st.sampled_from(["out", "runs/a b"]))),
    "--seed": ("seed", _parsed(st.integers(0, 2**40))),
    "--rotations": ("n_rotations", _parsed(st.integers(0, 10**4))),
    "--model": ("model", _parsed(st.sampled_from(["noisy", "external:python3 echo.py"]))),
    "--noise-amp": ("noise_amp", _parsed(st.floats(0.01, 50.0))),
    "--noise-seed": ("noise_seed", _parsed(st.integers(0, 2**40))),
    "--mare-abs": ("mare_abs", None),
    "--divisor": ("divisor_mode", _parsed(st.sampled_from(DIVISOR_MODES))),
    "--bin-width": ("bin_width", _parsed(st.floats(1e-9, 1.0))),
    "--timeout": ("external_timeout", _parsed(st.floats(0.01, 1e6))),
    "--sphere-map": ("sphere_map", None),
    "--grid": ("grid", _parsed(st.tuples(st.integers(1, 4096), st.integers(1, 4096)), "{0[0]}x{0[1]}".format)),
    "--radius": ("radius", _parsed(st.floats(0.01, 10.0))),
    "--colormap": ("colormap", _parsed(st.sampled_from(sorted(COLORMAPS)))),
}
PREDICTING = [command for command in cli._COMMANDS if command != "generate"]


def _options(command):
    """Every option string of ``command``'s parser."""
    parser = cli.build_parser([command])
    sub = next(action for action in parser._actions if isinstance(action, argparse._SubParsersAction))
    return {option for action in sub.choices[command]._actions for option in action.option_strings}


OPTIONS = {command: _options(command) for command in PREDICTING}


@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(PREDICTING), data=st.data())
def test_every_config_field_is_set_by_some_flag(command, data):
    # an ExperimentConfig field no command's flags reach is an option nothing can set
    assert set().union(*OPTIONS.values()) - CONFIG_FLAGS.keys() == {
        "-h", "--help", "--dataset", "--n-values", "--repeats", "--identity-only"}
    assert {field for field, _ in CONFIG_FLAGS.values()} == set(ExperimentConfig._fields) - {"dataset"}
    # a random subset of the command's flags: each given one lands on its field, each omitted one keeps the default
    defaults = ExperimentConfig._field_defaults
    flags = data.draw(st.sets(st.sampled_from(sorted(OPTIONS[command] & CONFIG_FLAGS.keys()))))
    argv, expected = [command, "--dataset", "d.ndjson"], {"dataset": "d.ndjson"}
    if command == "sweep":
        argv += ["--n-values", "1"]
    for flag in sorted(flags | (OPTIONS[command] & {"--out"})):  # --out is required where it exists
        field, values = CONFIG_FLAGS[flag]
        if values is None:
            argv.append(flag)
            expected[field] = True
        else:
            text, expected[field] = data.draw(values.filter(lambda pair, field=field: pair[1] != defaults[field]))
            argv += [flag, text]
    cfg = cli._config_from(cli.build_parser(argv).parse_args(argv))
    assert cfg._asdict() == defaults | expected


# each command's flags on top of a tiny noisy run, and an argument for each
# flag that differs from the base run's and from the default (None: a switch)
GUARD_BASE = {
    "run": ["--rotations", "4", "--sphere-map", "--grid", "24x12"],
    "sweep": ["--n-values", "1,3"],
    "sphere-map": ["--rotations", "4", "--grid", "24x12"],
    "repeats": ["--rotations", "4", "--repeats", "2"],
}
OTHER_ARGUMENT = {
    "--dataset": "other.ndjson",
    "--seed": "1",
    "--rotations": "5",
    "--model": "equivariant",
    "--noise-amp": "3",
    "--noise-seed": "1",
    "--mare-abs": None,
    "--divisor": "paper",
    "--bin-width": "0.001",
    "--grid": "20x10",
    "--radius": "1.5",
    "--colormap": "gray",
    "--n-values": "1,4",
    "--repeats": "3",
}


@pytest.fixture(scope="module")
def guard_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("guard")
    for name, seed in (("base.ndjson", 48), ("other.ndjson", 49)):
        save_dataset(generate_synthetic(3, 12, stream=RotationStream(seed)), path / name)
    return path


def _written(argv, out):
    """``{name: bytes}`` of every file ``argv`` writes into ``out``, except the manifest's config echo."""
    assert main([*argv, "--out", str(out)]) == 0
    return {path.name: path.read_bytes() for path in sorted(out.iterdir()) if path.name != "manifest.json"}


# --out only moves the outputs, --timeout only bounds an external child's
# silence, and --sphere-map is on in run's base run
@pytest.mark.parametrize("command, flag", [
    pytest.param(command, flag, id=f"{command} {flag}")
    for command in GUARD_BASE
    for flag in sorted(OPTIONS[command] - {"-h", "--help", "--out", "--timeout", "--sphere-map"})
])
def test_every_flag_changes_what_its_command_writes(guard_dir, tmp_path, monkeypatch, capsys, command, flag):
    # a flag whose value shows only in the manifest's config echo is one the command does not read
    monkeypatch.chdir(guard_dir)
    base = [command, "--dataset", "base.ndjson", "--model", "noisy", "--noise-amp", "2", *GUARD_BASE[command]]
    value = OTHER_ARGUMENT[flag]
    changed = [*base, flag, *(() if value is None else (value,))]
    assert _written(changed, tmp_path / "changed") != _written(base, tmp_path / "base")


@pytest.mark.parametrize("command", ["run", "repeats", "sphere-map", "sweep"])
def test_paths_shorter_than_three_steps(tmp_path, capsys, command):
    # one step difference or none: every shape ratio is NaN and flagged, and
    # the errors are those of the sweep, which correlates nothing
    for steps in (1, 2):
        path = tmp_path / f"short{steps}.ndjson"
        save_dataset(generate_synthetic(3, steps, stream=RotationStream(45)), path)
        out = tmp_path / f"out{steps}"
        flags = _noisy(str(path), out, rotations=None if command == "sweep" else 2)
        assert main([command, *flags, *(["--n-values", "2"] if command == "sweep" else [])]) == 0
        assert capsys.readouterr().err == ""
        if command != "run":
            continue
        metrics = json.loads((out / "metrics.json").read_text())
        ratios = {v for key in ("c_ratio", "r_initial", "r_aggregated") for row in metrics["shape"][key] for v in row}
        assert ratios == {"nan"} and metrics["shape"]["n_degenerate"] == 3 * 7
        cfg = ExperimentConfig(str(path), model="noisy", noise_amp=2.0)
        [(_, mere_tta, mare_tta)] = experiment.run_sweep(cfg, [2], write=False)
        assert (metrics["mere_tta"], metrics["mare_tta"]) == (mere_tta, mare_tta)


def test_relative_curve_of_one_step_has_a_degenerate_coefficient(tmp_path):
    # strain, and so every stress, is zero but at the last step: one step clears the division guard
    samples = []
    for s in generate_synthetic(2, 10, stream=RotationStream(46)):
        strain = np.zeros_like(s.strain)
        strain[-1] = s.strain[-1]
        samples.append(s._replace(strain=strain, target_stress=EquivariantOracle().predict_batch(s.a, s.vf, strain)))
    path = tmp_path / "one_step.ndjson"
    save_dataset(samples, path)
    out = tmp_path / "out"
    assert main(["run", "--dataset", str(path), "--out", str(out), "--rotations", "3"]) == 0
    uncertainty = json.loads((out / "metrics.json").read_text())["uncertainty"]
    assert uncertainty["n_excluded"] == 9
    assert uncertainty["r_rel"] == "nan" and uncertainty["r_rel_degenerate"] is True


@pytest.mark.parametrize("command, extra", [("run", []), ("repeats", ["--repeats", "3"])], ids=["run", "repeats 3"])
def test_each_sample_is_checked_once_per_command(tmp_path, monkeypatch, command, extra):
    # a Sample checks itself when it is made, at load; the kernel and each repeat check nothing again
    path = tmp_path / "small.ndjson"
    save_dataset(generate_synthetic(3, 10, stream=RotationStream(47)), path)
    checked = []
    check = dataset.check_orientation_tensor
    monkeypatch.setattr(dataset, "check_orientation_tensor", lambda a: checked.append(a) or check(a))
    assert main([command, "--dataset", str(path), "--out", str(tmp_path / "out"), "--rotations", "2", *extra]) == 0
    assert len(checked) == 3


def test_corrupt_dataset_is_data_error(tmp_path, capsys):
    path = tmp_path / "bad.ndjson"
    path.write_text("{not json\n")
    code = main(["run", "--dataset", str(path), "--out", str(tmp_path / "out")])
    assert code == 3
    assert "data error: line 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "audit"])
def test_dataset_that_is_not_utf8_is_data_error(dataset_path, tmp_path, capsys, command):
    path = tmp_path / "latin.ndjson"
    path.write_bytes(Path(dataset_path).read_bytes() + b'\xff\xfe{"id": 1}\n')
    extra = [] if command == "audit" else ["--out", str(tmp_path / "out")]
    assert main([command, "--dataset", str(path), *extra]) == 3
    captured = capsys.readouterr()
    assert captured.err == "data error: line 5: not UTF-8 text: invalid start byte at offset 0\n"
    assert captured.out == "" and not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "audit"])
def test_repeated_sample_id_is_data_error(tmp_path, capsys, command):
    # aggregated.ndjson and external-model errors name samples by id, so an id names one sample
    first, second = generate_synthetic(2, 6, stream=RotationStream(42))
    path = tmp_path / "twice.ndjson"
    save_dataset([first, second._replace(id=first.id)], path)
    extra = [] if command == "audit" else ["--out", str(tmp_path / "out")]
    assert main([command, "--dataset", str(path), *extra]) == 3
    captured = capsys.readouterr()
    assert captured.err == "data error: sample 'rve-0000', field 'id': repeats the id of line 1\n"
    assert captured.out == "" and not (tmp_path / "out").exists()


def test_dataset_without_targets_is_data_error(tmp_path, capsys):
    samples = [s._replace(target_stress=None)
               for s in generate_synthetic(2, 6, stream=RotationStream(42))]
    path = tmp_path / "untargeted.ndjson"
    save_dataset(samples, path)
    code = main(["run", "--dataset", str(path), "--out", str(tmp_path / "out")])
    assert code == 3
    assert "sigma" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep", "repeats", "sphere-map"])
def test_all_zero_target_is_data_error(tmp_path, capsys, command):
    samples = generate_synthetic(3, 6, stream=RotationStream(42))
    samples[1] = samples[1]._replace(target_stress=np.zeros_like(samples[1].target_stress))
    path = tmp_path / "zero_sigma.ndjson"
    save_dataset(samples, path)
    extra = ["--n-values", "0,2"] if command == "sweep" else ["--rotations", "2"]
    code = main([command, "--dataset", str(path), "--out", str(tmp_path / "out"), *extra])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: sample 'rve-0001', field 'sigma': ") and "Traceback" not in err
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


@pytest.mark.parametrize("command", ["run", "sweep", "repeats", "sphere-map"])
def test_strain_that_overflows_once_rotated_is_data_error(tmp_path, capsys, command):
    # finite in the sample frame, so it loads; the first random rotation overflows it
    samples = generate_synthetic(3, 6, stream=RotationStream(42))
    samples[1] = samples[1]._replace(strain=np.full_like(samples[1].strain, 1.7e308))
    path = tmp_path / "huge_eps.ndjson"
    save_dataset(samples, path)
    extra = ["--n-values", "0,2"] if command == "sweep" else ["--rotations", "2"]
    code = main([command, "--dataset", str(path), "--out", str(tmp_path / "out"), *extra])
    assert code == 3
    err = capsys.readouterr().err
    assert err == "data error: sample 'rve-0001', field 'eps': rotation index 1: rotated input has non-finite values\n"
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


def test_all_zero_strain_excludes_every_relative_step(tmp_path, capsys):
    # sample 1's aggregated von Mises is zero throughout, so no step clears the division guard
    samples = generate_synthetic(3, 6, stream=RotationStream(42))
    samples[1] = samples[1]._replace(strain=np.zeros_like(samples[1].strain))
    path = tmp_path / "zero_eps.ndjson"
    save_dataset(samples, path)
    assert main(["run", "--dataset", str(path), "--out", str(tmp_path / "out"), "--rotations", "2"]) == 0
    assert capsys.readouterr().err == ""
    uncertainty = json.loads((tmp_path / "out" / "metrics.json").read_text())["uncertainty"]
    assert uncertainty["n_excluded"] == 6
    assert uncertainty["e_rel_curve"] == uncertainty["sd_rel_curve"] == ["nan"] * 6
    assert uncertainty["r_rel"] == "nan" and uncertainty["r_rel_degenerate"] is True


def test_failing_external_model_is_external_error(dataset_path, tmp_path, capsys):
    code = main(["run", "--dataset", dataset_path, "--out", str(tmp_path / "out"),
                 "--model", f"external:{sys.executable} {FIXTURE} quit",
                 "--rotations", "2"])
    assert code == 4
    err = capsys.readouterr().err
    assert "external model error" in err
    assert "sample rve-0000" in err
    assert err.endswith("closed its output (exit status 0)\n")


def test_external_model_that_dies_is_external_error(dataset_path, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--dataset", dataset_path, "--out", str(out),
                 "--model", f"external:{sys.executable} {FIXTURE} once",
                 "--rotations", "3"])
    assert code == 4
    err = capsys.readouterr().err
    assert "external model error" in err
    assert "sample rve-0000: rotation index 1" in err
    assert not out.exists() or not any(out.iterdir())


def test_external_non_object_response_is_external_error(dataset_path, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--dataset", dataset_path, "--out", str(out),
                 "--model", f"external:{sys.executable} {FIXTURE} list",
                 "--rotations", "3"])
    assert code == 4
    err = capsys.readouterr().err
    assert "sample rve-0000: rotation index 0: response is not a JSON object" in err
    assert "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


def test_external_boolean_response_id_is_external_error(dataset_path, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--dataset", dataset_path, "--out", str(out),
                 "--model", f"external:{sys.executable} {FIXTURE} boolid 1",
                 "--rotations", "3"])
    assert code == 4
    err = capsys.readouterr().err
    assert "sample rve-0000: rotation index 1: response id True matches no outstanding request" in err
    assert not out.exists() or not any(out.iterdir())


def test_bad_grid_is_usage_error(dataset_path, tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["run", "--dataset", dataset_path, "--out", str(tmp_path / "out"),
              "--sphere-map", "--grid", "banana"])
    assert err.value.code == 2


def test_bad_n_values_is_usage_error(dataset_path, tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--dataset", dataset_path, "--out", str(tmp_path / "out"),
              "--n-values", "a,b"])
    assert err.value.code == 2


def test_missing_command_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_help_exits_cleanly():
    with pytest.raises(SystemExit) as err:
        main(["--help"])
    assert err.value.code == 0


# Exit code, stdout and stderr of `rotta` help and usage errors at 80 columns,
# recorded from the parser that built every subcommand's flags.
CLI_TEXTS = json.loads(Path(__file__).with_name("cli_texts.json").read_text())


@pytest.mark.parametrize("case", CLI_TEXTS["cases"], ids=lambda case: " ".join(case["argv"]) or "(no arguments)")
def test_help_and_usage_errors_are_pinned(case, monkeypatch, capsys):
    if "%d.%d" % sys.version_info[:2] != CLI_TEXTS["python"]:
        pytest.skip(f"texts recorded with Python {CLI_TEXTS['python']}, whose argparse formats them")
    monkeypatch.setenv("COLUMNS", str(CLI_TEXTS["columns"]))
    with pytest.raises(SystemExit) as err:
        main(list(case["argv"]))
    captured = capsys.readouterr()
    assert (err.value.code, captured.out, captured.err) == (case["exit"], case["stdout"], case["stderr"])


# ------------------------------------------------- external integration


def test_external_echo_model_round_trip(tmp_path, capsys):
    # sigma = eps is an equivariant map, so augmentation reproduces the
    # targets up to conjugation round-off
    samples = generate_synthetic(2, 8, stream=RotationStream(43))
    echoed = [s._replace(target_stress=s.strain.copy()) for s in samples]
    path = tmp_path / "echo.ndjson"
    save_dataset(echoed, path)
    out = tmp_path / "out"
    code = main(["run", "--dataset", str(path), "--out", str(out),
                 "--model", f"external:{sys.executable} {FIXTURE} echo",
                 "--rotations", "3"])
    assert code == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["mere_tta"] < 1e-9
    assert metrics["mere_i0"] < 1e-9


# ----------------------------------------------------------- environment


def test_log_env_variable_smoke(dataset_path, monkeypatch, capsys):
    monkeypatch.setenv("ROTTA_LOG", "debug")
    assert main(["audit", "--dataset", dataset_path, "--identity-only"]) == 0
    monkeypatch.setenv("ROTTA_LOG", "not-a-level")
    assert main(["audit", "--dataset", dataset_path, "--identity-only"]) == 0
    capsys.readouterr()


def test_console_script_installed(tmp_path):
    # Runs the installed `rotta` executable when there is one; otherwise runs
    # the declared [project.scripts] target in a fresh interpreter, the way an
    # installer's wrapper script does, so the entry point is checked either way.
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["rotta"]
    module, func = target.split(":")
    exe = shutil.which("rotta")
    if exe is not None:
        command, env = [exe], None
    else:
        wrapper = (f"import sys; from {module} import {func}; "
                   f"sys.argv[0] = 'rotta'; sys.exit({func}())")
        command = [sys.executable, "-c", wrapper]
        env = {**os.environ, "PYTHONPATH": str(Path(rotta.__file__).parents[1])}
    path = tmp_path / "gen.ndjson"
    proc = subprocess.run(
        [*command, "generate", "--dataset", str(path), "--samples", "2", "--steps", "5"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(path.read_text().splitlines()) == 2
