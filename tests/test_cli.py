"""End-to-end tests of the command-line interface."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import rotta
from rotta.cli import main
from rotta.dataset import generate_synthetic, save_dataset
from rotta.rotations import RotationStream

FIXTURE = str(Path(__file__).with_name("external_fixture.py"))
PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("clidata") / "small.ndjson"
    save_dataset(generate_synthetic(4, 10, stream=RotationStream(41)), path)
    return str(path)


def _noisy(dataset_path, out, *extra):
    return [
        "--dataset", dataset_path, "--out", str(out),
        "--model", "noisy", "--noise-amp", "2.0", "--rotations", "6",
        *extra,
    ]


# ------------------------------------------------------------- commands


def test_generate(tmp_path, capsys):
    path = tmp_path / "gen.ndjson"
    code = main(["generate", "--dataset", str(path), "--samples", "3", "--steps", "8"])
    assert code == 0
    assert len(path.read_text().splitlines()) == 3
    assert "3 samples x 8 steps" in capsys.readouterr().out


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


def test_audit_external_failure_names_the_sample(dataset_path, capsys):
    code = main(["audit", "--dataset", dataset_path,
                 "--model", f"external:{sys.executable} {FIXTURE} quit"])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("external model error: sample rve-0000: rotation index 0: ")
    assert "Traceback" not in captured.err


def test_sweep(dataset_path, tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(["sweep", *_noisy(dataset_path, out), "--n-values", "0,4"])
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


def test_corrupt_dataset_is_data_error(tmp_path, capsys):
    path = tmp_path / "bad.ndjson"
    path.write_text("{not json\n")
    code = main(["run", "--dataset", str(path), "--out", str(tmp_path / "out")])
    assert code == 3
    assert "data error: line 1" in capsys.readouterr().err


def test_dataset_without_targets_is_data_error(tmp_path, capsys):
    samples = [replace(s, target_stress=None)
               for s in generate_synthetic(2, 6, stream=RotationStream(42))]
    path = tmp_path / "untargeted.ndjson"
    save_dataset(samples, path)
    code = main(["run", "--dataset", str(path), "--out", str(tmp_path / "out")])
    assert code == 3
    assert "sigma" in capsys.readouterr().err


def test_failing_external_model_is_external_error(dataset_path, tmp_path, capsys):
    code = main(["run", "--dataset", dataset_path, "--out", str(tmp_path / "out"),
                 "--model", f"external:{sys.executable} {FIXTURE} quit",
                 "--rotations", "2"])
    assert code == 4
    err = capsys.readouterr().err
    assert "external model error" in err
    assert "sample rve-0000" in err


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
    echoed = [replace(s, target_stress=s.strain.copy()) for s in samples]
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
