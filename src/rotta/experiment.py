"""Reproducible experiment runs: configuration, execution, persistence.

Every run is fully described by an :class:`ExperimentConfig`; all
randomness flows from its single seed.  Output files are JSON/CSV with
shortest round-trip float formatting and no timestamps, so re-running an
identical configuration reproduces byte-identical artifacts.  Each
file-writing entry point builds its artifacts as text, then writes them
and ``manifest.json`` (the configuration echo, the hash of the dataset
bytes the run parsed, and a content hash per output file) in one step: a
failed computation writes nothing, a failed write removes the files it
wrote, and the outputs a previous manifest in the directory sealed go first.
"""

import hashlib
import json
import math
import threading
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .dataset import InvariantViolation, csv_text, format_path, load_dataset
from .metrics import DEFAULT_BIN_WIDTH, MetricsReport, evaluate_dataset, mare, mere
from .models import EquivariantOracle, ExternalModel, NoisyOracle, OracleParams
from .rotations import RotationStream, rotation_list
from .spheremap import (
    COLORMAPS,
    DEFAULT_GRID,
    DEFAULT_RADIUS,
    project_rotations,
    render_svg,
    seeds_csv,
    voronoi_rasterize,
)
from .tta import DIVISOR_MODES, augment_chunks, compensated_sums, mean_divisor, numerics_audit, run_tta
from .voigt import von_mises

MODEL_KINDS = ("equivariant", "noisy")
EXTERNAL_PREFIX = "external:"


class ConfigError(ValueError):
    """An experiment configuration is invalid or references missing paths."""


class ExperimentConfig(NamedTuple):
    """Complete description of one run; see module docstring for the contract.

    ``model`` is ``"equivariant"``, ``"noisy"``, or ``"external:<command>"``
    with a shell-style command line after the colon.
    """

    dataset: str
    out_dir: str = "."
    model: str = "equivariant"
    n_rotations: int = 200
    seed: int = 0
    divisor_mode: str = "count"
    mare_abs: bool = False
    bin_width: float = DEFAULT_BIN_WIDTH
    noise_amp: float = 0.0
    noise_seed: int = 0
    sphere_map: bool = False
    grid: tuple = DEFAULT_GRID
    radius: float = DEFAULT_RADIUS
    colormap: str = "viridis"
    external_timeout: float = 30.0

    def model_kind(self):
        if self.model in MODEL_KINDS:
            return self.model
        if self.model.startswith(EXTERNAL_PREFIX):
            return "external"
        raise ConfigError(
            f"unknown model {self.model!r}; expected one of {MODEL_KINDS} or 'external:<cmd>'"
        )

    def validate(self):
        kind = self.model_kind()
        for name in ("bin_width", "noise_amp", "radius", "external_timeout"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if kind == "external" and not self.model[len(EXTERNAL_PREFIX):].strip():
            raise ConfigError("external model command is empty")
        if kind == "noisy" and self.noise_amp <= 0:
            raise ConfigError("noisy model requires noise_amp > 0")
        if self.n_rotations < 0:
            raise ConfigError("n_rotations must be >= 0")
        if self.divisor_mode not in DIVISOR_MODES:
            raise ConfigError(f"divisor_mode must be one of {DIVISOR_MODES}, got {self.divisor_mode!r}")
        if self.bin_width <= 0:
            raise ConfigError("bin_width must be positive")
        if self.radius <= 0:
            raise ConfigError("radius must be positive")
        if len(self.grid) != 2 or min(int(self.grid[0]), int(self.grid[1])) < 1:
            raise ConfigError(f"grid must be two counts >= 1, got {self.grid!r}")
        if self.colormap not in COLORMAPS:
            raise ConfigError(f"unknown colormap {self.colormap!r} (have {sorted(COLORMAPS)})")
        if not 0 < self.external_timeout <= threading.TIMEOUT_MAX:
            # a longer wait overflows the deadline that select() converts
            raise ConfigError(f"external_timeout must lie in (0, {threading.TIMEOUT_MAX}] s, got {self.external_timeout}")
        if not Path(self.dataset).is_file():
            raise ConfigError(f"dataset file not found: {self.dataset}")
        out = Path(self.out_dir)
        nearest = next((path for path in (out, *out.parents) if path.exists()), out)
        if not nearest.is_dir():
            raise ConfigError(f"output path is not a directory: {nearest}")
        return self

    def to_dict(self):
        """The fields in order, as JSON-ready builtins."""
        return self._asdict() | {
            "dataset": str(self.dataset),
            "out_dir": str(self.out_dir),
            "grid": [int(self.grid[0]), int(self.grid[1])],
        }


def build_model(cfg: ExperimentConfig):
    """Instantiate the predictor named by the configuration."""
    kind = cfg.model_kind()
    if kind == "equivariant":
        return EquivariantOracle(OracleParams())
    if kind == "noisy":
        return NoisyOracle(OracleParams(noise_amp=cfg.noise_amp, noise_seed=cfg.noise_seed))
    command = cfg.model[len(EXTERNAL_PREFIX):].strip()
    return ExternalModel(command, timeout=cfg.external_timeout)


@contextmanager
def _open_model(cfg: ExperimentConfig):
    """The configured predictor, closed on exit (which stops an external child)."""
    model = build_model(cfg)
    try:
        yield model
    finally:
        close = getattr(model, "close", None)
        if close is not None:
            close()


def _remove_sealed(out_dir):
    """Remove ``out_dir``'s ``manifest.json``, then the outputs it lists: plain file names only, nothing else."""
    manifest = out_dir / "manifest.json"
    try:
        sealed = json.loads(manifest.read_bytes())["outputs"]
        manifest.unlink()
    except (OSError, ValueError, LookupError, TypeError):
        return
    for name in sealed if isinstance(sealed, dict) else ():
        if isinstance(name, str) and name not in ("", "..") and Path(name).name == name:
            with suppress(OSError, ValueError):
                (out_dir / name).unlink()


def _write_outputs(cfg: ExperimentConfig, dataset_sha256, files, extra=None):
    """Write ``files`` (``{name: text}``) into ``cfg.out_dir`` in order, then seal them with ``manifest.json``.

    The outputs a previous ``manifest.json`` there seals are removed first,
    so the directory holds what the new one seals and the files no manifest
    named.  ``dataset_sha256`` is the digest of the dataset bytes the run
    parsed.  Each output's digest is the sha256 of the bytes written;
    ``extra`` adds keys after them.  If a write fails, every file written so
    far is removed.  Returns the manifest's path.
    """
    out_dir = Path(cfg.out_dir)
    _remove_sealed(out_dir)
    written = []

    def put(name, text):
        data = text.encode("utf-8")
        written.append(out_dir / name)
        written[-1].write_bytes(data)
        return hashlib.sha256(data).hexdigest()

    # out_dir is plumbing, not part of the run's identity: leaving it out
    # makes manifests byte-identical wherever the outputs land.
    manifest = {
        "config": {k: v for k, v in cfg.to_dict().items() if k != "out_dir"},
        "seed": cfg.seed,
        "dataset_sha256": dataset_sha256,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        digests = {name: put(name, text) for name, text in files.items()}
        manifest["outputs"] = dict(sorted(digests.items()))
        put("manifest.json", json.dumps(manifest | (extra or {}), indent=2) + "\n")
    except BaseException:
        for path in written:
            with suppress(OSError):
                path.unlink()
        raise
    return out_dir / "manifest.json"


def _load_samples(cfg: ExperimentConfig):
    """``(samples, sha256)``: the configured dataset's samples and the digest of the bytes they were parsed from.

    An empty dataset is an :class:`~rotta.dataset.InvariantViolation`.
    """
    digest = hashlib.sha256()
    samples = load_dataset(cfg.dataset, digest)
    if not samples:
        raise InvariantViolation("<dataset>", "samples", "dataset is empty")
    return samples, digest.hexdigest()


def _load_evaluable(cfg: ExperimentConfig):
    """:func:`_load_samples`, requiring a uniform path length and targets with a positive von Mises value.

    Any length will do: a statistic that too few steps cannot define is NaN with its flag.
    """
    samples, dataset_sha256 = _load_samples(cfg)
    n_steps = samples[0].n_steps
    for sample in samples:
        if sample.target_stress is None:
            raise InvariantViolation(sample.id, "sigma", "evaluation requires target stress paths")
        if not np.max(von_mises(sample.target_stress)) > 0.0:
            raise InvariantViolation(sample.id, "sigma", "the target von Mises path has no positive values")
        if sample.n_steps != n_steps:
            raise InvariantViolation(
                sample.id, "eps", f"path length {sample.n_steps} differs from first sample ({n_steps})"
            )
    return samples, dataset_sha256


def _rotations(cfg: ExperimentConfig, n):
    """The one rotation list of every command: the identity, then the first ``n`` draws of ``cfg.seed``'s stream.

    A list for a smaller ``n`` is a prefix of this one, so rotation index i
    is the same rotation, with the same bits, in ``run``, ``repeats``,
    ``sweep`` and the sphere map.
    """
    return rotation_list(RotationStream(cfg.seed), n)


def compute_results(cfg: ExperimentConfig, model, samples):
    """``(rotations, result)``: :func:`~rotta.tta.run_tta` of ``model`` over ``samples`` as ``cfg`` sets.

    The rotation list is drawn once, with N = ``cfg.n_rotations``, and
    shared by every sample.  The caller owns ``model`` and closes it.
    """
    rotations = _rotations(cfg, cfg.n_rotations)
    return rotations, run_tta(model, samples, rotations, cfg.divisor_mode)


def _evaluate(cfg: ExperimentConfig, samples, result, bin_width=None):
    """The report of ``result``; with no ``bin_width`` it has no histogram, which only ``run`` writes."""
    targets = np.stack([s.target_stress for s in samples])
    return evaluate_dataset(targets, result, mare_abs=cfg.mare_abs, bin_width=bin_width)


def _evaluated_run(cfg: ExperimentConfig, bin_width=None):
    """Augmented inference over the configured dataset, evaluated as :func:`_evaluate` with ``bin_width``.

    Returns ``(samples, dataset_sha256, rotations, result, report)``.
    """
    cfg.validate()
    mean_divisor(cfg.n_rotations + 1, cfg.divisor_mode)
    samples, dataset_sha256 = _load_evaluable(cfg)
    with _open_model(cfg) as model:
        rotations, result = compute_results(cfg, model, samples)
    return samples, dataset_sha256, rotations, result, _evaluate(cfg, samples, result, bin_width)


def _run_files(cfg: ExperimentConfig, samples, rotations, result, report: MetricsReport):
    """``run``'s artifacts, ``{name: text}`` in the order they are written."""
    keys = ("sigma_tta", "sd", "vm_tta", "vm_sd")
    lines = []
    for sample, *paths in zip(samples, result.aggregated, result.sd, result.vm_aggregated, result.vm_sd):
        parts = [f'"id": {json.dumps(sample.id)}'] + [f'"{key}": {format_path(v)}' for key, v in zip(keys, paths)]
        lines.append("{" + ", ".join(parts) + "}")
    files = {
        "metrics.json": json.dumps(report.to_dict(), indent=2) + "\n",
        "metrics.txt": report.to_text() + "\n",
        "aggregated.ndjson": "\n".join(lines) + "\n",
    }
    for curve in ("sd_curve", "e_abs_curve", "e_rel_curve", "sd_rel_curve"):
        values = getattr(report.uncertainty, curve)
        files[f"{curve}.csv"] = csv_text("t,value", np.column_stack((np.arange(len(values)), values)))
    if report.histogram is not None:
        files["mere_histogram.csv"] = csv_text("bin_left,bin_right,density,normal_fit", report.histogram.to_rows())
    if cfg.sphere_map:
        files |= _map_files(cfg, report, rotations)
    return files


def _map_files(cfg: ExperimentConfig, report: MetricsReport, rotations):
    """The map of per-rotation error, ``{name: text}``; ``rotations`` is the list the result was computed with."""
    seeds = project_rotations(rotations, report.mere_per_rotation, radius=cfg.radius)
    raster = voronoi_rasterize(seeds, grid=cfg.grid, radius=cfg.radius)
    svg = render_svg(raster, colormap=cfg.colormap)
    return {"map.svg": svg, "map_seeds.csv": seeds_csv(seeds)}


def run_experiment(cfg: ExperimentConfig):
    """Full augmented run with persisted metrics; returns (report, manifest path).

    Writes ``metrics.json``/``metrics.txt``, per-sample aggregates
    (``aggregated.ndjson``), the four uncertainty curves, the per-rotation
    error histogram, optionally the spherical error map, and finally the
    manifest.
    """
    samples, dataset_sha256, rotations, result, report = _evaluated_run(cfg, cfg.bin_width)
    return report, _write_outputs(cfg, dataset_sha256, _run_files(cfg, samples, rotations, result, report))


def run_sphere_map(cfg: ExperimentConfig):
    """The run of :func:`run_experiment` writing only the spherical error map; returns the manifest path."""
    _, dataset_sha256, rotations, _, report = _evaluated_run(cfg)
    return _write_outputs(cfg, dataset_sha256, _map_files(cfg, report, rotations))


def run_audit(cfg: ExperimentConfig, identity_only=False):
    """Rotate/back-rotate round-trip error survey of the configured dataset."""
    cfg.validate()
    samples, _ = _load_samples(cfg)
    with _open_model(cfg) as model:
        return numerics_audit(samples, model, RotationStream(cfg.seed), identity_only=identity_only)


def run_sweep(cfg: ExperimentConfig, n_values, write=True):
    """Aggregated-error curve over rotation counts, one shared rotation stream.

    All requested counts are evaluated in a single pass: the rotation list
    of the largest N is generated once and every smaller N uses its prefix,
    so the curve is internally consistent.  Each sample's rows stream into
    the running sum of :func:`~rotta.tta.compensated_sums`, read at each
    requested count, with the divisor of :func:`~rotta.tta.mean_divisor`,
    so row ``n`` has the bits of a full run with N = n.  Returns rows of
    ``(n, mere_tta, mare_tta)`` and, when ``write`` is set, persists
    ``sweep.csv`` plus a manifest.
    """
    cfg.validate()
    checkpoints = sorted({int(n) for n in n_values})
    if not checkpoints:
        raise ConfigError("sweep needs at least one rotation count")
    if checkpoints[0] < 0:
        raise ConfigError("rotation counts must be >= 0")
    mean_divisor(checkpoints[0] + 1, cfg.divisor_mode)

    samples, dataset_sha256 = _load_evaluable(cfg)
    rotations = _rotations(cfg, checkpoints[-1])
    target_vm = np.stack([von_mises(s.target_stress) for s in samples])
    n_steps = samples[0].n_steps

    vm_by_checkpoint = np.empty((len(samples), len(checkpoints), n_steps))
    with _open_model(cfg) as model:
        for m, sample in enumerate(samples):
            backrotated = (row for _, block in augment_chunks(model, sample, rotations) for row in block)
            for k, (n, total) in enumerate(zip(checkpoints, compensated_sums(backrotated, checkpoints))):
                vm_by_checkpoint[m, k] = von_mises(total / mean_divisor(n + 1, cfg.divisor_mode))

    rows = [
        (n, mere(target_vm, vm), mare(target_vm, vm, absolute=cfg.mare_abs))
        for n, vm in zip(checkpoints, vm_by_checkpoint.transpose(1, 0, 2))
    ]
    if write:
        files = {"sweep.csv": csv_text("n,mere_tta,mare_tta", rows)}
        _write_outputs(cfg, dataset_sha256, files, {"n_values": checkpoints})
    return rows


def run_repeats(cfg: ExperimentConfig, n_repeats=5):
    """Repeat the full run with consecutive rotation seeds (stability table).

    Each repeat k uses rotation seed ``cfg.seed + k`` on the same dataset
    and the same model instance (one external child serves every repeat),
    echoing how repeated augmentation passes differ only in the sampled
    rotations.  Returns one row per repeat of ``(repeat, seed, mere_i0,
    mere_av, sd_mere, mere_tta, mare_tta)`` plus summary mean/SD over the
    aggregated-path error (sample SD, divisor n-1: NaN for one repeat), and
    persists ``repeats.csv`` plus a manifest.
    """
    cfg.validate()
    mean_divisor(cfg.n_rotations + 1, cfg.divisor_mode)
    if n_repeats < 1:
        raise ConfigError("n_repeats must be >= 1")
    samples, dataset_sha256 = _load_evaluable(cfg)
    rows = []
    with _open_model(cfg) as model:
        for k in range(n_repeats):
            seed = cfg.seed + k
            _, result = compute_results(cfg._replace(seed=seed), model, samples)
            report = _evaluate(cfg, samples, result)
            rows.append((k + 1, seed, report.mere_i0, report.mere_av, report.sd_mere, report.mere_tta, report.mare_tta))
    values = np.asarray([row[5] for row in rows])
    mean = float(np.mean(values))
    sd = float(np.std(values, ddof=1)) if values.size > 1 else math.nan
    summary = [("mean", "", "", "", "", mean, ""), ("sd", "", "", "", "", sd, "")]
    header = "repeat,seed,mere_i0,mere_av,sd_mere,mere_tta,mare_tta"
    files = {"repeats.csv": csv_text(header, rows + summary)}
    _write_outputs(cfg, dataset_sha256, files, {"n_repeats": n_repeats})
    return rows, (mean, sd)
