"""Reproducible experiment runs: configuration, execution, persistence.

Every run is fully described by an :class:`ExperimentConfig`; all
randomness flows from its single seed.  Output files are JSON/CSV with
shortest round-trip float formatting and no timestamps, so re-running an
identical configuration reproduces byte-identical artifacts.  Each
file-writing entry point finishes by writing ``manifest.json`` (the
configuration echo, the dataset content hash, and a content hash per
output file) and removes partial outputs if it fails midway.
"""

import hashlib
import json
import math
import os
import threading
from contextlib import contextmanager
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
        return self

    def to_dict(self):
        """The fields in order, as JSON-ready builtins."""
        return self._asdict() | {
            "dataset": str(self.dataset),
            "out_dir": str(self.out_dir),
            "grid": [int(self.grid[0]), int(self.grid[1])],
        }


def _check_divisor(cfg: ExperimentConfig, n):
    """Reject the paper divisor (N) for a mean over N = ``n`` random rotations when ``n`` is 0."""
    if cfg.divisor_mode == "paper" and n == 0:
        raise ConfigError("paper divisor mode cannot evaluate N = 0")


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


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class _OutputWriter:
    """Deterministic single-writer for an output directory.

    Tracks everything it writes so a failed run can remove its partial
    outputs, and seals the run with a manifest hashing each artifact.
    """

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.written = []

    def write_text(self, name, text):
        path = self.out_dir / name
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.written.append(name)
        return path

    def write_json(self, name, payload):
        return self.write_text(name, json.dumps(payload, indent=2) + "\n")

    def write_csv(self, name, header, rows):
        """Write :func:`~rotta.dataset.csv_text` of ``rows``."""
        return self.write_text(name, csv_text(header, rows))

    def cleanup(self):
        for name in self.written:
            try:
                os.unlink(self.out_dir / name)
            except OSError:
                pass
        self.written = []

    def manifest(self, cfg: ExperimentConfig, extra=None):
        # out_dir is plumbing, not part of the run's identity: leaving it out
        # makes manifests byte-identical wherever the outputs land.
        config = {k: v for k, v in cfg.to_dict().items() if k != "out_dir"}
        payload = {
            "config": config,
            "seed": cfg.seed,
            "dataset_sha256": sha256_file(cfg.dataset),
            "outputs": {name: sha256_file(self.out_dir / name) for name in sorted(self.written)},
        }
        if extra:
            payload.update(extra)
        return self.write_json("manifest.json", payload)


def _write_outputs(cfg: ExperimentConfig, write, extra=None):
    """Call ``write(writer)``, then seal its files with the manifest; returns the manifest path.

    If anything fails, every file written so far is removed.
    """
    writer = _OutputWriter(cfg.out_dir)
    try:
        write(writer)
        return writer.manifest(cfg, extra)
    except BaseException:
        writer.cleanup()
        raise


def _load_samples(cfg: ExperimentConfig):
    """The samples of the configured dataset; an empty one is an :class:`~rotta.dataset.InvariantViolation`."""
    samples = load_dataset(cfg.dataset)
    if not samples:
        raise InvariantViolation("<dataset>", "samples", "dataset is empty")
    return samples


def _load_evaluable(cfg: ExperimentConfig, min_steps=3):
    """Load the dataset; require a uniform path length and targets with a positive von Mises value.

    Paths need ``min_steps``: 3 for the shape metrics' step differences; the sweep has none and passes 1.
    """
    samples = _load_samples(cfg)
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
    if n_steps < min_steps:
        raise InvariantViolation(samples[0].id, "eps", f"shape metrics need at least {min_steps} steps, got {n_steps}")
    return samples


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


def _evaluate(cfg: ExperimentConfig, samples, result):
    targets = np.stack([s.target_stress for s in samples])
    return evaluate_dataset(targets, result, mare_abs=cfg.mare_abs, bin_width=cfg.bin_width)


def _evaluated_run(cfg: ExperimentConfig):
    """Augmented inference over the configured dataset, evaluated: ``(samples, rotations, result, report)``."""
    cfg.validate()
    _check_divisor(cfg, cfg.n_rotations)
    samples = _load_evaluable(cfg)
    with _open_model(cfg) as model:
        rotations, result = compute_results(cfg, model, samples)
    return samples, rotations, result, _evaluate(cfg, samples, result)


def _write_run_outputs(writer: _OutputWriter, cfg, samples, rotations, result, report: MetricsReport):
    writer.write_json("metrics.json", report.to_dict())
    writer.write_text("metrics.txt", report.to_text() + "\n")

    keys = ("sigma_tta", "sd", "vm_tta", "vm_sd")
    lines = []
    for sample, *paths in zip(samples, result.aggregated, result.sd, result.vm_aggregated, result.vm_sd):
        parts = [f'"id": {json.dumps(sample.id)}'] + [f'"{key}": {format_path(v)}' for key, v in zip(keys, paths)]
        lines.append("{" + ", ".join(parts) + "}")
    writer.write_text("aggregated.ndjson", "\n".join(lines) + "\n")

    for curve in ("sd_curve", "e_abs_curve", "e_rel_curve", "sd_rel_curve"):
        values = getattr(report.uncertainty, curve)
        writer.write_csv(f"{curve}.csv", "t,value", np.column_stack((np.arange(len(values)), values)))

    if report.histogram is not None:
        writer.write_csv(
            "mere_histogram.csv",
            "bin_left,bin_right,density,normal_fit",
            report.histogram.to_rows(),
        )

    if cfg.sphere_map:
        _write_sphere_map(writer, cfg, report, rotations)


def _write_sphere_map(writer: _OutputWriter, cfg: ExperimentConfig, report: MetricsReport, rotations):
    """Map of per-rotation error; ``rotations`` is the list the result was computed with."""
    seeds = project_rotations(rotations, report.mere_per_rotation, radius=cfg.radius)
    raster = voronoi_rasterize(seeds, grid=cfg.grid, radius=cfg.radius)
    writer.write_text("map.svg", render_svg(raster, colormap=cfg.colormap, title="per-rotation mean relative error"))
    writer.write_text("map_seeds.csv", seeds_csv(seeds))


def run_experiment(cfg: ExperimentConfig):
    """Full augmented run with persisted metrics; returns (report, manifest path).

    Writes ``metrics.json``/``metrics.txt``, per-sample aggregates
    (``aggregated.ndjson``), the four uncertainty curves, the per-rotation
    error histogram, optionally the spherical error map, and finally the
    manifest.  On any failure all files written so far are removed.
    """
    samples, rotations, result, report = _evaluated_run(cfg)
    manifest_path = _write_outputs(
        cfg, lambda writer: _write_run_outputs(writer, cfg, samples, rotations, result, report)
    )
    return report, manifest_path


def run_sphere_map(cfg: ExperimentConfig):
    """The run of :func:`run_experiment` writing only the spherical error map; returns the manifest path."""
    _, rotations, _, report = _evaluated_run(cfg)
    return _write_outputs(cfg, lambda writer: _write_sphere_map(writer, cfg, report, rotations))


def run_audit(cfg: ExperimentConfig, identity_only=False):
    """Rotate/back-rotate round-trip error survey of the configured dataset."""
    cfg.validate()
    samples = _load_samples(cfg)
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
    _check_divisor(cfg, checkpoints[0])

    samples = _load_evaluable(cfg, min_steps=1)
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
        _write_outputs(
            cfg, lambda writer: writer.write_csv("sweep.csv", "n,mere_tta,mare_tta", rows), {"n_values": checkpoints}
        )
    return rows


def run_repeats(cfg: ExperimentConfig, n_repeats=5, write=True):
    """Repeat the full run with consecutive rotation seeds (stability table).

    Each repeat k uses rotation seed ``cfg.seed + k`` on the same dataset
    and the same model instance (one external child serves every repeat),
    echoing how repeated augmentation passes differ only in the sampled
    rotations.  Returns one row per repeat of ``(repeat, seed, mere_i0,
    mere_av, sd_mere, mere_tta, mare_tta)`` plus summary mean/SD over the
    aggregated-path error (sample SD, divisor n-1), and persists
    ``repeats.csv`` when ``write`` is set.
    """
    cfg.validate()
    _check_divisor(cfg, cfg.n_rotations)
    if n_repeats < 1:
        raise ConfigError("n_repeats must be >= 1")
    samples = _load_evaluable(cfg)
    rows = []
    with _open_model(cfg) as model:
        for k in range(n_repeats):
            seed = cfg.seed + k
            _, result = compute_results(cfg._replace(seed=seed), model, samples)
            report = _evaluate(cfg, samples, result)
            rows.append((k + 1, seed, report.mere_i0, report.mere_av, report.sd_mere, report.mere_tta, report.mare_tta))
    values = np.asarray([row[5] for row in rows])
    mean = float(np.mean(values))
    sd = float(np.std(values, ddof=1)) if values.size > 1 else 0.0
    summary = [("mean", "", "", "", "", mean, ""), ("sd", "", "", "", "", sd, "")]
    if write:
        header = "repeat,seed,mere_i0,mere_av,sd_mere,mere_tta,mare_tta"
        _write_outputs(cfg, lambda writer: writer.write_csv("repeats.csv", header, rows + summary), {"n_repeats": n_repeats})
    return rows, (mean, sd)
