"""Dataset model and newline-delimited JSON persistence.

One sample per line, keys ``id``, ``a`` (6 components), ``vf``, ``eps``
(T rows of 6), and optionally ``sigma`` (same shape as ``eps``).  Tensor
components follow the package-wide ordering [11, 22, 33, 12, 13, 23].
Floats are written with Python's shortest round-trip representation, so a
save/load cycle is lossless and re-saving reproduces identical bytes.

Loading is strict: the first malformed line raises :class:`ParseError`
with its line number, and any sample whose fields violate the domain
invariants (orientation tensor properties, path length agreement, value
ranges) raises :class:`InvariantViolation` naming the sample and field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .models import EquivariantOracle, ModelInput
from .rotations import (
    RotationStream,
    sample_orientation_tensor,
    sample_volume_fraction,
)
from .voigt import check_orientation_tensor

DRIFT_SCALE = 1.0
NOISE_SCALE = 0.25
DEFAULT_MAX_STRAIN = 0.035
UNIAXIAL_COUNT = 11


class ParseError(ValueError):
    """A dataset line is structurally invalid (bad JSON, missing or non-numeric field)."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class InvariantViolation(ValueError):
    """A parsed sample breaks a domain invariant."""

    def __init__(self, sample_id, field, message):
        super().__init__(f"sample {sample_id!r}, field {field!r}: {message}")
        self.sample_id = sample_id
        self.field = field


@dataclass(frozen=True)
class Sample:
    """One loading case: microstructure descriptors, strain path, optional target."""

    id: str
    a: np.ndarray
    vf: float
    strain: np.ndarray
    target_stress: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        object.__setattr__(self, "strain", np.asarray(self.strain, dtype=float))
        if self.target_stress is not None:
            object.__setattr__(
                self, "target_stress", np.asarray(self.target_stress, dtype=float)
            )

    @property
    def n_steps(self):
        return self.strain.shape[0]

    def model_input(self) -> ModelInput:
        return ModelInput(a=self.a, vf=self.vf, strain=self.strain)

    def validate(self):
        """Check all invariants, raising :class:`InvariantViolation` on the first failure."""
        if not self.id:
            raise InvariantViolation(self.id, "id", "must be a non-empty string")
        if self.a.shape != (6,):
            raise InvariantViolation(self.id, "a", f"expected 6 components, got shape {self.a.shape}")
        if not np.all(np.isfinite(self.a)):
            raise InvariantViolation(self.id, "a", "non-finite component")
        try:
            check_orientation_tensor(self.a)
        except ValueError as exc:
            raise InvariantViolation(self.id, "a", str(exc)) from exc
        if not (np.isfinite(self.vf) and 0.0 < self.vf < 1.0):
            raise InvariantViolation(self.id, "vf", f"must lie in (0, 1), got {self.vf}")
        if self.strain.ndim != 2 or self.strain.shape[1] != 6 or self.strain.shape[0] < 1:
            raise InvariantViolation(
                self.id, "eps", f"expected shape (T, 6) with T >= 1, got {self.strain.shape}"
            )
        if not np.all(np.isfinite(self.strain)):
            raise InvariantViolation(self.id, "eps", "non-finite component")
        if self.target_stress is not None:
            if self.target_stress.shape != self.strain.shape:
                raise InvariantViolation(
                    self.id,
                    "sigma",
                    f"shape {self.target_stress.shape} does not match eps {self.strain.shape}",
                )
            if not np.all(np.isfinite(self.target_stress)):
                raise InvariantViolation(self.id, "sigma", "non-finite component")
        return self


def _require(record, key, line_no):
    if key not in record:
        raise ParseError(line_no, f"missing key {key!r}")
    return record[key]


def _float_list(value, expect_len, line_no, key):
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(line_no, f"key {key!r}: not numeric ({exc})") from exc
    if arr.shape != (expect_len,):
        raise ParseError(line_no, f"key {key!r}: expected {expect_len} numbers, got shape {arr.shape}")
    return arr


def _float_rows(value, line_no, key):
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(line_no, f"key {key!r}: not numeric ({exc})") from exc
    if arr.ndim != 2 or arr.shape[1] != 6:
        raise ParseError(line_no, f"key {key!r}: expected rows of 6 numbers, got shape {arr.shape}")
    return arr


def _parse_line(line, line_no) -> Sample:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(line_no, f"invalid JSON ({exc.msg})") from exc
    if not isinstance(record, dict):
        raise ParseError(line_no, "expected a JSON object")
    sample_id = _require(record, "id", line_no)
    if not isinstance(sample_id, str):
        raise ParseError(line_no, "key 'id': expected a string")
    a = _float_list(_require(record, "a", line_no), 6, line_no, "a")
    vf = _require(record, "vf", line_no)
    if not isinstance(vf, (int, float)) or isinstance(vf, bool):
        raise ParseError(line_no, "key 'vf': expected a number")
    strain = _float_rows(_require(record, "eps", line_no), line_no, "eps")
    target = record.get("sigma")
    if target is not None:
        target = _float_rows(target, line_no, "sigma")
    return Sample(id=sample_id, a=a, vf=float(vf), strain=strain, target_stress=target)


def load_dataset(path):
    """Parse and validate a dataset file; returns a list of samples.

    Raises :class:`ParseError` on the first structurally bad line and
    :class:`InvariantViolation` on the first sample that parses but breaks
    an invariant.  Blank lines are rejected (they hide truncation bugs).
    """
    samples = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                raise ParseError(line_no, "blank line")
            samples.append(_parse_line(stripped, line_no).validate())
    return samples


def format_float(value):
    """Shortest text that round-trips to the same float64: the number format of every artifact."""
    return repr(float(value))


def format_path(values):
    """JSON text of a vector ``[...]`` or a path of vectors ``[[...], ...]`` in :func:`format_float` form."""
    if np.ndim(values) > 1:
        return "[" + ", ".join(map(format_path, values)) + "]"
    return "[" + ", ".join(map(format_float, values)) + "]"


def _sample_json(sample: Sample):
    parts = [
        f'"id": {json.dumps(sample.id)}',
        f'"a": {format_path(sample.a)}',
        f'"vf": {format_float(sample.vf)}',
        f'"eps": {format_path(sample.strain)}',
    ]
    if sample.target_stress is not None:
        parts.append(f'"sigma": {format_path(sample.target_stress)}')
    return "{" + ", ".join(parts) + "}"


def save_dataset(samples, path):
    """Write samples as one JSON object per line; returns the path.

    Numbers use the shortest decimal that round-trips to the same float64,
    so ``load_dataset(save_dataset(s))`` reproduces the values exactly.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for sample in samples:
            fh.write(_sample_json(sample) + "\n")
    return path


def _random_walk_strain(stream: RotationStream, n_steps, max_strain):
    """Cumulative drift+noise path rescaled to a prescribed peak component."""
    drift = DRIFT_SCALE * (2.0 * stream.uniforms(6) - 1.0)
    noise = NOISE_SCALE * stream.normals(6 * n_steps).reshape(n_steps, 6)
    path = np.cumsum(drift + noise, axis=0)
    peak = np.max(np.abs(path))
    if peak == 0.0:
        raise RuntimeError("degenerate zero strain path")
    return path * (max_strain / peak)


def _uniaxial_strain(n_steps, max_strain):
    """Cyclic axial component 0 -> +max -> -max -> 0, all others zero.

    Breakpoints sit on grid indices so the path reaches both extremes
    exactly; needs at least 4 steps.
    """
    if n_steps < 4:
        raise ValueError("uniaxial loading needs n_steps >= 4")
    last = n_steps - 1
    i_up = max(1, round(0.25 * last))
    i_down = min(last - 1, max(i_up + 1, round(0.75 * last)))
    axial = np.interp(
        np.arange(n_steps),
        [0, i_up, i_down, last],
        [0.0, max_strain, -max_strain, 0.0],
    )
    path = np.zeros((n_steps, 6))
    path[:, 0] = axial
    return path


def generate_synthetic(
    count,
    n_steps,
    max_strain=DEFAULT_MAX_STRAIN,
    stream: RotationStream | None = None,
    uniaxial=False,
    oracle: EquivariantOracle | None = None,
):
    """Random orientation/volume-fraction/strain samples with oracle targets.

    Each sample draws an orientation tensor, a volume fraction, and (unless
    ``uniaxial``) a strain path built as the running sum of a fixed drift
    vector plus per-step Gaussian noise, rescaled so the largest absolute
    strain component equals ``max_strain``.  In uniaxial mode all samples
    share a cyclic axial strain path (0 to +max to -max to 0) and differ
    only in microstructure.  Target stress comes from the reference
    constitutive oracle, making the dataset ground truth exact.

    Per-sample randomness lives on substreams of ``stream``, so sample k is
    identical regardless of ``count``.
    """
    if count < 1 or n_steps < 1:
        raise ValueError("count and n_steps must be >= 1")
    if max_strain <= 0:
        raise ValueError("max_strain must be positive")
    if stream is None:
        stream = RotationStream(0)
    if oracle is None:
        oracle = EquivariantOracle()
    prefix = "uni" if uniaxial else "rve"
    samples = []
    for m in range(count):
        sub = stream.substream(m)
        a = sample_orientation_tensor(sub)
        vf = sample_volume_fraction(sub)
        if uniaxial:
            strain = _uniaxial_strain(n_steps, max_strain)
        else:
            strain = _random_walk_strain(sub, n_steps, max_strain)
        target = oracle.predict_batch(a, vf, strain)
        samples.append(
            Sample(id=f"{prefix}-{m:04d}", a=a, vf=vf, strain=strain, target_stress=target).validate()
        )
    return samples
