"""Dataset model and newline-delimited JSON persistence.

One sample per line, keys ``id``, ``a`` (6 components), ``vf``, ``eps``
(T rows of 6), and optionally ``sigma`` (same shape as ``eps``).  Tensor
components follow the package-wide ordering [11, 22, 33, 12, 13, 23].
Floats are written with Python's shortest round-trip representation, so a
save/load cycle is lossless and re-saving reproduces identical bytes.

Loading is strict: the first malformed line (not UTF-8 text, say) raises
:class:`ParseError` with its line number, and any sample whose fields
violate the domain invariants (orientation tensor properties, path length
agreement, value ranges, an id no earlier line used) raises
:class:`InvariantViolation` naming the sample and field.
"""

from __future__ import annotations

import json
from collections import namedtuple
from pathlib import Path

import numpy as np

from .models import CheckedRecord, EquivariantOracle
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


class Sample(CheckedRecord, namedtuple("Sample", "id a vf strain target_stress")):
    """One loading case: microstructure descriptors, strain path, optional target.

    Making one, a ``_replace`` copy too, converts the arrays to float64 and
    checks every invariant, raising :class:`InvariantViolation` on the first
    failure: a ``Sample`` that exists is valid.
    """

    __slots__ = ()

    def __new__(cls, id, a, vf, strain, target_stress=None):
        a, strain = np.asarray(a, dtype=float), np.asarray(strain, dtype=float)
        if target_stress is not None:
            target_stress = np.asarray(target_stress, dtype=float)
        if not id:
            raise InvariantViolation(id, "id", "must be a non-empty string")
        try:
            check_orientation_tensor(a)  # six finite components too
        except ValueError as exc:
            raise InvariantViolation(id, "a", str(exc)) from exc
        if not (np.isfinite(vf) and 0.0 < vf < 1.0):
            raise InvariantViolation(id, "vf", f"must lie in (0, 1), got {vf}")
        if strain.ndim != 2 or strain.shape[1] != 6 or strain.shape[0] < 1:
            raise InvariantViolation(id, "eps", f"expected shape (T, 6) with T >= 1, got {strain.shape}")
        if not np.all(np.isfinite(strain)):
            raise InvariantViolation(id, "eps", "non-finite component")
        if target_stress is not None:
            if target_stress.shape != strain.shape:
                raise InvariantViolation(id, "sigma", f"shape {target_stress.shape} does not match eps {strain.shape}")
            if not np.all(np.isfinite(target_stress)):
                raise InvariantViolation(id, "sigma", "non-finite component")
        return super().__new__(cls, id, a, vf, strain, target_stress)

    @property
    def n_steps(self):
        return self.strain.shape[0]


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


def load_dataset(path, digest=None):
    """Parse a dataset file into a list of samples, each checked once as it is made.

    Raises :class:`ParseError` on the first structurally bad line (one
    that is not UTF-8 text too) and :class:`InvariantViolation` on the first
    sample that parses but breaks an invariant or repeats an earlier id.
    Blank lines are rejected (they hide truncation bugs).  The file is read
    once; ``digest``, a :mod:`hashlib` object, is updated with those bytes,
    so it hashes exactly what was parsed.
    """
    data = Path(path).read_bytes()
    if digest is not None:
        digest.update(data)
    samples = []
    first_line = {}  # id -> line it first appeared on
    for line_no, raw in enumerate(data.splitlines(), start=1):
        try:
            stripped = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise ParseError(line_no, f"not UTF-8 text: {exc.reason} at offset {exc.start}") from exc
        if not stripped:
            raise ParseError(line_no, "blank line")
        sample = _parse_line(stripped, line_no)
        if sample.id in first_line:
            raise InvariantViolation(sample.id, "id", f"repeats the id of line {first_line[sample.id]}")
        first_line[sample.id] = line_no
        samples.append(sample)
    return samples


def format_float(value):
    """Shortest text that round-trips to the same float64: the number format of every artifact."""
    return repr(float(value))


def format_path(values):
    """JSON text of a vector ``[...]`` or a path of vectors ``[[...], ...]`` in :func:`format_float` form.

    One ``repr`` of the nested list: a list's ``repr`` writes each float as
    its own ``repr`` and separates items with ``", "``.
    """
    return repr(np.asarray(values, dtype=float).tolist())


def csv_text(header, rows):
    """CSV text: the ``header`` line, then one line per row.

    ``rows`` is a float array, whose values take one ``tolist()``, or a
    sequence of rows, whose numbers (a Python int too: 0 is ``0.0``) are in
    :func:`format_float` form and whose other cells (strings, bools) are
    written as they are.  Either way a float's text is its ``repr``.
    """
    if isinstance(rows, np.ndarray):
        rows = rows.astype(float).tolist()
    else:
        rows = [
            [format_float(v) if isinstance(v, (int, float, np.floating)) and not isinstance(v, bool) else v for v in row]
            for row in rows
        ]
    return "\n".join([header] + [",".join(map(str, row)) for row in rows]) + "\n"


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
):
    """Random orientation/volume-fraction/strain samples with oracle targets.

    Each sample draws an orientation tensor, a volume fraction, and (unless
    ``uniaxial``) a strain path built as the running sum of a fixed drift
    vector plus per-step Gaussian noise, rescaled so the largest absolute
    strain component equals ``max_strain``.  In uniaxial mode all samples
    share a cyclic axial strain path (0 to +max to -max to 0) and differ
    only in microstructure.  Target stress comes from ``EquivariantOracle()``,
    the reference constitutive oracle, so the dataset ground truth is exact.

    Per-sample randomness lives on substreams of ``stream``, so sample k is
    identical regardless of ``count``.
    """
    if count < 1 or n_steps < 1:
        raise ValueError("count and n_steps must be >= 1")
    if not 0.0 < max_strain < np.inf:
        raise ValueError(f"max_strain must be positive and finite, got {max_strain}")
    if stream is None:
        stream = RotationStream(0)
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
        samples.append(Sample(id=f"{prefix}-{m:04d}", a=a, vf=vf, strain=strain, target_stress=target))
    return samples
