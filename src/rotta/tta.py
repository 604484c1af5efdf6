"""Rotation-augmented inference: rotate, predict, back-rotate, aggregate.

Given a predictor ``f`` and a sample ``(a, vf, eps(t))``, the engine builds
a rotation list ``[I, R_1, ..., R_N]``, feeds ``f`` the rotated input for
each ``R_i``, conjugates every predicted stress path back to the original
frame, and reduces the back-rotated paths into a mean path with a per-step
spread.  For an exactly rotation-equivariant predictor the whole procedure
is a no-op up to float round-off, which the test suite exploits.

:func:`augment` (and :func:`augment_chunks`, the same rows chunk by chunk)
is the one rotate -> predict -> back-rotate kernel; ``run``, ``sweep``,
``repeats``, ``sphere-map`` and :func:`numerics_audit` all call it with a
:class:`~rotta.dataset.Sample`, valid since it was made, which it names in
its errors, and it calls nothing of a model but ``predict_batch``.
:func:`compensated_sums` is the one reducer: every mean and spread adds its
rows in ascending rotation index with compensated (Kahan) summation, so
results do not depend on how predictions were scheduled.  :func:`run_tta`
runs a dataset through the kernel in groups of samples within a byte budget,
and :func:`reduce_predictions` reduces each group's stack in two such passes;
one :class:`TTAResult` of float64 arrays keeps the identity rows, not the stack.
"""

from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .dataset import InvariantViolation
from .models import CheckedRecord, ExternalModelError
from .rotations import RotationStream, identity_rotation, rotation_list, sample_rotations
from .voigt import conjugate, von_mises

DIVISOR_COUNT = "count"
DIVISOR_PAPER = "paper"
DIVISOR_MODES = (DIVISOR_COUNT, DIVISOR_PAPER)

# Rotations x steps per predict_batch call (81 rotations of a 100-step path).
# It bounds the kernel's temporary arrays, so peak memory does not grow with
# N, and sits at the knee of the measured kernel cost per row: on a 1001x100
# noisy sample about 1.1 us/row at 1,600, 0.6-0.8 at 6,400-8,192, no less
# above that, and more again from 25,600 on, where a chunk's six-component
# arrays (1.2 MB each) outgrow the core's cache.
_CHUNK_STEPS = 8192

# Bytes of the stack run_tta reduces at once (one sample at least): 1001 x 100 x 6 floats are 4.8 MB.
_GROUP_BYTES = 8 << 20


class EmptyInput(ValueError):
    """A mean was asked for with a zero divisor: the paper divisor over the identity alone."""


class TTAConfig(CheckedRecord, namedtuple("TTAConfig", "n_rotations seed divisor_mode", defaults=(0, DIVISOR_COUNT))):
    """Settings of one augmented-inference pass.

    Parameters
    ----------
    n_rotations : int
        Number N of random rotations (the identity is extra, index 0).
    seed : int
        Seed of the rotation stream.
    divisor_mode : {"count", "paper"}
        "count" divides the (N+1)-term sum by the number of predictions;
        "paper" divides it by N, reproducing the printed mean formula
        verbatim (rejects N = 0).

    The spread always follows the printed formula: rows 1..N, the random
    rotations only, about the mean, with divisor N.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.n_rotations < 0:
            raise ValueError("n_rotations must be >= 0")
        if self.divisor_mode not in DIVISOR_MODES:
            raise ValueError(f"unknown divisor_mode {self.divisor_mode!r}")
        return self


class TTAResult(NamedTuple):
    """Back-rotated predictions of the M samples of a dataset and their aggregates.

    Every array keeps the sample axis first.  ``initial`` (the prediction at
    rotation index 0, the identity), ``aggregated`` and ``sd`` are ``(M, T,
    6)``; ``augment(model, sample, rotations)`` gives one sample's ``(P, T,
    6)`` paths.  The von Mises channels are ``(M, P, T)`` and ``(M, T)``;
    ``vm_aggregated`` is the von Mises stress *of the aggregated path*.  ``rotations`` is the ``(P, 3, 3)`` list of all.
    """

    initial: np.ndarray
    aggregated: np.ndarray
    sd: np.ndarray
    vm_individual: np.ndarray
    vm_aggregated: np.ndarray
    vm_sd: np.ndarray
    rotations: np.ndarray


def compensated_sums(rows, at):
    """Compensated (Kahan) running sum of ``rows`` in index order.

    Returns the running totals after the rows whose indices are in ``at``,
    in index order.  ``rows`` may be any iterable of equal-shape arrays, so
    a caller can reduce the kernel's rows as they come without a stack.
    """
    at = set(at)
    totals, total, carry = [], 0.0, 0.0
    for i, row in enumerate(rows):
        y = row - carry
        t = total + y
        carry = (t - total) - y
        total = t
        if i in at:
            totals.append(total)
    return totals


def mean_divisor(n_rows, mode):
    """Divisor of the mean of ``n_rows`` predictions (indices 0..N).

    ``mode="count"`` divides by the number of rows, ``mode="paper"`` by N =
    ``n_rows - 1`` (the printed formula sums indices 0..N but divides by N);
    a zero divisor raises :class:`EmptyInput`.
    """
    if mode not in DIVISOR_MODES:
        raise ValueError(f"unknown divisor mode {mode!r}")
    divisor = n_rows if mode == DIVISOR_COUNT else n_rows - 1
    if divisor == 0:
        raise EmptyInput("paper divisor mode needs at least one random rotation (N >= 1)")
    return divisor


def _row_blocks(n_rows, row_size, budget=None):
    """Slices of ``n_rows`` rows of ``row_size`` elements, at most ``budget`` (a kernel chunk's) or one row each."""
    size = max(1, (6 * _CHUNK_STEPS if budget is None else budget) // max(1, row_size))
    return [slice(lo, lo + size) for lo in range(0, n_rows, size)]


def reduce_predictions(backrotated, cfg: TTAConfig, rotations) -> TTAResult:
    """:class:`TTAResult` of M inputs from their ``(M, P, T, 6)`` back-rotated stack.

    Every sample is reduced at once, each element with the additions of its
    own sample's pass, in two compensated passes over the rotation axis: the
    mean (divided as :func:`mean_divisor` says), then, a :func:`_row_blocks`
    block at a time, the von Mises rows and the squared deviations of the
    six components and the von Mises value, one ``(M, T, 7)`` row each.  The
    spreads sum rows 1..P-1 with divisor P-1, the printed formula over the
    random rotations only; the identity alone (P = 1) has zero spread.  The
    result's ``initial`` is a copy of ``backrotated[:, 0]``.
    """
    by_rotation = backrotated.swapaxes(0, 1)  # (P, M, T, 6) view
    p = len(by_rotation)
    aggregated = compensated_sums(by_rotation, [p - 1])[0] / mean_divisor(p, cfg.divisor_mode)
    vm_aggregated = von_mises(aggregated)
    vm_individual = np.empty(backrotated.shape[:-1])
    vm_by_rotation = vm_individual.swapaxes(0, 1)
    blocks = _row_blocks(p, 7 * vm_aggregated.size)
    buffer = np.empty((len(by_rotation[blocks[0]]),) + vm_aggregated.shape + (7,))

    def deviations():  # of rows 1..P-1; each row is summed before the buffer is refilled
        for block in blocks:
            part = by_rotation[block]
            dev = buffer[:len(part)]
            vm_by_rotation[block] = von_mises(part)
            np.subtract(part, aggregated, out=dev[..., :6])
            np.subtract(vm_by_rotation[block], vm_aggregated, out=dev[..., 6])
            np.square(dev, out=dev)
            yield from dev[1:] if block.start == 0 else dev

    totals = compensated_sums(deviations(), [p - 2])
    variance = totals[0] / (p - 1) if totals else np.zeros(buffer.shape[1:])  # P = 1 sums no row
    return TTAResult(backrotated[:, 0].copy(), aggregated, np.sqrt(variance[..., :6]), vm_individual, vm_aggregated,
                     np.sqrt(variance[..., 6]), rotations)


def augment_chunks(model, sample, rotations):
    """Yield ``(lo, block)`` in index order: rows ``lo..lo+len(block)-1`` of :func:`augment`.

    Row ``i`` is the prediction on ``sample``'s input rotated by
    ``rotations[i]``, rotated back.  ``model.predict_batch`` is called once
    per chunk of rotations, each chunk rotated and back-rotated by one
    :func:`~rotta.voigt.conjugate` call per array.  Rows have the same bits
    as rotating, predicting one row and back-rotating one rotation at a
    time, for any chunk size: every conjugation sums its terms in one fixed
    order (another order differs in the last bits, which the noise hash
    sees).  ``sample`` was checked when it was made; a rotated input that
    is no longer finite raises :class:`~rotta.dataset.InvariantViolation`
    naming the rotation index.  A wrong output shape and external-model
    failures raise :class:`ExternalModelError` naming the sample and the
    rows (the row an error carries, if it carries one).
    """
    rotations = np.asarray(rotations, dtype=float)
    chunk = max(1, _CHUNK_STEPS // sample.n_steps)
    for lo in range(0, rotations.shape[0], chunk):
        rs = rotations[lo:lo + chunk]
        a, strain = conjugate(rs, sample.a), conjugate(rs, sample.strain)
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(strain))):
            finite = np.all(np.isfinite(a), axis=1) & np.all(np.isfinite(strain), axis=(1, 2))
            bad = lo + int(np.argmin(finite))
            raise InvariantViolation(sample.id, "eps", f"rotation index {bad}: rotated input has non-finite values")
        try:
            pred = np.asarray(model.predict_batch(a, sample.vf, strain), dtype=float)
        except ExternalModelError as exc:
            where = "" if exc.row is None else f"rotation index {lo + exc.row}: "
            raise ExternalModelError(f"sample {sample.id}: {where}{exc}") from exc
        if pred.shape != strain.shape:
            raise ExternalModelError(
                f"sample {sample.id}: rotation indices {lo}-{lo + len(rs) - 1}: "
                f"model returned shape {pred.shape}, expected {strain.shape}"
            )
        yield lo, conjugate(rs.transpose(0, 2, 1), pred)


def augment(model, sample, rotations) -> np.ndarray:
    """Back-rotated predictions for every rotated copy of ``sample``'s input, shape ``(P, T, 6)``.

    The rows of :func:`augment_chunks` gathered into one array.
    """
    out = np.empty((len(rotations),) + sample.strain.shape)
    for lo, block in augment_chunks(model, sample, rotations):
        out[lo:lo + len(block)] = block
    return out


def run_tta(model, samples, cfg: TTAConfig) -> TTAResult:
    """Full augmented-inference pass over the ``samples`` of a dataset.

    Every sample runs through :func:`augment_chunks` over one rotation list,
    drawn from ``cfg.seed``, so rotation index i is one rotation across the
    dataset.  Each group of samples within a byte budget fills one reused
    buffer in rotation-index order for :func:`reduce_predictions`.  Samples
    must share one path length, checked before the first prediction.
    """
    if len(samples) == 0:
        raise ValueError("augmented inference needs at least one sample")
    for sample in samples:
        if sample.strain.shape != samples[0].strain.shape:
            raise ValueError(f"sample {sample.id}: strain path shape {sample.strain.shape} differs from "
                             f"the first sample's {samples[0].strain.shape}")
    rotations = rotation_list(RotationStream(cfg.seed), cfg.n_rotations)
    m, p, t = len(samples), len(rotations), samples[0].n_steps
    groups = _row_blocks(m, p * t * 6, _GROUP_BYTES // 8)
    buffer = np.empty((len(samples[groups[0]]), p, t, 6))
    whole = TTAResult(*(np.empty((m,) + shape) for shape in [(t, 6)] * 3 + [(p, t), (t,), (t,)]), rotations)
    for group in groups:
        stack = buffer[:len(samples[group])]
        for k, sample in enumerate(samples[group]):
            for lo, block in augment_chunks(model, sample, rotations):
                stack[k, lo:lo + len(block)] = block
        for array, rows in zip(whole[:-1], reduce_predictions(stack, cfg, rotations)):
            array[group] = rows
    return whole


class AuditReport(NamedTuple):
    """Mean of per-sample max-abs rotate/back-rotate round-trip errors."""

    input_err: float
    target_err: float
    output_err: float
    n_samples: int
    n_with_target: int

    def to_text(self):
        lines = [
            f"{'Input':>14} {'Target':>14} {'Output':>14}",
            f"{self.input_err:>14.4e} {self.target_err:>14.4e} {self.output_err:>14.4e}",
            f"samples: {self.n_samples} ({self.n_with_target} with targets)",
        ]
        return "\n".join(lines)


def _roundtrip_err(x, r):
    return float(np.max(np.abs(x - conjugate(r.T[None], conjugate(r[None], x)[0])[0])))


def numerics_audit(samples, model, stream: RotationStream, identity_only=False) -> AuditReport:
    """Quantify float error of the kernel's rotate/back-rotate conjugation itself.

    For each sample a fresh random rotation is drawn and the max-abs
    difference ``|x - R^T (R x R^T) R|``, both conjugations by
    :func:`~rotta.voigt.conjugate` as in the kernel, is taken over all steps
    of the input tensors (orientation + strain path), the target stress
    path, and the model's predicted stress path; each of the three is
    averaged over the dataset.  Distinguishes genuine prediction variation from rounding.
    The prediction is row 0 of the kernel over the identity alone, so
    its errors name the sample.  ``identity_only`` swaps every rotation for
    the identity, a sanity mode whose errors must be exactly zero.
    """
    if len(samples) == 0:
        raise ValueError("audit needs a non-empty dataset")
    input_errs, target_errs, output_errs = [], [], []
    for sample in samples:
        r = identity_rotation() if identity_only else sample_rotations(stream, 1)[0]
        input_errs.append(max(_roundtrip_err(sample.a, r), _roundtrip_err(sample.strain, r)))
        if sample.target_stress is not None:
            target_errs.append(_roundtrip_err(sample.target_stress, r))
        prediction = augment(model, sample, identity_rotation()[None])[0]
        output_errs.append(_roundtrip_err(prediction, r))
    return AuditReport(
        input_err=float(np.mean(input_errs)),
        target_err=float(np.mean(target_errs)) if target_errs else float("nan"),
        output_err=float(np.mean(output_errs)),
        n_samples=len(samples),
        n_with_target=len(target_errs),
    )
