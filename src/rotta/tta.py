"""Rotation-augmented inference: rotate, predict, back-rotate, aggregate.

Given a predictor ``f``, a sample ``(a, vf, eps(t))`` and a rotation list
``[I, R_1, ..., R_N]`` its caller built, the engine feeds ``f`` the rotated
input for each ``R_i``, conjugates every predicted stress path back to the
original frame, and reduces the back-rotated paths into a mean path with a
per-step spread.  For an exactly rotation-equivariant predictor the whole
procedure is a no-op up to float round-off, which the test suite exploits.

:func:`augment_chunks` is the one rotate -> predict -> back-rotate kernel,
yielding one sample's rows chunk by chunk: ``run``, ``repeats`` and
``sphere-map`` reduce them through :func:`run_tta`, ``sweep`` sums them as
they come, and :func:`augment` gathers them into one array for
:func:`numerics_audit`.  It takes a :class:`~rotta.dataset.Sample`, valid
since it was made, which it names in its errors, and it calls nothing of a
model but ``predict_batch``.
:func:`compensated_sums` is the one reducer: every mean and spread adds its
rows in ascending rotation index with compensated (Kahan) summation, so
results do not depend on how predictions were scheduled.  :func:`run_tta`
runs a dataset through the kernel one sample at a time and reduces each
sample's rows in two such passes into one :class:`TTAResult` of float64
arrays, which keeps the identity rows, not the stack.
"""

from typing import NamedTuple

import numpy as np

from .dataset import InvariantViolation
from .models import ExternalModelError
from .rotations import identity_rotation, sample_rotations
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


class EmptyInput(ValueError):
    """A mean was asked for with a zero divisor: the paper divisor over the identity alone."""


class TTAResult(NamedTuple):
    """Back-rotated predictions of the M samples of a dataset and their aggregates.

    Every array keeps the sample axis first.  ``initial`` (the prediction at
    rotation index 0, the identity), ``aggregated`` and ``sd`` are ``(M, T,
    6)``; ``augment(model, sample, rotations)`` gives one sample's ``(P, T,
    6)`` paths.  The von Mises channels are ``(M, P, T)`` and ``(M, T)``;
    ``vm_aggregated`` is the von Mises stress *of the aggregated path*.
    """

    initial: np.ndarray
    aggregated: np.ndarray
    sd: np.ndarray
    vm_individual: np.ndarray
    vm_aggregated: np.ndarray
    vm_sd: np.ndarray


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


def _reduce_sample(rows, chunks, divisor) -> TTAResult:
    """One sample's row of every :class:`TTAResult` array, from its ``(lo, block)`` chunks of back-rotated paths.

    The chunks, in :func:`augment_chunks` form, fill the ``(P, 7T)`` buffer
    ``rows``: row i is the ``(T, 6)`` path at rotation index i, flattened,
    then its T von Mises values.  The buffer is then reduced in place in two
    compensated passes in rotation-index order: the mean of the paths,
    divided by ``divisor``; then, with every row turned into the squared
    deviations of its six components from the mean and of its von Mises
    values from the mean's, the spreads.  They sum rows 1..P-1 with divisor
    P-1, the printed formula over the random rotations only; the identity
    alone (P = 1) has zero spread.
    """
    p, t = rows.shape[0], rows.shape[1] // 7
    paths, vm = rows[:, :6 * t].reshape(p, t, 6), rows[:, 6 * t:]
    for lo, block in chunks:
        paths[lo:lo + len(block)] = block
        vm[lo:lo + len(block)] = von_mises(block)
    initial, vm_individual = paths[0].copy(), vm.copy()
    aggregated = compensated_sums(paths, [p - 1])[0] / divisor
    vm_aggregated = von_mises(aggregated)
    np.subtract(rows, np.concatenate([aggregated.reshape(-1), vm_aggregated]), out=rows)
    np.square(rows, out=rows)
    totals = compensated_sums(rows[1:], [p - 2])
    variance = totals[0] / (p - 1) if totals else np.zeros(7 * t)  # P = 1 sums no row
    return TTAResult(initial, aggregated, np.sqrt(variance[:6 * t]).reshape(t, 6), vm_individual, vm_aggregated,
                     np.sqrt(variance[6 * t:]))


def run_tta(model, samples, rotations, divisor_mode=DIVISOR_COUNT) -> TTAResult:
    """Full augmented-inference pass over the ``samples`` of a dataset.

    Every sample runs through :func:`augment_chunks` over the one ``(P, 3,
    3)`` list ``rotations``, so rotation index i is one rotation across the
    dataset.  Row 0 must be exactly the identity: ``initial`` is its
    prediction and the spread sums rows 1..P-1.  One sample at a time, the
    kernel's rows fill one reused buffer, which :func:`_reduce_sample`
    reduces in place into the sample's row of the result; its mean divides
    as ``divisor_mode`` says.  Samples must share one path length; it and
    the list are checked before the first prediction.
    """
    if len(samples) == 0:
        raise ValueError("augmented inference needs at least one sample")
    for sample in samples:
        if sample.strain.shape != samples[0].strain.shape:
            raise ValueError(f"sample {sample.id}: strain path shape {sample.strain.shape} differs from "
                             f"the first sample's {samples[0].strain.shape}")
    rotations = np.asarray(rotations, dtype=float)
    if rotations.ndim != 3 or rotations.shape[0] == 0 or rotations.shape[1:] != (3, 3):
        raise ValueError(f"rotations must be a (P, 3, 3) list with P >= 1, got shape {rotations.shape}")
    if not np.array_equal(rotations[0], identity_rotation()):
        raise ValueError("rotation index 0 must be exactly the identity")
    m, p, t = len(samples), len(rotations), samples[0].n_steps
    divisor = mean_divisor(p, divisor_mode)  # a bad mode fails before the first prediction
    rows = np.empty((p, 7 * t))  # per rotation: a path's six components and its von Mises value at T steps
    result = TTAResult(*(np.empty((m,) + shape) for shape in [(t, 6)] * 3 + [(p, t), (t,), (t,)]))
    for k, sample in enumerate(samples):
        for array, row in zip(result, _reduce_sample(rows, augment_chunks(model, sample, rotations), divisor)):
            array[k] = row
    return result


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


def numerics_audit(samples, model, stream, identity_only=False) -> AuditReport:
    """Quantify float error of the kernel's rotate/back-rotate conjugation itself.

    For each sample a fresh random rotation is drawn from ``stream``, a
    :class:`~rotta.rotations.RotationStream`, and the max-abs difference
    ``|x - R^T (R x R^T) R|``, both conjugations by
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
