"""Rotation-augmented inference: rotate, predict, back-rotate, aggregate.

Given a predictor ``f`` and an input ``(a, vf, eps(t))``, the engine builds
a rotation list ``[I, R_1, ..., R_N]``, feeds ``f`` the rotated input for
each ``R_i``, conjugates every predicted stress path back to the original
frame, and reduces the back-rotated paths into a mean path with a per-step
spread.  For an exactly rotation-equivariant predictor the whole procedure
is a no-op up to float round-off, which the test suite exploits.

:func:`augment` (and :func:`augment_chunks`, the same rows chunk by chunk)
is the one rotate -> predict -> back-rotate kernel; ``run``, ``sweep``,
``repeats``, ``sphere-map`` and :func:`numerics_audit` all predict through
it, and it calls nothing of a model but ``predict_batch``.
:func:`compensated_sums` is the one reducer: every mean and spread adds its
rows in ascending rotation index with compensated (Kahan) summation, so
results do not depend on how predictions were scheduled.  All result arrays
are plain float64 ndarrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import ExternalModelError, ModelInput
from .rotations import RotationStream, identity_rotation, rotation_list, sample_rotation
from .voigt import conjugate, inverse_rotate_sym, rotate_sym, von_mises, von_mises_path

DIVISOR_COUNT = "count"
DIVISOR_PAPER = "paper"
_DIVISOR_MODES = (DIVISOR_COUNT, DIVISOR_PAPER)

# Rotations x steps per predict_batch call (81 rotations of a 100-step path).
# It bounds the kernel's temporary arrays, so peak memory does not grow with
# N, and sits at the knee of the measured kernel cost per row: on a 1001x100
# noisy sample about 1.1 us/row at 1,600, 0.6-0.8 at 6,400-8,192, no less
# above that, and more again from 25,600 on, where a chunk's six-component
# arrays (1.2 MB each) outgrow the core's cache.
_CHUNK_STEPS = 8192


class EmptyInput(ValueError):
    """Aggregation was asked to reduce zero predictions."""


@dataclass(frozen=True)
class TTAConfig:
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
    sd_include_identity : bool
        The printed spread formulas sum over the random rotations only;
        set True to include index 0 with divisor N+1 instead.
    """

    n_rotations: int
    seed: int = 0
    divisor_mode: str = DIVISOR_COUNT
    sd_include_identity: bool = False

    def __post_init__(self):
        if self.n_rotations < 0:
            raise ValueError("n_rotations must be >= 0")
        if self.divisor_mode not in _DIVISOR_MODES:
            raise ValueError(f"unknown divisor_mode {self.divisor_mode!r}")


@dataclass(frozen=True)
class TTAResult:
    """Back-rotated predictions of one input and their aggregates.

    ``predictions`` has shape ``(P, T, 6)`` in rotation-index order (index 0
    is the identity prediction); ``aggregated`` and ``sd`` are
    ``(T, 6)``; the von Mises channels are ``(P, T)`` and ``(T,)``.
    ``vm_aggregated`` is the von Mises stress *of the aggregated path*, not
    a mean of the individual von Mises values.
    """

    predictions: np.ndarray
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
    if mode not in _DIVISOR_MODES:
        raise ValueError(f"unknown divisor mode {mode!r}")
    divisor = n_rows if mode == DIVISOR_COUNT else n_rows - 1
    if divisor == 0:
        raise EmptyInput("paper divisor mode needs at least one random rotation (N >= 1)")
    return divisor


def aggregate_mean(predictions, mode=DIVISOR_COUNT):
    """Per-step, per-component mean of back-rotated stress paths.

    ``mode="count"`` divides the sum of all P predictions by P.
    ``mode="paper"`` divides the same sum by P-1 (the printed formula sums
    indices 0..N but divides by N); it rejects a single-prediction stack.
    """
    stack = np.asarray(predictions, dtype=float)
    if stack.ndim != 3 or stack.shape[-1] != 6:
        raise ValueError(f"expected predictions of shape (P, T, 6), got {stack.shape}")
    if stack.shape[0] == 0:
        raise EmptyInput("no predictions to aggregate")
    divisor = mean_divisor(stack.shape[0], mode)
    return compensated_sums(stack, [stack.shape[0] - 1])[0] / divisor


def pointwise_sd(predictions, aggregated, include_first=False):
    """Elementwise spread of P rows (``(P, T, 6)`` paths or ``(P, T)`` von Mises) about their aggregate.

    By default rows 1..P-1 enter the sum with divisor P-1, matching the
    printed formula that sums over the random rotations only; with
    ``include_first`` all P rows enter with divisor P.  Requires P >= 2.
    """
    stack = np.asarray(predictions, dtype=float)
    if stack.shape[0] < 2:
        raise ValueError("spread needs at least 2 predictions")
    rows = stack if include_first else stack[1:]
    dev = (rows - np.asarray(aggregated, dtype=float)) ** 2
    return np.sqrt(compensated_sums(dev, [rows.shape[0] - 1])[0] / rows.shape[0])


def augment_chunks(model, inp: ModelInput, rotations):
    """Yield ``(lo, block)`` in index order: rows ``lo..lo+len(block)-1`` of :func:`augment`.

    Row ``i`` is the prediction on ``inp`` rotated by ``rotations[i]``,
    rotated back.  ``model.predict_batch`` is called once per chunk of
    rotations, each chunk rotated and back-rotated by one
    :func:`~rotta.voigt.conjugate` call per array.  Rows have the same bits
    as rotating, predicting one row and back-rotating one rotation at a
    time, for any chunk size: every conjugation sums its terms in one fixed
    order (another order differs in the last bits, which the noise hash
    sees).  Non-finite rotated inputs raise ``ValueError``; a wrong output
    shape and external-model failures raise :class:`ExternalModelError`
    naming the rows (the row an error carries, if it carries one).
    """
    inp.validate()
    rotations = np.asarray(rotations, dtype=float)
    chunk = max(1, _CHUNK_STEPS // inp.n_steps)
    for lo in range(0, rotations.shape[0], chunk):
        rs = rotations[lo:lo + chunk]
        a, strain = conjugate(rs, inp.a), conjugate(rs, inp.strain)
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(strain))):
            raise ValueError("model input contains non-finite values")
        try:
            pred = np.asarray(model.predict_batch(a, inp.vf, strain), dtype=float)
        except ExternalModelError as exc:
            if exc.row is None:
                raise
            raise ExternalModelError(f"rotation index {lo + exc.row}: {exc}") from exc
        if pred.shape != strain.shape:
            raise ExternalModelError(
                f"rotation indices {lo}-{lo + len(rs) - 1}: "
                f"model returned shape {pred.shape}, expected {strain.shape}"
            )
        yield lo, conjugate(rs.transpose(0, 2, 1), pred)


def augment(model, inp: ModelInput, rotations) -> np.ndarray:
    """Back-rotated predictions for every rotated copy of ``inp``, shape ``(P, T, 6)``.

    The rows of :func:`augment_chunks` gathered into one array.
    """
    out = np.empty((len(rotations),) + inp.strain.shape)
    for lo, block in augment_chunks(model, inp, rotations):
        out[lo:lo + len(block)] = block
    return out


def run_tta(model, inp: ModelInput, cfg: TTAConfig, rotations=None) -> TTAResult:
    """Full augmented-inference pass for one input.

    Runs :func:`augment` over ``rotations``, the rotation list of ``cfg``
    (drawn from ``cfg.seed`` when not given), and fills a :class:`TTAResult`.
    Predictions are stored in rotation-index order.  External-model
    failures are re-raised annotated with the offending row of
    ``rotations``.
    """
    if rotations is None:
        rotations = rotation_list(RotationStream(cfg.seed), cfg.n_rotations)
    elif np.shape(rotations) != (cfg.n_rotations + 1, 3, 3):
        raise ValueError(
            f"expected the {cfg.n_rotations + 1} rotations of the config, got shape {np.shape(rotations)}"
        )

    backrotated = augment(model, inp, rotations)

    aggregated = aggregate_mean(backrotated, cfg.divisor_mode)
    vm_individual = von_mises(backrotated)
    vm_aggregated = von_mises_path(aggregated)

    if backrotated.shape[0] >= 2:
        sd = pointwise_sd(backrotated, aggregated, include_first=cfg.sd_include_identity)
        vm_sd = pointwise_sd(vm_individual, vm_aggregated, include_first=cfg.sd_include_identity)
    else:
        sd = np.zeros_like(aggregated)
        vm_sd = np.zeros_like(vm_aggregated)

    return TTAResult(
        predictions=backrotated,
        aggregated=aggregated,
        sd=sd,
        vm_individual=vm_individual,
        vm_aggregated=vm_aggregated,
        vm_sd=vm_sd,
        rotations=rotations,
    )


@dataclass(frozen=True)
class AuditReport:
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
    return float(np.max(np.abs(x - inverse_rotate_sym(rotate_sym(x, r), r))))


def numerics_audit(samples, model, stream: RotationStream, identity_only=False) -> AuditReport:
    """Quantify float error of the rotate/back-rotate conjugation itself.

    For each sample a fresh random rotation is drawn and the max-abs
    difference ``|x - R^T (R x R^T) R|`` is taken over all steps of the
    input tensors (orientation + strain path), the target stress path, and
    the model's predicted stress path; each of the three is averaged over
    the dataset.  Distinguishes genuine prediction variation from rounding.
    The prediction is row 0 of :func:`augment` over the identity alone.
    ``identity_only`` swaps every rotation for the identity, a sanity mode
    whose errors must be exactly zero.  External-model failures are
    re-raised naming the sample.
    """
    if len(samples) == 0:
        raise ValueError("audit needs a non-empty dataset")
    input_errs, target_errs, output_errs = [], [], []
    for sample in samples:
        r = identity_rotation() if identity_only else sample_rotation(stream)
        inp = sample.model_input()
        input_errs.append(max(_roundtrip_err(inp.a, r), _roundtrip_err(inp.strain, r)))
        if sample.target_stress is not None:
            target_errs.append(_roundtrip_err(sample.target_stress, r))
        try:
            prediction = augment(model, inp, identity_rotation()[None])[0]
        except ExternalModelError as exc:
            raise ExternalModelError(f"sample {sample.id}: {exc}") from exc
        output_errs.append(_roundtrip_err(prediction, r))
    return AuditReport(
        input_err=float(np.mean(input_errs)),
        target_err=float(np.mean(target_errs)) if target_errs else float("nan"),
        output_err=float(np.mean(output_errs)),
        n_samples=len(samples),
        n_with_target=len(target_errs),
    )
