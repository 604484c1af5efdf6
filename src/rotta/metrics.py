"""Dataset-level evaluation of augmented predictions.

Three families of quantities, all over von Mises paths unless stated:

* error scalars, per rotation index and for the aggregated path: mean
  relative error (``mere``), maximum relative error (``mare``), their
  average / spread over rotation indices, and a histogram with a normal
  fit of the per-rotation means;
* shape consistency: Pearson correlation of first-order differences
  between prediction and target, and the improvement ratio
  ``(1 - r_initial) / (1 - r_aggregated)`` per sample and channel
  (von Mises plus the six tensor components);
* uncertainty-vs-error curves: dataset-averaged per-step spread against
  dataset-averaged per-step absolute (and relative) error, with their
  correlation coefficients.

Nomenclature: "initial" always means the prediction at rotation index 0
(the unrotated input); "aggregated" means the mean path of the augmented
pass.  Relative quantities guard divisions with ``EPS_DIV`` and report
excluded steps instead of dropping them silently.
"""

import math
from typing import NamedTuple

import numpy as np

from .voigt import COMPONENT_NAMES, von_mises

EPS_DIV = 1e-9
SHAPE_EPS = 1e-12
DEFAULT_BIN_WIDTH = 1e-5
# Most bins of an error histogram.  Near 10^6 bins a 2x10 run writes 44 MB of
# CSV in 6 s and peaks at 455 MB (2-vCPU Xeon); the default width reaches the
# limit only when the per-rotation errors span 10 (1,000 %).
_MAX_BINS = 1_000_000
CHANNEL_NAMES = ("von_mises",) + COMPONENT_NAMES


class ZeroTargetMax(ValueError):
    """A target von Mises path is identically zero, so relative error is undefined."""


class AllStepsExcluded(ValueError):
    """Every time step fell below the division guard for relative curves."""


class TooManyBins(ValueError):
    """A histogram's bin width is too fine for its values: see :func:`mere_histogram`."""


def _as_paths(target_vm, predicted_vm):
    """``(target, prediction)`` with the targets broadcast over the prediction's middle axes.

    A ``(T,)`` target pairs with a ``(T,)`` prediction as one sample; an
    ``(M, T)`` target pairs with an ``(M, ..., T)`` prediction.
    """
    t = np.atleast_2d(np.asarray(target_vm, dtype=float))
    p = np.atleast_2d(np.asarray(predicted_vm, dtype=float))
    if t.ndim != 2 or p.shape[:1] + p.shape[-1:] != t.shape:
        raise ValueError(f"target {t.shape} and prediction {p.shape} shapes differ")
    return t.reshape(t.shape[:1] + (1,) * (p.ndim - 2) + t.shape[1:]), p


def _target_max(target_paths):
    m = np.max(target_paths, axis=-1)
    if np.any(m <= 0.0):
        raise ZeroTargetMax("a target von Mises path has no positive values")
    return m


def _sample_mean(per_sample):
    """Mean over the sample axis: a float for ``(M,)`` values, an array for ``(M, ...)``.

    ``mean(axis=0)`` sums a 1-d vector pairwise but the rows of a table in
    sample order, so from M = 8 on a column of an ``(M, P)`` table can
    differ in the last bits from the same call on that column alone.
    """
    mean = np.mean(per_sample, axis=0)
    return float(mean) if mean.ndim == 0 else mean


def mere(target_vm, predicted_vm):
    """Mean relative error of von Mises paths over a dataset.

    Per sample the error is sqrt(sum_t (target - prediction)^2) divided by
    max_t(target) * T, with the T outside the square root; the dataset value
    is the mean over samples.  The denominator placement makes the value
    shrink as 1/sqrt(T) for a fixed per-step error.

    Parameters
    ----------
    target_vm : array_like, shape (M, T) or (T,)
        Target von Mises paths; a single path is a one-sample dataset.
    predicted_vm : array_like, shape (M, ..., T) or (T,)
        Predicted paths.  Axes between the sample and step axes (rotation
        indices, say) are kept: each target is compared with every path of
        its sample, and the result has the shape of those axes instead of
        being a float.
    """
    t, p = _as_paths(target_vm, predicted_vm)
    sq = t - p
    root = np.sqrt(np.sum(np.square(sq, out=sq), axis=-1))
    return _sample_mean(root / (_target_max(t) * t.shape[-1]))


def mare(target_vm, predicted_vm, absolute=False):
    """Maximum relative error: per-sample max_t of (target - prediction)
    over max_t(target), averaged over samples.

    The difference is signed by default (a prediction that only overshoots
    gives a negative value); ``absolute=True`` takes |target - prediction|.
    Shapes are those of :func:`mere`, middle axes included.
    """
    t, p = _as_paths(target_vm, predicted_vm)
    diff = t - p
    if absolute:
        np.abs(diff, out=diff)
    return _sample_mean(np.max(diff, axis=-1) / _target_max(t))


def mere_av(values):
    """Mean of per-rotation error values over indices 0..N (N+1 terms)."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("need at least one value")
    return float(np.mean(values))


def sd_mere(values, center):
    """Spread of the random-rotation error values about ``center``.

    ``values`` holds indices 1..N only (the identity prediction is excluded
    from the sum); the divisor is their count N, and ``center`` is the
    average over all indices 0..N.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("need at least one random-rotation value")
    return float(np.sqrt(np.mean((values - center) ** 2)))


class Histogram(NamedTuple):
    """Density histogram of error values with a moment-fit normal overlay."""

    bin_width: float
    bin_edges: np.ndarray
    density: np.ndarray
    counts: np.ndarray
    fit_mean: float
    fit_sd: float

    def pdf(self, x):
        """Normal density with the fitted mean and SD, evaluated at x."""
        x = np.asarray(x, dtype=float)
        if self.fit_sd == 0.0:
            return np.where(x == self.fit_mean, np.inf, 0.0)
        z = (x - self.fit_mean) / self.fit_sd
        return np.exp(-0.5 * z * z) / (self.fit_sd * math.sqrt(2.0 * math.pi))

    def to_rows(self):
        """(left, right, density, fit density at center) per bin, as a ``(bins, 4)`` array."""
        centers = 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])
        return np.column_stack((self.bin_edges[:-1], self.bin_edges[1:], self.density, self.pdf(centers)))


def mere_histogram(values, bin_width=DEFAULT_BIN_WIDTH):
    """Histogram of error values on a grid aligned to multiples of ``bin_width``.

    The density integrates to 1 over the binned range.  The normal fit uses
    the sample mean and the population (divide-by-n) standard deviation of
    the raw values, so the fitted mean coincides with their plain average.
    A ``bin_width`` so fine that the values need more than ``_MAX_BINS``
    bins, or edges 2**53 widths or more from 0 (where multiples of the width
    are no longer exact), raises :class:`TooManyBins` before anything is
    allocated.
    """
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise ValueError("histogram needs at least 2 values")
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    lo, hi = float(np.min(values)), float(np.max(values))
    n_bins = (hi - lo) / bin_width + 1  # the count within one, inf where it overflows
    reach = max(-lo, hi) / bin_width  # edges are integer multiples of the width, exact below 2**53
    if n_bins > _MAX_BINS or reach >= 2.0**53:
        raise TooManyBins(
            f"bin_width {bin_width!r} is too fine for the error range [{lo!r}, {hi!r}]: {n_bins:.3g} bins reaching "
            f"{reach:.3g} widths from 0 (at most {_MAX_BINS} bins, below 2**53 widths)"
        )
    first = math.floor(lo / bin_width)
    last = math.floor(hi / bin_width)
    edges = (first + np.arange(last - first + 2)) * bin_width
    counts, _ = np.histogram(values, bins=edges)
    density = counts / (values.size * bin_width)
    return Histogram(
        bin_width=float(bin_width),
        bin_edges=edges,
        density=density,
        counts=counts,
        fit_mean=float(np.mean(values)),
        fit_sd=float(np.std(values)),
    )


def percentile_of(value, population):
    """Percentile rank of ``value``: percent of the population strictly below it."""
    population = np.asarray(population, dtype=float)
    if population.size == 0:
        raise ValueError("population must be non-empty")
    return float(100.0 * np.count_nonzero(population < value) / population.size)


def first_differences(x):
    """Step-to-step differences d(t) = x(t+1) - x(t) of a path."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] < 2:
        raise ValueError("need at least 2 steps")
    return np.diff(x, axis=-1)


def _pearson(x, y):
    """Pearson r over the last axis of equal-shape arrays, and the mask of zero-variance rows (r NaN there).

    Every reduction runs along the last axis, so a row of a C-contiguous
    array is summed pairwise exactly as the 1-d sequence alone would be and
    gets the same bits.  A constant row, a one-point row too, is degenerate,
    and so is a row whose squared deviations all underflow to 0.
    """
    dx = x - np.mean(x, axis=-1, keepdims=True)
    dy = y - np.mean(y, axis=-1, keepdims=True)
    sxx = np.sum(dx * dx, axis=-1)
    syy = np.sum(dy * dy, axis=-1)
    # the mean of a constant row can miss the constant by a rounding, which leaves sxx > 0
    constant = (np.ptp(x, axis=-1) == 0.0) | (np.ptp(y, axis=-1) == 0.0)
    degenerate = constant | (sxx == 0.0) | (syy == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.sum(dx * dy, axis=-1) / (np.sqrt(sxx) * np.sqrt(syy))
    return np.where(degenerate, np.nan, r), degenerate


def _shape_ratios(target, initial, aggregated):
    """``(r_initial, r_aggregated, c_ratio, perfect, degenerate)`` of channel paths ``(..., T)``, per path.

    The r values correlate the first-order differences of each prediction with
    the target's; ``c_ratio`` = (1 - r_initial) / (1 - r_aggregated), +inf
    (``perfect``) when r_aggregated is 1 within ``SHAPE_EPS``.  A channel whose
    difference sequences have zero variance is ``degenerate`` with NaN values.
    """
    if target.shape[-1] < 3:
        raise ValueError("need at least 3 steps for difference correlation")
    d_target = first_differences(target)
    r0, degenerate_initial = _pearson(first_differences(initial), d_target)
    rt, degenerate_aggregated = _pearson(first_differences(aggregated), d_target)
    degenerate = degenerate_initial | degenerate_aggregated
    r0, rt = np.where(degenerate, np.nan, r0), np.where(degenerate, np.nan, rt)
    perfect = 1.0 - rt < SHAPE_EPS  # False where rt is NaN
    with np.errstate(divide="ignore", invalid="ignore"):
        c_ratio = np.where(perfect, math.inf, (1.0 - r0) / (1.0 - rt))
    return r0, rt, c_ratio, perfect, degenerate


class ShapeReport(NamedTuple):
    """Per-sample, per-channel shape ratios and their dataset summary.

    Arrays are (M, 7) over channels :data:`CHANNEL_NAMES`.  Channels whose
    difference sequences had zero variance (``n_degenerate``) are NaN, and
    channels whose aggregated r is 1 (``n_perfect``) have a +inf ratio;
    both are left out of the summary statistics.
    """

    c_ratio: np.ndarray
    r_initial: np.ndarray
    r_aggregated: np.ndarray
    mean_c_ratio: float
    fraction_below_one: float
    n_perfect: int
    n_degenerate: int


def shape_report(target_paths, initial_paths, aggregated_paths) -> ShapeReport:
    """Shape ratios for every sample and channel of a dataset.

    Parameters
    ----------
    target_paths, initial_paths, aggregated_paths : ndarray, shape (M, T, 6)
        Stress paths; the von Mises channel is derived internally.
    """

    def channels(paths):  # (M, 7, T), C-contiguous: von Mises, then the six components
        paths = np.asarray(paths, dtype=float)
        out = np.empty((paths.shape[0], len(CHANNEL_NAMES), paths.shape[1]))
        out[:, 0] = von_mises(paths)
        out[:, 1:] = paths.transpose(0, 2, 1)
        return out

    r_init, r_aggr, c_ratio, perfect, degenerate = _shape_ratios(
        channels(target_paths), channels(initial_paths), channels(aggregated_paths)
    )
    usable = np.isfinite(c_ratio)
    if np.any(usable):
        mean_c = float(np.mean(c_ratio[usable]))
        frac_below = float(np.count_nonzero(c_ratio[usable] < 1.0) / np.count_nonzero(usable))
    else:
        mean_c = math.nan
        frac_below = math.nan
    return ShapeReport(
        c_ratio=c_ratio,
        r_initial=r_init,
        r_aggregated=r_aggr,
        mean_c_ratio=mean_c,
        fraction_below_one=frac_below,
        n_perfect=int(np.count_nonzero(perfect)),
        n_degenerate=int(np.count_nonzero(degenerate)),
    )


class UncertaintyReport(NamedTuple):
    """Dataset-averaged per-step spread and error curves plus their correlation.

    ``sd_curve`` and ``e_abs_curve`` cover every step; the relative curves
    are NaN at steps where any sample's aggregated von Mises fell below the
    division guard (``n_excluded`` counts them).  ``r_abs`` and
    ``r_rel`` are correlation coefficients over steps of (spread, error)
    pairs; a NaN value with the matching ``*_degenerate`` flag means a
    curve was constant or had fewer than two steps, and the coefficient is
    undefined.
    """

    sd_curve: np.ndarray
    e_abs_curve: np.ndarray
    e_rel_curve: np.ndarray
    sd_rel_curve: np.ndarray
    n_excluded: int
    r_abs: float
    r_rel: float
    r_abs_degenerate: bool = False
    r_rel_degenerate: bool = False


def uncertainty_curves(sd_paths, target_vm, aggregated_vm) -> UncertaintyReport:
    """Compare per-step prediction spread with per-step prediction error.

    Parameters
    ----------
    sd_paths : ndarray, shape (M, T)
        Per-sample, per-step spread of individual von Mises paths about the
        aggregated one.
    target_vm, aggregated_vm : ndarray, shape (M, T)
        Target and aggregated von Mises paths.

    The absolute curves average |target - aggregated| and the spread over
    samples at each step.  The relative curves divide both per sample by
    the aggregated von Mises value first; any step where that divisor is
    at or below ``EPS_DIV`` for some sample is excluded from the relative
    curves (NaN) and counted.  Raises :class:`AllStepsExcluded`, naming the
    rows at or below the guard at every step, if no step survives.  A
    coefficient over a constant curve or fewer than two steps is NaN, flagged.
    """
    sd_paths = np.atleast_2d(np.asarray(sd_paths, dtype=float))
    target_vm = np.atleast_2d(np.asarray(target_vm, dtype=float))
    aggregated_vm = np.atleast_2d(np.asarray(aggregated_vm, dtype=float))
    if not (sd_paths.shape == target_vm.shape == aggregated_vm.shape):
        raise ValueError("all inputs must share the (M, T) shape")

    e_abs = np.abs(target_vm - aggregated_vm)
    sd_curve = np.mean(sd_paths, axis=0)
    e_abs_curve = np.mean(e_abs, axis=0)

    included = np.all(aggregated_vm > EPS_DIV, axis=0)
    n_excluded = int(np.count_nonzero(~included))
    if not np.any(included):
        at_guard = ", ".join(map(str, np.flatnonzero(np.all(aggregated_vm <= EPS_DIV, axis=1)))) or "none"
        raise AllStepsExcluded("no step has all aggregated von Mises values above the guard; "
                               f"dataset rows at or below it at every step: {at_guard}")

    e_rel_curve = np.full(included.shape, np.nan)
    sd_rel_curve = np.full(included.shape, np.nan)
    safe = aggregated_vm[:, included]
    e_rel_curve[included] = np.mean(e_abs[:, included] / safe, axis=0)
    sd_rel_curve[included] = np.mean(sd_paths[:, included] / safe, axis=0)

    r_abs, abs_degen = _pearson(sd_curve, e_abs_curve)
    r_rel, rel_degen = _pearson(sd_rel_curve[included], e_rel_curve[included])
    return UncertaintyReport(
        sd_curve=sd_curve,
        e_abs_curve=e_abs_curve,
        e_rel_curve=e_rel_curve,
        sd_rel_curve=sd_rel_curve,
        n_excluded=n_excluded,
        r_abs=float(r_abs),
        r_rel=float(r_rel),
        r_abs_degenerate=bool(abs_degen),
        r_rel_degenerate=bool(rel_degen),
    )


def jsonable(value):
    """Recursively convert to JSON-safe builtins; non-finite floats become strings."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "biu" or (value.dtype.kind == "f" and np.all(np.isfinite(value))):
            return value.tolist()  # already builtins, every float finite
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (np.floating, float)):
        value = float(value)
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


class MetricsReport(NamedTuple):
    """Full evaluation bundle of one augmented-inference run over a dataset.

    ``mere_per_rotation`` and ``mare_per_rotation`` are ``(P,)`` arrays over
    rotation indices 0..N.  ``component_r`` correlates the spread with the
    absolute error pooled over every sample, step and tensor component (NaN
    with ``component_r_degenerate`` set when either is constant).  The field
    order, nested records' too, is the key order of :meth:`to_dict`.
    """

    n_samples: int
    n_steps: int
    n_rotations: int
    mere_per_rotation: np.ndarray
    mare_per_rotation: np.ndarray
    mere_av: float
    sd_mere: float
    mere_tta: float
    mare_tta: float
    mere_i0: float
    mare_i0: float
    mere_tta_percentile: float
    component_r: float
    component_r_degenerate: bool
    histogram: Histogram | None
    shape: ShapeReport
    uncertainty: UncertaintyReport

    def to_dict(self):
        """JSON-safe ``metrics.json``: every field in order, records as objects.

        Per-rotation arrays are objects keyed by rotation index, ``shape``
        opens with its ``channels`` names, and there is no ``histogram``
        key when N = 0.
        """
        d = self._asdict() | {
            "mere_per_rotation": dict(enumerate(self.mere_per_rotation.tolist())),
            "mare_per_rotation": dict(enumerate(self.mare_per_rotation.tolist())),
            "shape": {"channels": CHANNEL_NAMES} | self.shape._asdict(),
            "uncertainty": self.uncertainty._asdict(),
        }
        if self.histogram is None:
            del d["histogram"]
        else:
            d["histogram"] = self.histogram._asdict()
        return jsonable(d)

    def to_text(self):
        """Aligned-column human summary of the headline numbers."""
        rows = [
            ("samples", f"{self.n_samples}"),
            ("steps", f"{self.n_steps}"),
            ("rotations", f"{self.n_rotations}"),
            ("mere_i0", f"{self.mere_i0:.6f}"),
            ("mere_av", f"{self.mere_av:.6f}"),
            ("sd_mere", f"{self.sd_mere:.6f}"),
            ("mere_tta", f"{self.mere_tta:.6f}"),
            ("mere_tta_pctile", f"{self.mere_tta_percentile:.2f}"),
            ("mare_i0", f"{self.mare_i0:.6f}"),
            ("mare_tta", f"{self.mare_tta:.6f}"),
            ("mean_c_ratio", f"{self.shape.mean_c_ratio:.4f}"),
            ("c_ratio_below_1", f"{self.shape.fraction_below_one:.4f}"),
            ("r_abs", f"{self.uncertainty.r_abs:.4f}"),
            ("r_rel", f"{self.uncertainty.r_rel:.4f}"),
            ("excluded_steps", f"{self.uncertainty.n_excluded}"),
            ("component_r", f"{self.component_r:.4f}"),
        ]
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


def evaluate_dataset(
    target_paths,
    result,
    mare_abs=False,
    bin_width=DEFAULT_BIN_WIDTH,
) -> MetricsReport:
    """Evaluate the augmented-inference result of a whole dataset.

    Parameters
    ----------
    target_paths : ndarray, shape (M, T, 6)
        Target stress paths, one per sample.
    result : TTAResult
        The dataset's result, sample axis first; its ``initial`` is the
        prediction at rotation index 0.
    mare_abs : bool
        Take the absolute instead of the signed per-step difference in the
        maximum-relative-error family.
    bin_width : float or None
        Bin width of the per-rotation error histogram; ``None`` builds none,
        as N = 0 does.
    """
    target_paths = np.asarray(target_paths, dtype=float)
    if target_paths.ndim != 3 or target_paths.shape[-1] != 6:
        raise ValueError(f"expected target paths of shape (M, T, 6), got {target_paths.shape}")
    if target_paths.shape[0] == 0:
        raise ValueError("empty dataset")
    if result.aggregated.shape != target_paths.shape:
        raise ValueError(f"result of shape {result.aggregated.shape} for target paths of shape {target_paths.shape}")

    target_vm = von_mises(target_paths)
    mere_vec = mere(target_vm, result.vm_individual)  # (P,)
    mare_vec = mare(target_vm, result.vm_individual, absolute=mare_abs)
    n_pred = mere_vec.shape[0]

    av = mere_av(mere_vec)
    spread = sd_mere(mere_vec[1:], av) if n_pred > 1 else math.nan
    tta_mere = mere(target_vm, result.vm_aggregated)
    tta_mare = mare(target_vm, result.vm_aggregated, absolute=mare_abs)
    hist = mere_histogram(mere_vec, bin_width) if n_pred > 1 and bin_width is not None else None

    shape = shape_report(target_paths, result.initial, result.aggregated)
    uncertainty = uncertainty_curves(result.vm_sd, target_vm, result.vm_aggregated)
    comp_r, comp_degen = _pearson(result.sd.ravel(), np.abs(target_paths - result.aggregated).ravel())

    return MetricsReport(
        n_samples=int(target_paths.shape[0]),
        n_steps=int(target_paths.shape[1]),
        n_rotations=int(n_pred - 1),
        mere_per_rotation=mere_vec,
        mare_per_rotation=mare_vec,
        mere_av=av,
        sd_mere=spread,
        mere_tta=tta_mere,
        mare_tta=tta_mare,
        mere_i0=float(mere_vec[0]),
        mare_i0=float(mare_vec[0]),
        mere_tta_percentile=percentile_of(tta_mere, mere_vec),
        component_r=float(comp_r),
        component_r_degenerate=bool(comp_degen),
        histogram=hist,
        shape=shape,
        uncertainty=uncertainty,
    )
