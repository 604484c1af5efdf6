"""Spherical error maps: place per-rotation error values on the unit sphere,
flatten with an equal-area elliptical projection, and rasterize by
nearest-seed (Voronoi) lookup for export as SVG + CSV.

Each rotation is turned into a direction by applying it to [0, 0, 1]; the
direction's latitude/longitude feed the projection x = R(2*sqrt(2)/pi) *
lambda * cos(theta), y = R*sqrt(2) * sin(theta) with the auxiliary angle
theta solved from 2*theta + sin(2*theta) = pi*sin(phi) by Newton iteration.
Longitude uses the two-argument arctangent (the quadrant-ambiguous
single-argument form cannot cover the full sphere).  Distances for the
nearest-seed fill are measured in the projection plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import format_float

DEFAULT_RADIUS = 2.0
DEFAULT_GRID = (720, 360)
THETA_TOL = 1e-12
MAX_NEWTON = 50
_POLE_EPS = 1e-9

_Z_AXIS = np.array([0.0, 0.0, 1.0])

# Cells x seeds per block of the nearest-seed search: bounds the distance
# table (two float64 buffers of this size), which would otherwise set the
# peak memory of a map.
_RASTER_CHUNK_ELEMENTS = 1 << 16


class NonConvergence(RuntimeError):
    """The auxiliary-angle Newton iteration failed to meet tolerance."""


@dataclass(frozen=True)
class ProjectedPoint:
    """A seed in the projection plane carrying an error value."""

    x: float
    y: float
    value: float


def solve_theta(lat):
    """Auxiliary projection angle theta for latitude(s) ``lat``.

    Solves 2*theta + sin(2*theta) = pi*sin(lat) by Newton iteration from
    theta = lat, clamped to [-pi/2, pi/2], to residual <= 1e-12 within 50
    steps.  Latitudes within 1e-9 of a pole short-circuit to +-pi/2 (the
    derivative vanishes there and the residual is already far below
    tolerance).  Accepts scalars or arrays.
    """
    lat_arr = np.atleast_1d(np.asarray(lat, dtype=float))
    if np.any(np.abs(lat_arr) > math.pi / 2 + 1e-12):
        raise ValueError("latitude outside [-pi/2, pi/2]")
    theta = np.clip(lat_arr, -math.pi / 2, math.pi / 2).copy()
    pole = np.abs(np.abs(lat_arr) - math.pi / 2) <= _POLE_EPS
    theta[pole] = np.sign(lat_arr[pole]) * (math.pi / 2)
    rhs = math.pi * np.sin(lat_arr)
    residual = 2.0 * theta + np.sin(2.0 * theta) - rhs
    active = (np.abs(residual) > THETA_TOL) & ~pole
    for _ in range(MAX_NEWTON):
        if not np.any(active):
            break
        t = theta[active]
        f = 2.0 * t + np.sin(2.0 * t) - rhs[active]
        deriv = 2.0 + 2.0 * np.cos(2.0 * t)
        t = t - f / np.where(deriv == 0.0, 1.0, deriv)
        theta[active] = np.clip(t, -math.pi / 2, math.pi / 2)
        residual[active] = 2.0 * theta[active] + np.sin(2.0 * theta[active]) - rhs[active]
        active[active] = np.abs(residual[active]) > THETA_TOL
    if np.any(active):
        raise NonConvergence(
            f"{np.count_nonzero(active)} latitude(s) above residual tolerance after {MAX_NEWTON} steps"
        )
    return theta if np.ndim(lat) else float(theta[0])


def mollweide_project(lat, lon, radius=DEFAULT_RADIUS):
    """Equal-area elliptical projection of latitude/longitude to the plane.

    x = R * (2*sqrt(2)/pi) * lon * cos(theta), y = R * sqrt(2) * sin(theta).
    The map is the interior of an ellipse with semi-axes 2*sqrt(2)*R by
    sqrt(2)*R.  Accepts scalars or same-shape arrays.
    """
    theta = solve_theta(lat)
    theta_arr = np.asarray(theta, dtype=float)
    x = radius * (2.0 * math.sqrt(2.0) / math.pi) * np.asarray(lon, dtype=float) * np.cos(theta_arr)
    y = radius * math.sqrt(2.0) * np.sin(theta_arr)
    if np.ndim(lat) or np.ndim(lon):
        return x, y
    return float(x), float(y)


def project_rotations(rotations, values, radius=DEFAULT_RADIUS):
    """Projected seeds of an (N, 3, 3) rotation stack with one value per rotation.

    Each seed has the bits of projecting its rotation alone: directions come
    from the batched product ``rotations @ [0, 0, 1]`` (a column slice can
    flip the sign of a zero, which atan2 turns from pi into -pi), and norms,
    latitudes and longitudes from the scalar ``np.linalg.norm``, ``math.asin``
    and ``math.atan2`` (their array forms differ in the last bits on some CPUs).
    Longitude is 0 at the poles, where it is undefined.
    """
    rotations = np.asarray(rotations, dtype=float)
    values = np.asarray(values, dtype=float)
    if rotations.ndim != 3 or rotations.shape[1:] != (3, 3):
        raise ValueError(f"expected rotations of shape (N, 3, 3), got {rotations.shape}")
    if values.shape != rotations.shape[:1]:
        raise ValueError("one value per rotation required")
    xyz = rotations @ _Z_AXIS
    norms = np.array([np.linalg.norm(v) for v in xyz])
    if np.any(norms == 0.0):
        raise ValueError("zero vector has no direction")
    off = np.flatnonzero(~(np.abs(norms - 1.0) <= 1e-12))
    if off.size:
        raise ValueError(f"rotation {off[0]} does not send +z to a unit vector, |v| = {norms[off[0]]}")
    lat = np.array(list(map(math.asin, np.clip(xyz[:, 2] / norms, -1.0, 1.0).tolist())))
    lon = np.array(list(map(math.atan2, xyz[:, 1].tolist(), xyz[:, 0].tolist())))
    lon[(xyz[:, 0] == 0.0) & (xyz[:, 1] == 0.0)] = 0.0
    x, y = mollweide_project(lat, lon, radius)
    return [ProjectedPoint(*p) for p in zip(x.tolist(), y.tolist(), values.tolist())]


@dataclass(frozen=True)
class RasterMap:
    """Nearest-seed raster of the projection ellipse.

    ``values`` is (height, width) with NaN outside the ellipse; ``inside``
    is the corresponding mask; ``x_centers`` / ``y_centers`` hold the cell
    center coordinates (y ascending).
    """

    values: np.ndarray
    inside: np.ndarray
    x_centers: np.ndarray
    y_centers: np.ndarray
    radius: float


def _cell_centers(n, lo, hi):
    step = (hi - lo) / n
    return lo + (np.arange(n) + 0.5) * step


def voronoi_rasterize(seeds, grid=DEFAULT_GRID, radius=DEFAULT_RADIUS):
    """Fill the projection ellipse with the value of the nearest seed.

    Parameters
    ----------
    seeds : sequence of ProjectedPoint
    grid : (width, height)
        Cell counts across the ellipse's bounding box.

    Every cell is compared with every seed; exact distance ties go to the
    lowest seed index.
    """
    if len(seeds) == 0:
        raise ValueError("need at least one seed")
    width, height = int(grid[0]), int(grid[1])
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be >= 1")
    half_x = 2.0 * math.sqrt(2.0) * radius
    half_y = math.sqrt(2.0) * radius
    xc = _cell_centers(width, -half_x, half_x)
    yc = _cell_centers(height, -half_y, half_y)
    gx, gy = np.meshgrid(xc, yc)
    inside = (gx / half_x) ** 2 + (gy / half_y) ** 2 <= 1.0

    sx = np.array([s.x for s in seeds])
    sy = np.array([s.y for s in seeds])
    sv = np.array([s.value for s in seeds])

    values = np.full((height, width), np.nan)
    px = gx[inside]
    py = gy[inside]
    idx = np.empty(px.shape[0], dtype=np.intp)
    chunk = max(1, _RASTER_CHUNK_ELEMENTS // sx.size)
    d2 = np.empty((min(chunk, px.shape[0]), sx.size))
    dy2 = np.empty_like(d2)
    for start in range(0, px.shape[0], chunk):
        stop = min(start + chunk, px.shape[0])
        d, e = d2[:stop - start], dy2[:stop - start]
        # d2 = (px - sx)**2 + (py - sy)**2, computed in place
        np.square(np.subtract(px[start:stop, None], sx, out=d), out=d)
        np.square(np.subtract(py[start:stop, None], sy, out=e), out=e)
        idx[start:stop] = np.argmin(np.add(d, e, out=d), axis=1)
    values[inside] = sv[idx]
    return RasterMap(values=values, inside=inside, x_centers=xc, y_centers=yc, radius=radius)


_VIRIDIS = np.array([
    (0.267004, 0.004874, 0.329415),
    (0.277018, 0.050344, 0.375715),
    (0.282327, 0.094955, 0.417331),
    (0.282884, 0.135920, 0.453427),
    (0.278826, 0.175490, 0.483397),
    (0.270595, 0.214069, 0.507052),
    (0.258965, 0.251537, 0.524736),
    (0.244972, 0.287675, 0.537260),
    (0.229739, 0.322361, 0.545706),
    (0.214298, 0.355619, 0.551184),
    (0.199430, 0.387607, 0.554642),
    (0.185556, 0.418570, 0.556753),
    (0.172719, 0.448791, 0.557885),
    (0.160665, 0.478540, 0.558115),
    (0.149039, 0.508051, 0.557250),
    (0.137770, 0.537492, 0.554906),
    (0.127568, 0.566949, 0.550556),
    (0.120565, 0.596422, 0.543611),
    (0.120638, 0.625828, 0.533488),
    (0.132268, 0.655014, 0.519661),
    (0.157851, 0.683765, 0.501686),
    (0.196571, 0.711827, 0.479221),
    (0.246070, 0.738910, 0.452024),
    (0.304148, 0.764704, 0.419943),
    (0.369214, 0.788888, 0.382914),
    (0.440137, 0.811138, 0.340967),
    (0.515992, 0.831158, 0.294279),
    (0.595839, 0.848717, 0.243329),
    (0.678489, 0.863742, 0.189503),
    (0.762373, 0.876424, 0.137064),
    (0.845561, 0.887322, 0.099702),
    (0.926106, 0.897330, 0.104071),
    (0.993248, 0.906157, 0.143936),
])

_GRAY = np.array([(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)])

COLORMAPS = {"viridis": _VIRIDIS, "gray": _GRAY}


def _colormap_rgb(name, t):
    """Linear interpolation through the anchor table of colormap ``name``."""
    table = COLORMAPS.get(name)
    if table is None:
        raise ValueError(f"unknown colormap {name!r} (have {sorted(COLORMAPS)})")
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    pos = t * (table.shape[0] - 1)
    lo = np.floor(pos).astype(int)
    hi = np.minimum(lo + 1, table.shape[0] - 1)
    frac = (pos - lo)[..., None]
    return table[lo] * (1.0 - frac) + table[hi] * frac


def _rgb_codes(name, t):
    """Colors of ``t`` as packed 0xRRGGBB ints (``np.rint`` rounds half to even, as ``round`` does)."""
    q = np.rint(255 * _colormap_rgb(name, t)).astype(np.int64)
    return (q[..., 0] << 16) | (q[..., 1] << 8) | q[..., 2]


def _svg_rows(codes, cell, x0, y0):
    """One merged <rect> per run of equal-colored inside cells per row.

    ``codes`` holds the packed color of every cell and -1 outside the ellipse.
    """
    height, width = codes.shape
    change = np.ones(codes.shape, dtype=bool)
    change[:, 1:] = codes[:, 1:] != codes[:, :-1]
    starts = np.flatnonzero(change)
    # every row opens with a run, so a run ends where the next one starts
    lengths = np.diff(starts, append=codes.size)
    colors = codes.ravel()[starts]
    keep = colors >= 0
    rows, cols = np.divmod(starts[keep], width)
    # SVG y grows downward; raster row 0 is the lowest y
    tops = y0 + (height - 1 - rows) * cell
    return [
        f'<rect x="{x0 + col * cell}" y="{top}" width="{n * cell}" height="{cell}" fill="#{c:06x}"/>'
        for col, top, n, c in zip(cols.tolist(), tops.tolist(), lengths[keep].tolist(), colors[keep].tolist())
    ]


def render_svg(raster, seeds, colormap="viridis", title=None):
    """SVG document (string) of the raster with colorbar and ellipse outline.

    Cell colors come from the named colormap scaled over the seed value
    range; outside-ellipse cells are left unpainted, marked only by the
    ellipse outline.  Output bytes depend only on the inputs.
    """
    height, width = raster.values.shape
    cell = 1
    margin = 10
    bar_w = 18
    bar_gap = 30
    label_w = 70
    img_w = width * cell + 2 * margin + bar_gap + bar_w + label_w
    img_h = height * cell + 2 * margin + (24 if title else 0)
    x0 = margin
    y0 = margin + (24 if title else 0)

    vmin = float(np.nanmin(raster.values))
    vmax = float(np.nanmax(raster.values))
    span = vmax - vmin
    norm = np.zeros_like(raster.values) if span == 0.0 else (raster.values - vmin) / span
    codes = np.where(raster.inside, _rgb_codes(colormap, np.nan_to_num(norm)), -1)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{img_w}" height="{img_h}" '
        f'viewBox="0 0 {img_w} {img_h}">',
        f'<rect x="0" y="0" width="{img_w}" height="{img_h}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{margin}" y="{margin + 12}" font-family="sans-serif" '
            f'font-size="14">{title}</text>'
        )
    parts.extend(_svg_rows(codes, cell, x0, y0))

    # ellipse outline marks the map boundary; everything beyond it is empty
    cx = x0 + width * cell / 2
    cy = y0 + height * cell / 2
    parts.append(
        f'<ellipse cx="{cx}" cy="{cy}" rx="{width * cell / 2}" ry="{height * cell / 2}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )

    bar_x = x0 + width * cell + bar_gap
    bar_h = height * cell
    n_slices = 64
    bar_codes = _rgb_codes(colormap, (np.arange(n_slices) + 0.5) / n_slices).tolist()
    for i, color in enumerate(bar_codes):
        slice_h = bar_h / n_slices
        sy = y0 + bar_h - (i + 1) * slice_h
        parts.append(
            f'<rect x="{bar_x}" y="{sy}" width="{bar_w}" height="{slice_h}" fill="#{color:06x}"/>'
        )
    parts.append(
        f'<rect x="{bar_x}" y="{y0}" width="{bar_w}" height="{bar_h}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )
    for frac, value in ((0.0, vmax), (0.5, vmin + 0.5 * span), (1.0, vmin)):
        ty = y0 + frac * bar_h + 4
        parts.append(
            f'<text x="{bar_x + bar_w + 6}" y="{ty}" font-family="sans-serif" '
            f'font-size="11">{value:.6g}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def seeds_csv(seeds):
    """CSV text of the projected seeds, header ``x,y,mere``."""
    lines = ["x,y,mere"]
    for s in seeds:
        lines.append(f"{format_float(s.x)},{format_float(s.y)},{format_float(s.value)}")
    return "\n".join(lines) + "\n"

