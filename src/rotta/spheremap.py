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

import math
from typing import NamedTuple

import numpy as np

from .dataset import csv_text

DEFAULT_RADIUS = 2.0
DEFAULT_GRID = (720, 360)
THETA_TOL = 1e-12
MAX_NEWTON = 50
_POLE_EPS = 1e-9

_Z_AXIS = np.array([0.0, 0.0, 1.0])

# Elements per block of the nearest-seed search (tiles x seeds for the
# bounds, cells x candidates for the distances): bounds its temporaries,
# which would otherwise set the peak memory of a map.
_RASTER_CHUNK_ELEMENTS = 1 << 16
# Side of the square tiles of cells that share one candidate list.
_TILE = 8


class NonConvergence(RuntimeError):
    """The auxiliary-angle Newton iteration failed to meet tolerance."""


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

    Returns the (N, 3) table of seeds: columns ``x``, ``y`` in the
    projection plane and the rotation's ``value``.

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
    return np.column_stack((x, y, values))


class RasterMap(NamedTuple):
    """Nearest-seed raster of the projection ellipse.

    ``values`` is (height, width) with NaN outside the ellipse; ``inside``
    is the corresponding mask; ``x_centers`` / ``y_centers`` hold the cell
    center coordinates (y ascending).
    """

    values: np.ndarray
    inside: np.ndarray
    x_centers: np.ndarray
    y_centers: np.ndarray


def _cell_centers(n, lo, hi):
    step = (hi - lo) / n
    return lo + (np.arange(n) + 0.5) * step


def _squared_offsets(centers, coords):
    """(centers, seeds) table of ``(center - coord)**2``, squared in place."""
    d = np.subtract(centers[:, None], coords)
    return np.square(d, out=d)


def _tile_bounds(d2):
    """Per-tile (min, max) over the rows of a (tiles * _TILE, seeds) table."""
    tiles = d2.reshape(-1, _TILE, d2.shape[1])
    return tiles.min(axis=1), tiles.max(axis=1)


def _candidates(dx2, dy2, occupied):
    """Flat (tile, seed) pairs whose lower bound is within the tile's upper bound.

    Tiles are flat indices into the ``occupied`` tile grid, ascending, and
    seeds ascend within a tile; an unoccupied tile gets none.  Bounds are
    formed over blocks of at most ``_RASTER_CHUNK_ELEMENTS`` tile-seed
    pairs, except that a block holds at least one tile.
    """
    lo_x, hi_x = _tile_bounds(dx2)
    lo_y, hi_y = _tile_bounds(dy2)
    (tiles_y, tiles_x), n = occupied.shape, dx2.shape[1]
    span_x = min(tiles_x, max(1, _RASTER_CHUNK_ELEMENTS // n))
    span_y = max(1, _RASTER_CHUNK_ELEMENTS // (span_x * n))
    tiles, seeds = [], []
    for r0 in range(0, tiles_y, span_y):
        for c0 in range(0, tiles_x, span_x):
            rows, cols = slice(r0, r0 + span_y), slice(c0, c0 + span_x)
            upper = np.add(hi_x[cols], hi_y[rows, None]).min(axis=2)
            upper[~occupied[rows, cols]] = -np.inf
            tile, seed = np.divmod(np.flatnonzero(np.add(lo_x[cols], lo_y[rows, None]) <= upper[..., None]), n)
            r, c = np.divmod(tile, upper.shape[1])
            tiles.append((r + r0) * tiles_x + c + c0)
            seeds.append(seed)
    return np.concatenate(tiles), np.concatenate(seeds)


def _fill_tiles(nearest, dx2, dy2, tile, cand):
    """Write into ``nearest`` the nearest candidate seed of every cell of each tile.

    ``nearest`` is (tiles_y, _TILE, tiles_x, _TILE); ``tile`` and ``cand``
    are the pairs of :func:`_candidates`.  Tiles go in groups of similar
    candidate count, each list padded with its last seed: a repeat never
    wins argmin's first-occurrence tie.  A group's distance table holds at
    most ``_RASTER_CHUNK_ELEMENTS`` elements, or one tile.
    """
    tiles_x, n = nearest.shape[2], dx2.shape[1]
    counts = np.bincount(tile)
    first = np.cumsum(counts) - counts
    order = np.flatnonzero(counts)
    order = order[np.argsort(counts[order], kind="stable")]
    sizes = counts[order]
    cells = np.arange(_TILE)
    lo = 0
    while lo < order.size:
        k = int(sizes[lo])
        hi = min(int(np.searchsorted(sizes, 2 * k, side="right")),
                 lo + max(1, _RASTER_CHUNK_ELEMENTS // (_TILE * _TILE * 2 * k)))
        group = order[lo:hi]
        width = int(sizes[hi - 1])
        padded = cand[first[group, None] + np.minimum(np.arange(width), counts[group, None] - 1)]
        tr, tc = np.divmod(group, tiles_x)
        gx = np.take(dx2, ((tc[:, None] * _TILE + cells) * n)[:, :, None] + padded[:, None, :])
        gy = np.take(dy2, ((tr[:, None] * _TILE + cells) * n)[:, :, None] + padded[:, None, :])
        best = np.argmin(np.add(gx[:, None], gy[:, :, None]), axis=-1)  # (group, row, column)
        nearest[tr, :, tc, :] = np.take_along_axis(padded, best.reshape(group.size, -1), axis=1).reshape(best.shape)
        lo = hi


def _nearest_seeds(xc, yc, inside, sx, sy):
    """(height, width) index of the nearest seed of every cell (0 where no cell is inside a tile).

    A function of its own so that its tables are freed before the caller
    forms the values: together they would set the peak memory of a map.
    """
    width, height = xc.size, yc.size
    tiles_x, tiles_y = -(-width // _TILE), -(-height // _TILE)
    # the last column and row repeat up to whole tiles: a repeat changes no
    # tile's bounds, and the cells it fills are cut off at the end
    dx2 = _squared_offsets(xc[np.minimum(np.arange(tiles_x * _TILE), width - 1)], sx)
    dy2 = _squared_offsets(yc[np.minimum(np.arange(tiles_y * _TILE), height - 1)], sy)
    occupied = np.zeros((tiles_y * _TILE, tiles_x * _TILE), dtype=bool)
    occupied[:height, :width] = inside
    occupied = occupied.reshape(tiles_y, _TILE, tiles_x, _TILE).any(axis=(1, 3))
    nearest = np.zeros((tiles_y, _TILE, tiles_x, _TILE), dtype=np.intp)
    _fill_tiles(nearest, dx2, dy2, *_candidates(dx2, dy2, occupied))
    return nearest.reshape(tiles_y * _TILE, tiles_x * _TILE)[:height, :width]


def voronoi_rasterize(seeds, grid=DEFAULT_GRID, radius=DEFAULT_RADIUS):
    """Fill the projection ellipse with the value of the nearest seed.

    Parameters
    ----------
    seeds : array_like, shape (N, 3)
        Seeds of :func:`project_rotations`: rows of ``x``, ``y``, value.
    grid : (width, height)
        Cell counts across the ellipse's bounding box.

    Every cell gets the seed that an argmin of ``d2 = dx2 + dy2`` over all
    seeds gives, with ``dx2 = (x - sx)**2`` and ``dy2 = (y - sy)**2``, so
    exact ties go to the lowest seed index.  The one method is a tiled
    search: the grid is cut into square tiles of ``_TILE`` cells, and a
    tile compares its cells only with its candidate seeds.  Over a tile,
    ``min dx2 + min dy2`` is a lower bound on a seed's d2, and ``min over
    seeds of (max dx2 + max dy2)`` an upper bound on every cell's nearest
    d2.  Float addition rounds monotonically, so both bounds hold for the
    rounded d2 as well, and a seed whose lower bound exceeds the upper
    bound can be neither nearest nor tied.  The candidates are the other
    seeds, in ascending index, each with the same ``dx2 + dy2`` sum, so
    the argmin over them is the argmin over all seeds.  Memory: the
    ``dx2``/``dy2`` tables and their per-tile bounds, 1.25 x (width +
    height) x seeds floats (tiles rounded up), the (height, width)
    outputs, and blocks of about ``_RASTER_CHUNK_ELEMENTS`` elements.
    """
    seeds = np.asarray(seeds, dtype=float)
    if seeds.size == 0:
        raise ValueError("need at least one seed")
    if seeds.ndim != 2 or seeds.shape[1] != 3:
        raise ValueError(f"expected seeds of shape (N, 3), got {seeds.shape}")
    width, height = int(grid[0]), int(grid[1])
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be >= 1")
    half_x = 2.0 * math.sqrt(2.0) * radius
    half_y = math.sqrt(2.0) * radius
    xc = _cell_centers(width, -half_x, half_x)
    yc = _cell_centers(height, -half_y, half_y)
    inside = (xc / half_x) ** 2 + ((yc / half_y) ** 2)[:, None] <= 1.0

    sx, sy, seed_values = seeds.T
    if np.isnan(sx).any() or np.isnan(sy).any():
        raise ValueError("seed coordinates must not be NaN")
    values = seed_values[_nearest_seeds(xc, yc, inside, sx, sy)]
    values[~inside] = np.nan
    return RasterMap(values=values, inside=inside, x_centers=xc, y_centers=yc)


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
    """One merged <rect> per run of equal-colored inside cells per row, as one string of lines.

    ``codes`` holds the packed color of every cell and -1 outside the
    ellipse; ``cell``, ``x0`` and ``y0`` are ints.  Every rect is formatted
    by one ``%`` over a flat tuple of ints, which writes an int as ``str``
    does.
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
    fields = np.stack([x0 + cols * cell, y0 + (height - 1 - rows) * cell, lengths[keep] * cell, colors[keep]], axis=1)
    rect = f'<rect x="%d" y="%d" width="%d" height="{cell}" fill="#%06x"/>'
    return "\n".join([rect] * len(fields)) % tuple(fields.ravel().tolist())


def render_svg(raster, colormap="viridis"):
    """SVG document (string) of the raster with title, colorbar and ellipse outline.

    Cell colors come from the named colormap scaled over the raster's value
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
    img_h = height * cell + 2 * margin + 24
    x0 = margin
    y0 = margin + 24

    vmin = float(np.nanmin(raster.values))
    vmax = float(np.nanmax(raster.values))
    span = vmax - vmin
    norm = np.zeros_like(raster.values) if span == 0.0 else (raster.values - vmin) / span
    codes = np.where(raster.inside, _rgb_codes(colormap, np.nan_to_num(norm)), -1)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{img_w}" height="{img_h}" '
        f'viewBox="0 0 {img_w} {img_h}">',
        f'<rect x="0" y="0" width="{img_w}" height="{img_h}" fill="white"/>',
        f'<text x="{margin}" y="{margin + 12}" font-family="sans-serif" '
        'font-size="14">per-rotation mean relative error</text>',
    ]
    rects = _svg_rows(codes, cell, x0, y0)
    if rects:
        parts.append(rects)

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
    """CSV text of the (N, 3) seed table of :func:`project_rotations`, header ``x,y,mere``."""
    return csv_text("x,y,mere", np.asarray(seeds, dtype=float).reshape(-1, 3))

