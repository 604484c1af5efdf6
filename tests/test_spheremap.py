"""Tests of the spherical projection, rasterization, and SVG rendering."""

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.spatial.transform import Rotation

import rotta.spheremap as spheremap
from rotta.rotations import RotationStream, rotation_list, sample_rotations
from rotta.spheremap import (
    COLORMAPS,
    NonConvergence,
    RasterMap,
    mollweide_project,
    project_rotations,
    render_svg,
    seeds_csv,
    solve_theta,
    voronoi_rasterize,
)

SQRT2 = math.sqrt(2.0)


# ------------------------------------------- per-point rotation -> lat / lon
#
# One rotation at a time, in scalar arithmetic: the oracle that
# project_rotations is compared against below.


def _rotation_to_sphere(r):
    """Direction of a rotation: where it sends the +z axis."""
    return np.asarray(r, dtype=float) @ np.array([0.0, 0.0, 1.0])


def _cart_to_latlon(xyz):
    """Latitude asin(z / |v|) and longitude atan2(y, x) of a direction; longitude 0 at the poles."""
    xyz = np.asarray(xyz, dtype=float)
    n = np.linalg.norm(xyz)
    if n == 0.0:
        raise ValueError("zero vector has no direction")
    lat = math.asin(min(1.0, max(-1.0, xyz[2] / n)))
    if xyz[0] == 0.0 and xyz[1] == 0.0:
        return lat, 0.0
    return lat, math.atan2(xyz[1], xyz[0])


def test_rotation_to_sphere_identity():
    assert_allclose(_rotation_to_sphere(np.eye(3)), [0.0, 0.0, 1.0], rtol=0, atol=0)


def test_rotation_to_sphere_quarter_turn_about_x():
    # rotating e3 by +90 degrees about x sends it to -e2
    r = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    assert_allclose(_rotation_to_sphere(r), [0.0, -1.0, 0.0], atol=1e-15)


def test_rotation_to_sphere_unit_norm():
    stream = RotationStream(11)
    for r in sample_rotations(stream, 40):
        xyz = _rotation_to_sphere(r)
        assert abs(np.dot(xyz, xyz) - 1.0) <= 1e-12


def test_cart_to_latlon_axes():
    assert _cart_to_latlon([1.0, 0.0, 0.0]) == (0.0, 0.0)
    lat, lon = _cart_to_latlon([0.0, 1.0, 0.0])
    assert lat == pytest.approx(0.0, abs=1e-15)
    assert lon == pytest.approx(math.pi / 2.0, abs=1e-15)
    lat, lon = _cart_to_latlon([0.0, 0.0, 1.0])
    assert lat == pytest.approx(math.pi / 2.0, abs=1e-15)
    assert lon == 0.0  # poles carry no longitude


def test_cart_to_latlon_negative_x_axis():
    lat, lon = _cart_to_latlon([-1.0, 0.0, 0.0])
    assert lat == pytest.approx(0.0, abs=1e-15)
    assert abs(lon) == pytest.approx(math.pi, abs=1e-15)


def test_cart_to_latlon_round_trip():
    rng = np.random.default_rng(12)
    for _ in range(50):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        lat, lon = _cart_to_latlon(v)
        back = [
            math.cos(lat) * math.cos(lon),
            math.cos(lat) * math.sin(lon),
            math.sin(lat),
        ]
        assert_allclose(back, v, atol=1e-12)


def test_cart_to_latlon_rejects_zero_vector():
    with pytest.raises(ValueError):
        _cart_to_latlon([0.0, 0.0, 0.0])


# --------------------------------------------------------------- theta


def test_solve_theta_fixed_points():
    assert solve_theta(0.0) == 0.0
    assert solve_theta(math.pi / 2.0) == pytest.approx(math.pi / 2.0, abs=1e-15)
    assert solve_theta(-math.pi / 2.0) == pytest.approx(-math.pi / 2.0, abs=1e-15)


def test_solve_theta_residuals():
    lats = np.linspace(-math.pi / 2.0, math.pi / 2.0, 1001)
    theta = solve_theta(lats)
    residual = 2.0 * theta + np.sin(2.0 * theta) - math.pi * np.sin(lats)
    assert np.max(np.abs(residual)) <= 1e-12


def test_solve_theta_odd_symmetry():
    lat = 0.7
    assert solve_theta(-lat) == pytest.approx(-solve_theta(lat), abs=1e-15)


def test_solve_theta_out_of_range():
    with pytest.raises(ValueError):
        solve_theta(2.0)
    assert issubclass(NonConvergence, RuntimeError)


# ------------------------------------------------------------ projection


def test_mollweide_center():
    x, y = mollweide_project(0.0, 0.0, radius=2.0)
    assert x == 0.0 and y == 0.0


def test_mollweide_north_pole():
    x, y = mollweide_project(math.pi / 2.0, 0.0, radius=2.0)
    assert x == pytest.approx(0.0, abs=1e-12)
    assert y == pytest.approx(2.0 * SQRT2, abs=1e-12)


def test_mollweide_equator_edge():
    # at the equator theta = 0, so x = R * (2 sqrt(2) / pi) * lon
    x, y = mollweide_project(0.0, math.pi, radius=2.0)
    assert x == pytest.approx(4.0 * SQRT2, abs=1e-12)
    assert y == pytest.approx(0.0, abs=1e-12)


def test_mollweide_arrays_and_bounds():
    rng = np.random.default_rng(13)
    lat = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=200)
    lon = rng.uniform(-math.pi, math.pi, size=200)
    x, y = mollweide_project(lat, lon, radius=2.0)
    assert x.shape == (200,)
    # all points fall inside the bounding ellipse
    assert np.all((x / (4.0 * SQRT2)) ** 2 + (y / (2.0 * SQRT2)) ** 2 <= 1.0 + 1e-12)


def test_project_rotations():
    stream = RotationStream(14)
    rotations = [np.eye(3)] + list(sample_rotations(stream, 9))
    values = np.linspace(0.0, 1.0, 10)
    seeds = project_rotations(rotations, values, radius=2.0)
    assert seeds.shape == (10, 3)
    assert seeds[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert seeds[0, 1] == pytest.approx(2.0 * SQRT2, abs=1e-12)
    assert_allclose(seeds[:, 2], values, rtol=0, atol=0)
    with pytest.raises(ValueError):
        project_rotations(rotations, values[:-1])
    with pytest.raises(ValueError):
        project_rotations(np.eye(3), [0.0])
    with pytest.raises(ValueError):
        project_rotations(np.zeros((1, 3, 4)), [0.0])
    with pytest.raises(ValueError, match="unit"):
        project_rotations([np.eye(3), 2.0 * np.eye(3)], [0.0, 1.0])
    with pytest.raises(ValueError, match="unit"):
        project_rotations(np.full((1, 3, 3), np.nan), [0.0])
    with pytest.raises(ValueError, match="zero vector"):
        project_rotations(np.zeros((1, 3, 3)), [0.0])


# ---------------------------------------------------------- rasterization


def test_voronoi_single_seed_fills_ellipse():
    seeds = [(0.0, 0.0, 0.7)]
    raster = voronoi_rasterize(seeds, grid=(40, 20), radius=2.0)
    inside = raster.inside
    assert inside.any() and not inside.all()
    assert np.all(raster.values[inside] == 0.7)
    assert np.all(np.isnan(raster.values[~inside]))


def test_voronoi_two_seeds_split_by_bisector():
    seeds = [(-1.0, 0.0, 10.0), (1.0, 0.0, 20.0)]
    raster = voronoi_rasterize(seeds, grid=(64, 32), radius=2.0)
    xg, _ = np.meshgrid(raster.x_centers, raster.y_centers)
    inside = raster.inside
    assert np.all(raster.values[inside & (xg < 0.0)] == 10.0)
    assert np.all(raster.values[inside & (xg > 0.0)] == 20.0)


def _brute_force_oracle(seeds, raster):
    """Plain python nearest-seed assignment over the raster grid."""
    values = np.full(raster.values.shape, np.nan)
    for j, yc in enumerate(raster.y_centers):
        for i, xc in enumerate(raster.x_centers):
            if not raster.inside[j, i]:
                continue
            best, best_d = 0, math.inf
            for k, (sx, sy, _) in enumerate(seeds):
                d = (xc - sx) ** 2 + (yc - sy) ** 2
                if d < best_d:
                    best, best_d = k, d
            values[j, i] = seeds[best][2]
    return values


def test_voronoi_matches_python_oracle():
    stream = RotationStream(15)
    rotations = list(sample_rotations(stream, 12))
    values = np.arange(12, dtype=float)
    seeds = project_rotations(rotations, values, radius=2.0)
    raster = voronoi_rasterize(seeds, grid=(48, 24), radius=2.0)
    expected = _brute_force_oracle(seeds, raster)
    assert np.array_equal(np.isnan(raster.values), np.isnan(expected))
    assert np.array_equal(raster.values[raster.inside], expected[raster.inside])


def test_voronoi_duplicate_seed_tie_goes_to_lowest_index():
    seeds = [(0.5, 0.5, 1.0), (0.5, 0.5, 2.0)]
    raster = voronoi_rasterize(seeds, grid=(32, 16), radius=2.0)
    assert np.all(raster.values[raster.inside] == 1.0)


def test_voronoi_input_validation():
    seeds = [(0.0, 0.0, 1.0)]
    with pytest.raises(ValueError):
        voronoi_rasterize([])
    with pytest.raises(ValueError):
        voronoi_rasterize(seeds, grid=(0, 10))
    with pytest.raises(ValueError, match="NaN"):
        voronoi_rasterize(seeds + [(0.5, math.nan, 2.0)])
    with pytest.raises(ValueError, match="shape"):
        voronoi_rasterize([(0.0, 0.0)])


def test_raster_cell_centers():
    raster = voronoi_rasterize([(0.0, 0.0, 1.0)], grid=(10, 4), radius=2.0)
    half_w, half_h = 4.0 * SQRT2, 2.0 * SQRT2
    step_x = 2.0 * half_w / 10
    step_y = 2.0 * half_h / 4
    assert raster.x_centers[0] == pytest.approx(-half_w + 0.5 * step_x, abs=1e-12)
    assert raster.y_centers[-1] == pytest.approx(half_h - 0.5 * step_y, abs=1e-12)
    assert_allclose(np.diff(raster.x_centers), step_x, atol=1e-12)


# ------------------------------------------------------------- rendering


def _small_raster(n=16):
    stream = RotationStream(16)
    rotations = list(sample_rotations(stream, n))
    values = np.linspace(0.01, 0.05, n)
    seeds = project_rotations(rotations, values, radius=2.0)
    return voronoi_rasterize(seeds, grid=(60, 30), radius=2.0)


def test_render_svg_deterministic_document():
    raster = _small_raster()
    svg1 = render_svg(raster)
    svg2 = render_svg(raster)
    assert svg1 == svg2
    assert svg1.startswith("<svg")
    assert svg1.endswith("</svg>\n")
    assert "<ellipse" in svg1
    assert 'fill="white"' in svg1
    assert ">per-rotation mean relative error</text>" in svg1


def test_render_svg_constant_field_uses_low_end_color():
    seeds = [(0.0, 0.0, 0.5)]
    raster = voronoi_rasterize(seeds, grid=(24, 12), radius=2.0)
    svg = render_svg(raster)
    # a constant field maps every cell to the first color table entry
    assert "#440154" in svg


def test_render_svg_gray_colormap():
    raster = _small_raster(6)
    svg = render_svg(raster, colormap="gray")
    assert svg.endswith("</svg>\n")
    with pytest.raises(ValueError):
        render_svg(raster, colormap="jet")


def test_colormap_table_shapes():
    assert COLORMAPS["viridis"].shape == (33, 3)
    assert COLORMAPS["gray"].shape == (2, 3)
    assert_allclose(COLORMAPS["viridis"][0], [0.267004, 0.004874, 0.329415], atol=1e-9)


def test_seeds_csv_layout():
    seeds = [(0.0, 0.0, 0.25), (1.5, -0.5, 0.75)]
    text = seeds_csv(seeds)
    lines = text.splitlines()
    assert lines[0] == "x,y,mere"
    assert lines[1] == "0.0,0.0,0.25"
    assert lines[2] == "1.5,-0.5,0.75"
    assert len(lines) == 3


# ------------------------------------------------- scipy cross-validation


def test_rotation_to_sphere_matches_scipy_apply():
    rng = np.random.default_rng(17)
    for _ in range(20):
        r = Rotation.random(random_state=rng).as_matrix()
        assert_allclose(_rotation_to_sphere(r), r @ np.array([0.0, 0.0, 1.0]), atol=1e-14)


# ------------------------------------- array paths against per-point oracles
#
# The oracles are the per-point implementations the array code replaced. The
# array code must reproduce their bits exactly: map.svg and map_seeds.csv are
# hashed into run manifests.


def _project_rotations_oracle(rotations, values, radius=2.0):
    """One direction, one scalar latitude/longitude and one Newton solve per seed."""
    seeds = []
    for r, v in zip(np.asarray(rotations, dtype=float), np.asarray(values, dtype=float)):
        lat, lon = _cart_to_latlon(_rotation_to_sphere(r))
        x, y = mollweide_project(lat, lon, radius)
        seeds.append((x, y, float(v)))
    return seeds


def _hex_color(rgb):
    r, g, b = (int(round(255 * c)) for c in rgb)
    return f"#{r:02x}{g:02x}{b:02x}"


def _svg_rows_oracle(raster, colors_hex, cell, x0, y0):
    height, width = raster.values.shape
    parts = []
    for row in range(height):
        top = y0 + (height - 1 - row) * cell
        col = 0
        while col < width:
            if not raster.inside[row, col]:
                col += 1
                continue
            color = colors_hex[row][col]
            run = col
            while run < width and raster.inside[row, run] and colors_hex[row][run] == color:
                run += 1
            parts.append(
                f'<rect x="{x0 + col * cell}" y="{top}" width="{(run - col) * cell}" '
                f'height="{cell}" fill="{color}"/>'
            )
            col = run
    return parts


def _render_svg_oracle(raster, colormap="viridis"):
    """Per-cell hex colors and run merging in Python."""
    height, width = raster.values.shape
    cell, margin, bar_w, bar_gap, label_w = 1, 10, 18, 30, 70
    img_w = width * cell + 2 * margin + bar_gap + bar_w + label_w
    img_h = height * cell + 2 * margin + 24
    x0 = margin
    y0 = margin + 24

    vmin = float(np.nanmin(raster.values))
    vmax = float(np.nanmax(raster.values))
    span = vmax - vmin
    norm = np.zeros_like(raster.values) if span == 0.0 else (raster.values - vmin) / span
    rgb = spheremap._colormap_rgb(colormap, np.nan_to_num(norm))
    colors_hex = [[_hex_color(rgb[row, col]) for col in range(width)] for row in range(height)]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{img_w}" height="{img_h}" '
        f'viewBox="0 0 {img_w} {img_h}">',
        f'<rect x="0" y="0" width="{img_w}" height="{img_h}" fill="white"/>',
        f'<text x="{margin}" y="{margin + 12}" font-family="sans-serif" '
        'font-size="14">per-rotation mean relative error</text>',
    ]
    parts.extend(_svg_rows_oracle(raster, colors_hex, cell, x0, y0))
    cx = x0 + width * cell / 2
    cy = y0 + height * cell / 2
    parts.append(
        f'<ellipse cx="{cx}" cy="{cy}" rx="{width * cell / 2}" ry="{height * cell / 2}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )
    bar_x = x0 + width * cell + bar_gap
    bar_h = height * cell
    n_slices = 64
    for i in range(n_slices):
        t = (i + 0.5) / n_slices
        color = _hex_color(spheremap._colormap_rgb(colormap, t))
        slice_h = bar_h / n_slices
        sy = y0 + bar_h - (i + 1) * slice_h
        parts.append(
            f'<rect x="{bar_x}" y="{sy}" width="{bar_w}" height="{slice_h}" fill="{color}"/>'
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


def _seed_bits(seeds):
    """Bit patterns of every seed field, so -0.0 and 0.0 differ."""
    return np.array(seeds, dtype=float).reshape(-1, 3).view(np.uint64)


def _quaternion_matrix(q):
    w, x, y, z = np.asarray(q, dtype=float) / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def _axis_turn(axis, angle):
    c, s = math.cos(angle), math.sin(angle)
    i, j = [k for k in range(3) if k != axis]
    m = np.zeros((3, 3))
    m[axis, axis] = 1.0
    m[i, i], m[i, j], m[j, i], m[j, j] = c, -s, s, c
    return m


# The 24 proper signed permutations: identity, quarter and half turns about
# each axis and their products; directions land on the six poles and axes.
_SIGNED_PERMUTATIONS = [
    m
    for perm in itertools.permutations(range(3))
    for signs in itertools.product((1.0, -1.0), repeat=3)
    for m in [np.eye(3)[list(perm)] * np.array(signs)[:, None]]
    if np.linalg.det(m) > 0
]

_unit = st.floats(-1.0, 1.0, allow_nan=False)
_random_rotation = st.tuples(_unit, _unit, _unit, _unit).filter(
    lambda q: math.fsum(c * c for c in q) > 0.01
).map(_quaternion_matrix)
_structured_rotation = st.one_of(
    st.sampled_from(_SIGNED_PERMUTATIONS),
    st.builds(
        _axis_turn,
        st.integers(0, 2),
        st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 2]),
                  st.floats(-math.pi, math.pi, allow_nan=False)),
    ),
)


@st.composite
def _rotation_stacks(draw):
    """Random and structured rotations, with the sign of each exact zero drawn."""
    mats = draw(st.lists(st.one_of(_random_rotation, _structured_rotation), min_size=1, max_size=24))
    stack = np.array(mats)
    flip = np.array(draw(st.lists(st.booleans(), min_size=stack.size, max_size=stack.size)))
    flip = flip.reshape(stack.shape) & (stack == 0.0)
    return np.where(flip, -stack, stack)


@settings(max_examples=150, deadline=None)
@given(
    stack=_rotation_stacks(),
    values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=24, max_size=24),
    radius=st.sampled_from([2.0, 1.0, 0.37]),
)
def test_project_rotations_matches_per_point_oracle(stack, values, radius):
    values = values[:len(stack)]
    got = project_rotations(stack, values, radius=radius)
    want = _project_rotations_oracle(stack, values, radius=radius)
    assert np.array_equal(got, want)
    assert np.array_equal(_seed_bits(got), _seed_bits(want))


def test_project_rotations_matches_oracle_on_sampled_stream():
    rotations = rotation_list(RotationStream(23), 2000)
    values = np.linspace(0.0, 1.0, len(rotations))
    got = project_rotations(rotations, values)
    assert np.array_equal(_seed_bits(got), _seed_bits(_project_rotations_oracle(rotations, values)))


def test_project_rotations_signed_zero_longitude():
    # a quarter turn about y sends +z to -x.  With a -0.0 in its last column
    # the product r @ z has y = +0.0 (0.0 + 0.0 + -0.0), where the column
    # r[:, 2] has y = -0.0, and atan2 gives pi for the one and -pi for the other
    r = np.array([[0.0, 0.0, -1.0], [0.0, 1.0, -0.0], [1.0, 0.0, 0.0]])
    (seed,) = project_rotations([r], [1.0])
    assert seed[0] == pytest.approx(4.0 * SQRT2)  # lon = +pi: the right edge, not the left
    assert np.array_equal(_seed_bits([seed]), _seed_bits(_project_rotations_oracle([r], [1.0])))


def test_render_svg_rounds_half_to_even():
    # gray maps value t in [0, 1] to 255 * t, here exactly 2.5 and 126.5:
    # both round to the even neighbour, as Python's round does
    values = np.array([[0.0, 0.00980392156862745, 0.49607843137254903, 1.0]])
    raster = RasterMap(values=values, inside=np.ones((1, 4), dtype=bool),
                       x_centers=np.arange(4.0), y_centers=np.zeros(1))
    assert 255 * values[0, 1] == 2.5 and 255 * values[0, 2] == 126.5
    svg = render_svg(raster, colormap="gray")
    assert 'fill="#020202"' in svg and 'fill="#7e7e7e"' in svg
    assert svg == _render_svg_oracle(raster, colormap="gray")


@st.composite
def _rasters(draw):
    """Arbitrary inside masks with values drawn from a small palette, so runs of equal color occur."""
    width, height = draw(st.integers(1, 14)), draw(st.integers(1, 6))
    inside = np.array(draw(st.lists(st.booleans(), min_size=width * height, max_size=width * height)))
    assume(inside.any())
    palette = np.array(draw(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=4)))
    picks = draw(st.lists(st.integers(0, len(palette) - 1), min_size=width * height,
                          max_size=width * height))
    inside = inside.reshape(height, width)
    values = np.where(inside, palette[picks].reshape(height, width), np.nan)
    return RasterMap(values=values, inside=inside, x_centers=np.arange(width, dtype=float),
                     y_centers=np.arange(height, dtype=float))


@settings(max_examples=150, deadline=None)
@given(raster=_rasters(), colormap=st.sampled_from(sorted(COLORMAPS)))
def test_render_svg_matches_per_cell_oracle(raster, colormap):
    assert render_svg(raster, colormap=colormap) == _render_svg_oracle(raster, colormap=colormap)


@pytest.mark.parametrize("grid, n_seeds, colormap", [
    ((1, 1), 3, "viridis"),
    ((1, 1), 3, "gray"),
    ((7, 3), 5, "viridis"),
    ((7, 3), 5, "gray"),
    ((90, 45), 41, "gray"),
    ((720, 360), 201, "viridis"),
])
def test_render_svg_matches_oracle_on_maps(grid, n_seeds, colormap):
    rotations = rotation_list(RotationStream(29), n_seeds - 1)
    seeds = project_rotations(rotations, np.sin(np.arange(n_seeds)) ** 2)
    raster = voronoi_rasterize(seeds, grid=grid)
    assert render_svg(raster, colormap=colormap) == _render_svg_oracle(raster, colormap=colormap)


@pytest.mark.parametrize("colormap", sorted(COLORMAPS))
def test_render_svg_constant_field_matches_oracle(colormap):
    seeds = [(0.3, -0.2, 0.5), (-1.0, 0.4, 0.5)]
    raster = voronoi_rasterize(seeds, grid=(33, 17))
    assert render_svg(raster, colormap=colormap) == _render_svg_oracle(raster, colormap=colormap)


_coord = st.sampled_from([-3.0, -1.5, -0.5, 0.0, 0.5, 1.5, 3.0]) | st.floats(-6.0, 6.0, allow_nan=False)
# far outside the ellipse (|x| <= 5.66, |y| <= 2.83 at R = 2), where squares reach 1e12
_far_coord = st.sampled_from([-1e6, -40.0, 25.0, 1e6]) | st.floats(-1e6, 1e6, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(
    points=st.lists(st.tuples(_coord | _far_coord, _coord | _far_coord), min_size=1, max_size=12),
    repeats=st.lists(st.integers(0, 11), max_size=6),
    one_point=st.booleans(),
    # tiles are 8 cells a side: sides of 1, 7, 9, 17 and 40 cut tiles short or fill them
    grid=st.just((1, 1)) | st.tuples(st.integers(1, 40), st.integers(1, 20)),
    budget=st.integers(1, 300) | st.just(1 << 16),
)
def test_voronoi_chunks_and_duplicates_match_oracle(points, repeats, one_point, grid, budget):
    # duplicated positions carry different values: ties must go to the lowest index
    if one_point:
        points = [points[0]] * len(points)
    points = points + [points[k % len(points)] for k in repeats]
    seeds = [(x, y, float(k)) for k, (x, y) in enumerate(points)]
    with mock.patch.object(spheremap, "_RASTER_CHUNK_ELEMENTS", budget):
        raster = voronoi_rasterize(seeds, grid=grid, radius=2.0)
    expected = _brute_force_oracle(seeds, raster)
    assert np.array_equal(np.isnan(raster.values), ~raster.inside)
    assert np.array_equal(raster.values[raster.inside], expected[raster.inside])


def _block_loop_oracle(seeds, grid, radius):
    """The nearest-seed fill the tiled search replaced: every inside cell against every seed, in blocks."""
    width, height = grid
    half_x = 2.0 * math.sqrt(2.0) * radius
    half_y = math.sqrt(2.0) * radius
    xc = spheremap._cell_centers(width, -half_x, half_x)
    yc = spheremap._cell_centers(height, -half_y, half_y)
    gx, gy = np.meshgrid(xc, yc)
    inside = (gx / half_x) ** 2 + (gy / half_y) ** 2 <= 1.0
    sx, sy, sv = np.array(seeds).T
    values = np.full((height, width), np.nan)
    px = gx[inside]
    py = gy[inside]
    idx = np.empty(px.shape[0], dtype=np.intp)
    chunk = max(1, (1 << 16) // sx.size)
    d2 = np.empty((min(chunk, px.shape[0]), sx.size))
    dy2 = np.empty_like(d2)
    for start in range(0, px.shape[0], chunk):
        stop = min(start + chunk, px.shape[0])
        d, e = d2[:stop - start], dy2[:stop - start]
        np.square(np.subtract(px[start:stop, None], sx, out=d), out=d)
        np.square(np.subtract(py[start:stop, None], sy, out=e), out=e)
        idx[start:stop] = np.argmin(np.add(d, e, out=d), axis=1)
    values[inside] = sv[idx]
    return values, inside


def test_voronoi_matches_block_loop_on_a_dense_map():
    # 400 sampled rotations and the identity, every fifth seed repeated with another value
    seeds = project_rotations(rotation_list(RotationStream(37), 400), np.sin(np.arange(401.0)) ** 2)
    seeds = np.concatenate((seeds, seeds[::5] * [1.0, 1.0, -1.0]))
    raster = voronoi_rasterize(seeds, grid=(360, 180))
    values, inside = _block_loop_oracle(seeds, (360, 180), 2.0)
    assert np.array_equal(raster.inside, inside)
    assert np.array_equal(raster.values, values, equal_nan=True)


def test_voronoi_peak_memory_stays_within_its_tables_and_blocks():
    width, height, n = 720, 360, 1001
    seeds = project_rotations(rotation_list(RotationStream(38), n - 1), np.linspace(0.0, 1.0, n))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        voronoi_rasterize(seeds, grid=(width, height))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    tables = 1.25 * (width + height) * n * 8  # dx2, dy2 and their per-tile bounds
    cells = width * height * (8 + 1 + 8)  # values, inside mask and seed index of every cell
    blocks = 4 * 8 * spheremap._RASTER_CHUNK_ELEMENTS
    assert peak <= tables + cells + blocks
    assert peak < width * height * n * 8 / 100  # far from one distance per cell and seed


def _svg_rows_per_rect(codes, cell, x0, y0):
    """The rect lines as they were formatted before: one f-string per run."""
    height, width = codes.shape
    change = np.ones(codes.shape, dtype=bool)
    change[:, 1:] = codes[:, 1:] != codes[:, :-1]
    starts = np.flatnonzero(change)
    lengths = np.diff(starts, append=codes.size)
    colors = codes.ravel()[starts]
    keep = colors >= 0
    rows, cols = np.divmod(starts[keep], width)
    tops = y0 + (height - 1 - rows) * cell
    return [
        f'<rect x="{x0 + col * cell}" y="{top}" width="{n * cell}" height="{cell}" fill="#{c:06x}"/>'
        for col, top, n, c in zip(cols.tolist(), tops.tolist(), lengths[keep].tolist(), colors[keep].tolist())
    ]


@st.composite
def _code_grids(draw):
    """Packed colors with -1 outside cells; a small palette makes runs, free colors make single cells."""
    width, height = draw(st.integers(1, 30)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    palette = np.array([-1, 0, 0x440154, 0xFFFFFF])
    codes = palette[rng.integers(0, palette.size, (height, width))]
    free = rng.random((height, width)) < draw(st.sampled_from([0.0, 0.3, 1.0]))
    return np.where(free, rng.integers(-1, 0x1000000, (height, width)), codes)


@settings(max_examples=200, deadline=None)
@given(codes=_code_grids(), cell=st.integers(1, 3), x0=st.integers(0, 40), y0=st.integers(0, 40))
def test_svg_rows_match_per_rect_format(codes, cell, x0, y0):
    assert spheremap._svg_rows(codes, cell, x0, y0) == "\n".join(_svg_rows_per_rect(codes, cell, x0, y0))
