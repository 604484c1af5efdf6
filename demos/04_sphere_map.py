"""Spherical map of per-rotation error, exported as SVG.

Each rotation is placed on the unit sphere by where it sends the +z
axis, flattened with an equal-area elliptical projection, and the plane
is filled by nearest-seed (Voronoi) lookup.  Patches are colored by the
error a model made under that particular rotation, exposing whether any
orientation region is systematically harder.
"""

import os

import numpy as np

from rotta.dataset import generate_synthetic
from rotta.metrics import mere
from rotta.models import NoisyOracle, OracleParams
from rotta.rotations import RotationStream, rotation_list
from rotta.spheremap import project_rotations, render_svg, seeds_csv, voronoi_rasterize
from rotta.tta import run_tta
from rotta.voigt import von_mises

OUT_DIR = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT_DIR, exist_ok=True)

# Evaluate a noisy model over 10 samples and 96 shared rotations; one
# list makes rotation index i mean the same rotation for every sample,
# which is what lets us attach one error value per rotation.
samples = generate_synthetic(10, 50, stream=RotationStream(13))
target_vm = np.stack([von_mises(s.target_stress) for s in samples])

n_rotations = 96
rotations = rotation_list(RotationStream(4), n_rotations)
model = NoisyOracle(OracleParams(noise_amp=5.0, noise_seed=6))
result = run_tta(model, samples, rotations)

# Per-rotation error: mean over the dataset of each rotation's own
# back-rotated prediction error.  The (M, P, T) von Mises stack keeps its
# rotation axis through mere, which returns one value per rotation.
per_rotation = mere(target_vm, result.vm_individual)
print("per-rotation error: min %.5f, max %.5f over %d rotations"
      % (per_rotation.min(), per_rotation.max(), n_rotations + 1))

# The same rotation list (identity first, then the sampled ones) is
# projected and rendered.  Each seed is a row (x, y, error) of one
# (P, 3) array.
seeds = project_rotations(rotations, per_rotation, radius=2.0)
raster = voronoi_rasterize(seeds, grid=(360, 180), radius=2.0)

texts = {
    "error_map.svg": render_svg(raster, title="per-rotation mean relative error"),
    "error_map_seeds.csv": seeds_csv(seeds),
}
for name, text in texts.items():
    path = os.path.join(OUT_DIR, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print("wrote", path)

# For frame-independent noise the map should look like salt and pepper:
# no orientation is special.  A trained model with a preferred frame
# would instead show coherent hot regions.
values = raster.values[raster.inside]
print("map cells: %d inside the ellipse, value spread %.5f"
      % (values.size, values.max() - values.min()))
