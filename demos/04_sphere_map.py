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
from rotta.tta import TTAConfig, run_tta
from rotta.voigt import von_mises_path

OUT_DIR = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT_DIR, exist_ok=True)

# Evaluate a noisy model over 10 samples and 96 shared rotations; the
# same seed makes rotation index i mean the same rotation for every
# sample, which is what lets us attach one error value per rotation.
samples = generate_synthetic(10, 50, stream=RotationStream(13))
target_vm = np.stack([von_mises_path(s.target_stress) for s in samples])

n_rotations = 96
config = TTAConfig(n_rotations=n_rotations, seed=4)
model = NoisyOracle(OracleParams(noise_amp=5.0, noise_seed=6))
results = [run_tta(model, s.model_input(), config) for s in samples]

# Per-rotation error: mean over the dataset of each rotation's own
# back-rotated prediction error.
per_rotation = [
    mere(target_vm, np.stack([r.vm_individual[i] for r in results]))
    for i in range(n_rotations + 1)
]
print("per-rotation error: min %.5f, max %.5f over %d rotations"
      % (min(per_rotation), max(per_rotation), n_rotations + 1))

# The rotations are reproduced from the same stream the augmentation
# used (identity first, then the sampled ones), projected, and rendered.
rotations = rotation_list(RotationStream(4), n_rotations)
seeds = project_rotations(rotations, per_rotation, radius=2.0)
raster = voronoi_rasterize(seeds, grid=(360, 180), radius=2.0)

texts = {
    "error_map.svg": render_svg(raster, seeds, title="per-rotation mean relative error"),
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
