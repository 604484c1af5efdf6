"""Rotation-averaged inference on a single loading case.

A model that is exactly equivariant gains nothing from augmentation --
every back-rotated prediction is identical.  A model with frame-dependent
noise gains a lot: averaging over rotated copies cancels most of the
noise, and the spread across copies doubles as an uncertainty estimate.
"""

import numpy as np

from rotta.dataset import generate_synthetic
from rotta.models import EquivariantOracle, NoisyOracle, OracleParams
from rotta.rotations import RotationStream
from rotta.tta import TTAConfig, run_tta
from rotta.voigt import von_mises

np.set_printoptions(precision=4, suppress=True)

# One synthetic sample: orientation tensor, volume fraction, and a random
# walk strain path with the reference-model stress as ground truth.
sample = generate_synthetic(1, 60, stream=RotationStream(5))[0]
target_vm = von_mises(sample.target_stress)
print("sample %s: %d steps, vf = %.3f, peak von Mises %.1f MPa" %
      (sample.id, sample.n_steps, sample.vf, target_vm.max()))

config = TTAConfig(n_rotations=64, seed=1)

# run_tta takes a dataset, a list of samples, and keeps the sample axis
# first in every result array; this dataset has one sample, index 0.
# result.initial holds the identity prediction of each sample; one sample's
# per-rotation paths are augment(model, sample, result.rotations).
# Equivariant case: the aggregate reproduces the direct prediction
# (rotation index 0, the identity) and the per-step spread collapses to
# rounding noise.
result = run_tta(EquivariantOracle(), [sample], config)
spread = np.max(np.abs(result.aggregated[0] - result.initial[0]))
print("\nequivariant model, 64 rotations:")
print("  |aggregate - direct| = %.2e (pure round-off)" % spread)
print("  max von Mises SD     = %.2e" % result.vm_sd.max())

# Noisy case: each rotated copy of the input receives independent
# perturbations, so the copies disagree and their mean is better than
# any single one.
noisy = NoisyOracle(OracleParams(noise_amp=5.0, noise_seed=2))
result = run_tta(noisy, [sample], config)
direct_vm = result.vm_individual[0, 0]
tta_vm = result.vm_aggregated[0]

direct_err = np.abs(direct_vm - target_vm)
tta_err = np.abs(tta_vm - target_vm)
print("\nnoisy model (amplitude 5 MPa), 64 rotations:")
print("  mean |error| direct    = %.3f MPa" % direct_err.mean())
print("  mean |error| aggregate = %.3f MPa" % tta_err.mean())
print("  improvement factor     = %.1fx" % (direct_err.mean() / tta_err.mean()))

# The standard deviation over the rotated copies tracks the size of the
# injected noise and is reported per step and component.
print("  mean prediction SD     = %.3f MPa (noise amplitude was 5)" %
      result.sd.mean())

# A handful of steps, side by side.
print("\n  t   target_vm   direct_vm   tta_vm")
for t in (0, 15, 30, 45, 59):
    print("  %2d   %8.3f    %8.3f  %8.3f" %
          (t, target_vm[t], direct_vm[t], tta_vm[t]))
