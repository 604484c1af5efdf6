"""Symmetric tensors, their rotation, and the uniform rotation sampler.

Walks through the 6-component storage convention, rotating a stress state
into another frame and back, the rotation invariance of the von Mises
equivalent stress, and the statistics of the Haar-uniform sampler.
"""

import numpy as np

from rotta.rotations import RotationStream, sample_rotations
from rotta.voigt import COMPONENT_NAMES, conjugate, from_matrix, to_matrix, von_mises

np.set_printoptions(precision=4, suppress=True)

# A symmetric tensor is stored as six components in the fixed order
# [11, 22, 33, 12, 13, 23]; shear components are tensor shears, not the
# doubled engineering convention.
sigma = np.array([120.0, 40.0, -15.0, 22.0, 5.0, -8.0])
print("component order:", COMPONENT_NAMES)
print("sigma  =", sigma)
print("matrix =\n", to_matrix(sigma))

# Rotating the tensor conjugates its matrix form: R sigma R^T.  conjugate
# takes a stack of rotations and gives one row per rotation; conjugating by
# the transpose R^T rotates back and restores the original values up to
# float round-off.
stream = RotationStream(seed=0)
r = sample_rotations(stream, 1)[0]
rotated = conjugate(r[None], sigma)[0]
restored = conjugate(r.T[None], rotated)[0]
print("\nrotated        =", rotated)
print("restore error  = %.2e" % np.max(np.abs(restored - sigma)))

# The von Mises equivalent stress depends only on the deviatoric part and
# is therefore the same in every frame.
print("\nvon Mises original %.6f / rotated %.6f" %
      (von_mises(sigma), von_mises(rotated)))

# The sampler draws Haar-uniform rotation matrices: no direction is
# preferred.  Send the +z axis through 20000 rotations and look at the
# direction statistics -- the mean image should sit near the origin.
rotations = sample_rotations(stream, 20000)
images = rotations[:, :, 2]
print("\n20000 rotated e3 vectors:")
print("  mean image       =", images.mean(axis=0))
print("  |mean image|     = %.4f (0 for a perfect sphere)" %
      np.linalg.norm(images.mean(axis=0)))
print("  upper hemisphere = %.3f (expect ~0.5)" % np.mean(images[:, 2] > 0))

# Streams replay bit-for-bit under the same seed, and substreams give
# independent, individually replayable sequences.
a = RotationStream(seed=7).uniforms(3)
b = RotationStream(seed=7).uniforms(3)
print("\nreplayed uniforms identical:", bool(np.all(a == b)))

# Round trips through the matrix form are exact because only copies and
# index shuffles are involved.
print("voigt round trip exact:", bool(np.all(from_matrix(to_matrix(sigma)) == sigma)))
