"""Rotation-augmented test-time inference for tensor-sequence predictors.

Rotate an input over uniformly sampled 3D rotations, predict, rotate each
prediction back, and aggregate the ensemble into a mean stress path with a
per-step uncertainty band; evaluate the result with relative-error, shape,
and uncertainty-correlation metrics, and map per-rotation error over the
sphere.
"""

__version__ = "0.1.0"
