"""Symmetric 3x3 tensor algebra in 6-component (Voigt) storage.

A symmetric second-order tensor (stress, strain, fiber orientation) is
stored as a 6-vector in the fixed component order

    [11, 22, 33, 12, 13, 23]

Shear entries hold *tensor* components (e.g. ``e12``, never the engineering
``2*e12``).  Rotation operations compute the six upper-triangle entries of
the conjugated matrix straight from the six stored components, so no
shear-factor bookkeeping ever enters the algebra and symmetry is preserved
structurally.

Every function accepts a trailing-axis batch: a single tensor is shape
``(6,)``, a pseudo-time path is ``(T, 6)``, a stack of paths ``(P, T, 6)``.
Rotations are plain ``(3, 3)`` orthogonal matrices with determinant +1.

All operations are pure; arrays are never mutated in place.
"""

from __future__ import annotations

import numpy as np

# Upper-triangle index pairs matching the component order [11,22,33,12,13,23].
VOIGT_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))

# Row and column of each stored component, and the component holding entry (j, k).
VOIGT_ROWS, VOIGT_COLS = np.array(VOIGT_PAIRS).T
VOIGT_INDEX = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])

#: Names of the six components, used by reports and file headers.
COMPONENT_NAMES = ("11", "22", "33", "12", "13", "23")

ROTATION_TOL = 1e-12
_TRACE_TOL = _EIG_TOL = 1e-9  # orientation tensors: trace 1 and eigenvalues >= 0, up to round-off


def to_matrix(v):
    """Expand Voigt 6-vector(s) ``(..., 6)`` into full 3x3 matrices ``(..., 3, 3)``."""
    v = np.asarray(v, dtype=float)
    m = np.empty(v.shape[:-1] + (3, 3), dtype=float)
    for k, (i, j) in enumerate(VOIGT_PAIRS):
        m[..., i, j] = v[..., k]
        m[..., j, i] = v[..., k]
    return m


def from_matrix(m):
    """Collapse symmetric matrices ``(..., 3, 3)`` to Voigt form, reading the upper triangle only."""
    m = np.asarray(m, dtype=float)
    return np.stack([m[..., i, j] for (i, j) in VOIGT_PAIRS], axis=-1)


def trace(v):
    """Trace of Voigt tensor(s): sum of the three normal components."""
    v = np.asarray(v, dtype=float)
    return v[..., 0] + v[..., 1] + v[..., 2]


def conjugate(r, x):
    """Voigt form of ``r[p] . X . r[p]^T`` for rotations ``r (P, 3, 3)``.

    ``x`` is one tensor ``(6,)`` (result ``(P, 6)``), one path ``(T, 6)``
    conjugated by every rotation, or one path per rotation ``(P, T, 6)``
    (result ``(P, T, 6)``).  Each of the six stored outputs adds its nine
    terms ``(r_ij * x_jk) * r_lk`` to +0.0 one at a time, j-major: the order
    of an ``optimize=False`` einsum, so the bits are the same, sign of zero
    included (a reduce over a term axis sums pairwise or unrolled when the
    axis is innermost).  Like einsum, it is silent on overflow and ``inf * 0``.
    """
    r = np.asarray(r, dtype=float)
    x = np.moveaxis(np.asarray(x, dtype=float), -1, 0)
    # ri[j] = r[:, i, j] and rl[k] = r[:, l, k] for every output (i, l): (3, 6, P)
    ri = r[:, VOIGT_ROWS].transpose(2, 1, 0)
    rl = r[:, VOIGT_COLS].transpose(2, 1, 0)
    if x.ndim > 1:  # broadcast over steps
        ri, rl = ri[..., None], rl[..., None]
    out = np.zeros(np.broadcast_shapes(ri.shape[1:], x.shape[1:]))
    term = np.empty_like(out)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(3):
            for k in range(3):
                np.multiply(ri[j], x[VOIGT_INDEX[j, k]], out=term)
                np.multiply(term, rl[k], out=term)
                out += term
    return np.moveaxis(out, 0, -1)


def von_mises(x):
    """Von Mises equivalent stress of Voigt tensor(s).

    For components ``[s11, s22, s33, s12, s13, s23]``::

        sqrt( 0.5*((s11-s22)^2 + (s22-s33)^2 + (s33-s11)^2)
              + 3*(s12^2 + s13^2 + s23^2) )

    All six components participate.  Returns a scalar for ``(6,)`` input,
    an array with the batch shape otherwise.  Always >= 0.
    """
    x = np.asarray(x, dtype=float)
    s11, s22, s33 = x[..., 0], x[..., 1], x[..., 2]
    s12, s13, s23 = x[..., 3], x[..., 4], x[..., 5]
    normal = 0.5 * ((s11 - s22) ** 2 + (s22 - s33) ** 2 + (s33 - s11) ** 2)
    shear = 3.0 * (s12**2 + s13**2 + s23**2)
    return np.sqrt(normal + shear)


def check_orientation_tensor(v):
    """Raise ``ValueError`` unless ``v`` is a valid fiber orientation tensor.

    Requires trace 1 within ``_TRACE_TOL`` and eigenvalues >= ``-_EIG_TOL``
    (positive semi-definite up to round-off).
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (6,):
        raise ValueError(f"orientation tensor must have 6 components, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("orientation tensor has non-finite components")
    tr = float(trace(v))
    if abs(tr - 1.0) > _TRACE_TOL:
        raise ValueError(f"orientation tensor trace {tr!r} deviates from 1 by more than {_TRACE_TOL:.1e}")
    eigvals = np.linalg.eigvalsh(to_matrix(v))
    if eigvals.min() < -_EIG_TOL:
        raise ValueError(f"orientation tensor has eigenvalue {eigvals.min():.3e} < -{_EIG_TOL:.1e}")
