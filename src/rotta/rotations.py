"""Seeded generation of uniform random rotations and synthetic fiber micro-structure.

Random rotations are built with Arvo's construction: a rotation about the
x3 axis followed by a Householder-style reflection through a random plane,
with the product signed so the determinant is +1.  Three uniform deviates
per rotation give a Haar-uniform sample on SO(3).

Randomness comes from the counter-based Philox-4x64 bit generator keyed by
``(seed, stream_id)``.  Raw 64-bit words are converted to doubles in this
module (``(word >> 11) * 2**-53``), so the whole uniform stream is pinned
to a fixed, named algorithm: the same seed replays the same sequence.
Per-index substreams keep per-sample draws independent of iteration order.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Philox

from .voigt import ROTATION_TOL, from_matrix

_TWO_PI = 2.0 * np.pi
_DOUBLE_SCALE = 2.0**-53


class RotationStream:
    """Deterministic stream of uniform deviates for rotation and data sampling.

    Parameters
    ----------
    seed : int
        64-bit unsigned seed; the same seed replays the same sequence.
    stream_id : int
        Substream selector (second Philox key word). 0 is the root stream;
        :meth:`substream` derives per-sample streams.

    A stream is single-owner: every draw advances its generator, so share
    substreams across workers rather than one stream object.
    """

    def __init__(self, seed, stream_id=0):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.stream_id = int(stream_id) & 0xFFFFFFFFFFFFFFFF
        self._bits = Philox(key=np.array([self.seed, self.stream_id], dtype=np.uint64))

    def substream(self, index):
        """Independent stream for sample ``index``; root stream is id 0, samples get 1+index."""
        if index < 0:
            raise ValueError("substream index must be >= 0")
        return RotationStream(self.seed, stream_id=1 + int(index))

    def uniforms(self, n):
        """Next ``n`` uniform doubles in [0, 1), shape ``(n,)``."""
        raw = self._bits.random_raw(int(n))
        return (raw >> np.uint64(11)) * _DOUBLE_SCALE

    def normals(self, n):
        """Next ``n`` standard-normal doubles via Box-Muller on this stream."""
        n = int(n)
        pairs = (n + 1) // 2
        u = self.uniforms(2 * pairs).reshape(pairs, 2)
        radius = np.sqrt(-2.0 * np.log1p(-u[:, 0]))  # 1-u0 in (0,1] avoids log(0)
        angle = _TWO_PI * u[:, 1]
        z = np.empty(2 * pairs)
        z[0::2] = radius * np.cos(angle)
        z[1::2] = radius * np.sin(angle)
        return z[:n]


def identity_rotation():
    """The 3x3 identity, used as rotation index i = 0 of every TTA list."""
    return np.eye(3)


def sample_rotations(stream, n):
    """Draw ``n`` Haar-uniform random rotations, shape ``(n, 3, 3)``.

    Arvo construction from three uniforms ``x1, x2, x3``::

        Rz = rotation by 2*pi*x1 about x3
        v  = [cos(2*pi*x2)*sqrt(x3), sin(2*pi*x2)*sqrt(x3), sqrt(1-x3)]
        R  = (2 v v^T - I) . Rz

    ``2 v v^T - I`` is minus a reflection, so in three dimensions the
    product has determinant +1; this is asserted on every sample.
    """
    n = int(n)
    if n < 0:
        raise ValueError("rotation count must be >= 0")
    if n == 0:
        return np.empty((0, 3, 3))
    u = stream.uniforms(3 * n).reshape(n, 3)
    ang = _TWO_PI * u[:, 0]
    c, s = np.cos(ang), np.sin(ang)
    rz = np.zeros((n, 3, 3))
    rz[:, 0, 0] = c
    rz[:, 0, 1] = -s
    rz[:, 1, 0] = s
    rz[:, 1, 1] = c
    rz[:, 2, 2] = 1.0

    phi = _TWO_PI * u[:, 1]
    sq3 = np.sqrt(u[:, 2])
    v = np.stack([np.cos(phi) * sq3, np.sin(phi) * sq3, np.sqrt(1.0 - u[:, 2])], axis=1)
    house = 2.0 * np.einsum("ni,nj->nij", v, v) - np.eye(3)
    rot = np.einsum("nij,njk->nik", house, rz)

    det = np.linalg.det(rot)
    if np.max(np.abs(det - 1.0)) > ROTATION_TOL:
        raise AssertionError(f"Arvo sample determinant off by {np.max(np.abs(det - 1.0)):.3e}")
    return rot


def rotation_list(stream, n):
    """TTA rotation list ``[I, R_1, ..., R_n]``, shape ``(n+1, 3, 3)``.

    The random part is drawn sequentially, so the list for ``n`` is a prefix
    of the list for any larger count on the same stream state.
    """
    if n < 0:
        raise ValueError("rotation count must be >= 0")
    out = np.empty((n + 1, 3, 3))
    out[0] = identity_rotation()
    if n:
        out[1:] = sample_rotations(stream, n)
    return out


def sample_volume_fraction(stream):
    """Random fiber volume fraction, uniform in [0.10, 0.15]."""
    return 0.10 + 0.05 * float(stream.uniforms(1)[0])


def sample_orientation_tensor(stream):
    """Random orientation tensor in Voigt form: uniform-simplex eigenvalues, random frame.

    A diagonal tensor ``diag(d1, d2, d3)`` with ``d_i >= 0`` summing to 1 is
    drawn uniformly on the simplex (sorted-uniform stick breaking), then
    conjugated by a random rotation.  Trace and positive semi-definiteness
    are preserved exactly by the conjugation.
    """
    cuts = np.sort(stream.uniforms(2))
    diag = np.array([cuts[0], cuts[1] - cuts[0], 1.0 - cuts[1]])
    r = sample_rotations(stream, 1)[0]
    m = np.einsum("ik,k,jk->ij", r, diag, r)
    return from_matrix(m)

