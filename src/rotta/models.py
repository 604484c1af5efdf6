"""Stress-path predictors: analytic oracles and an external-process adapter.

A model maps ``(orientation tensor a, volume fraction vf, strain path
eps(t))`` to a stress path ``sigma(t)`` of the same length.  Anything with a
``predict_batch(a (P, 6), vf, strain (P, T, 6)) -> (P, T, 6)`` method
qualifies: row ``p`` is the stress path for ``a[p]`` and ``strain[p]``.  It
is the only method the augmentation kernel (:func:`rotta.tta.augment`)
calls, once for a chunk of rotated copies of one input, and so the only one
every command (``run``, ``sweep``, ``repeats``, ``audit``, ``sphere-map``)
uses.  A single input is the batch of one row.

Two built-in analytic oracles stand in for a trained sequence model:

* :class:`EquivariantOracle` — an isotropic tensor polynomial in ``(a, eps)``
  with a von Mises stress cap.  It transforms exactly under frame rotation,
  so rotation-augmented inference must reproduce the plain prediction; this
  gives every aggregation test a known ground truth.
* :class:`NoisyOracle` — the same response plus a deterministic, bounded
  perturbation hashed from the *working-frame* inputs.  Rotated copies of an
  input receive independent noise, which is precisely the failure mode the
  augmentation averages away.

:class:`ExternalModel` adapts any external predictor over a newline-delimited
JSON protocol on stdin/stdout of a spawned process (see its docstring).
"""

from __future__ import annotations

import json
import os
import select
import shlex
import subprocess
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .voigt import VOIGT_INDEX, VOIGT_PAIRS, von_mises


class ExternalModelError(RuntimeError):
    """Failure of an external model process; ``row`` is the batch row it concerns, or None."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


@dataclass(frozen=True)
class ModelInput:
    """One prediction request: orientation tensor, volume fraction, strain path.

    ``a`` is a Voigt 6-vector, ``strain`` a ``(T, 6)`` path with T >= 1.
    """

    a: np.ndarray
    vf: float
    strain: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        object.__setattr__(self, "strain", np.asarray(self.strain, dtype=float))

    @property
    def n_steps(self):
        return self.strain.shape[0]

    def validate(self):
        if self.a.shape != (6,):
            raise ValueError(f"orientation tensor must have shape (6,), got {self.a.shape}")
        if self.strain.ndim != 2 or self.strain.shape[1] != 6 or self.strain.shape[0] < 1:
            raise ValueError(f"strain must have shape (T, 6) with T >= 1, got {self.strain.shape}")
        if not (0.0 < self.vf < 1.0):
            raise ValueError(f"volume fraction must lie in (0, 1), got {self.vf}")
        if not (np.all(np.isfinite(self.a)) and np.all(np.isfinite(self.strain))):
            raise ValueError("model input contains non-finite values")
        return self


@dataclass(frozen=True)
class OracleParams:
    """Material-like parameters of the built-in oracles (stresses in MPa).

    ``lam``/``mu`` are Lame-style stiffnesses, ``kappa`` couples the fiber
    orientation into the response, ``sigma_y`` caps the von Mises stress, and
    ``noise_amp``/``noise_seed`` control the frame-noise perturbation.
    """

    lam: float = 2400.0
    mu: float = 1100.0
    kappa: float = 30000.0
    sigma_y: float = 120.0
    noise_amp: float = 0.0
    noise_seed: int = 0

    def __post_init__(self):
        if min(self.lam, self.mu, self.kappa, self.sigma_y) <= 0:
            raise ValueError("lam, mu, kappa and sigma_y must all be > 0")
        if self.noise_amp < 0:
            raise ValueError("noise_amp must be >= 0")


class EquivariantOracle:
    """Memoryless analytic stress model, exactly equivariant under frame rotation.

    Per step the trial stress is::

        S = lam * tr(eps) * I + 2 * mu * eps + vf * kappa * (a.eps + eps.a)

    and if its von Mises stress exceeds ``sigma_y`` the deviatoric part is
    scaled down to the cap while the hydrostatic part is kept.  Every term is
    an isotropic tensor polynomial in ``(a, eps)``, so conjugating the inputs
    by a rotation conjugates the output by the same rotation.
    """

    def __init__(self, params: Optional[OracleParams] = None):
        self.params = params or OracleParams()

    def predict_batch(self, a, vf, strain):
        """Stress paths ``(..., T, 6)`` for orientation tensors ``a (..., 6)`` and strain paths ``(..., T, 6)``.

        Works on the six stored components with the bits of the full-matrix
        form: each output of ``a.eps`` and of ``eps.a`` adds its three
        products to +0.0 in j order, as in einsum, and ``x * I`` is ``x`` on
        the diagonal and ``x * 0.0`` off it.  The products are taken from
        plain component slices, never gathered into copies.
        """
        p = self.params
        a = np.moveaxis(np.asarray(a, dtype=float), -1, 0)[..., None]  # (6, ..., 1): broadcast over steps
        eps = np.moveaxis(np.asarray(strain, dtype=float), -1, 0)  # (6, ..., T)
        coupling = np.zeros(np.broadcast_shapes(a.shape, eps.shape))  # a.eps, then a.eps + eps.a
        eps_a, term = np.empty_like(coupling[0]), np.empty_like(coupling[0])
        with np.errstate(over="ignore", invalid="ignore"):  # as silent as einsum
            for c, (i, l) in enumerate(VOIGT_PAIRS):
                eps_a.fill(0.0)
                for j in range(3):
                    coupling[c] += np.multiply(a[VOIGT_INDEX[i, j]], eps[VOIGT_INDEX[j, l]], out=term)
                    eps_a += np.multiply(eps[VOIGT_INDEX[i, j]], a[VOIGT_INDEX[j, l]], out=term)
                coupling[c] += eps_a
        coupling *= vf * p.kappa
        iso = p.lam * ((eps[0] + eps[1]) + eps[2])
        s = 2.0 * p.mu * eps
        s[:3] = iso + s[:3]
        s[3:] = iso * 0.0 + s[3:]
        s += coupling
        mean = ((s[0] + s[1]) + s[2]) / 3.0
        vm = von_mises(np.moveaxis(s, 0, -1))
        scale = np.where(vm > p.sigma_y, p.sigma_y / np.where(vm > 0, vm, 1.0), 1.0)
        s[:3] -= mean  # deviatoric part
        s *= scale
        s[:3] += mean
        s[3:] += mean * 0.0
        return np.moveaxis(s, 0, -1)


class NoisyOracle(EquivariantOracle):
    """Equivariant oracle plus deterministic frame noise (not equivariant).

    The perturbation for step ``t``, component ``c`` is hashed from
    ``(noise_seed, quantized inputs, t, c)`` and is uniform in
    ``[-noise_amp, +noise_amp)``.  Because the hash sees the *working-frame*
    component values, each rotated copy of an input draws independent noise,
    while repeating the same input replays the identical perturbation.
    Inputs are quantized to a 1e-9 grid first so that rotation round-trip
    float fuzz cannot flip the hash.
    """

    def __init__(self, params: OracleParams):
        if params.noise_amp <= 0:
            raise ValueError("NoisyOracle requires noise_amp > 0")
        super().__init__(params)

    def predict_batch(self, a, vf, strain):
        base = super().predict_batch(a, vf, strain)
        return base + _frame_noise(self.params.noise_seed, a, vf, strain) * self.params.noise_amp


# -- frame-noise hashing ------------------------------------------------------
#
# splitmix64 finalizer, vectorized on uint64 arrays.  Chosen over hashlib for
# speed: noise generation is fully vectorized over inputs, steps and components.

_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_M2 = np.uint64(0x94D049BB133111EB)
_QUANTUM = 1e-9


def _mix(x):
    with np.errstate(over="ignore"):  # wraparound mod 2**64 is the point
        x = x + _SM_GAMMA  # a new array: the caller's is left alone
        x ^= x >> np.uint64(30)
        x *= _SM_M1
        x ^= x >> np.uint64(27)
        x *= _SM_M2
        x ^= x >> np.uint64(31)
    return x


def _quantize(values):
    """Snap floats to the 1e-9 grid and reinterpret as uint64 words."""
    q = np.round(np.asarray(values, dtype=float) / _QUANTUM)
    return q.astype(np.int64).astype(np.uint64)


def _frame_noise(seed, a, vf, strain):
    """Deterministic noise field in [-1, 1) of ``strain``'s shape ``(..., T, 6)``; ``a`` is ``(..., 6)``."""
    # uint64 arrays throughout: numpy array arithmetic wraps modulo 2**64 silently
    a_words = _quantize(a)  # (..., 6)
    h = _mix(np.full(a_words.shape[:-1], int(seed) & 0xFFFFFFFFFFFFFFFF, dtype=np.uint64))
    for c in range(6):
        h = _mix(h ^ a_words[..., c])
    h = _mix(h ^ _quantize(vf))
    # fold the per-step strain words into per-step hashes
    eps_words = _quantize(strain)  # (..., T, 6)
    t_hash = h[..., None]
    for c in range(6):
        t_hash = _mix(t_hash ^ eps_words[..., c])
    t_hash = _mix(t_hash ^ np.arange(1, eps_words.shape[-2] + 1, dtype=np.uint64))
    comp_hash = _mix(t_hash[..., None] ^ np.arange(1, 7, dtype=np.uint64))
    u = (comp_hash >> np.uint64(11)) * 2.0**-53  # uniform [0, 1)
    return 2.0 * u - 1.0


# -- external line-protocol adapter -------------------------------------------


class ExternalModel:
    """Line-protocol client for an external predictor subprocess.

    ``command`` is the argv list (or a shell-style string) of a process that
    speaks the line protocol: one JSON request per line on stdin::

        {"id": <u64>, "a": [6 floats], "vf": <float>, "eps": [[6 floats] x T]}

    answered by exactly one JSON line on stdout::

        {"id": <u64>, "sigma": [[6 floats] x T]}

    Several requests may be in flight at once; responses are matched to
    requests by id, in any order.  Component order is [11, 22, 33, 12, 13, 23]
    with tensor (not engineering) shear values.  Process exit, a malformed
    line, a non-object, an unknown id, a shape mismatch, non-finite values,
    or ``timeout`` seconds without progress raise :class:`ExternalModelError`.

    :meth:`predict_batch` pipelines one request per row.  Usable as a context
    manager; the subprocess is spawned lazily on first prediction and
    terminated by :meth:`close`.  A subprocess that exits before :meth:`close`
    is not restarted: the next prediction raises :class:`ExternalModelError`.
    """

    def __init__(self, command, timeout=30.0):
        if isinstance(command, str):
            command = shlex.split(command)
        self.command = list(command)
        self.timeout = float(timeout)
        self._proc = None
        self._buffer = b""
        self._next_id = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _ensure_started(self):
        if self._proc is not None:  # a child that died is a failure, never respawned
            code = self._proc.poll()
            if code is None:
                return
            raise ExternalModelError(f"external model exited (exit status {code})", 0)
        try:
            self._proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                bufsize=0,
            )
        except OSError as exc:
            raise ExternalModelError(f"cannot start external model {self.command}: {exc}", 0) from exc
        self._buffer = b""
        os.set_blocking(self._proc.stdin.fileno(), False)
        os.set_blocking(self._proc.stdout.fileno(), False)

    def close(self):
        if self._proc is None:
            return
        proc, self._proc = self._proc, None
        try:
            proc.stdin.close()
            proc.terminate()
            proc.wait(timeout=5.0)
        except (subprocess.TimeoutExpired, OSError):
            proc.kill()
            proc.wait()
        finally:
            proc.stdout.close()

    def predict_batch(self, a, vf, strain):
        """Stress paths ``(P, T, 6)`` for ``a (P, 6)`` and ``strain (P, T, 6)``: one request per row.

        Requests are encoded one at a time while responses are read, both
        pipes driven by one ``select`` loop, so neither a full pipe nor a
        child that stops reading can block the parent; ``timeout`` seconds
        without progress raise.  Responses are matched to rows by id.  Every
        failure carries the row it concerns: the row of the response's id,
        else the first row still unanswered.
        """
        self._ensure_started()
        base, n_rows = self._next_id, len(strain)
        self._next_id += n_rows
        out = np.empty(np.shape(strain))
        waiting, sent, payload = {}, 0, b""  # unanswered id -> row; rows encoded; unwritten bytes
        wfd, rfd = self._proc.stdin.fileno(), self._proc.stdout.fileno()
        deadline = time.monotonic() + self.timeout
        while waiting or sent < n_rows:
            first = min(waiting.values(), default=sent)
            if not payload and sent < n_rows and wfd is not None:
                request = {"id": base + sent, "a": a[sent].tolist(), "vf": float(vf), "eps": strain[sent].tolist()}
                payload = memoryview((json.dumps(request) + "\n").encode())
                waiting[base + sent] = sent
                sent += 1
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ExternalModelError(f"external model timed out after {self.timeout:.1f} s", first)
            readable, writable, _ = select.select([rfd], [wfd] if payload else [], [], remaining)
            if writable:
                try:
                    payload = payload[os.write(wfd, payload):]
                    deadline = time.monotonic() + self.timeout
                except BlockingIOError:
                    pass
                except OSError:  # the child closed its input: collect what it answered, then its exit
                    payload, wfd = b"", None
            if readable:
                chunk = os.read(rfd, 1 << 16)
                if not chunk:
                    status = self._proc.poll()
                    raise ExternalModelError(f"external model closed its output (exit status {status})", first)
                *lines, self._buffer = (self._buffer + chunk).split(b"\n")
                for line in lines:
                    del waiting[self._store(line, waiting, out, min(waiting.values(), default=sent))]
                deadline = time.monotonic() + self.timeout
        return out

    @staticmethod
    def _store(line, waiting, out, first):
        """Check one response line, put its ``sigma`` into the row of ``out`` its id names; return the id."""
        try:
            response = json.loads(line)
        except ValueError as exc:
            raise ExternalModelError(f"malformed response line: {line[:200]!r}", first) from exc
        if not isinstance(response, dict):
            raise ExternalModelError(f"response is not a JSON object: {line[:200]!r}", first)
        rid = response.get("id")
        row = waiting.get(rid) if isinstance(rid, (int, float)) else None
        if row is None:
            raise ExternalModelError(f"response id {rid!r} matches no outstanding request", first)
        try:
            sigma = np.asarray(response["sigma"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ExternalModelError(f"response lacks a numeric 'sigma' field: {exc}", row) from exc
        if sigma.shape != out.shape[1:]:
            raise ExternalModelError(f"external model returned {sigma.shape}, expected {out.shape[1:]}", row)
        if not np.all(np.isfinite(sigma)):
            raise ExternalModelError("external model returned non-finite stress values", row)
        out[row] = sigma
        return rid
