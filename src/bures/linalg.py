"""Validation and the generator exponential for 2x2 and 3x3 matrices.

Shape and Hermiticity checks, and the one spectral operation of the check
forms: the unitary exp(i*g*t) of a Hermitian generator, which the
generator-exponential chain in ``euler`` multiplies.  No command runs it:
the batch kernels write U and rho in closed form.
"""

from __future__ import annotations

import numpy as np

HERMITICITY_RTOL = 1e-10


class NonHermitianError(ValueError):
    """Input matrix was required to be Hermitian but is not (to tolerance)."""


def as_square(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a complex 2x2 or 3x3 ndarray, validating the shape."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if m.shape[0] not in (2, 3):
        raise ValueError(f"{name} must be 2x2 or 3x3, got {m.shape[0]}x{m.shape[0]}")
    return m


def _require_hermitian(a, name: str) -> np.ndarray:
    m = as_square(a, name)
    dev = np.linalg.norm(m - m.conj().T)
    if dev > HERMITICITY_RTOL * max(1.0, np.linalg.norm(m)):
        raise NonHermitianError(f"{name} is not Hermitian (||a - a^dag||_F = {dev:.3e})")
    return m


def expm_i_generator(g, angle: float) -> np.ndarray:
    """exp(i * g * angle) for Hermitian g, via spectral decomposition.

    The result is unitary; special-unitary when g is traceless.
    """
    m = _require_hermitian(g, "generator")
    w, v = np.linalg.eigh(m)
    phases = np.exp(1j * w * float(angle))
    return (v * phases) @ v.conj().T
