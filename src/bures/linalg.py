"""Validation and spectral operations for 2x2 and 3x3 matrices.

Shape and Hermiticity checks, and the two spectral operations of the check
forms: the unitary exp(i*g*t) of a Hermitian generator, which the
generator-exponential chain in ``euler`` multiplies, and a Hermitian
eigendecomposition (descending eigenvalues, phase-fixed eigenvectors).  No
command runs either: the batch kernels write U and rho in closed form, and
the n=2 inverse map takes its eigenvector in closed form too.
"""

from __future__ import annotations

from typing import NamedTuple

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


def frobenius_norm(a) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def _require_hermitian(a, name: str) -> np.ndarray:
    m = as_square(a, name)
    dev = frobenius_norm(m - m.conj().T)
    if dev > HERMITICITY_RTOL * max(1.0, frobenius_norm(m)):
        raise NonHermitianError(f"{name} is not Hermitian (||a - a^dag||_F = {dev:.3e})")
    return m


class HermitianEigenResult(NamedTuple):
    """Eigenvalues in descending order; eigenvectors as matrix columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eig_hermitian(a) -> HermitianEigenResult:
    """Eigendecomposition of a Hermitian matrix (LAPACK ``eigh``).

    Eigenvalues are returned in descending order, and every eigenvector is
    phased so its largest-magnitude component is real positive.  Within a
    degenerate eigenspace the basis is LAPACK's.
    """
    m = _require_hermitian(a, "matrix")
    w, v = np.linalg.eigh(m)
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    for j in range(v.shape[1]):
        k = int(np.argmax(np.abs(v[:, j])))
        pivot = v[k, j]
        if pivot != 0:
            v[:, j] *= pivot.conjugate() / abs(pivot)
    w.flags.writeable = False
    v.flags.writeable = False
    return HermitianEigenResult(w, v)


def expm_i_generator(g, angle: float) -> np.ndarray:
    """exp(i * g * angle) for Hermitian g, via spectral decomposition.

    The result is unitary; special-unitary when g is traceless.
    """
    m = _require_hermitian(g, "generator")
    w, v = np.linalg.eigh(m)
    phases = np.exp(1j * w * float(angle))
    return (v * phases) @ v.conj().T
