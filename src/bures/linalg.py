"""Complex matrix arithmetic for 2x2 and 3x3 matrices.

Thin, validated wrappers around numpy plus the two spectral operations the
rest of the package is built on: the unitary exp(i*g*t) of a Hermitian
generator and a deterministic Hermitian eigendecomposition (descending
eigenvalues, index-ordered tie-breaking in degenerate subspaces).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

HERMITICITY_RTOL = 1e-10
# eigenvalues closer than this (relative to scale) are treated as one cluster
_DEGENERACY_RTOL = 2e-14


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


def matmul(a, b) -> np.ndarray:
    a = as_square(a, "a")
    b = as_square(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return a @ b


def dagger(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_square(a).conj().T


def trace(a) -> complex:
    return complex(np.trace(as_square(a)))


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


def _canonical_cluster_basis(vecs: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of span(vecs): Gram-Schmidt of the
    projector's columns in index order (basis-independent, so LAPACK's
    arbitrary choice inside a degenerate subspace is removed)."""
    proj = vecs @ vecs.conj().T
    size = vecs.shape[1]
    basis: list[np.ndarray] = []
    for k in range(proj.shape[0]):
        x = proj[:, k].copy()
        for b in basis:
            x -= b * (b.conj() @ x)
        nrm = np.linalg.norm(x)
        if nrm > 1e-6:
            x /= nrm
            for b in basis:  # second pass for orthogonality at roundoff level
                x -= b * (b.conj() @ x)
            x /= np.linalg.norm(x)
            basis.append(x)
        if len(basis) == size:
            break
    return np.column_stack(basis)


def eig_hermitian(a) -> HermitianEigenResult:
    """Eigendecomposition of a Hermitian matrix.

    Eigenvalues are returned in descending order.  Within numerically
    degenerate clusters the eigenvector basis is re-fixed deterministically
    (see ``_canonical_cluster_basis``), and every eigenvector is phased so
    its largest-magnitude component is real positive; equal inputs therefore
    give equal outputs, and diagonal inputs give standard-basis vectors.
    """
    m = _require_hermitian(a, "matrix")
    w, v = np.linalg.eigh(m)
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    tol = _DEGENERACY_RTOL * max(1.0, float(np.abs(w).max()))
    i = 0
    while i < len(w):
        j = i + 1
        while j < len(w) and abs(w[j] - w[j - 1]) <= tol:
            j += 1
        if j - i > 1:
            v[:, i:j] = _canonical_cluster_basis(v[:, i:j])
        i = j
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
