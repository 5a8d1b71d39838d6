"""Euler-angle coordinates for 2- and 3-state density matrices.

A density matrix is coordinatized by the eigenvalue angles (trigonometric
simplex coordinates) together with the coset angles of a truncated Euler
product of special-unitary factors:

    n=2:  eigenvalues (cos^2 t, sin^2 t),                 t in [0, pi/4]
          U(alpha, beta) = e^{i s3 alpha} e^{i s2 beta}
    n=3:  eigenvalues (cos^2 t1 sin^2 t2, sin^2 t1 sin^2 t2, cos^2 t2),
          t1 in [0, pi/4], t2 in [0, arccos(1/sqrt(3))]
          U(alpha..b)   = e^{i l3 alpha} e^{i l2 beta} e^{i l3 gamma}
                          e^{i l5 theta} e^{i l3 a} e^{i l2 b}

with rho = U diag(eigenvalues) U^dag.  The full Euler product carries extra
rightmost diagonal factors (gamma for n=2; c and phi for n=3) that commute
with the diagonal matrix and drop out of rho; ``euler_unitary`` keeps them so
the invariance is testable, ``coset_unitary`` pins them to zero.

This module holds the typed scalar API: range-checked coordinates, the maps
that multiply generator exponentials, and the checks and inverse map on
density matrices.  The fast batch forms (``diag_eigenvalues_batch``,
``coset_unitary_batch``, ``density_batch``), which write U's entries in
closed form (Byrd, J. Math. Phys. 39 (1998) 6125) and rho's directly, live in
``kernels`` and are re-exported here; the scalar maps are the independent
check on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .generators import gell_mann, pauli
from .kernels import (COSET_NAMES, COSET_RANGES, EIGEN_NAMES, EIGEN_RANGES,  # noqa: F401
                      THETA2_MAX, check_n, coset_unitary_batch, density_batch,
                      diag_eigenvalues_batch)
from .linalg import as_square, expm_i_generator, frobenius_norm


class AngleRangeError(ValueError):
    """An angle lies outside its closed coordinate range."""


class NotADensityMatrixError(ValueError):
    """Input failed a density-matrix validity check."""


def _check_ranges(n: int, names, ranges, angles) -> tuple[float, ...]:
    vals = tuple(float(x) for x in angles)
    if len(vals) != len(names):
        raise ValueError(f"expected {len(names)} angles {names}, got {len(vals)}")
    for name, (lo, hi), x in zip(names, ranges, vals):
        if not (lo <= x <= hi):
            raise AngleRangeError(f"{name}={x!r} outside [{lo!r}, {hi!r}]")
    return vals


@dataclass(frozen=True)
class EigenvalueAngles:
    """Simplex coordinates of the density-matrix spectrum, range-checked."""

    n: int
    angles: tuple[float, ...]

    def __post_init__(self):
        check_n(self.n)
        object.__setattr__(self, "angles",
                           _check_ranges(self.n, EIGEN_NAMES[self.n],
                                         EIGEN_RANGES[self.n], self.angles))


@dataclass(frozen=True)
class CosetAngles:
    """Truncated-Euler angles of the eigenbasis, range-checked."""

    n: int
    angles: tuple[float, ...]

    def __post_init__(self):
        check_n(self.n)
        object.__setattr__(self, "angles",
                           _check_ranges(self.n, COSET_NAMES[self.n],
                                         COSET_RANGES[self.n], self.angles))


@dataclass(frozen=True)
class DensityMatrixParams:
    """Full (n^2 - 1)-dimensional coordinate of a density matrix."""

    n: int
    eigen: EigenvalueAngles
    coset: CosetAngles

    def __post_init__(self):
        check_n(self.n)
        if self.eigen.n != self.n or self.coset.n != self.n:
            raise ValueError("component dimensions disagree")

    @property
    def names(self) -> tuple[str, ...]:
        return EIGEN_NAMES[self.n] + COSET_NAMES[self.n]

    def values(self) -> tuple[float, ...]:
        return self.eigen.angles + self.coset.angles

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.names, self.values()))


def params_from_values(n: int, values) -> DensityMatrixParams:
    """Build DensityMatrixParams from a flat coordinate vector
    (eigenvalue angles first, then coset angles)."""
    check_n(n)
    vals = tuple(float(x) for x in values)
    k = n - 1
    if len(vals) != n * n - 1:
        raise ValueError(f"expected {n * n - 1} coordinates, got {len(vals)}")
    return DensityMatrixParams(n, EigenvalueAngles(n, vals[:k]), CosetAngles(n, vals[k:]))


# ---------------------------------------------------------------------------
# eigenvalue map
# ---------------------------------------------------------------------------

def diag_eigenvalues(eigen: EigenvalueAngles) -> np.ndarray:
    """Spectrum in the fixed construction order (not sorted)."""
    return diag_eigenvalues_batch(eigen.n, np.asarray(eigen.angles)[None, :])[0]


# ---------------------------------------------------------------------------
# Euler products
# ---------------------------------------------------------------------------

def factor_chain(n: int, angles):
    """(generator, factor angle) pairs of the full Euler product, left to
    right; the truncated (coset) product is its first n^2 - n pairs."""
    if n == 2:
        al, be, ga = angles
        return [(pauli(3), al), (pauli(2), be), (pauli(3), ga)]
    al, be, ga, th, a, b, c, phi = angles
    return [(gell_mann(3), al), (gell_mann(2), be), (gell_mann(3), ga),
            (gell_mann(5), th), (gell_mann(3), a), (gell_mann(2), b),
            (gell_mann(3), c), (gell_mann(8), phi / math.sqrt(3.0))]


def euler_unitary(n: int, angles) -> np.ndarray:
    """Full Euler product of SU(n): 3 angles for n=2, 8 for n=3.

    The rightmost factor for n=3 is exp(i * lambda_8 * phi/sqrt(3)).
    No range checks: this is the whole-group map.
    """
    check_n(n)
    vals = tuple(float(x) for x in angles)
    want = 3 if n == 2 else 8
    if len(vals) != want:
        raise ValueError(f"expected {want} angles for n={n}, got {len(vals)}")
    u = np.eye(n, dtype=np.complex128)
    for g, x in factor_chain(n, vals):
        u = u @ expm_i_generator(g, x)
    return u


def coset_unitary(coset: CosetAngles) -> np.ndarray:
    """Truncated Euler product: the dropped rightmost angles pinned to zero."""
    return euler_unitary(coset.n, coset.angles + (0.0,) * (coset.n - 1))


def density_from_params(p: DensityMatrixParams) -> np.ndarray:
    """rho = U diag(eigenvalues) U^dag; Hermitian, unit trace, PSD."""
    u = coset_unitary(p.coset)
    lam = diag_eigenvalues(p.eigen)
    return (u * lam) @ u.conj().T


# ---------------------------------------------------------------------------
# validation and the n=2 inverse map
# ---------------------------------------------------------------------------

def validate_density(rho, n: int | None = None, tol: float = 1e-10) -> np.ndarray:
    """Check Hermiticity, unit trace and positive semidefiniteness."""
    m = as_square(rho, "rho")
    if n is not None and m.shape[0] != n:
        raise NotADensityMatrixError(f"expected {n}x{n}, got {m.shape[0]}x{m.shape[0]}")
    if frobenius_norm(m - m.conj().T) > tol:
        raise NotADensityMatrixError("not Hermitian to tolerance")
    if abs(np.trace(m).real - 1.0) > tol or abs(np.trace(m).imag) > tol:
        raise NotADensityMatrixError(f"trace is {np.trace(m):.12g}, expected 1")
    w = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    if w.min() < -tol:
        raise NotADensityMatrixError(f"negative eigenvalue {w.min():.3e}")
    return m


class Inverse2Result(NamedTuple):
    """Inverse-map output: the coordinates plus a degenerate-spectrum flag."""

    params: DensityMatrixParams
    degenerate: bool


DEGENERACY_GAP = 1e-10


def params_from_density_2(rho) -> Inverse2Result:
    """Recover (theta, alpha, beta) from a 2x2 density matrix.

    theta = atan2(sqrt(lambda_min), sqrt(lambda_max)), with lambda_max = m + h
    as in ``functionals.spectrum_batch`` and lambda_min = det(rho) /
    lambda_max, so theta keeps its relative accuracy near a pure state, where
    arccos(sqrt(lambda_max)) would amplify the rounding of lambda_max near 1.
    Below theta of about 1e-8, sin^2 theta is under the rounding of the
    matrix entries and no formula recovers it: theta = 1e-9 comes back as 0.
    The leading eigenvector, in closed form
    (rho01, lambda_max - rho00) or (lambda_max - rho11, rho10), whichever is
    longer, fixes (alpha, beta) through its component moduli and relative
    phase, with the global-phase/sign freedom folded so alpha lands in
    [0, pi).  When the eigenvalues are degenerate (gap 2h <= 1e-10) the coset
    angles are not identifiable; they are set to zero and ``degenerate`` is
    flagged.
    """
    m = validate_density(rho, n=2, tol=1e-10)
    a, d, off = m[0, 0].real, m[1, 1].real, complex(m[0, 1])
    h = math.hypot(0.5 * (a - d), abs(off))
    lam_max = 0.5 * (a + d) + h
    lam_min = min(max((a * d - abs(off) ** 2) / lam_max, 0.0), lam_max)
    theta = math.atan2(math.sqrt(lam_min), math.sqrt(lam_max))
    degenerate = 2.0 * h <= DEGENERACY_GAP
    if degenerate:
        alpha, beta = 0.0, 0.0
    else:
        # both solve (rho - lambda_max) v = 0; the longer one is the one
        # that does not cancel, as lambda_max - rho00 does when rho00 > rho11
        if a > d:
            lead = (lam_max - d, off.conjugate())
        else:
            lead = (off, lam_max - a)
        norm = math.hypot(abs(lead[0]), abs(lead[1]))
        r1, r2 = abs(lead[0]) / norm, abs(lead[1]) / norm
        beta = math.atan2(r2, r1)
        if r1 < 1e-12 or r2 < 1e-12:
            alpha = 0.0           # rho is diagonal; alpha is pure gauge
        else:
            # leading column of U is (e^{i alpha} cos beta, -e^{-i alpha} sin beta)
            alpha = (math.atan2(lead[0].imag, lead[0].real)
                     - math.atan2(lead[1].imag, lead[1].real) + math.pi) / 2.0
            alpha %= math.pi
    params = DensityMatrixParams(2, EigenvalueAngles(2, (theta,)),
                                 CosetAngles(2, (alpha, beta)))
    return Inverse2Result(params, degenerate)
