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

The batch kernels write U's entries in closed form (Byrd, J. Math. Phys. 39
(1998) 6125), and rho's directly for n=2; the scalar maps multiply generator
exponentials instead and are the independent check on those kernels.  They
import ``generators`` and ``linalg`` when called, so the batch kernels load
neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

THETA2_MAX = float(np.arccos(1.0 / np.sqrt(3.0)))

EIGEN_NAMES = {2: ("theta",), 3: ("theta1", "theta2")}
COSET_NAMES = {2: ("alpha", "beta"), 3: ("alpha", "beta", "gamma", "theta_big", "a", "b")}

_HALF_PI = math.pi / 2
EIGEN_RANGES = {2: ((0.0, math.pi / 4),),
                3: ((0.0, math.pi / 4), (0.0, THETA2_MAX))}
COSET_RANGES = {2: ((0.0, math.pi), (0.0, _HALF_PI)),
                3: ((0.0, math.pi), (0.0, _HALF_PI), (0.0, math.pi),
                    (0.0, _HALF_PI), (0.0, math.pi), (0.0, _HALF_PI))}

class AngleRangeError(ValueError):
    """An angle lies outside its closed coordinate range."""


class NotADensityMatrixError(ValueError):
    """Input failed a density-matrix validity check."""


def _check_n(n: int) -> int:
    if n not in (2, 3):
        raise ValueError(f"only n in {{2, 3}} is supported, got {n}")
    return n


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
        _check_n(self.n)
        object.__setattr__(self, "angles",
                           _check_ranges(self.n, EIGEN_NAMES[self.n],
                                         EIGEN_RANGES[self.n], self.angles))


@dataclass(frozen=True)
class CosetAngles:
    """Truncated-Euler angles of the eigenbasis, range-checked."""

    n: int
    angles: tuple[float, ...]

    def __post_init__(self):
        _check_n(self.n)
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
        _check_n(self.n)
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
    _check_n(n)
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


def diag_eigenvalues_batch(n: int, angles: np.ndarray) -> np.ndarray:
    """Vectorized spectrum map; ``angles`` has shape (..., n-1)."""
    angles = np.asarray(angles, dtype=np.float64)
    if n == 2:
        t = angles[..., 0]
        return np.stack([np.cos(t) ** 2, np.sin(t) ** 2], axis=-1)
    t1, t2 = angles[..., 0], angles[..., 1]
    s2 = np.sin(t2) ** 2
    return np.stack([np.cos(t1) ** 2 * s2, np.sin(t1) ** 2 * s2, np.cos(t2) ** 2],
                    axis=-1)


# ---------------------------------------------------------------------------
# Euler products
# ---------------------------------------------------------------------------

def factor_chain(n: int, angles):
    """(generator, factor angle) pairs of the full Euler product, left to
    right; the truncated (coset) product is its first n^2 - n pairs."""
    from .generators import gell_mann, pauli     # the scalar maps only

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
    _check_n(n)
    vals = tuple(float(x) for x in angles)
    want = 3 if n == 2 else 8
    if len(vals) != want:
        raise ValueError(f"expected {want} angles for n={n}, got {len(vals)}")
    from .linalg import expm_i_generator

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
# vectorized kernels (hot paths: measures, quadrature, sampling)
# ---------------------------------------------------------------------------

def _coset_entries(n: int, angles: np.ndarray) -> tuple[tuple[np.ndarray, ...], ...]:
    """The rows of ``coset_unitary`` entry by entry, each entry an (N,) array."""
    al, be, *rest = np.atleast_2d(np.asarray(angles, dtype=np.float64)).T
    if n == 2:
        ea, cb, sb = np.exp(1j * al), np.cos(be), np.sin(be)
        return (ea * cb, ea * sb), (-ea.conj() * sb, ea.conj() * cb)
    ga, th, a, b = rest
    eal, ega, ea = np.exp(1j * al), np.exp(1j * ga), np.exp(1j * a)
    cbe, sbe = np.cos(be), np.sin(be)
    ct, st = np.cos(th), np.sin(th)
    cb, sb = np.cos(b), np.sin(b)
    # The conjugates are named so that every complex product keeps the
    # operand order it is written in: from 16384 rows up numpy reuses a
    # temporary right operand in place, which swaps the operands, and the
    # SIMD complex multiply is not bitwise commutative.
    ealc, egac, eac = eal.conj(), ega.conj(), ea.conj()
    # L = P(alpha) R01(beta) P(gamma) acts on rows and columns 0, 1 only
    l00, l01 = eal * cbe * ega, eal * sbe * egac
    l10, l11 = -ealc * sbe * ega, ealc * cbe * egac
    # M = L R02(theta) P(a); R01(b) then mixes M's columns 0 and 1
    m00, m01, m10, m11 = l00 * ct * ea, l01 * eac, l10 * ct * ea, l11 * eac
    m20 = -st * ea
    return ((m00 * cb - m01 * sb, m00 * sb + m01 * cb, l00 * st),
            (m10 * cb - m11 * sb, m10 * sb + m11 * cb, l10 * st),
            (m20 * cb, m20 * sb, ct))


def coset_unitary_batch(n: int, angles: np.ndarray) -> np.ndarray:
    """Vectorized ``coset_unitary``, entry by entry; ``angles`` has shape
    (N, 2) or (N, 6)."""
    _check_n(n)
    rows = _coset_entries(n, angles)
    u = np.empty((len(rows[0][0]), n, n), dtype=np.complex128)
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            u[:, i, j] = entry
    return u


def density_batch(n: int, eigen_angles: np.ndarray, coset_angles: np.ndarray) -> np.ndarray:
    """Vectorized ``density_from_params`` for stacked angle rows.

    Each entry is written from its own closed form, so rho_ji = conj(rho_ij)
    bit for bit and the diagonal is exactly real.
    """
    lam = diag_eigenvalues_batch(n, eigen_angles)
    if n == 3:
        # rho_ij = sum_k lam_k U_ik conj(U_jk), in real arithmetic
        rows = _coset_entries(3, coset_angles)
        re_u = [[np.real(x) for x in row] for row in rows]
        im_u = [[np.imag(x) for x in row] for row in rows]
        rho = np.empty((lam.shape[0], 3, 3), dtype=np.complex128)
        re, im = rho.real, rho.imag
        for i in range(3):
            a = [lam[:, k] * re_u[i][k] for k in range(3)]
            b = [lam[:, k] * im_u[i][k] for k in range(3)]
            for j in range(i, 3):
                t = [a[k] * re_u[j][k] + b[k] * im_u[j][k] for k in range(3)]
                re[:, i, j] = re[:, j, i] = t[0] + t[1] + t[2]
                if i == j:
                    im[:, i, i] = 0.0
                else:
                    t = [b[k] * re_u[j][k] - a[k] * im_u[j][k] for k in range(3)]
                    im[:, i, j] = t[0] + t[1] + t[2]
                    im[:, j, i] = -im[:, i, j]
        return rho
    l1, l2 = lam.T
    al, be = np.atleast_2d(np.asarray(coset_angles, dtype=np.float64)).T
    cb, sb = np.cos(be), np.sin(be)
    c2, s2 = cb * cb, sb * sb
    off = (l2 - l1) * sb * cb
    rho = np.empty((lam.shape[0], 2, 2), dtype=np.complex128)
    rho[:, 0, 0] = l1 * c2 + l2 * s2
    rho[:, 1, 1] = l1 * s2 + l2 * c2
    rho[:, 0, 1] = off * np.exp(2j * al)
    rho[:, 1, 0] = rho[:, 0, 1].conj()
    return rho


# ---------------------------------------------------------------------------
# validation and the n=2 inverse map
# ---------------------------------------------------------------------------

def validate_density(rho, n: int | None = None, tol: float = 1e-10) -> np.ndarray:
    """Check Hermiticity, unit trace and positive semidefiniteness."""
    from .linalg import as_square, frobenius_norm

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

    theta = arccos(sqrt(lambda_max)).  The leading eigenvector fixes
    (alpha, beta) through its component moduli and relative phase, with the
    global-phase/sign freedom folded so alpha lands in [0, pi).  When the
    eigenvalues are degenerate (gap <= 1e-10) the coset angles are not
    identifiable; they are set to zero and ``degenerate`` is flagged.
    """
    from .linalg import eig_hermitian

    m = validate_density(rho, n=2, tol=1e-10)
    w, v = eig_hermitian(m)
    lam_max = min(max(float(w[0]), 0.5), 1.0)
    theta = math.acos(math.sqrt(lam_max))
    degenerate = bool(w[0] - w[1] <= DEGENERACY_GAP)
    if degenerate:
        alpha, beta = 0.0, 0.0
    else:
        lead = v[:, 0]
        r1, r2 = abs(lead[0]), abs(lead[1])
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
