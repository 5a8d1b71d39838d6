"""Batch closed forms behind sampling, quadrature and the ``sample`` output.

This module holds the fast form of every quantity the hot paths evaluate on
stacked angle rows: the eigenvalue map, U's entries and rho = U diag(lam) U^dag
(``density_batch``), the eigenvalue factor of the Bures density and its exact
sup, the coset factor and its inverse CDFs, and the normalization constant
(the cached eigenvalue-box quadrature at ``points`` Gauss-Legendre points per
axis, an int, times the exact coset integral).  It defines no typed
coordinate, and ``tensorgrid`` loads only when a quadrature runs, so
``sample``, ``volume`` and both ``integrate`` methods run no module of the
scalar API.  ``euler`` and ``measure`` re-export these names next to
that API and the independent check forms.
"""

from __future__ import annotations

import functools
import math
import operator

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


def check_n(n: int) -> int:
    if n not in (2, 3):
        raise ValueError(f"only n in {{2, 3}} is supported, got {n}")
    return n


# ---------------------------------------------------------------------------
# eigenvalue map and density matrices
# ---------------------------------------------------------------------------

def _eigenvalues(n: int, angles: np.ndarray) -> tuple[np.ndarray, ...]:
    """The spectrum map's n eigenvalues, each a (...,) array; ``angles`` has
    shape (..., n-1)."""
    angles = np.asarray(angles, dtype=np.float64)
    if n == 2:
        t = angles[..., 0]
        return np.cos(t) ** 2, np.sin(t) ** 2
    t1, t2 = angles[..., 0], angles[..., 1]
    s2 = np.sin(t2) ** 2
    return np.cos(t1) ** 2 * s2, np.sin(t1) ** 2 * s2, np.cos(t2) ** 2


def diag_eigenvalues_batch(n: int, angles: np.ndarray) -> np.ndarray:
    """Vectorized spectrum map; ``angles`` has shape (..., n-1)."""
    return np.stack(_eigenvalues(check_n(n), angles), axis=-1)


def _coset_entries(n: int, angles: np.ndarray) -> tuple[tuple[np.ndarray, ...], ...]:
    """The rows of ``euler.coset_unitary`` entry by entry, each entry an (N,) array."""
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
    """Vectorized ``euler.coset_unitary``, entry by entry; ``angles`` has
    shape (N, 2) or (N, 6)."""
    check_n(n)
    rows = _coset_entries(n, angles)
    u = np.empty((len(rows[0][0]), n, n), dtype=np.complex128)
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            u[:, i, j] = entry
    return u


def density_batch(n: int, eigen_angles: np.ndarray, coset_angles: np.ndarray) -> np.ndarray:
    """Vectorized ``euler.density_from_params`` for stacked angle rows.

    Each entry is written from its own closed form, so rho_ji = conj(rho_ij)
    bit for bit and the diagonal's imaginary parts are exactly +0.0.
    """
    eigen_angles = np.asarray(eigen_angles, dtype=np.float64)
    coset_angles = np.atleast_2d(np.asarray(coset_angles, dtype=np.float64))
    if check_n(n) == 3:
        # rho_ij = sum_k lam_k U_ik conj(U_jk), in real arithmetic
        lam = _eigenvalues(3, eigen_angles)
        rows = _coset_entries(3, coset_angles)
        re_u = [[np.real(x) for x in row] for row in rows]
        im_u = [[np.imag(x) for x in row] for row in rows]
        rho = np.empty((len(eigen_angles), 3, 3), dtype=np.complex128)
        re, im = rho.real, rho.imag
        for i in range(3):
            a = [lam[k] * re_u[i][k] for k in range(3)]
            b = [lam[k] * im_u[i][k] for k in range(3)]
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
    l1, l2 = _eigenvalues(2, eigen_angles)
    cb, sb = np.cos(coset_angles[:, 1]), np.sin(coset_angles[:, 1])
    off = (l2 - l1) * sb * cb
    c2, s2 = np.multiply(cb, cb, out=cb), np.multiply(sb, sb, out=sb)
    rho = np.empty((len(l1), 2, 2), dtype=np.complex128)
    # the diagonal l1 c2 + l2 s2 and l1 s2 + l2 c2, formed in place, and its
    # operands let go before the phase is formed: fewer and smaller work
    # arrays (217 us for a 4096-row slab, against 285 us with temporaries)
    re, im = rho.real, rho.imag
    np.multiply(l1, c2, out=re[:, 0, 0])
    np.multiply(l1, s2, out=re[:, 1, 1])
    re[:, 0, 0] += np.multiply(l2, s2, out=s2)
    re[:, 1, 1] += np.multiply(l2, c2, out=c2)
    im[:, 0, 0] = im[:, 1, 1] = 0.0
    del l1, l2, cb, sb, c2, s2
    phase = 2j * coset_angles[:, 0]
    rho[:, 0, 1] = np.multiply(off, np.exp(phase, out=phase), out=phase)
    np.conjugate(rho[:, 0, 1], out=rho[:, 1, 0])
    return rho


# ---------------------------------------------------------------------------
# factors of the Bures density
# ---------------------------------------------------------------------------

def eigen_measure_factor(n: int, angles: np.ndarray) -> np.ndarray:
    """Eigenvalue density times Jacobian, composed analytically.

    n=2: 8 cos^2(2t).  n=3: the only vanishing pair denominator
    (lam_1 + lam_2 = sin^2 t2) cancels against the Jacobian, leaving an
    explicit product with denominators bounded below by 1/3.
    Finite on the whole closed box; ``angles`` has shape (..., n-1).
    """
    check_n(n)
    angles = np.asarray(angles, dtype=np.float64)
    if n == 2:
        t = angles[..., 0]
        return 8.0 * np.cos(2 * t) ** 2
    t1, t2 = angles[..., 0], angles[..., 1]
    st2 = np.sin(t2)
    s2 = st2 ** 2
    l1 = np.cos(t1) ** 2 * s2
    l2 = np.sin(t1) ** 2 * s2
    l3 = np.cos(t2) ** 2
    return (256.0 * st2 ** 3 * np.cos(2 * t1) ** 2
            * (l1 - l3) ** 2 * (l2 - l3) ** 2 / ((l1 + l3) * (l2 + l3)))


def _eigen_sup_3() -> float:
    # on the edge t1 = 0 the factor is 256 x^{3/2} (1-x) (1-2x)^2 with
    # x = sin^2 t2; its derivative vanishes at the root of 18x^2 - 19x + 3
    # inside the box (x <= 2/3), and the maximum over the box lies on that edge
    x = (19.0 - math.sqrt(145.0)) / 36.0
    return 256.0 * x ** 1.5 * (1.0 - x) * (1.0 - 2.0 * x) ** 2


# exact sup of ``eigen_measure_factor`` over the eigenvalue box: 8 at t = 0
# for n=2, 6.6037001945013625 for n=3; the sampler's rejection bound M
EIGEN_FACTOR_SUP = {2: 8.0, 3: _eigen_sup_3()}


def coset_measure_factor(n: int, angles: np.ndarray) -> np.ndarray:
    """Invariant coset density in closed form; ``angles`` has shape (N, 2|6).

    n=2: |sin 2beta|.  n=3: |sin 2beta sin 2b sin^3(theta) cos(theta)|, the
    Haar measure of SU(3) in Euler angles (Byrd, J. Math. Phys. 39 (1998)
    6125) on the coset.  Equal to ``measure.haar_coset_density`` to roundoff.
    """
    check_n(n)
    angles = np.atleast_2d(np.asarray(angles, dtype=np.float64))
    dens = np.abs(np.sin(2 * angles[:, 1]))
    if n == 3:
        th = angles[:, 3]
        dens *= np.abs(np.sin(2 * angles[:, 5]) * np.sin(th) ** 3 * np.cos(th))
    return dens


def coset_angles_from_uniforms(n: int, u: np.ndarray) -> np.ndarray:
    """Map uniforms on [0, 1) to coset angles with density proportional to
    ``coset_measure_factor``; ``u`` has shape (..., 2|6).

    The closed form is a product of one-angle factors, so each angle is its
    own inverse CDF: alpha, gamma and a are uniform on [0, pi); beta and b
    have cdf (1 - cos 2x)/2; theta_big has cdf sin^4.
    """
    check_n(n)
    u = np.asarray(u, dtype=np.float64)
    out = math.pi * u
    out[..., 1] = 0.5 * np.arccos(1.0 - 2.0 * u[..., 1])
    if n == 3:
        out[..., 3] = np.arcsin(u[..., 3] ** 0.25)
        out[..., 5] = 0.5 * np.arccos(1.0 - 2.0 * u[..., 5])
    return out


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

@functools.cache
def _eigen_integral(n: int, pts: int) -> float:
    """Cached Gauss-Legendre quadrature of the eigenvalue factor over its box."""
    from .tensorgrid import tensor_quadrature

    lower, upper = zip(*EIGEN_RANGES[n])
    return tensor_quadrature(lambda p: eigen_measure_factor(n, p), lower, upper, pts)


# reference resolutions of the eigenvalue-box quadrature (Gauss-Legendre);
# convergence is geometric, so these are already stable to ~1e-12
REFERENCE_POINTS = {2: 64, 3: 10}

# exact integral of the coset factor over the coset box: pi from alpha, and
# for n=3 pi^3 from the three free diagonal angles times 1/4 from the rest
_COSET_VOLUME = {2: math.pi, 3: math.pi ** 3 / 4}


def normalization_constant(n: int, points: int | None = None) -> float:
    """Integral of the RAW joint density over the angle box (cached).

    The RAW density is an eigenvalue-angle factor times the coset factor, so
    the integral is the eigenvalue-box quadrature times the exact coset
    integral ``coset_normalization_constant(n)``, the quadrature at ``points``
    per axis (default ``REFERENCE_POINTS[n]``).  A float ``points`` is a
    TypeError, not truncated to the rule below it.
    """
    check_n(n)
    pts = REFERENCE_POINTS[n] if points is None else operator.index(points)
    return _eigen_integral(n, pts) * coset_normalization_constant(n)


def coset_normalization_constant(n: int) -> float:
    """Integral of the coset density over the coset box: pi (n=2), pi^3/4 (n=3)."""
    return _COSET_VOLUME[check_n(n)]
