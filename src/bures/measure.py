"""The Bures measure in Euler-angle coordinates.

The coordinate density is a product of three factors:

  * the eigenvalue-simplex density
    (lam_1..lam_n)^(-1/2) * prod_{j<k} 4 (lam_j - lam_k)^2 / (lam_j + lam_k),
  * the Jacobian |d(lam_1..lam_{n-1}) / d(eigenvalue angles)|,
  * the invariant coset density of the truncated Euler product, in closed
    form (``coset_measure_factor``); ``haar_coset_density`` computes it from
    first principles as |det C| with C_{k,a} = Tr(-i U^dag dU/dx_k T_a)/2,
    columns over the non-diagonal (coset) generators, and is its check.

The first two factors have an integrable 1/sqrt(lam) singularity against a
vanishing Jacobian at spectrum boundaries; ``*_measure_factor`` composes them
analytically so the product stays finite there.  The normalization constant
is a Gauss-Legendre quadrature of the eigenvalue factor over its box times
the exact coset integral.  Everything is exposed both as scalar operations on
the typed coordinates and as vectorized kernels.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .euler import (EIGEN_RANGES, CosetAngles, DensityMatrixParams, EigenvalueAngles,
                    factor_chain)
from .tensorgrid import QuadratureSpec, tensor_quadrature


class NormalizationMode(Enum):
    RAW = "raw"
    NORMALIZED = "normalized"


@dataclass(frozen=True)
class MeasureValue:
    """A nonnegative coordinate density with its normalization convention."""

    value: float
    normalization_mode: NormalizationMode
    n: int


# ---------------------------------------------------------------------------
# eigenvalue factor
# ---------------------------------------------------------------------------

def hall_density(lambdas) -> float:
    """Eigenvalue-simplex density with respect to d(lam_1)..d(lam_{n-1}).

    Returns +inf when some eigenvalue is exactly zero (boundary-singular);
    the 1/sqrt factor diverges there and the caller decides how to handle it.
    """
    lam = np.asarray(lambdas, dtype=np.float64)
    if lam.ndim != 1 or lam.size not in (2, 3):
        raise ValueError(f"expected 2 or 3 eigenvalues, got shape {lam.shape}")
    if np.any(lam < 0):
        raise ValueError(f"eigenvalues must be nonnegative, got {lam.tolist()}")
    if abs(lam.sum() - 1.0) > 1e-12:
        raise ValueError(f"eigenvalues must sum to 1, got {lam.sum()!r}")
    if np.any(lam == 0.0):
        return math.inf
    prod = 1.0
    for j in range(lam.size):
        for k in range(j + 1, lam.size):
            prod *= 4.0 * (lam[j] - lam[k]) ** 2 / (lam[j] + lam[k])
    return float(prod / math.sqrt(np.prod(lam)))


def eigenvalue_jacobian(eigen: EigenvalueAngles) -> float:
    """|det d(lam_1..lam_{n-1}) / d(angles)| in closed form."""
    if eigen.n == 2:
        (t,) = eigen.angles
        return abs(math.sin(2 * t))
    t1, t2 = eigen.angles
    return abs(math.sin(2 * t1) * math.sin(t2) ** 2 * math.sin(2 * t2))


def eigen_measure_factor(n: int, angles: np.ndarray) -> np.ndarray:
    """Eigenvalue density times Jacobian, composed analytically.

    n=2: 8 cos^2(2t).  n=3: the only vanishing pair denominator
    (lam_1 + lam_2 = sin^2 t2) cancels against the Jacobian, leaving an
    explicit product with denominators bounded below by 1/3.
    Finite on the whole closed box; ``angles`` has shape (..., n-1).
    """
    angles = np.asarray(angles, dtype=np.float64)
    if n == 2:
        t = angles[..., 0]
        return 8.0 * np.cos(2 * t) ** 2
    t1, t2 = angles[..., 0], angles[..., 1]
    s2 = np.sin(t2) ** 2
    l1 = np.cos(t1) ** 2 * s2
    l2 = np.sin(t1) ** 2 * s2
    l3 = np.cos(t2) ** 2
    return (256.0 * np.sin(t2) ** 3 * np.cos(2 * t1) ** 2
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


# ---------------------------------------------------------------------------
# coset factor
# ---------------------------------------------------------------------------

def haar_coset_density(coset: CosetAngles) -> float:
    """Invariant coset density |det C| at one point.

    Each angle sits in exactly one exponential factor, so dU/dx_k is U with
    that factor replaced by its exact derivative (i g_k) e^{i g_k x_k}; the
    rows of C are the coset-generator coefficients of -i U^dag dU/dx_k.
    """
    from .generators import generator_set     # the check only
    from .linalg import dagger, expm_i_generator, matmul

    n = coset.n
    chain = factor_chain(n, coset.angles + (0.0,) * (n - 1))[:len(coset.angles)]
    factors = [expm_i_generator(g, x) for g, x in chain]
    coset_gens = generator_set(n).coset_generators()
    u = np.eye(n, dtype=np.complex128)
    for f in factors:
        u = matmul(u, f)
    udag = dagger(u)
    rows = []
    for k, (g, _) in enumerate(chain):
        du = np.eye(n, dtype=np.complex128)
        for j, f in enumerate(factors):
            du = matmul(du, matmul(1j * g, f) if j == k else f)
        x = -1j * matmul(udag, du)
        rows.append([0.5 * np.trace(x @ t).real for t in coset_gens])
    return abs(float(np.linalg.det(np.array(rows))))


def coset_measure_factor(n: int, angles: np.ndarray) -> np.ndarray:
    """Invariant coset density in closed form; ``angles`` has shape (N, 2|6).

    n=2: |sin 2beta|.  n=3: |sin 2beta sin 2b sin^3(theta) cos(theta)|, the
    Haar measure of SU(3) in Euler angles (Byrd, J. Math. Phys. 39 (1998)
    6125) on the coset.  Equal to ``haar_coset_density`` to roundoff.
    """
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
    u = np.asarray(u, dtype=np.float64)
    out = math.pi * u
    out[..., 1] = 0.5 * np.arccos(1.0 - 2.0 * u[..., 1])
    if n == 3:
        out[..., 3] = np.arcsin(u[..., 3] ** 0.25)
        out[..., 5] = 0.5 * np.arccos(1.0 - 2.0 * u[..., 5])
    return out


# ---------------------------------------------------------------------------
# joint density and normalization
# ---------------------------------------------------------------------------

def joint_density_batch(n: int, points: np.ndarray, normalized: bool = False) -> np.ndarray:
    """RAW (or normalized) joint density on stacked full-coordinate rows."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    k = n - 1
    dens = (eigen_measure_factor(n, points[:, :k])
            * coset_measure_factor(n, points[:, k:]))
    if normalized:
        dens = dens / normalization_constant(n)
    return dens


def bures_joint_density(p: DensityMatrixParams,
                        mode: NormalizationMode = NormalizationMode.RAW) -> MeasureValue:
    """Joint coordinate density at one parameter point."""
    normalized = mode is NormalizationMode.NORMALIZED
    value = float(joint_density_batch(p.n, p.values(), normalized)[0])
    return MeasureValue(value, mode, p.n)


# reference resolutions of the eigenvalue-box quadrature (Gauss-Legendre);
# convergence is geometric, so these are already stable to ~1e-12
REFERENCE_POINTS = {2: 64, 3: 10}

# exact integral of the coset factor over the coset box: pi from alpha, and
# for n=3 pi^3 from the three free diagonal angles times 1/4 from the rest
_COSET_VOLUME = {2: math.pi, 3: math.pi ** 3 / 4}


@functools.cache
def _eigen_integral(n: int, pts: int) -> float:
    """Cached Gauss-Legendre quadrature of the eigenvalue factor over its box."""
    lower, upper = zip(*EIGEN_RANGES[n])
    return tensor_quadrature(lambda p: eigen_measure_factor(n, p), lower, upper,
                             QuadratureSpec(pts))


def normalization_constant(n: int, points_per_axis: int | None = None) -> float:
    """Integral of the RAW joint density over the angle box (cached).

    The RAW density is an eigenvalue-angle factor times the coset factor, so
    the integral is the eigenvalue-box quadrature times the exact coset
    integral ``coset_normalization_constant(n)``.
    """
    if n not in (2, 3):
        raise ValueError(f"only n in {{2, 3}} is supported, got {n}")
    pts = REFERENCE_POINTS[n] if points_per_axis is None else int(points_per_axis)
    return _eigen_integral(n, pts) * coset_normalization_constant(n)


def coset_normalization_constant(n: int) -> float:
    """Integral of the coset density over the coset box: pi (n=2), pi^3/4 (n=3)."""
    if n not in (2, 3):
        raise ValueError(f"only n in {{2, 3}} is supported, got {n}")
    return _COSET_VOLUME[n]
