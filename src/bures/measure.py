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
the exact coset integral.

This module holds the check forms (``hall_density``,
``eigenvalue_jacobian``, ``haar_coset_density``) and the scalar density on
the typed coordinates, ``bures_joint_density``, which is the product of the
two ``kernels`` factors on its one row: no second batch form.  The fast
vectorized factors (``eigen_measure_factor`` and its exact sup
``EIGEN_FACTOR_SUP``, ``coset_measure_factor`` and its inverse CDFs
``coset_angles_from_uniforms``) and the normalization constants live in
``kernels``.
"""

from __future__ import annotations

import math

import numpy as np

from .euler import CosetAngles, DensityMatrixParams, EigenvalueAngles, factor_chain
from .generators import generator_set
from .kernels import coset_measure_factor, eigen_measure_factor, normalization_constant
from .linalg import expm_i_generator


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
    if not np.isfinite(lam).all():         # a NaN would pass the tests below
        raise ValueError(f"eigenvalues must be finite, got {lam.tolist()}")
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


# ---------------------------------------------------------------------------
# coset factor
# ---------------------------------------------------------------------------

def haar_coset_density(coset: CosetAngles) -> float:
    """Invariant coset density |det C| at one point.

    Each angle sits in exactly one exponential factor, so dU/dx_k is U with
    that factor replaced by its exact derivative (i g_k) e^{i g_k x_k}; the
    rows of C are the coset-generator coefficients of -i U^dag dU/dx_k.
    """
    n = coset.n
    chain = factor_chain(n, coset.angles + (0.0,) * (n - 1))[:len(coset.angles)]
    factors = [expm_i_generator(g, x) for g, x in chain]
    coset_gens = generator_set(n).coset_generators()
    u = np.eye(n, dtype=np.complex128)
    for f in factors:
        u = u @ f
    udag = u.conj().T
    rows = []
    for k, (g, _) in enumerate(chain):
        du = np.eye(n, dtype=np.complex128)
        for j, f in enumerate(factors):
            du = du @ ((1j * g) @ f if j == k else f)
        x = -1j * (udag @ du)
        rows.append([0.5 * np.trace(x @ t).real for t in coset_gens])
    return abs(float(np.linalg.det(np.array(rows))))


# ---------------------------------------------------------------------------
# joint density
# ---------------------------------------------------------------------------

def bures_joint_density(p: DensityMatrixParams, normalized: bool = False) -> float:
    """RAW (or normalized) joint coordinate density at one parameter point:
    the eigenvalue factor times the coset factor, each the kernel on its
    one-row array."""
    dens = float((eigen_measure_factor(p.n, [p.eigen.angles])
                  * coset_measure_factor(p.n, [p.coset.angles]))[0])
    return dens / normalization_constant(p.n) if normalized else dens
