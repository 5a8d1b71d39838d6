"""Integration of spectral functionals against the normalized Bures measure.

Two routes: a tensor-product quadrature over the eigenvalue box (the
functional evaluated from the analytically known spectrum at each node; the
coset factor cancels between numerator and denominator), and a Monte Carlo
mean over Bures samples (the functional evaluated from the materialized
density matrices), which keeps the two paths independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .functionals import FunctionalId, from_eigenvalues, from_matrices
from .kernels import (EIGEN_RANGES, _eigen_integral, density_batch,
                      diag_eigenvalues_batch, eigen_measure_factor)

if TYPE_CHECKING:
    from .tensorgrid import QuadratureSpec

# n=3: 64 points/axis is 4096 nodes on the 2-D eigenvalue box (~10 ms); the
# half-resolution error estimate of the mean entropy there is ~2e-10
DEFAULT_POINTS = {2: 32, 3: 64}


@dataclass(frozen=True)
class IntegrationResult:
    value: float
    error_estimate: float
    method: str                      # "quadrature" or "mc"
    points_per_axis: int | None = None
    samples: int | None = None
    std_error: float | None = None


def integrate(n: int, functional: FunctionalId,
              spec: QuadratureSpec | None = None) -> IntegrationResult:
    """Quadrature of E[f(rho)] under the normalized Bures measure.

    ``functional`` is a FunctionalId (anything else is a TypeError).  Its f
    is spectral, so it does not depend on the coset angles: the exact coset
    integral cancels and E[f] = Q[f e] / Q[e], with e the eigenvalue factor
    and Q the Gauss-Legendre rule on the (n-1)-dimensional eigenvalue box.
    The error estimate compares against a half-resolution rerun.
    """
    # Monte Carlo runs no quadrature, so only this route loads the rule
    from .tensorgrid import MIN_POINTS, QuadratureSpec, tensor_quadrature

    if n not in (2, 3):
        raise ValueError(f"only n in {{2, 3}} is supported, got {n}")
    if spec is None:
        spec = QuadratureSpec(DEFAULT_POINTS[n])
    if spec.points_per_axis < MIN_POINTS:
        raise ValueError(f"points_per_axis must be >= {MIN_POINTS}, "
                         f"got {spec.points_per_axis}")
    if not isinstance(functional, FunctionalId):
        raise TypeError("quadrature needs a FunctionalId")
    lower, upper = zip(*EIGEN_RANGES[n])

    def fn(eig: np.ndarray) -> np.ndarray:
        lam = diag_eigenvalues_batch(n, eig)
        return from_eigenvalues(functional, lam) * eigen_measure_factor(n, eig)

    def mean(s: QuadratureSpec) -> float:
        return tensor_quadrature(fn, lower, upper, s) / _eigen_integral(n, s.points_per_axis)

    fine = mean(spec)
    coarse = mean(QuadratureSpec(spec.points_per_axis // 2))
    return IntegrationResult(value=fine, error_estimate=abs(fine - coarse),
                             method="quadrature",
                             points_per_axis=spec.points_per_axis)


def integrate_mc(n: int, functional: FunctionalId, samples: int,
                 seed: int) -> IntegrationResult:
    """Monte Carlo mean of f(rho) over Bures samples, with standard error.

    The functional is evaluated from the sampled density matrices themselves
    (not from the sampled angles), so this path is independent of the
    spectrum bookkeeping used by the quadrature route.  The samples are
    reduced one sampler index chunk (16384 rows) at a time: the matrices and
    their values are formed one slab (4096 rows) at a time into the chunk's
    value array, and each chunk's count, mean and sum of squared deviations
    are merged in index order by the pairwise update of Chan, Golub &
    LeVeque (Am. Stat. 37 (1983) 242), so memory does not grow with
    ``samples``.
    """
    if n not in (2, 3):
        raise ValueError(f"only n in {{2, 3}} is supported, got {n}")
    if not isinstance(functional, FunctionalId):
        raise TypeError("Monte Carlo integration needs a FunctionalId")
    if samples < 2:
        raise ValueError(f"samples must be >= 2 (the standard error needs two), "
                         f"got {samples}")
    from .sampling import _SLAB, SamplerSpec, sample_chunks

    k = n - 1
    count, mean, m2 = 0, 0.0, 0.0
    for params, _ in sample_chunks(n, samples, SamplerSpec(seed=seed)):
        vals = np.empty(len(params))
        for a in range(0, len(params), _SLAB):
            rows = params[a:a + _SLAB]
            vals[a:a + _SLAB] = from_matrices(functional,
                                              density_batch(n, rows[:, :k], rows[:, k:]))
        size, chunk_mean = len(vals), float(vals.mean())
        chunk_m2 = float(np.square(vals - chunk_mean).sum())
        delta = chunk_mean - mean
        total = count + size
        mean += delta * size / total
        m2 += chunk_m2 + delta * delta * count * size / total
        count = total
    se = float(np.sqrt(m2 / (count - 1) / count))
    return IntegrationResult(value=mean, error_estimate=se, method="mc",
                             samples=samples, std_error=se)
