"""Integration of spectral functionals against the normalized Bures measure.

Two routes: ``kernels.eigen_box_integral``, the package's one quadrature,
over the eigenvalue box (the functional evaluated from the analytically
known spectrum at each node; the coset factor cancels between numerator and
denominator), whose one setting is its Gauss-Legendre point count per axis,
``points`` (default ``kernels.QUADRATURE_POINTS``), and a Monte Carlo
mean over Bures samples (the functional evaluated from the materialized
density matrices), which keeps the two paths independent.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .functionals import FunctionalId, from_eigenvalues, from_matrices
from .kernels import (QUADRATURE_POINTS, check_n, density_batch, eigen_box_integral,
                      estimated)


@dataclass(frozen=True)
class IntegrationResult:
    value: float
    error_estimate: float            # Monte Carlo: the standard error


def integrate(n: int, functional: FunctionalId,
              points: int | None = None) -> IntegrationResult:
    """Quadrature of E[f(rho)] under the normalized Bures measure.

    ``functional`` is a FunctionalId (anything else is a TypeError).  Its f
    is spectral, so it does not depend on the coset angles: the exact coset
    integral cancels and E[f] = Q[f e] / Q[e], with e the eigenvalue factor
    and Q ``kernels.eigen_box_integral``.  Q has ``points`` points per axis
    (default ``QUADRATURE_POINTS``; a float is a TypeError), and the error
    estimate is ``kernels.estimated``'s: the gap to a rerun at half of them,
    with an ulp floor.
    """
    if not isinstance(functional, FunctionalId):
        raise TypeError("quadrature needs a FunctionalId")
    g = functools.partial(from_eigenvalues, functional)
    value, error = estimated(
        lambda pts: eigen_box_integral(n, pts, g) / eigen_box_integral(n, pts),
        QUADRATURE_POINTS if points is None else points)
    return IntegrationResult(value=value, error_estimate=error)


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
    check_n(n)
    if not isinstance(functional, FunctionalId):
        raise TypeError("Monte Carlo integration needs a FunctionalId")
    if samples < 2:
        raise ValueError(f"samples must be >= 2 (the standard error needs two), "
                         f"got {samples}")
    from .sampling import _SLAB, sample_chunks

    k = n - 1
    count, mean, m2 = 0, 0.0, 0.0
    for params, _ in sample_chunks(n, samples, seed):
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
    return IntegrationResult(value=mean,
                             error_estimate=float(np.sqrt(m2 / (count - 1) / count)))
