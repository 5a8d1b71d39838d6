"""Gauss-Legendre tensor-product quadrature over 1-D and 2-D boxes.

The package's integrals run over the 1-D (n=2) or 2-D (n=3) eigenvalue box,
and Gauss-Legendre is the only rule.  It converges geometrically where the
integrand is analytic on the closed box, as for the normalization constant
and the mean purity (n=3: roundoff from 64 points per axis on).  The mean
entropy converges only algebraically, since lam_2 ln lam_2 is not analytic
at the box edge t1 = 0: for n=3 it is 2.8e-12 off at 64 points, 2.5e-13 at
96 and 7e-16 at 256, against mpmath's tanh-sinh value.  The rule's one
setting is ``points``, its point count per axis, an int (a float is a
TypeError).  Each rule on [-1, 1] is built once per ``points`` per process:
numpy's ``leggauss`` finds the nodes with a dense O(P^3) eigensolve (the
Golub-Welsch construction, Math. Comp. 23 (1969) 221), which at 1024 points
is about as slow as the 1024^2-node quadrature it feeds.
"""

from __future__ import annotations

import operator
from functools import cache
from typing import Callable, Sequence

import numpy as np

# the fewest points per axis an error estimate accepts: from 4 up, its
# coarser rerun (half the points for ``integrate``, two fewer for ``volume``)
# is a rule of at least 2 points that differs from the one it checks
MIN_POINTS = 4

# nodes per integrand call: whole rows of the first axis, as many as fit
_BLOCK_NODES = 8192


@cache
def _unit_rule(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the Gauss-Legendre rule on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(points)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def axis_rule(points: int, lo: float, hi: float):
    """Nodes and weights of the ``points``-point Gauss-Legendre rule on
    [lo, hi] (new arrays); a float ``points`` is a TypeError."""
    points = operator.index(points)
    if points < 2:
        raise ValueError("points must be >= 2")
    x, w = _unit_rule(points)
    half = 0.5 * (hi - lo)
    return half * x + 0.5 * (hi + lo), half * w


def tensor_quadrature(fn: Callable[[np.ndarray], np.ndarray],
                      lower: Sequence[float], upper: Sequence[float],
                      points: int) -> float:
    """Integrate ``fn`` over the 1-D or 2-D box [lower, upper] with the
    tensor-product rule of ``points`` Gauss-Legendre points per axis.

    ``fn`` receives the nodes as an (N, d) array and returns (N,) values.  It
    is called on whole rows of the first axis (each row runs over the second
    axis), in blocks of at most 8192 nodes, or one row where a row alone is
    longer.  Each block's weighted sum is ``np.add.reduce(w * f)``, numpy's
    pairwise sum, and the block sums are added in index order, so memory does
    not grow with the grid and the result is the same for any BLAS library,
    kernel or thread count.
    """
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    if lower.shape != upper.shape or lower.ndim != 1:
        raise ValueError("lower/upper must be 1-D and of equal length")
    if lower.size not in (1, 2):
        raise ValueError(f"boxes of dimension 1 or 2 only, got {lower.size}")
    x0, w0 = axis_rule(points, lower[0], upper[0])
    if lower.size == 1:
        step = _BLOCK_NODES
    else:
        x1, w1 = axis_rule(points, lower[1], upper[1])
        step = max(1, _BLOCK_NODES // len(x1))
    total = 0.0
    for start in range(0, len(x0), step):
        rows = slice(start, start + step)
        if lower.size == 1:
            pts, w = x0[rows, None], w0[rows]
        else:
            t0 = x0[rows]
            pts = np.column_stack([np.repeat(t0, len(x1)), np.tile(x1, len(t0))])
            w = np.multiply.outer(w0[rows], w1).ravel()
        total += float(np.add.reduce(w * fn(pts)))
    return total
