"""Gauss-Legendre tensor-product quadrature over rectangular boxes.

The package's integrals run over the 1-D (n=2) or 2-D (n=3) eigenvalue box,
where the integrands are smooth and Gauss-Legendre converges geometrically,
so it is the only rule.  The node grid is small and is built densely in one
array; its memory grows as points_per_axis ** d.  Each rule on [-1, 1] is
built once per point count per process: numpy's ``leggauss`` finds the nodes
with a dense O(P^3) eigensolve (the Golub-Welsch construction, Math. Comp. 23
(1969) 221), which at 1024 points is about as slow as the 1024^2-node
quadrature it feeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from typing import Callable, Sequence

import numpy as np

# the fewest points per axis an error estimate accepts: from 4 up, its
# coarser rerun (half the points for ``integrate``, two fewer for ``volume``)
# is a rule of at least 2 points that differs from the one it checks
MIN_POINTS = 4


@dataclass(frozen=True)
class QuadratureSpec:
    points_per_axis: int

    def __post_init__(self):
        if self.points_per_axis < 2:
            raise ValueError("points_per_axis must be >= 2")


@cache
def _unit_rule(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the Gauss-Legendre rule on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(points)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def axis_rule(points: int, lo: float, hi: float):
    """Nodes and weights of the Gauss-Legendre rule on [lo, hi] (new arrays)."""
    if points < 2:
        raise ValueError("points must be >= 2")
    x, w = _unit_rule(points)
    half = 0.5 * (hi - lo)
    return half * x + 0.5 * (hi + lo), half * w


def tensor_quadrature(fn: Callable[[np.ndarray], np.ndarray],
                      lower: Sequence[float], upper: Sequence[float],
                      spec: QuadratureSpec) -> float:
    """Integrate ``fn`` over the box [lower, upper] with a tensor-product rule.

    ``fn`` receives all points_per_axis ** d nodes at once as an (N, d) array
    and returns (N,) values.  The weighted sum is one BLAS dot product, which
    OpenBLAS (as bundled with numpy 2.4) splits over its threads above 10 000
    nodes, so a library result over more nodes can differ in its last bits
    with numpy's BLAS thread count.  The CLI runs BLAS on one thread, so its
    output does not.
    """
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    if lower.shape != upper.shape or lower.ndim != 1:
        raise ValueError("lower/upper must be 1-D and of equal length")
    rules = [axis_rule(spec.points_per_axis, lo, hi)
             for lo, hi in zip(lower, upper)]
    pts = np.column_stack([g.ravel() for g in
                           np.meshgrid(*(x for x, _ in rules), indexing="ij")])
    wgt = reduce(np.multiply.outer, (w for _, w in rules)).ravel()
    return float(np.dot(wgt, fn(pts)))
