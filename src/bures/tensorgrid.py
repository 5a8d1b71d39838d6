"""Gauss-Legendre tensor-product quadrature over rectangular boxes.

The package's integrals run over the 1-D (n=2) or 2-D (n=3) eigenvalue box,
where the integrands are smooth and Gauss-Legendre converges geometrically,
so it is the only rule.  The node grid is small and is built densely in one
array; its memory grows as points_per_axis ** d.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class QuadratureSpec:
    points_per_axis: int

    def __post_init__(self):
        if self.points_per_axis < 2:
            raise ValueError("points_per_axis must be >= 2")


def axis_rule(points: int, lo: float, hi: float):
    """Nodes and weights of the Gauss-Legendre rule on [lo, hi]."""
    if points < 2:
        raise ValueError("points must be >= 2")
    x, w = np.polynomial.legendre.leggauss(points)
    half = 0.5 * (hi - lo)
    return half * x + 0.5 * (hi + lo), half * w


def tensor_quadrature(fn: Callable[[np.ndarray], np.ndarray],
                      lower: Sequence[float], upper: Sequence[float],
                      spec: QuadratureSpec) -> float:
    """Integrate ``fn`` over the box [lower, upper] with a tensor-product rule.

    ``fn`` receives all points_per_axis ** d nodes at once as an (N, d) array
    and returns (N,) values.
    """
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    if lower.shape != upper.shape or lower.ndim != 1:
        raise ValueError("lower/upper must be 1-D and of equal length")
    rules = [axis_rule(spec.points_per_axis, lo, hi)
             for lo, hi in zip(lower, upper)]
    grids = np.meshgrid(*(x for x, _ in rules), indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    wgt = reduce(np.multiply.outer, (w for _, w in rules)).ravel()
    return float(np.dot(wgt, fn(pts)))
