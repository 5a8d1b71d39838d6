"""Spectral functionals of density matrices: entropy, purity, moments."""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np


class FunctionalKind(Enum):
    VON_NEUMANN_ENTROPY = "entropy"
    PURITY = "purity"
    EIGENVALUE_MOMENT = "moment"


@dataclass(frozen=True)
class FunctionalId:
    """A functional selector; moments carry their order k.

    ``moment:0`` is accepted as an alias for the constant-1 functional
    (its mean under any normalized measure is exactly 1); genuine
    eigenvalue moments sum(lam_i^k) require k >= 1.  The order is stored as
    an int: a float order is a TypeError, and ``True`` is the order 1.
    """

    kind: FunctionalKind
    order: int | None = None

    def __post_init__(self):
        if self.kind is FunctionalKind.EIGENVALUE_MOMENT:
            order = -1 if self.order is None else operator.index(self.order)
            if order < 0:
                raise ValueError("moment order must be an integer >= 0")
            object.__setattr__(self, "order", order)
        elif self.order is not None:
            raise ValueError(f"{self.kind.value} takes no order")

    @classmethod
    def parse(cls, text: str) -> "FunctionalId":
        """Parse 'entropy' | 'purity' | 'moment:k'."""
        t = text.strip().lower()
        if t == "entropy":
            return cls(FunctionalKind.VON_NEUMANN_ENTROPY)
        if t == "purity":
            return cls(FunctionalKind.PURITY)
        if t.startswith("moment:"):
            try:
                k = int(t.split(":", 1)[1])
            except ValueError:
                raise ValueError(f"bad moment order in {text!r}") from None
            return cls(FunctionalKind.EIGENVALUE_MOMENT, k)
        raise ValueError(f"unknown functional {text!r} "
                         "(expected entropy, purity, or moment:k)")

    @property
    def label(self) -> str:
        if self.kind is FunctionalKind.EIGENVALUE_MOMENT:
            return f"moment:{self.order}"
        return self.kind.value


def _xlogx(v: np.ndarray) -> np.ndarray:
    # 0*log(0) := 0
    return np.where(v > 0.0, v * np.log(np.where(v > 0.0, v, 1.0)), 0.0)


def from_eigenvalues(fid: FunctionalId, lam: np.ndarray) -> np.ndarray:
    """Evaluate a spectral functional on stacked eigenvalue rows (..., n)."""
    lam = np.asarray(lam, dtype=np.float64)
    return _from_columns(fid, list(np.moveaxis(lam, -1, 0)))


def _from_columns(fid: FunctionalId, lam: list[np.ndarray]) -> np.ndarray:
    """The functional of n eigenvalue columns: each eigenvalue's term, added
    column after column, which is the order and so the bits of a row sum of
    two or three."""
    if fid.kind is FunctionalKind.VON_NEUMANN_ENTROPY:
        return -functools.reduce(operator.add, map(_xlogx, lam))
    k = 2 if fid.kind is FunctionalKind.PURITY else fid.order
    if k == 0:
        return np.ones(np.shape(lam[0]))
    return functools.reduce(operator.add, (v ** k for v in lam))


def _spectrum_2(rhos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # m -/+ h: m the mean of the diagonal, h = hypot(half its difference, |rho_01|)
    a, d = rhos[..., 0, 0].real, rhos[..., 1, 1].real
    m = 0.5 * (a + d)
    h = np.hypot(0.5 * (a - d), np.abs(rhos[..., 0, 1]))
    return m - h, m + h


def spectrum_batch(rhos: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of stacked Hermitian matrices (N, n, n), unclipped:
    for n=2 m -/+ h, m the mean of the diagonal and h = hypot(half its
    difference, |rho_01|); for n=3 ``eigvalsh``."""
    rhos = np.asarray(rhos, dtype=np.complex128)
    if rhos.shape[-1] != 2:
        return np.linalg.eigvalsh(rhos)
    return np.stack(_spectrum_2(rhos), axis=-1)


def from_matrices(fid: FunctionalId, rhos: np.ndarray) -> np.ndarray:
    """Evaluate on stacked density matrices (N, n, n), via their spectra.

    The spectrum comes from the entries alone (``spectrum_batch``), not from
    the angles the matrices were built from.  Purity avoids it: Tr(rho^2) =
    sum |rho_ij|^2 for Hermitian rho.  Roundoff negatives are clipped to zero.
    The n=2 spectrum stays two columns, never stacked.
    """
    rhos = np.asarray(rhos, dtype=np.complex128)
    if fid.kind is FunctionalKind.PURITY:
        return (np.abs(rhos) ** 2).sum(axis=(-2, -1))
    if rhos.shape[-1] != 2:
        lam = np.linalg.eigvalsh(rhos)
        return from_eigenvalues(fid, np.maximum(lam, 0.0, out=lam))
    return _from_columns(fid, [np.maximum(v, 0.0, out=v) for v in _spectrum_2(rhos)])


def _validated(rho, tol: float) -> np.ndarray:
    # the scalar functionals only: the batch evaluators, which integrate
    # runs, need nothing of euler's typed API
    from .euler import validate_density

    return validate_density(rho, tol=tol)


def von_neumann_entropy(rho, tol: float = 1e-10) -> float:
    """-sum lam_i ln(lam_i) over the spectrum (natural log, 0 ln 0 := 0)."""
    m = _validated(rho, tol)
    lam = np.clip(np.linalg.eigvalsh(m), 0.0, None)
    return max(0.0, float(-_xlogx(lam).sum()))


def purity(rho, tol: float = 1e-10) -> float:
    """Tr(rho^2), in (0, 1]."""
    m = _validated(rho, tol)
    return float((np.abs(m) ** 2).sum())


def eigenvalue_moment(rho, k: int, tol: float = 1e-10) -> float:
    """sum lam_i^k over the spectrum, k an integer >= 1 (a float is a TypeError)."""
    k = operator.index(k)
    if k < 1:
        raise ValueError("moment order must be >= 1")
    m = _validated(rho, tol)
    lam = np.clip(np.linalg.eigvalsh(m), 0.0, None)
    return float((lam ** k).sum())
