"""Sampling of density matrices from the normalized Bures coordinate density.

The density is an eigenvalue-angle factor times the coset factor, and the
coset factor is a product of one-angle closed forms, so the coset angles are
drawn exactly by inverse CDF and rejection runs on the 1-D (n=2) or 2-D
(n=3) eigenvalue box alone, against the exact sup M of the eigenvalue factor.

Round r of index chunk c (16384 indices each) draws all its uniforms in one
call, from a Philox generator keyed by ``(seed, r)`` with counter
``[0, c, 0, 0]``: a (pending, B, n^2) block, B = 4 attempts for each index
still pending, the pending index of rank j taking row j.  An attempt maps
n-1 uniforms linearly onto the eigenvalue box and n^2-n through the coset
inverse CDFs, and is accepted iff u * M < eigenvalue factor for its last
uniform u; the first accepted attempt of a row wins.  A rank depends only on
the lower indices of its chunk, so every count prefix gives the same bytes.
``sample_chunks`` yields the chunks one at a time, in index order, for
callers that reduce or write them as they come; ``sample`` concatenates them.

This is sampler stream version 3: version 2 gave each sample index its own
Philox stream keyed by ``(seed, index)``, and version 1 proposed uniformly on
the full angle box against an envelope estimated from a grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .euler import (EIGEN_RANGES, DensityMatrixParams, coset_unitary_batch, density_batch,
                    params_from_values)
from .measure import EIGEN_FACTOR_SUP, coset_angles_from_uniforms, eigen_measure_factor

_INDEX_CHUNK = 16384          # sample indices per chunk (bounds memory)
_BLOCK = 4                    # attempts per round per pending sample


class EnvelopeViolationError(RuntimeError):
    """A proposed point's eigenvalue factor exceeded the rejection bound M."""


@dataclass(frozen=True)
class SamplerSpec:
    """Rejection-sampler configuration."""

    seed: int

    def __post_init__(self):
        if not (0 <= int(self.seed) < 2 ** 64):
            raise ValueError("seed must fit an unsigned 64-bit integer")


@dataclass(frozen=True)
class SampleBatch:
    """Accepted samples plus the run's bookkeeping."""

    n: int
    seed: int
    params: np.ndarray        # (count, d) angle rows, read-only
    envelope: float
    batch_size: int           # attempts per round per pending sample
    total_proposals: int = field(repr=False, default=0)   # attempts examined

    @property
    def count(self) -> int:
        return self.params.shape[0]

    @property
    def acceptance_rate(self) -> float:
        if self.total_proposals == 0:
            return 0.0
        return self.count / self.total_proposals

    def matrices(self) -> np.ndarray:
        """Density matrices of the samples."""
        k = self.n - 1
        return density_batch(self.n, self.params[:, :k], self.params[:, k:])

    def unitaries(self) -> np.ndarray:
        """Coset unitaries of the samples."""
        return coset_unitary_batch(self.n, self.params[:, self.n - 1:])

    def iter_params(self) -> Iterator[DensityMatrixParams]:
        for row in self.params:
            yield params_from_values(self.n, row)


def _rejection_chunk(n: int, env: float, seed: int, chunk: int,
                     count: int) -> tuple[np.ndarray, int]:
    """Run rejection for the ``count`` sample indices of index chunk ``chunk``."""
    k = n - 1
    d = n * n - 1
    lower, upper = np.array(EIGEN_RANGES[n]).T
    span = upper - lower
    out = np.empty((count, d))
    pend = np.arange(count)
    proposals = 0
    rnd = 0
    while pend.size:
        # a round draws at most _INDEX_CHUNK * _BLOCK * 9 doubles, four per
        # counter step, so counter[0] stays below 16384 * 4 * 9 / 4, never
        # carries into counter[1] = chunk, and two chunks never share a counter
        key = np.array([seed, rnd], dtype=np.uint64)   # a list would cast 2**64-1 to 0
        gen = np.random.Generator(np.random.Philox(key=key, counter=[0, chunk, 0, 0]))
        arr = gen.random((pend.size, _BLOCK, n * n))
        eigen = lower + arr[..., :k] * span
        dens = eigen_measure_factor(n, eigen)
        if np.any(dens > env):
            r, c = np.unravel_index(int(np.argmax(dens)), dens.shape)
            raise EnvelopeViolationError(
                f"eigenvalue factor {dens[r, c]:.6g} exceeds its bound {env:.6g} "
                f"at point {eigen[r, c].tolist()}; the bound is invalid")
        acc = arr[..., d] * env < dens
        hit = acc.any(axis=1)
        first = np.argmax(acc, axis=1)
        # attempts examined: up to the accepted one, or the whole block
        proposals += int(np.where(hit, first + 1, _BLOCK).sum())
        rows = np.flatnonzero(hit)
        won = arr[rows, first[rows]]
        out[pend[rows], :k] = eigen[rows, first[rows]]
        out[pend[rows], k:] = coset_angles_from_uniforms(n, won[:, k:d])
        pend = pend[~hit]
        rnd += 1
    return out, proposals


def sample_chunks(n: int, count: int,
                  spec: SamplerSpec) -> Iterator[tuple[np.ndarray, int]]:
    """The rows of ``sample(n, count, spec)`` one index chunk at a time.

    Yields ``(params, proposals)`` for each chunk of up to 16384 sample
    indices, in index order, drawing a chunk only when it is asked for; the
    rows are the same bytes ``sample`` returns, so a caller that reduces or
    writes each chunk holds one chunk at a time, however large ``count``.
    """
    if n not in (2, 3):
        raise ValueError(f"only n in {{2, 3}} is supported, got {n}")
    if count < 0:
        raise ValueError("count must be >= 0")
    env, seed = EIGEN_FACTOR_SUP[n], int(spec.seed)
    return (_rejection_chunk(n, env, seed, c, min(_INDEX_CHUNK, count - a))
            for c, a in enumerate(range(0, count, _INDEX_CHUNK)))


def sample(n: int, count: int, spec: SamplerSpec) -> SampleBatch:
    """Draw i.i.d. parameter points from the normalized Bures density."""
    chunks = list(sample_chunks(n, count, spec))
    if chunks:
        params = np.concatenate([c[0] for c in chunks], axis=0)
    else:
        params = np.empty((0, n * n - 1))
    params.flags.writeable = False
    return SampleBatch(n=n, seed=int(spec.seed), params=params,
                       envelope=EIGEN_FACTOR_SUP[n], batch_size=_BLOCK,
                       total_proposals=sum(c[1] for c in chunks))

