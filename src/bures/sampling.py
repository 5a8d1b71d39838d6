"""Sampling of density matrices from the normalized Bures coordinate density.

The density is an eigenvalue-angle factor times the coset factor, and the
coset factor is a product of one-angle closed forms, so the coset angles are
drawn exactly by inverse CDF and rejection runs on the 1-D (n=2) or 2-D
(n=3) eigenvalue box alone, against the exact sup M of the eigenvalue factor.

Each sample index ``i`` owns an independent counter-based random stream,
a Philox generator keyed by ``(seed, i)``, consumed strictly sequentially:
attempt t uses n^2 uniforms, n-1 mapped linearly onto the eigenvalue box,
n^2-n mapped through the coset inverse CDFs, and one acceptance variable u;
the attempt is accepted iff u * M < eigenvalue factor.  Because the stream
belongs to the index, the output is byte-identical for any proposal block
size and any requested count prefix.

This is sampler stream version 2: the seed-to-sample mapping differs from
version 1, which proposed uniformly on the full angle box against an
envelope estimated from a grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from .euler import DensityMatrixParams, coset_unitary_batch, density_batch, params_from_values
from .measure import (EIGEN_FACTOR_SUP, coset_angles_from_uniforms, eigen_box,
                      eigen_measure_factor)

_INDEX_CHUNK = 16384          # sample indices per chunk (bounds memory)
_BLOCK_DEFAULT = 16           # proposals per round per pending sample


class EnvelopeViolationError(RuntimeError):
    """A proposed point's eigenvalue factor exceeded the rejection bound M."""


@dataclass(frozen=True)
class SamplerSpec:
    """Rejection-sampler configuration.

    ``batch_size`` is the number of proposals drawn per round for each
    still-pending sample; it is rounded up to a multiple of 4 internally and
    does not affect the output stream.
    """

    seed: int
    batch_size: int | None = None

    def __post_init__(self):
        if not (0 <= int(self.seed) < 2 ** 64):
            raise ValueError("seed must fit an unsigned 64-bit integer")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass(frozen=True)
class SampleBatch:
    """Accepted samples plus the run's bookkeeping."""

    n: int
    kind: str                 # "joint" or "coset"
    seed: int
    params: np.ndarray        # (count, d) angle rows, read-only
    envelope: float
    batch_size: int
    total_proposals: int = field(repr=False, default=0)

    @property
    def count(self) -> int:
        return self.params.shape[0]

    @property
    def acceptance_rate(self) -> float:
        if self.total_proposals == 0:
            return 0.0
        return self.count / self.total_proposals

    def matrices(self) -> np.ndarray:
        """Density matrices of the samples (joint batches only)."""
        if self.kind != "joint":
            raise ValueError("matrices() requires a joint sample batch")
        k = self.n - 1
        return density_batch(self.n, self.params[:, :k], self.params[:, k:])

    def unitaries(self) -> np.ndarray:
        """Coset unitaries of the samples."""
        coset = self.params if self.kind == "coset" else self.params[:, self.n - 1:]
        return coset_unitary_batch(self.n, coset)

    def iter_params(self) -> Iterator[DensityMatrixParams]:
        if self.kind != "joint":
            raise ValueError("iter_params() requires a joint sample batch")
        for row in self.params:
            yield params_from_values(self.n, row)


def _resolve_block(batch_size: int | None) -> int:
    block = _BLOCK_DEFAULT if batch_size is None else int(batch_size)
    return ((block + 3) // 4) * 4


def _rejection_chunk(n: int, env: float, seed: int, start: int, stop: int,
                     block: int) -> tuple[np.ndarray, int]:
    """Run per-index rejection for sample indices [start, stop)."""
    k = n - 1
    d = n * n - 1
    box = eigen_box(n)
    lower = np.asarray(box.lower)
    span = np.asarray(box.upper) - lower
    draws = d + 1                      # uniforms consumed per attempt
    count = stop - start
    out = np.empty((count, d))
    pend_idx = np.arange(start, stop, dtype=np.int64)
    pend_pos = np.arange(count, dtype=np.int64)
    offsets = np.zeros(count, dtype=np.int64)
    philox = np.random.Philox(key=[0, 0])
    gen = np.random.Generator(philox)
    state = philox.state
    proposals = 0
    while pend_pos.size:
        p = pend_pos.size
        arr = np.empty((p, block, draws))
        for row in range(p):
            consumed = int(offsets[row]) * draws   # multiple of 4 by block choice
            st = state["state"]
            st["key"][0] = seed
            st["key"][1] = pend_idx[row]
            st["counter"][:] = 0
            st["counter"][0] = consumed // 4
            state["buffer_pos"] = 4
            state["has_uint32"] = 0
            state["uinteger"] = 0
            philox.state = state
            arr[row] = gen.random((block, draws))
        eigen = lower + arr[..., :k] * span
        dens = eigen_measure_factor(n, eigen)
        proposals += p * block
        if np.any(dens > env):
            r, c = np.unravel_index(int(np.argmax(dens)), dens.shape)
            raise EnvelopeViolationError(
                f"eigenvalue factor {dens[r, c]:.6g} exceeds its bound {env:.6g} "
                f"at point {eigen[r, c].tolist()}; the bound is invalid")
        acc = arr[..., d] * env < dens
        hit = acc.any(axis=1)
        first = np.argmax(acc, axis=1)
        rows = np.flatnonzero(hit)
        won = arr[rows, first[rows]]
        out[pend_pos[rows], :k] = eigen[rows, first[rows]]
        out[pend_pos[rows], k:] = coset_angles_from_uniforms(n, won[:, k:d])
        keep = ~hit
        pend_idx = pend_idx[keep]
        pend_pos = pend_pos[keep]
        offsets = offsets[keep] + block
    return out, proposals


def sample(n: int, count: int, spec: SamplerSpec) -> SampleBatch:
    """Draw i.i.d. parameter points from the normalized Bures density."""
    if n not in (2, 3):
        raise ValueError(f"only n in {{2, 3}} is supported, got {n}")
    if count < 0:
        raise ValueError("count must be >= 0")
    env = EIGEN_FACTOR_SUP[n]
    block = _resolve_block(spec.batch_size)
    seed = int(spec.seed)
    results = [_rejection_chunk(n, env, seed, a, min(a + _INDEX_CHUNK, count), block)
               for a in range(0, count, _INDEX_CHUNK)]
    if results:
        params = np.concatenate([r[0] for r in results], axis=0)
    else:
        params = np.empty((0, n * n - 1))
    params.flags.writeable = False
    return SampleBatch(n=n, kind="joint", seed=seed, params=params, envelope=env,
                       batch_size=block,
                       total_proposals=sum(r[1] for r in results))


def sample_coset(n: int, count: int, spec: SamplerSpec) -> SampleBatch:
    """Draw coset angles from the normalized invariant coset density: the
    coset columns of ``sample`` with the same spec."""
    batch = sample(n, count, spec)
    return replace(batch, kind="coset", params=batch.params[:, n - 1:])
