"""Rejection sampling of Bures-distributed density matrices.

Each sample index ``i`` owns an independent counter-based random stream,
a Philox generator keyed by ``(seed, i)``, consumed strictly sequentially:
attempt t uses d+1 uniforms (d proposal coordinates on the angle box plus one
acceptance variable u), and the proposal is accepted iff u * M < density.
Because the stream belongs to the index, the output is byte-identical for any
worker count, any proposal block size and any requested count prefix.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .euler import DensityMatrixParams, coset_unitary_batch, density_batch, params_from_values
from .measure import (AngleBox, angle_box, coset_box, coset_measure_factor,
                      coset_normalization_constant, eigen_box,
                      eigen_measure_factor, joint_density_batch,
                      normalization_constant)

_INDEX_CHUNK = 16384          # samples per worker task (fixed: determinism)
_GRID_DEFAULT = {2: 32, 3: 8}  # envelope grid points per axis
_BLOCK_DEFAULT = 16           # proposals per round per pending sample
_EVAL_CHUNK = 65536           # density evaluations per vector call


def thread_count(threads: int | None = None) -> int:
    """Worker count: explicit argument, else BURES_THREADS, else 1."""
    if threads is None:
        raw = os.environ.get("BURES_THREADS", "1")
        try:
            threads = int(raw)
        except ValueError as exc:
            raise ValueError(f"BURES_THREADS must be an integer, got {raw!r}") from exc
    if threads < 1:
        raise ValueError(f"thread count must be >= 1, got {threads}")
    return threads


class EnvelopeViolationError(RuntimeError):
    """A proposed point had density above the rejection bound M."""


@dataclass(frozen=True)
class SamplerSpec:
    """Rejection-sampler configuration.

    ``envelope_constant`` is the rejection bound M (>= sup of the normalized
    density); None means estimate it from a grid.  ``batch_size`` is the
    number of proposals drawn per round for each still-pending sample; it is
    rounded up to a multiple of 4 internally and does not affect the output
    stream.
    """

    seed: int
    envelope_constant: float | None = None
    batch_size: int | None = None

    def __post_init__(self):
        if not (0 <= int(self.seed) < 2 ** 64):
            raise ValueError("seed must fit an unsigned 64-bit integer")
        if self.envelope_constant is not None and not (self.envelope_constant > 0):
            raise ValueError("envelope_constant must be positive")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def _grid_max(fn, box: AngleBox, per_axis: int) -> float:
    """Max of fn over the inclusive uniform tensor grid, streamed in chunks."""
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in zip(box.lower, box.upper)]
    shape = tuple(per_axis for _ in axes)
    total = per_axis ** box.dim
    best = -math.inf
    for start in range(0, total, _EVAL_CHUNK):
        stop = min(start + _EVAL_CHUNK, total)
        idx = np.unravel_index(np.arange(start, stop, dtype=np.int64), shape)
        pts = np.empty((stop - start, box.dim))
        for k in range(box.dim):
            pts[:, k] = axes[k][idx[k]]
        best = max(best, float(fn(pts).max()))
    return best


_envelope_cache: dict[tuple, float] = {}


def estimate_envelope(n: int, grid_points: int | None = None) -> float:
    """1.5x the grid maximum of the normalized joint density.

    The joint density is a product of an eigenvalue-angle factor and a coset
    factor, so its maximum over the tensor grid is the product of the factor
    grid maxima; they are scanned separately.
    """
    gp = _GRID_DEFAULT[n] if grid_points is None else int(grid_points)
    if gp < 8:
        raise ValueError("grid_points must be >= 8 per axis")
    key = ("joint", n, gp)
    if key not in _envelope_cache:
        sup = (_grid_max(lambda p: eigen_measure_factor(n, p), eigen_box(n), gp)
               * _grid_max(lambda p: coset_measure_factor(n, p), coset_box(n), gp)
               / normalization_constant(n))
        _envelope_cache[key] = 1.5 * sup
    return _envelope_cache[key]


def estimate_coset_envelope(n: int, grid_points: int | None = None) -> float:
    """1.5x the grid maximum of the normalized coset density."""
    gp = _GRID_DEFAULT[n] if grid_points is None else int(grid_points)
    if gp < 8:
        raise ValueError("grid_points must be >= 8 per axis")
    key = ("coset", n, gp)
    if key not in _envelope_cache:
        sup = (_grid_max(lambda p: coset_measure_factor(n, p), coset_box(n), gp)
               / coset_normalization_constant(n))
        _envelope_cache[key] = 1.5 * sup
    return _envelope_cache[key]


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


def _rejection_chunk(density_fn, box: AngleBox, env: float, seed: int,
                     start: int, stop: int, block: int) -> tuple[np.ndarray, int]:
    """Run per-index rejection for sample indices [start, stop)."""
    d = box.dim
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
        coords = lower + arr[..., :d] * span
        dens = density_fn(coords.reshape(-1, d)).reshape(p, block)
        proposals += p * block
        if np.any(dens > env):
            r, c = np.unravel_index(int(np.argmax(dens)), dens.shape)
            raise EnvelopeViolationError(
                f"density {dens[r, c]:.6g} exceeds envelope {env:.6g} at "
                f"point {coords[r, c].tolist()}; the envelope constant is invalid")
        acc = arr[..., d] * env < dens
        hit = acc.any(axis=1)
        first = np.argmax(acc, axis=1)
        rows = np.flatnonzero(hit)
        out[pend_pos[rows]] = coords[rows, first[rows]]
        keep = ~hit
        pend_idx = pend_idx[keep]
        pend_pos = pend_pos[keep]
        offsets = offsets[keep] + block
    return out, proposals


def _run_sampler(kind: str, n: int, count: int, spec: SamplerSpec,
                 density_fn, box: AngleBox, env: float,
                 threads: int | None) -> SampleBatch:
    if count < 0:
        raise ValueError("count must be >= 0")
    block = _resolve_block(spec.batch_size)
    seed = int(spec.seed)
    chunks = [(s, min(s + _INDEX_CHUNK, count)) for s in range(0, count, _INDEX_CHUNK)]
    workers = thread_count(threads)
    results: list[tuple[np.ndarray, int]] = []
    if workers == 1 or len(chunks) <= 1:
        results = [_rejection_chunk(density_fn, box, env, seed, a, b, block)
                   for a, b in chunks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(
                lambda ab: _rejection_chunk(density_fn, box, env, seed, *ab, block),
                chunks))
    if results:
        params = np.concatenate([r[0] for r in results], axis=0)
    else:
        params = np.empty((0, box.dim))
    params.flags.writeable = False
    return SampleBatch(n=n, kind=kind, seed=seed, params=params, envelope=env,
                       batch_size=block,
                       total_proposals=sum(r[1] for r in results))


def sample(n: int, count: int, spec: SamplerSpec,
           threads: int | None = None) -> SampleBatch:
    """Draw i.i.d. parameter points from the normalized Bures density."""
    env = spec.envelope_constant
    if env is None:
        env = estimate_envelope(n)
    normalization_constant(n)  # warm the cache before workers fan out
    return _run_sampler("joint", n, count, spec,
                        lambda pts: joint_density_batch(n, pts, normalized=True),
                        angle_box(n), env, threads)


def sample_coset(n: int, count: int, spec: SamplerSpec,
                 threads: int | None = None) -> SampleBatch:
    """Draw coset angles from the normalized invariant coset density."""
    env = spec.envelope_constant
    if env is None:
        env = estimate_coset_envelope(n)
    z = coset_normalization_constant(n)
    return _run_sampler("coset", n, count, spec,
                        lambda pts: coset_measure_factor(n, pts) / z,
                        coset_box(n), env, threads)
