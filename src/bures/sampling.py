"""Sampling of density matrices from the normalized Bures coordinate density.

The density is an eigenvalue-angle factor times the coset factor, and the
coset factor is a product of one-angle closed forms, so the coset angles are
drawn exactly by inverse CDF and rejection runs on the 1-D (n=2) or 2-D
(n=3) eigenvalue box alone, against the exact sup M of the eigenvalue factor.

Index chunk c (16384 indices each) reads two Philox streams, both with
counter ``[0, c, 0, 0]``.  The attempt stream, keyed by ``(seed, 0)``, is a
sequence of attempts of n uniforms each: n-1 map linearly onto the
eigenvalue box, and the attempt is accepted iff u * M < eigenvalue factor for
its last uniform u.  Sample j of the chunk takes the eigenvalue angles of the
j-th accepted attempt, and its n^2-n coset angles from row j of the coset
stream, keyed by ``(seed, 1)``, through the coset inverse CDFs.  Rejection
runs in rounds of ``_BLOCK`` (2, the ``sample`` record's ``batch_size``)
attempts per index still pending, and a round draws at most one slab (4096
rows) of attempts, as the coset uniforms are drawn one slab at a time, so no
kernel call sees more than a slab.  Both
streams carry on across rounds and slabs and are read in order, so the bytes
depend neither on the round or slab size nor on ``count``: every count prefix
gives the same bytes.  ``sample_chunks`` yields the chunks one at a time, in
index order, each with its count of the attempts examined, up to and
including its last accepted one (summed, the record's ``total_proposals``),
for callers that reduce or write them as they come; ``sample`` concatenates
the rows.

This is sampler stream version 4.  Version 3 keyed one stream per round,
``(seed, round)``, and drew all n^2 uniforms of four attempts per pending
index, so its bytes depended on that block size; version 2 gave each sample
index its own stream keyed by ``(seed, index)``; version 1 proposed uniformly
on the full angle box against an envelope estimated from a grid.
"""

from __future__ import annotations

import operator
from typing import Iterator

import numpy as np

from .kernels import (EIGEN_FACTOR_SUP, EIGEN_RANGES, check_n,
                      coset_angles_from_uniforms, eigen_measure_factor)

_INDEX_CHUNK = 16384          # sample indices per chunk (bounds memory)
_BLOCK = 2                    # attempts per round per pending sample
_SLAB = 4096                  # rows per kernel call (bounds the work arrays)


class EnvelopeViolationError(RuntimeError):
    """A proposed point's eigenvalue factor exceeded the rejection bound M."""


def _stream(seed: int, stream: int, chunk: int) -> np.random.Generator:
    """Philox stream ``stream`` (0: attempts, 1: coset uniforms) of index chunk ``chunk``."""
    # counter[0] steps once per four doubles and carries into counter[1] =
    # chunk only after 2**64 steps, so two chunks never share a counter
    key = np.array([seed, stream], dtype=np.uint64)   # a list would cast 2**64-1 to 0
    return np.random.Generator(np.random.Philox(key=key, counter=[0, chunk, 0, 0]))


def _rejection_chunk(n: int, env: float, seed: int, chunk: int,
                     count: int) -> tuple[np.ndarray, int]:
    """Run rejection for the ``count`` sample indices of index chunk ``chunk``."""
    k = n - 1
    lower, upper = np.array(EIGEN_RANGES[n]).T
    span = upper - lower
    out = np.empty((count, n * n - 1))
    attempts = _stream(seed, 0, chunk)
    done = proposals = 0
    while done < count:
        # the stream is read in order, so the bytes depend on neither _BLOCK
        # nor _SLAB
        u = attempts.random((min((count - done) * _BLOCK, _SLAB), n))
        eigen = lower + u[:, :k] * span
        dens = eigen_measure_factor(n, eigen)
        if np.any(dens > env):
            r = int(np.argmax(dens))
            raise EnvelopeViolationError(
                f"eigenvalue factor {dens[r]:.6g} exceeds its bound {env:.6g} "
                f"at point {eigen[r].tolist()}; the bound is invalid")
        won = np.flatnonzero(u[:, k] * env < dens)[:count - done]
        out[done:done + won.size, :k] = eigen[won]
        done += won.size
        # attempts examined: the whole round, or up to the last one taken
        proposals += int(won[-1]) + 1 if done == count else len(u)
    coset = _stream(seed, 1, chunk)
    for a in range(0, count, _SLAB):
        b = min(a + _SLAB, count)
        out[a:b, k:] = coset_angles_from_uniforms(n, coset.random((b - a, n * n - n)))
    return out, proposals


def sample_chunks(n: int, count: int, seed: int) -> Iterator[tuple[np.ndarray, int]]:
    """The rows of ``sample(n, count, seed)`` one index chunk at a time.

    Yields ``(params, proposals)`` for each chunk of up to 16384 sample
    indices, in index order, drawing a chunk only when it is asked for; the
    rows are the same bytes ``sample`` returns, so a caller that reduces or
    writes each chunk holds one chunk at a time, however large ``count``.
    ``seed`` is an integer in [0, 2**64); a float or a string is a TypeError,
    not truncated to the integer below it.  The arguments are checked at the
    call, before any chunk is drawn.
    """
    seed = operator.index(seed)
    if not 0 <= seed < 2 ** 64:
        raise ValueError("seed must fit an unsigned 64-bit integer")
    check_n(n)
    if count < 0:
        raise ValueError("count must be >= 0")
    env = EIGEN_FACTOR_SUP[n]
    return (_rejection_chunk(n, env, seed, c, min(_INDEX_CHUNK, count - a))
            for c, a in enumerate(range(0, count, _INDEX_CHUNK)))


def sample(n: int, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` i.i.d. parameter points from the normalized Bures density.

    Returns the read-only ``(count, n**2 - 1)`` float64 array of angle rows,
    eigenvalue angles first: the chunks of ``sample_chunks`` concatenated.
    """
    rows = np.concatenate([p for p, _ in sample_chunks(n, count, seed)]
                          or [np.empty((0, n * n - 1))])
    rows.flags.writeable = False
    return rows
