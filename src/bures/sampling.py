"""Sampling of density matrices from the normalized Bures coordinate density.

The density is an eigenvalue-angle factor times the coset factor, and the
coset factor is a product of one-angle closed forms, so the coset angles are
drawn exactly by inverse CDF.  So is the n=2 eigenvalue angle, whose factor
8 cos^2(2t) becomes the quarter-circle law under s = sin 2t
(``kernels.eigen_angle_from_uniforms``).  Rejection runs for n=3 alone, on
its 2-D eigenvalue box, against the exact sup M of the eigenvalue factor.

Index chunk c (16384 indices each) reads two Philox streams, both with
counter ``[0, c, 0, 0]``.  The attempt stream is keyed by ``(seed, 0)``.
For n=2, sample j of the chunk takes the j-th pair (u1, u2) of it, and its
angle t = asin(sqrt(u1) cos(pi u2 / 2)) / 2: every attempt is a sample.  For
n=3 it is a sequence of attempts of 3 uniforms each: 2 map linearly onto the
eigenvalue box, and the attempt is accepted iff u * M < eigenvalue factor
for its last uniform u; sample j takes the eigenvalue angles of the j-th
accepted attempt.  Either way, sample j takes its n^2-n coset angles from
row j of the coset stream, keyed by ``(seed, 1)``, through the coset inverse
CDFs.  n=3 rejection runs in rounds of ``_BLOCK`` (2, the ``sample``
record's ``batch_size``) attempts per index still pending, and a round draws
at most one slab (4096 rows) of attempts, as the n=2 attempts and the coset
uniforms are drawn one slab at a time, so no kernel call sees more than a
slab.  Both streams carry on across rounds and slabs and are read in order,
so the bytes depend neither on the round or slab size nor on ``count``:
every count prefix gives the same bytes.  ``sample_chunks`` yields the
chunks one at a time, in index order, each with its count of the attempts
examined, up to and including its last accepted one (summed, the record's
``total_proposals``; for n=2, the chunk's size), for callers that reduce or
write them as they come; ``sample`` concatenates the rows.  A chunk is drawn
in two halves, the eigenvalue angles from the attempt stream and then the
coset uniforms, so ``counted_chunks``, for a caller that needs the total
before the rows, counts the later n=3 chunks' proposals from the rejection
half alone and draws each chunk's rows once.

This is sampler stream version 5.  Version 4 drew the n=2 eigenvalue angle
by rejection too, from attempts of 2 uniforms against M = 8, and its n=3
bytes are version 5's; version 3 keyed one stream per round,
``(seed, round)``, and drew all n^2 uniforms of four attempts per pending
index, so its bytes depended on that block size; version 2 gave each sample
index its own stream keyed by ``(seed, index)``; version 1 proposed uniformly
on the full angle box against an envelope estimated from a grid.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterator

import numpy as np

from .kernels import (EIGEN_FACTOR_SUP, EIGEN_RANGES, check_n,
                      coset_angles_from_uniforms, eigen_angle_from_uniforms,
                      eigen_measure_factor)

_INDEX_CHUNK = 16384          # sample indices per chunk (bounds memory)
_BLOCK = 2                    # n=3 attempts per round per pending sample
_SLAB = 4096                  # rows per kernel call (bounds the work arrays)


class EnvelopeViolationError(RuntimeError):
    """A proposed point's eigenvalue factor exceeded the rejection bound M."""


def _stream(seed: int, stream: int, chunk: int) -> np.random.Generator:
    """Philox stream ``stream`` (0: attempts, 1: coset uniforms) of index chunk ``chunk``."""
    # counter[0] steps once per four doubles and carries into counter[1] =
    # chunk only after 2**64 steps, so two chunks never share a counter
    key = np.array([seed, stream], dtype=np.uint64)   # a list would cast 2**64-1 to 0
    return np.random.Generator(np.random.Philox(key=key, counter=[0, chunk, 0, 0]))


def _exact(seed: int, chunk: int, out: np.ndarray) -> int:
    """Fill ``out[:, 0]`` with the n=2 eigenvalue angles of index chunk ``chunk``.

    Sample j takes the j-th uniform pair of the attempt stream, one slab at
    a time; every attempt is a sample, so it returns ``len(out)``.
    """
    attempts = _stream(seed, 0, chunk)
    for a in range(0, len(out), _SLAB):
        b = min(a + _SLAB, len(out))
        out[a:b, 0] = eigen_angle_from_uniforms(attempts.random((b - a, 2)))
    return len(out)


def _rejection(n: int, env: float, seed: int, chunk: int, out: np.ndarray) -> int:
    """Fill ``out[:, :n-1]`` with the n=3 eigenvalue angles of index chunk ``chunk``.

    The rejection half of a chunk: it reads the attempt stream alone, and
    returns the count of attempts examined, up to and including the last
    accepted one.
    """
    k = n - 1
    count = len(out)
    lower, upper = np.array(EIGEN_RANGES[n]).T
    span = upper - lower
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
    return proposals


def _chunk(n: int, env: float, seed: int, chunk: int, count: int) -> tuple[np.ndarray, int]:
    """Draw the ``count`` sample indices of index chunk ``chunk``: the
    eigenvalue half from the attempt stream, then the coset half from the
    coset stream."""
    k = n - 1
    out = np.empty((count, n * n - 1))
    if n == 2:
        proposals = _exact(seed, chunk, out)
    else:
        proposals = _rejection(n, env, seed, chunk, out)
    coset = _stream(seed, 1, chunk)
    for a in range(0, count, _SLAB):
        b = min(a + _SLAB, count)
        out[a:b, k:] = coset_angles_from_uniforms(n, coset.random((b - a, n * n - n)))
    return out, proposals


def _chunk_sizes(count: int) -> Iterator[tuple[int, int]]:
    """Each index chunk of ``count`` sample indices and its size, in order."""
    return ((c, min(_INDEX_CHUNK, count - a))
            for c, a in enumerate(range(0, count, _INDEX_CHUNK)))


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
    return (_chunk(n, env, seed, c, size) for c, size in _chunk_sizes(count))


def counted_chunks(n: int, count: int,
                   seed: int) -> tuple[int, Iterator[tuple[np.ndarray, int]]]:
    """The summed proposals of ``sample_chunks(n, count, seed)``, and its chunks.

    For a caller that needs the total before the rows, as the ``sample``
    record does.  For n=2 the total is ``count``, and nothing is drawn
    before the chunks.  For n=3, chunk 0 is drawn from ``sample_chunks`` and
    kept (at most 16384 rows), and the generator then goes on with chunks 1,
    2, ...; those chunks' proposals are counted from their attempt streams
    alone, before any of them is drawn, so no coset uniform is drawn twice
    and a count of up to 16384 runs the sampler once.
    """
    chunks = sample_chunks(n, count, seed)
    if n == 2:
        return count, chunks
    first = next(chunks, None)
    if first is None:
        return 0, chunks
    env = EIGEN_FACTOR_SUP[n]
    later = sum(_rejection(n, env, seed, c, np.empty((size, n - 1)))
                for c, size in _chunk_sizes(count) if c)
    # chain holds its arguments to the end; an exhausted list iterator lets
    # go of chunk 0, where the list itself would keep it
    return first[1] + later, itertools.chain(iter([first]), chunks)


def sample(n: int, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` i.i.d. parameter points from the normalized Bures density.

    Returns the read-only ``(count, n**2 - 1)`` float64 array of angle rows,
    eigenvalue angles first: the chunks of ``sample_chunks`` concatenated.
    """
    rows = np.concatenate([p for p, _ in sample_chunks(n, count, seed)]
                          or [np.empty((0, n * n - 1))])
    rows.flags.writeable = False
    return rows
