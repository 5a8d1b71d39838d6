import os
import subprocess
import sys

import numpy as np
import pytest

from bures.euler import COSET_RANGES, EIGEN_RANGES


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def random_box_points(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform full-coordinate rows inside the angle box."""
    ranges = EIGEN_RANGES[n] + COSET_RANGES[n]
    return np.column_stack([rng.uniform(lo, hi, count) for lo, hi in ranges])


def random_hermitian(n: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = h + h.conj().T
    return scale * h


# A child's ru_maxrss starts at the peak RSS of the process that spawned it,
# so a CLI started from pytest would read at least pytest's own size.  This
# minimal interpreter spawns the CLI instead and prints the exit status, peak
# RSS (KiB on Linux) and minor faults wait4 gives for it.  Its stdout goes to
# /dev/null, or with "pipe" to a pipe read in 32 KiB reads 0.5 ms apart
# (under about 64 MB/s), slower than the CLI writes large outputs.
_SPAWNER = """
import os, sys, time
mode, argv = sys.argv[1], sys.argv[2:]
if mode == "pipe":
    r, w = os.pipe()
    actions = [(os.POSIX_SPAWN_DUP2, w, 1)]
else:
    actions = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "bures", *argv],
                     os.environ, file_actions=actions)
if mode == "pipe":
    os.close(w)
    while os.read(r, 32768):
        time.sleep(0.0005)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, usage.ru_minflt)
"""


def cli_usage(*argv: str, pipe: bool = False, env_pad: int = 0) -> tuple[int, int]:
    """(ru_maxrss, ru_minflt) of ``python -m bures *argv`` run on its own,
    its stdout to /dev/null or, with ``pipe``, to a slow reader, and its
    environment grown by a variable of ``env_pad`` bytes (the environment's
    size moves where glibc's heap lies)."""
    env = {**os.environ, "BURES_TEST_PAD": "x" * env_pad} if env_pad else None
    r = subprocess.run([sys.executable, "-c", _SPAWNER, "pipe" if pipe else "devnull",
                        *argv], capture_output=True, text=True, check=True, env=env)
    status, maxrss, minflt = map(int, r.stdout.split())
    assert status == 0, r.stderr
    return maxrss, minflt
