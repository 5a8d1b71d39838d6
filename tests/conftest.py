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
# minimal interpreter spawns the CLI instead, stdout to /dev/null, and prints
# the exit status, peak RSS (KiB on Linux) and minor faults wait4 gives for it.
_SPAWNER = """
import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "bures", *sys.argv[1:]],
                     os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, usage.ru_minflt)
"""


def cli_usage(*argv: str) -> tuple[int, int]:
    """(ru_maxrss, ru_minflt) of ``python -m bures *argv`` run on its own."""
    r = subprocess.run([sys.executable, "-c", _SPAWNER, *argv],
                       capture_output=True, text=True, check=True)
    status, maxrss, minflt = map(int, r.stdout.split())
    assert status == 0, r.stderr
    return maxrss, minflt
