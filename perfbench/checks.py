"""Output checks for the benchmark's CLI runs.

Every timed run is checked; a run that fails a check counts in ``fail_frac``.
The reference values and the angle box are written out here rather than
imported from ``bures``, so a defect in the package cannot hide itself.  The
checks are statistical or structural and pin no sample stream, so they still
hold after a versioned change to the seed-to-sample mapping.
"""

from __future__ import annotations

import json
import math

import numpy as np

SCHEMA_VERSION = "1"

# E[S] for n=3 under the paper-verbatim box: the 2-D spectral reference pinned
# in tests/test_integrate.py.  Quadrature with 6 points per axis reaches 7e-5.
MEAN_ENTROPY_3 = 0.523048468775154
QUAD_TOL = 1e-4
# E[S] for n=2 (closed form over the eigenvalue angle)
MEAN_ENTROPY_2 = 0.21962769445322395
# E[Tr rho^2] for n=3 under the paper-verbatim box
MEAN_PURITY_3 = 0.684443199321445
SIGMAS = 4.0
MATRIX_TOL = 1e-10

# The paper's n=3 coordinate box: eigenvalue angles t1 in [0, pi/4],
# t2 in [0, arccos(1/sqrt 3)]; coset angles alpha, gamma, a in [0, pi] and
# beta, theta_big, b in [0, pi/2].
BOX_3 = {
    "theta1": (0.0, math.pi / 4),
    "theta2": (0.0, math.acos(1.0 / math.sqrt(3.0))),
    "alpha": (0.0, math.pi),
    "beta": (0.0, math.pi / 2),
    "gamma": (0.0, math.pi),
    "theta_big": (0.0, math.pi / 2),
    "a": (0.0, math.pi),
    "b": (0.0, math.pi / 2),
}


class CheckFailed(Exception):
    """A CLI run whose exit status or output is wrong."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def check_process(returncode: int, stderr: bytes) -> None:
    """A run fails on a nonzero exit or a traceback on stderr."""
    _require(returncode == 0, f"exit status {returncode}")
    _require(b"Traceback" not in stderr, "traceback on stderr")


def parse_record(stdout: bytes) -> dict:
    """The single schema-v1 JSON record a CLI run prints."""
    try:
        record = json.loads(stdout)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckFailed(f"stdout is not one JSON record: {exc}") from None
    _require(isinstance(record, dict), "record is not a JSON object")
    _require(record.get("schema_version") == SCHEMA_VERSION,
             f"schema_version {record.get('schema_version')!r}, want {SCHEMA_VERSION!r}")
    return record


def _finite(record: dict, key: str) -> float:
    value = record.get(key)
    _require(isinstance(value, (int, float)) and math.isfinite(value),
             f"{key} is {value!r}, want a finite number")
    return float(value)


def check_quadrature(record: dict, points: int) -> float:
    """``integrate --n 3 --functional entropy`` by quadrature; returns abs_err."""
    _require(record.get("kind") == "scalar" and record.get("n") == 3
             and record.get("functional") == "entropy"
             and record.get("method") == "quadrature", "wrong record kind")
    _require(record.get("points_per_axis") == points,
             f"points_per_axis {record.get('points_per_axis')!r}, want {points}")
    err = abs(_finite(record, "value") - MEAN_ENTROPY_3)
    _require(err <= QUAD_TOL, f"abs error {err:.3e} exceeds {QUAD_TOL:.0e}")
    return err


def check_monte_carlo(record: dict, samples: int) -> float:
    """``integrate --n 2 --functional entropy --method mc``; returns |z|."""
    _require(record.get("kind") == "scalar" and record.get("n") == 2
             and record.get("functional") == "entropy"
             and record.get("method") == "mc", "wrong record kind")
    _require(record.get("samples") == samples,
             f"samples {record.get('samples')!r}, want {samples}")
    se = _finite(record, "std_error")
    _require(se > 0.0, f"std_error {se!r} is not positive")
    z = abs(_finite(record, "value") - MEAN_ENTROPY_2) / se
    _require(z <= SIGMAS, f"value is {z:.2f} standard errors from {MEAN_ENTROPY_2}")
    return z


def check_samples(record: dict, count: int) -> float:
    """``sample --n 3 --format json``; returns the purity's |z|.

    Each matrix must be Hermitian, of unit trace and PSD, its spectrum must
    be the one its eigenvalue angles give, every angle must lie in the box,
    and the mean purity must match the reference within 4 standard errors.
    """
    _require(record.get("kind") == "samples" and record.get("n") == 3,
             "wrong record kind")
    names = tuple(BOX_3)
    _require(tuple(record.get("params_order", ())) == names,
             f"params_order {record.get('params_order')!r}")
    rows = record.get("samples")
    _require(record.get("count") == count and isinstance(rows, list)
             and len(rows) == count,
             f"{len(rows) if isinstance(rows, list) else rows!r} samples, want {count}")
    try:
        angles = np.array([[row["params"][nm] for nm in names] for row in rows],
                          dtype=np.float64).reshape(count, len(names))
        pairs = np.array([row["matrix"] for row in rows],
                         dtype=np.float64).reshape(count, 9, 2)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckFailed(f"malformed sample: {exc!r}") from None
    _require(bool(np.isfinite(angles).all() and np.isfinite(pairs).all()),
             "non-finite value in samples")
    lo = np.array([BOX_3[nm][0] for nm in names])
    hi = np.array([BOX_3[nm][1] for nm in names])
    outside = (angles < lo) | (angles > hi)
    _require(not outside.any(),
             f"{int(outside.any(axis=1).sum())} samples have angles outside the box")
    rho = (pairs[..., 0] + 1j * pairs[..., 1]).reshape(count, 3, 3)
    herm = np.abs(rho - np.conj(np.swapaxes(rho, -1, -2))).max(initial=0.0)
    _require(herm <= MATRIX_TOL, f"matrix not Hermitian (deviation {herm:.3e})")
    trace = np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0).max(initial=0.0)
    _require(trace <= MATRIX_TOL, f"trace differs from 1 by {trace:.3e}")
    lam = np.linalg.eigvalsh(rho)
    _require(lam.min(initial=0.0) >= -MATRIX_TOL,
             f"matrix not PSD (eigenvalue {lam.min(initial=0.0):.3e})")
    t1, t2 = angles[:, 0], angles[:, 1]
    s2 = np.sin(t2) ** 2
    want = np.sort(np.stack([np.cos(t1) ** 2 * s2, np.sin(t1) ** 2 * s2,
                             np.cos(t2) ** 2], axis=-1), axis=-1)
    spec = np.abs(lam - want).max(initial=0.0)
    _require(spec <= MATRIX_TOL, f"spectrum differs from the angles' by {spec:.3e}")
    _require(count >= 2, "need at least 2 samples for the purity check")
    purity = (np.abs(rho) ** 2).sum(axis=(-2, -1))
    se = float(purity.std(ddof=1) / math.sqrt(count))
    z = abs(float(purity.mean()) - MEAN_PURITY_3) / se
    _require(z <= SIGMAS, f"mean purity is {z:.2f} standard errors from {MEAN_PURITY_3}")
    return z


def check_help(stdout: bytes, subcommand: str) -> None:
    """``bures <subcommand> --help`` prints its usage."""
    _require(stdout.startswith(f"usage: bures {subcommand}".encode()),
             "help output does not start with the usage line")
