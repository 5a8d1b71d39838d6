"""Runnable invariant suite behind the ``check`` CLI command.

Every check returns its measured deviation and the tolerance it was held to.
All randomness is internally seeded, so a run is a pure function of the
suite name.  The "fast" suite finishes in under a second; "full" adds the
statistical pushforward tests and cross-method integration checks.

Each Bures quantity is checked once, for n = 2 and 3 together: the
production form (from ``kernels`` or ``integration``) against a form it does
not share, i.e. the eigenvalue-simplex density times the Jacobian, the
first-principles ``|det C|``, or an entry of ``VOLUME``, ``MEAN_ENTROPY``
and ``MEAN_PURITY``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import floatfmt, generators
from .euler import (CosetAngles, EigenvalueAngles, coset_unitary,
                    density_from_params, diag_eigenvalues, euler_unitary,
                    params_from_density_2, params_from_values)
from .functionals import FunctionalId, FunctionalKind, spectrum_batch
from .integration import integrate, integrate_mc
from .kernels import (COSET_RANGES, EIGEN_RANGES, coset_measure_factor,
                      coset_unitary_batch, density_batch, diag_eigenvalues_batch,
                      eigen_measure_factor, normalization_constant)
from .linalg import expm_i_generator
from .measure import eigenvalue_jacobian, haar_coset_density, hall_density
from .sampling import sample

KS_CRITICAL_1PCT = 1.6276  # asymptotic Kolmogorov quantile at alpha = 0.01


@dataclass(frozen=True)
class CheckResult:
    name: str
    deviation: float
    tolerance: float
    passed: bool


def _result(name: str, deviation: float, tolerance: float) -> CheckResult:
    return CheckResult(name, float(deviation), float(tolerance),
                       bool(deviation <= tolerance))


def ks_statistic(values: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Two-sided Kolmogorov-Smirnov statistic against a continuous cdf."""
    x = np.sort(np.asarray(values, dtype=np.float64))
    m = x.size
    c = cdf(x)
    hi = np.arange(1, m + 1) / m
    lo = np.arange(0, m) / m
    return float(max((hi - c).max(), (c - lo).max()))


def _random_point_arrays(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    ranges = EIGEN_RANGES[n] + COSET_RANGES[n]
    cols = [rng.uniform(lo, hi, count) for lo, hi in ranges]
    return np.column_stack(cols)


def _relative_gap(fast, ref) -> float:
    """Largest |fast / ref - 1|, point by point."""
    return float(np.abs(np.divide(fast, ref) - 1.0).max())


# ---------------------------------------------------------------------------
# generator algebra
# ---------------------------------------------------------------------------

def check_generator_orthogonality() -> CheckResult:
    dev = 0.0
    for n in (2, 3):
        gens = generators.generator_set(n).generators
        for a, ta in enumerate(gens):
            for b, tb in enumerate(gens):
                want = 2.0 if a == b else 0.0
                dev = max(dev, abs(np.trace(ta @ tb) - want))
    return _result("generator_orthogonality", dev, 1e-14)


def check_generator_hermitian_traceless() -> CheckResult:
    dev = 0.0
    for n in (2, 3):
        for t in generators.generator_set(n).generators:
            dev = max(dev, np.linalg.norm(t - t.conj().T), abs(np.trace(t)))
    return _result("generator_hermitian_traceless", dev, 0.0)


def check_cartan_commutation() -> CheckResult:
    dev = 0.0
    for n in (2, 3):
        gset = generators.generator_set(n)
        cartan = [gset.generators[k - 1] for k in gset.cartan_indices]
        for a in cartan:
            for b in cartan:
                dev = max(dev, np.linalg.norm(a @ b - b @ a))
    return _result("cartan_commutation", dev, 1e-14)


# ---------------------------------------------------------------------------
# exponentials
# ---------------------------------------------------------------------------

def check_expm_unitarity_group_law() -> CheckResult:
    rng = np.random.default_rng(101)
    dev = 0.0
    for n in (2, 3):
        eye = np.eye(n)
        for _ in range(20):
            h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h = h + h.conj().T
            s, t = rng.uniform(-3, 3, 2)
            u = expm_i_generator(h, t)
            dev = max(dev, np.linalg.norm(u @ u.conj().T - eye))
            dev = max(dev, np.linalg.norm(
                expm_i_generator(h, s + t) - expm_i_generator(h, s) @ u))
            det_dev = abs(np.linalg.det(u) - np.exp(1j * t * np.trace(h)))
            dev = max(dev, det_dev)
    return _result("expm_unitarity_group_law", dev, 1e-12)


# ---------------------------------------------------------------------------
# parameterization
# ---------------------------------------------------------------------------

def check_density_validity() -> CheckResult:
    rng = np.random.default_rng(103)
    dev = 0.0
    for n in (2, 3):
        pts = _random_point_arrays(n, 500, rng)
        for row in pts:
            p = params_from_values(n, row)
            rho = density_from_params(p)
            dev = max(dev, np.linalg.norm(rho - rho.conj().T))
            dev = max(dev, abs(np.trace(rho).real - 1.0), abs(np.trace(rho).imag))
            w = np.linalg.eigvalsh(rho)
            dev = max(dev, max(0.0, -float(w.min())))
            lam = np.sort(diag_eigenvalues(p.eigen))[::-1]
            dev = max(dev, float(np.abs(np.sort(w)[::-1] - lam).max()))
    return _result("density_validity", dev, 1e-12)


def check_dropped_angle_invariance() -> CheckResult:
    rng = np.random.default_rng(104)
    grid = np.linspace(0.0, 2 * math.pi, 7)
    dev = 0.0
    for n in (2, 3):
        for _ in range(10):
            pt = _random_point_arrays(n, 1, rng)[0]
            k = n - 1
            lam = diag_eigenvalues_batch(n, pt[None, :k])[0]
            dropped = 1 if n == 2 else 2
            for slot in range(dropped):
                ref = None
                for g in grid:
                    full = list(pt[k:]) + [0.0] * dropped
                    full[len(pt[k:]) + slot] = g
                    u = euler_unitary(n, full)
                    rho = (u * lam) @ u.conj().T
                    if ref is None:
                        ref = rho
                    else:
                        dev = max(dev, float(np.abs(rho - ref).max()))
    return _result("dropped_angle_invariance", dev, 1e-13)


def check_inverse_roundtrip_2state() -> CheckResult:
    rng = np.random.default_rng(105)
    dev = 0.0
    for _ in range(100):
        p = params_from_values(2, _random_point_arrays(2, 1, rng)[0])
        rho = density_from_params(p)
        rec = params_from_density_2(rho)
        dev = max(dev, float(np.abs(density_from_params(rec.params) - rho).max()))
    return _result("inverse_roundtrip_2state", dev, 1e-10)


def check_density_kernel_closed_form() -> CheckResult:
    """The closed-form batch kernel against the generator-exponential chain."""
    rng = np.random.default_rng(110)
    dev = 0.0
    for n in (2, 3):
        pts = _random_point_arrays(n, 200, rng)
        ref = [density_from_params(params_from_values(n, row)) for row in pts]
        fast = density_batch(n, pts[:, :n - 1], pts[:, n - 1:])
        dev = max(dev, float(np.abs(fast - ref).max()))
    return _result("density_kernel_closed_form", dev, 1e-14)


def check_spectrum_2state_closed_form() -> CheckResult:
    """The 2x2 spectrum from the entries against LAPACK's, pure states to I/2."""
    pts = _random_point_arrays(2, 1000, np.random.default_rng(111))
    pts[:200, 0] = np.repeat([0.0, 1e-7], 100)           # pure and near pure
    rhos = np.concatenate([density_batch(2, pts[:, :1], pts[:, 1:]), np.eye(2)[None] / 2])
    dev = np.abs(spectrum_batch(rhos) - np.linalg.eigvalsh(rhos)).max()
    return _result("spectrum_2state_closed_form", dev, 1e-14)


# ---------------------------------------------------------------------------
# measures: each production factor and mean against a form it does not share
# ---------------------------------------------------------------------------

# The Bures volume and means for n = 2, 3.  n=2: pi^2, and the closed forms
# of the means for N = 2: the mean entropy is psi0(N^2/2 + 1) - psi0(N + 1/2)
# (conjectured by Sarkar & Kumar, 2019, and proved by Wei, 2020) and the mean
# purity (5N^2 + 1) / (2N(N^2 + 2)).  n=3: the doubles nearest mpmath's
# tanh-sinh quadrature of the paper's formulas over its box, which
# tests/test_reference_values.py recomputes.
VOLUME = {2: math.pi ** 2, 3: 7.9596814682680505095}
MEAN_ENTROPY = {2: 2 * math.log(2) - 7 / 6, 3: 0.52304846877540471207}
MEAN_PURITY = {2: 7 / 8, 3: 0.68444319932144456889}
_ENTROPY = FunctionalId(FunctionalKind.VON_NEUMANN_ENTROPY)


def check_eigen_factor_check_form() -> CheckResult:
    """The fused eigenvalue factor against Hall's simplex density times the
    Jacobian, 0.05 inside the box, where the simplex density stays finite."""
    rng = np.random.default_rng(108)
    dev = 0.0
    for n in (2, 3):
        eig = np.column_stack([rng.uniform(lo + 0.05, hi - 0.05, 200)
                               for lo, hi in EIGEN_RANGES[n]])
        ref = [hall_density(diag_eigenvalues(e)) * eigenvalue_jacobian(e)
               for e in (EigenvalueAngles(n, tuple(row)) for row in eig)]
        dev = max(dev, _relative_gap(eigen_measure_factor(n, eig), ref))
    return _result("eigen_factor_check_form", dev, 1e-12)


def check_coset_factor_check_form() -> CheckResult:
    """The closed-form coset factor against |det C| from first principles."""
    rng = np.random.default_rng(109)
    dev = 0.0
    for n in (2, 3):
        cos = _random_point_arrays(n, 100, rng)[:, n - 1:]
        ref = [haar_coset_density(CosetAngles(n, tuple(row))) for row in cos]
        dev = max(dev, _relative_gap(coset_measure_factor(n, cos), ref))
    return _result("coset_factor_check_form", dev, 1e-12)


def _coset_rows_fd(n: int, angles: np.ndarray, h: float = 1e-6) -> float:
    """|det C| with the factor derivatives replaced by central differences."""
    gset = generators.generator_set(n)
    coset_gens = gset.coset_generators()
    m = angles.size

    def unitary(x):
        return coset_unitary(CosetAngles(n, tuple(x)))

    u0 = unitary(angles)
    rows = []
    for k in range(m):
        up = angles.copy(); up[k] += h
        dn = angles.copy(); dn[k] -= h
        du = (unitary(up) - unitary(dn)) / (2 * h)
        x = -1j * u0.conj().T @ du
        rows.append([0.5 * np.trace(x @ t).real for t in coset_gens])
    return abs(float(np.linalg.det(np.array(rows))))


def check_coset_density_fd_3state() -> CheckResult:
    rng = np.random.default_rng(106)
    dev = 0.0
    for _ in range(3):
        ang = np.array([rng.uniform(lo + 0.05, hi - 0.05) for lo, hi in COSET_RANGES[3]])
        exact = haar_coset_density(CosetAngles(3, tuple(ang)))
        dev = max(dev, abs(exact - _coset_rows_fd(3, ang)))
    return _result("coset_density_fd_3state", dev, 1e-7)


def check_jacobian_fd_3state() -> CheckResult:
    rng = np.random.default_rng(107)
    h = 1e-6
    dev = 0.0
    for _ in range(25):
        t = np.array([rng.uniform(0.01, math.pi / 4 - 0.01),
                      rng.uniform(0.01, EIGEN_RANGES[3][1][1] - 0.01)])
        closed = eigenvalue_jacobian(EigenvalueAngles(3, tuple(t)))
        jac = np.empty((2, 2))
        for col in range(2):
            step = np.zeros(2)
            step[col] = h
            up = diag_eigenvalues_batch(3, (t + step)[None, :])[0]
            dn = diag_eigenvalues_batch(3, (t - step)[None, :])[0]
            jac[:, col] = (up[:2] - dn[:2]) / (2 * h)
        dev = max(dev, abs(closed - abs(np.linalg.det(jac))))
    return _result("jacobian_fd_3state", dev, 1e-8)


def check_volume() -> CheckResult:
    """Z at 64 points per axis within 1e-13, and at the default points, which
    ``volume`` and NORMALIZED use, within 1e-10 (n=3's 10 points: 3.8e-12);
    the deviation is the largest relative gap over its tolerance."""
    dev = max(_relative_gap(normalization_constant(n, pts), VOLUME[n]) / tol
              for n in (2, 3) for pts, tol in ((64, 1e-13), (None, 1e-10)))
    return _result("volume", dev, 1.0)


def _mean_gap(functional: FunctionalId, table: dict[int, float],
              points: int | None = None) -> float:
    return max(abs(integrate(n, functional, points).value - table[n]) for n in (2, 3))


def check_mean_entropy() -> CheckResult:
    return _result("mean_entropy", _mean_gap(_ENTROPY, MEAN_ENTROPY, 256),
                   1e-13)


def check_entropy_error_estimate() -> CheckResult:
    # the default rule's reported error estimate bounds its true error
    quads = {n: integrate(n, _ENTROPY) for n in (2, 3)}
    ratio = max(abs(q.value - MEAN_ENTROPY[n]) / q.error_estimate for n, q in quads.items())
    return _result("entropy_error_estimate", ratio, 1.0)


def check_mean_purity() -> CheckResult:
    return _result("mean_purity",
                   _mean_gap(FunctionalId(FunctionalKind.PURITY), MEAN_PURITY), 1e-13)


def check_sampler_determinism() -> CheckResult:
    """Count prefixes give the same rows, across a chunk boundary and within one."""
    same = True
    # n=2: prefixes that end inside the second index chunk and inside the
    # first; n=3: one that ends inside the first
    for n, count, prefixes in ((2, 40_000, (20_000, 100)), (3, 20_000, (1000,))):
        rows = sample(n, count, 2024)
        same &= all(np.array_equal(rows[:m], sample(n, m, 2024)) for m in prefixes)
    return _result("sampler_determinism", 0.0 if same else 1.0, 0.0)


def check_float_format_exact() -> CheckResult:
    """The vectorized sample-row formatter against CPython's ``%``, value by value.

    Edge values go through it one per row; a 1024-row n=3 sample table goes
    through the writer ``sample`` uses, with its Hermitian layout (lower
    cells mirrored from the upper ones, the diagonal's im parts from the
    template).  The deviation is the number of rows printed differently.
    """
    rng = np.random.default_rng(112)
    tens = np.array([float(f"1e{p}") for p in range(-31, 4)]).view(np.int64)
    # ties: odd k / 2**(17 - j) in [10**j, 10**(j+1)) has 18 significant
    # digits, the last a 5, so its 17-digit rounding is exactly half way
    j = rng.integers(-5, 3, 5_000)
    k = np.floor(np.ldexp(10.0 ** j * rng.uniform(1.0, 10.0, j.size), 17 - j))
    ties = np.ldexp(k + (k % 2 == 0), j - 17)
    magnitudes = np.concatenate([
        10.0 ** rng.uniform(-30.0, 3.0, 10_000),
        (tens[:, None] + np.arange(-1, 2)).ravel().view(np.float64),
        ties, [1 + 2.0 ** -17, 1 + 3 * 2.0 ** -17],
        rng.integers(1, 2 ** 52, 1_000, dtype=np.int64).view(np.float64),   # subnormal
        [0.0, 1e3, np.inf, np.nan]])
    values = np.concatenate([
        rng.integers(0, 2 ** 64, 20_000, dtype=np.uint64).view(np.float64),
        magnitudes, -magnitudes])
    params = sample(3, 1024, seed=112)
    table = np.concatenate([params, density_batch(3, params[:, :2], params[:, 2:])
                            .view(np.float64).reshape(len(params), -1)], axis=1)
    one = floatfmt.FIELD + "\n"
    row = ",".join([floatfmt.FIELD] * table.shape[1]) + "\n"
    writer = floatfmt.RowWriter(row, len(table), hermitian=(8, 3))
    got = floatfmt.format_rows(one, values[:, None]) + writer.format(table).decode("ascii")
    want = ((one * len(values)) % tuple(values.tolist())
            + (row * len(table)) % tuple(table.ravel().tolist()))
    mismatches = 0 if got == want else sum(map(str.__ne__, got.split("\n"),
                                               want.split("\n")))
    return _result("float_format_exact", mismatches, 0.0)


# ---------------------------------------------------------------------------
# full-suite statistical checks
# ---------------------------------------------------------------------------

def check_pushforward_uniform_2state() -> CheckResult:
    u11 = np.abs(coset_unitary_batch(2, sample(2, 100_000, seed=501)[:, 1:])[:, 0, 0]) ** 2
    d = ks_statistic(u11, lambda t: np.clip(t, 0.0, 1.0))
    return _result("pushforward_uniform_2state", d,
                   KS_CRITICAL_1PCT / math.sqrt(u11.size))


def check_pushforward_dirichlet_3state() -> CheckResult:
    col = np.abs(coset_unitary_batch(3, sample(3, 100_000, seed=502)[:, 2:])[:, :, 0]) ** 2
    # Dirichlet(1,1,1) marginals are Beta(1,2)
    beta12 = lambda t: 1.0 - (1.0 - np.clip(t, 0.0, 1.0)) ** 2
    d = max(ks_statistic(col[:, j], beta12) for j in range(3))
    return _result("pushforward_dirichlet_3state", d,
                   KS_CRITICAL_1PCT / math.sqrt(col.shape[0]))


def _mc_quadrature_agreement(n: int, seed: int) -> CheckResult:
    # mean purity by Monte Carlo (the sampler, the matrix kernel, the
    # spectrum from the entries) against the eigenvalue-box quadrature, at 3 sigma
    fid = FunctionalId(FunctionalKind.PURITY)
    quad = integrate(n, fid)
    mc = integrate_mc(n, fid, 100_000, seed=seed)
    gap = abs(quad.value - mc.value)
    tol = 3.0 * math.hypot(mc.error_estimate, quad.error_estimate)
    return _result(f"mc_quadrature_agreement_{n}state", gap, tol)


def check_mc_quadrature_agreement_2state() -> CheckResult:
    return _mc_quadrature_agreement(2, seed=503)


def check_mc_quadrature_agreement_3state() -> CheckResult:
    return _mc_quadrature_agreement(3, seed=504)


FAST_CHECKS = (
    check_generator_orthogonality,
    check_generator_hermitian_traceless,
    check_cartan_commutation,
    check_expm_unitarity_group_law,
    check_density_validity,
    check_dropped_angle_invariance,
    check_inverse_roundtrip_2state,
    check_density_kernel_closed_form,
    check_spectrum_2state_closed_form,
    check_eigen_factor_check_form,
    check_coset_factor_check_form,
    check_coset_density_fd_3state,
    check_jacobian_fd_3state,
    check_volume,
    check_mean_entropy,
    check_entropy_error_estimate,
    check_mean_purity,
    check_sampler_determinism,
    check_float_format_exact,
)

FULL_CHECKS = FAST_CHECKS + (
    check_pushforward_uniform_2state,
    check_pushforward_dirichlet_3state,
    check_mc_quadrature_agreement_2state,
    check_mc_quadrature_agreement_3state,
)


def run_suite(suite: str = "fast") -> list[CheckResult]:
    if suite == "fast":
        checks = FAST_CHECKS
    elif suite == "full":
        checks = FULL_CHECKS
    else:
        raise ValueError(f"unknown suite {suite!r} (expected 'fast' or 'full')")
    return [fn() for fn in checks]
