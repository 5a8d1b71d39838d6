"""Runnable invariant suite behind the ``check`` CLI command.

Every check returns its measured deviation and the tolerance it was held to.
All randomness is internally seeded, so a run is a pure function of the
suite name.  The "fast" suite finishes in seconds; "full" adds the
statistical pushforward tests and cross-method integration checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import floatfmt, generators
from .euler import (COSET_RANGES, EIGEN_RANGES, CosetAngles,
                    EigenvalueAngles, coset_unitary, density_batch,
                    density_from_params, diag_eigenvalues,
                    diag_eigenvalues_batch, euler_unitary,
                    params_from_density_2, params_from_values)
from .functionals import FunctionalId, FunctionalKind, spectrum_batch
from .integrate import integrate, integrate_mc
from .kernels import coset_unitary_batch
from .linalg import expm_i_generator
from .measure import (coset_measure_factor, eigen_measure_factor,
                      eigenvalue_jacobian, haar_coset_density,
                      normalization_constant)
from .sampling import sample
from .tensorgrid import QuadratureSpec

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
# measures
# ---------------------------------------------------------------------------

def check_coset_density_2state_closed_form() -> CheckResult:
    alphas = np.linspace(0, math.pi, 20)
    betas = np.linspace(0, math.pi / 2, 20)
    dev = 0.0
    for al in alphas:
        for be in betas:
            d = haar_coset_density(CosetAngles(2, (al, be)))
            dev = max(dev, abs(d - math.sin(2 * be)))
    return _result("coset_density_2state_closed_form", dev, 1e-10)


def check_coset_density_3state_closed_form() -> CheckResult:
    """The production closed form against |det C| from first principles."""
    rng = np.random.default_rng(109)
    pts = _random_point_arrays(3, 100, rng)[:, 2:]
    fast = coset_measure_factor(3, pts)
    dev = max(abs(f - haar_coset_density(CosetAngles(3, tuple(row))))
              for row, f in zip(pts, fast))
    return _result("coset_density_3state_closed_form", dev, 1e-12)


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


def check_joint_density_2state_analytic() -> CheckResult:
    rng = np.random.default_rng(108)
    pts = _random_point_arrays(2, 50, rng)
    coset = [haar_coset_density(CosetAngles(2, tuple(row))) for row in pts[:, 1:]]
    dens = eigen_measure_factor(2, pts[:, :1]) * np.array(coset)
    want = 8 * np.cos(2 * pts[:, 0]) ** 2 * np.sin(2 * pts[:, 2])
    return _result("joint_density_2state_analytic",
                   float(np.abs(dens - want).max()), 1e-10)


def check_normalization_2state() -> CheckResult:
    z = normalization_constant(2)
    return _result("normalization_2state", abs(z - math.pi ** 2), 1e-6)


# Closed forms of the Bures means for N = 2: the mean entropy is
# psi0(N^2/2 + 1) - psi0(N + 1/2) (conjectured by Sarkar & Kumar, 2019, and
# proved by Wei, 2020) and the mean purity (5N^2 + 1) / (2N(N^2 + 2))
MEAN_ENTROPY_2 = 2 * math.log(2) - 7 / 6
MEAN_PURITY_2 = 7 / 8
_ENTROPY = FunctionalId(FunctionalKind.VON_NEUMANN_ENTROPY)


def check_entropy_closed_form_2state() -> CheckResult:
    quad = integrate(2, _ENTROPY, QuadratureSpec(256))
    return _result("entropy_closed_form_2state", abs(quad.value - MEAN_ENTROPY_2), 1e-13)


def check_entropy_error_estimate_2state() -> CheckResult:
    # the default rule's reported error estimate bounds its true error
    quad = integrate(2, _ENTROPY)
    return _result("entropy_error_estimate_2state", abs(quad.value - MEAN_ENTROPY_2),
                   quad.error_estimate)


def check_purity_closed_form_2state() -> CheckResult:
    quad = integrate(2, FunctionalId(FunctionalKind.PURITY))
    return _result("purity_closed_form_2state", abs(quad.value - MEAN_PURITY_2), 1e-13)


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

def check_normalization_3state_consistency() -> CheckResult:
    z8 = normalization_constant(3, points_per_axis=8)
    z10 = normalization_constant(3, points_per_axis=10)
    return _result("normalization_3state_consistency",
                   abs(z8 - z10) / abs(z10), 1e-4)


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


def check_mc_quadrature_agreement_2state() -> CheckResult:
    fid = FunctionalId(FunctionalKind.PURITY)
    quad = integrate(2, fid)
    mc = integrate_mc(2, fid, 100_000, seed=503)
    gap = abs(quad.value - mc.value)
    tol = 3.0 * math.hypot(mc.error_estimate, quad.error_estimate)
    return _result("mc_quadrature_agreement_2state", gap, tol)


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
    check_coset_density_2state_closed_form,
    check_coset_density_3state_closed_form,
    check_coset_density_fd_3state,
    check_jacobian_fd_3state,
    check_joint_density_2state_analytic,
    check_normalization_2state,
    check_entropy_closed_form_2state,
    check_entropy_error_estimate_2state,
    check_purity_closed_form_2state,
    check_sampler_determinism,
    check_float_format_exact,
)

FULL_CHECKS = FAST_CHECKS + (
    check_normalization_3state_consistency,
    check_pushforward_uniform_2state,
    check_pushforward_dirichlet_3state,
    check_mc_quadrature_agreement_2state,
)


def run_suite(suite: str = "fast") -> list[CheckResult]:
    if suite == "fast":
        checks = FAST_CHECKS
    elif suite == "full":
        checks = FULL_CHECKS
    else:
        raise ValueError(f"unknown suite {suite!r} (expected 'fast' or 'full')")
    return [fn() for fn in checks]
