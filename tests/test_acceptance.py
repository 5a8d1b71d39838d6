"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Statistical criteria use
fixed seeds (the sampler is deterministic, so they are reproducible).
"""

import math

import numpy as np

from bures import cli
from bures.checks import VOLUME, ks_statistic
from bures.euler import (density_batch, density_from_params,
                         diag_eigenvalues_batch, euler_unitary,
                         params_from_density_2, params_from_values)
from bures.functionals import FunctionalId, from_eigenvalues
from bures.generators import generator_set
from bures.integrate import integrate, integrate_mc
from bures.kernels import coset_unitary_batch
from bures.measure import joint_density_batch, normalization_constant
from bures.euler import CosetAngles
from bures.sampling import sample
from conftest import random_box_points

KS_CRIT_1PCT = 1.6276

ENTROPY = FunctionalId.parse("entropy")
PURITY = FunctionalId.parse("purity")


def verdict(cid: str, ok: bool, detail: str):
    print(f"criterion {cid}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {cid}: {detail}"


def test_criterion_1_generator_algebra():
    dev = 0.0
    for n in (2, 3):
        gens = generator_set(n).generators
        for a, ta in enumerate(gens):
            for b, tb in enumerate(gens):
                want = 2.0 if a == b else 0.0
                dev = max(dev, abs(np.trace(ta @ tb) - want))
    verdict("1 generator algebra", dev <= 1e-14, f"max |Tr(TaTb) - 2d_ab| = {dev:.2e}")


def test_criterion_2_density_validity():
    rng = np.random.default_rng(1002)
    worst = {"herm": 0.0, "trace": 0.0, "psd": 0.0, "spectrum": 0.0}
    for n in (2, 3):
        pts = random_box_points(n, 10_000, rng)
        rhos = density_batch(n, pts[:, :n - 1], pts[:, n - 1:])
        worst["herm"] = max(worst["herm"],
                            float(np.abs(rhos - np.swapaxes(rhos, 1, 2).conj()).max()))
        tr = np.trace(rhos, axis1=1, axis2=2)
        worst["trace"] = max(worst["trace"], float(np.abs(tr - 1).max()))
        w = np.linalg.eigvalsh(rhos)
        worst["psd"] = max(worst["psd"], max(0.0, -float(w.min())))
        lam = np.sort(diag_eigenvalues_batch(n, pts[:, :n - 1]), axis=1)
        worst["spectrum"] = max(worst["spectrum"],
                                float(np.abs(np.sort(w, axis=1) - lam).max()))
    ok = (worst["herm"] <= 1e-13 and worst["trace"] <= 1e-13
          and worst["psd"] <= 1e-12 and worst["spectrum"] <= 1e-12)
    verdict("2 density validity (1e4 points per n)", ok,
            "herm {herm:.1e}, trace {trace:.1e}, psd {psd:.1e}, "
            "spectrum {spectrum:.1e}".format(**worst))


def test_criterion_3_dropped_angle_invariance():
    rng = np.random.default_rng(1003)
    grid = np.linspace(0.0, 2 * math.pi, 20)
    dev = 0.0
    for n, dropped in ((2, 1), (3, 2)):
        k = n - 1
        pts = random_box_points(n, 100, rng)
        for row in pts:
            lam = diag_eigenvalues_batch(n, row[None, :k])[0]
            for slot in range(dropped):
                ref = None
                for g in grid:
                    full = list(row[k:]) + [0.0] * dropped
                    full[len(row[k:]) + slot] = g
                    u = euler_unitary(n, full)
                    rho = (u * lam) @ u.conj().T
                    if ref is None:
                        ref = rho
                    else:
                        dev = max(dev, float(np.abs(rho - ref).max()))
    verdict("3 dropped-angle invariance", dev <= 1e-13, f"max deviation = {dev:.2e}")


def test_criterion_4_two_state_densities():
    from bures.measure import haar_coset_density
    dev_coset = 0.0
    for al in np.linspace(0, math.pi, 50):
        for be in np.linspace(0, math.pi / 2, 50):
            d = haar_coset_density(CosetAngles(2, (al, be)))
            dev_coset = max(dev_coset, abs(d - math.sin(2 * be)))
    rng = np.random.default_rng(1004)
    pts = random_box_points(2, 100, rng)
    raw = joint_density_batch(2, pts)
    want = 8 * np.cos(2 * pts[:, 0]) ** 2 * np.sin(2 * pts[:, 2])
    dev_joint = float(np.abs(raw - want).max())
    ok = dev_coset <= 1e-10 and dev_joint <= 1e-10
    verdict("4 n=2 coset and joint density closed forms", ok,
            f"coset dev {dev_coset:.2e}, joint dev {dev_joint:.2e}")


def test_criterion_5_normalization_constants():
    z2 = normalization_constant(2)
    dev2 = abs(z2 - math.pi ** 2)
    z3a = normalization_constant(3, points_per_axis=8)
    z3b = normalization_constant(3, points_per_axis=10)
    rel = abs(z3a - z3b) / z3b
    pin = abs(z3b - VOLUME[3]) / VOLUME[3]
    ok = dev2 <= 1e-6 and rel <= 1e-4 and pin <= 1e-6
    verdict("5 normalization constants", ok,
            f"|Z2 - pi^2| = {dev2:.2e}; Z3 8-vs-10 rel = {rel:.2e}; "
            f"Z3 vs pinned rel = {pin:.2e}")


def test_criterion_6_pushforward_columns():
    crit = KS_CRIT_1PCT / math.sqrt(100_000)
    b2 = sample(2, 100_000, seed=1006)
    u11 = np.abs(coset_unitary_batch(2, b2[:, 1:])[:, 0, 0]) ** 2
    d2 = ks_statistic(u11, lambda t: np.clip(t, 0, 1))
    b3 = sample(3, 100_000, seed=1007)
    col = np.abs(coset_unitary_batch(3, b3[:, 2:])[:, :, 0]) ** 2
    beta12 = lambda t: 1.0 - (1.0 - np.clip(t, 0, 1)) ** 2
    d3 = max(ks_statistic(col[:, j], beta12) for j in range(3))
    ok = d2 <= crit and d3 <= crit
    verdict("6 pushforward column distributions (KS, 1e5 samples)", ok,
            f"n=2 D = {d2:.4f}, n=3 max D = {d3:.4f}, critical = {crit:.4f}")


def _spectral_oracle_1d(fid) -> float:
    """Independent 1-D reduction: weight (8/pi) cos^2(2t) on [0, pi/4]."""
    x, w = np.polynomial.legendre.leggauss(400)
    t = math.pi / 8 * (x + 1.0)
    w = math.pi / 8 * w
    lam = np.stack([np.cos(t) ** 2, np.sin(t) ** 2], axis=-1)
    dens = 8 * np.cos(2 * t) ** 2 / math.pi
    return float((from_eigenvalues(fid, lam) * dens * w).sum())


def test_criterion_7_cross_method_integration():
    details = []
    ok = True
    mc_cache = {}
    for fid, name in ((ENTROPY, "entropy"), (PURITY, "purity")):
        quad = integrate(2, fid)
        mc = integrate_mc(2, fid, 1_000_000, seed=1008)
        gap = abs(quad.value - mc.value)
        bound = 3.0 * math.hypot(mc.error_estimate, quad.error_estimate)
        oracle = _spectral_oracle_1d(fid)
        dev_oracle = abs(quad.value - oracle)
        ok = ok and gap <= bound and dev_oracle <= 1e-5
        details.append(f"{name}: |quad-mc| = {gap:.2e} (3se = {bound:.2e}), "
                       f"|quad-1D| = {dev_oracle:.2e}")
    verdict("7 cross-method integration (quadrature vs 1e6 MC vs 1-D oracle)",
            ok, "; ".join(details))


def test_criterion_8_inverse_roundtrip():
    rng = np.random.default_rng(1009)
    dev = 0.0
    for row in random_box_points(2, 1000, rng):
        p = params_from_values(2, row)
        rho = density_from_params(p)
        rec = params_from_density_2(rho)
        dev = max(dev, float(np.abs(density_from_params(rec.params) - rho).max()))
    flagged = params_from_density_2(np.diag([0.5 + 1e-11, 0.5 - 1e-11]).astype(complex))
    clear = params_from_density_2(np.diag([0.5 + 5e-10, 0.5 - 5e-10]).astype(complex))
    ok = dev <= 1e-10 and flagged.degenerate and not clear.degenerate
    verdict("8 n=2 inverse round trip (1e3 points)", ok,
            f"max reconstruction dev = {dev:.2e}; gap flag at 1e-10 boundary ok")


def test_criterion_9_determinism(capsys):
    ok = True
    details = []
    # 40 000 samples span three index chunks; the 20 000 prefix ends inside
    # the second
    for n, count, prefix in ((2, 40_000, 20_000), (3, 200, 150)):
        a = sample(n, count, seed=1010 + n)
        b = sample(n, count, seed=1010 + n)
        c = sample(n, prefix, seed=1010 + n)
        same = (a.tobytes() == b.tobytes()
                and a[:prefix].tobytes() == c.tobytes())
        ok = ok and same
        details.append(f"n={n} rerun and {prefix} of {count}: "
                       f"{'identical' if same else 'DIFFER'}")
    # csv carries only the samples; the json record also reports the count
    # and the proposal count, which depend on the count
    outs = []
    for count in ("50", "20"):
        assert cli.main(["sample", "--n", "2", "--count", count, "--seed", "99",
                         "--format", "csv"]) == 0
        outs.append(capsys.readouterr().out)
    same_cli = outs[0].split("\n")[:21] == outs[1].split("\n")[:21]
    ok = ok and same_cli
    details.append(f"CLI csv 20 of 50 rows: {'identical' if same_cli else 'DIFFER'}")
    verdict("9 determinism under reruns and count prefixes", ok, "; ".join(details))
