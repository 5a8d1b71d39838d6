"""Independent evaluation of the n=3 box values the other tests pin.

The Bures density's eigenvalue factor on the paper's box (t1 in [0, pi/4],
t2 in [0, arccos(1/sqrt 3)]) is written here in mpmath straight from the
paper's formulas: the spectrum lam = (cos^2 t1 sin^2 t2, sin^2 t1 sin^2 t2,
cos^2 t2), the eigenvalue-simplex density (lam1 lam2 lam3)^(-1/2) *
prod_{j<k} 4 (lam_j - lam_k)^2 / (lam_j + lam_k), and the Jacobian
|sin 2t1 sin^2 t2 sin 2t2|, with no cancellation done by hand and nothing
taken from ``bures``.  mpmath's 2-D tanh-sinh quadrature integrates it at 20
digits in a few seconds; at 35 digits it agrees to all 20 digits the pins
carry.  The pins are the reference tables of the ``check`` suite, which the
other tests import.  The test is skipped when mpmath does not import.
"""

import pytest

from bures import checks

mp = pytest.importorskip("mpmath")


def _spectrum(t1, t2):
    s2 = mp.sin(t2) ** 2
    return mp.cos(t1) ** 2 * s2, mp.sin(t1) ** 2 * s2, mp.cos(t2) ** 2


def _weight(t1, t2):
    """Eigenvalue-simplex density times the Jacobian of the spectrum map."""
    lam = _spectrum(t1, t2)
    hall = 1 / mp.sqrt(lam[0] * lam[1] * lam[2])
    for j in range(3):
        for k in range(j + 1, 3):
            hall *= 4 * (lam[j] - lam[k]) ** 2 / (lam[j] + lam[k])
    return hall * abs(mp.sin(2 * t1) * mp.sin(t2) ** 2 * mp.sin(2 * t2))


def test_box_values_of_the_paper():
    with mp.workdps(20):
        box = ([0, mp.pi / 4], [0, mp.acos(1 / mp.sqrt(3))])

        def integral(f):
            return mp.quad(lambda a, b: f(*_spectrum(a, b)) * _weight(a, b), *box)

        eigen = integral(lambda *lam: 1)
        # the coset factor integrates to pi^3/4 in closed form
        z3 = eigen * mp.pi ** 3 / 4
        entropy = integral(lambda *lam: -sum(x * mp.log(x) for x in lam)) / eigen
        purity = integral(lambda *lam: sum(x * x for x in lam)) / eigen
        for value, pin in [(z3, checks.VOLUME[3]), (entropy, checks.MEAN_ENTROPY[3]),
                           (purity, checks.MEAN_PURITY[3])]:
            # each pin is the double nearest the independent value
            assert abs(value - pin) <= 2 ** -53 * abs(pin), (value, pin)
