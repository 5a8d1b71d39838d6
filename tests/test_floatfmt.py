import io

import numpy as np
import pytest

from bures import floatfmt
from bures.euler import density_batch
from bures.sampling import sample

PER_CLASS = 1_000_000
_ROW = ",".join([floatfmt.FIELD] * 8) + "\n"     # a CSV row of 8 fields


def _as_percent(template: str, table: np.ndarray) -> str:
    """The reference: CPython's ``%`` on every row."""
    return (template * len(table)) % tuple(table.ravel().tolist())


def _assert_identical(values: np.ndarray, chunk: int = 131_072) -> None:
    values = np.asarray(values, dtype=np.float64)
    values = np.concatenate([values, np.zeros(-len(values) % 8)])
    for start in range(0, len(values), chunk):
        table = values[start:start + chunk].reshape(-1, 8)
        got = floatfmt.format_rows(_ROW, table)
        want = _as_percent(_ROW, table)
        if got != want:
            bad = [(v, g, w) for v, g, w in zip(table.ravel().tolist(),
                                                 got.replace("\n", ",").split(","),
                                                 want.replace("\n", ",").split(","))
                   if g != w]
            pytest.fail(f"{len(bad)} fields differ from %, first {bad[:3]}")


def _ties(rng: np.random.Generator, count: int) -> np.ndarray:
    """Exact ties at 17 digits: odd k / 2**(17 - j) in [10**j, 10**(j+1))
    has 18 significant digits, the last a 5 (1 + 2**-17 is one)."""
    j = rng.integers(-5, 3, count)
    m = 17 - j
    lo = np.ceil(np.ldexp(10.0 ** j, m))
    hi = np.floor(np.ldexp(10.0 ** (j + 1), m))
    k = lo + np.floor(rng.random(count) * (hi - lo))
    k += k % 2 == 0
    return rng.choice([-1.0, 1.0], count) * np.ldexp(k, -m)


def _powers_of_ten(ulps: int) -> np.ndarray:
    """10**p for p in [-31, 3], each with its neighbours up to ``ulps`` ulps away."""
    base = np.array([float(f"1e{p}") for p in range(-31, 4)])
    bits = base.view(np.int64)[:, None] + np.arange(-ulps, ulps + 1)
    v = bits.ravel().view(np.float64)
    return np.concatenate([v, -v])


SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e3, -1e3,
                     np.nextafter(1e3, 0), 1e-30, np.nextafter(1e-30, 0), -1e-30,
                     5e-324, -5e-324, 2.2250738585072014e-308,
                     2.2250738585072009e-308, 1.7976931348623157e308,
                     1 + 2.0 ** -17, 1 + 3 * 2.0 ** -17, 1e-28, 9.9999999999999999e-29,
                     0.1, 0.5, 1.0, np.pi, -1e300])


def _value_class(name: str, rng: np.random.Generator) -> np.ndarray:
    n = PER_CLASS
    if name == "normal":
        return rng.normal(size=n)
    if name == "uniform_0_pi":
        return rng.uniform(0.0, np.pi, n)
    if name == "log_uniform":
        return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-30.0, 3.0, n)
    if name == "random_bits":
        return rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(np.float64)
    # edges: powers of ten and their neighbours, ties, subnormals, specials
    subnormal = rng.integers(1, 2 ** 52, 50_000, dtype=np.int64).view(np.float64)
    return np.concatenate([_powers_of_ten(7000), _ties(rng, 450_000), subnormal,
                           -subnormal, SPECIALS])


@pytest.mark.parametrize("name", ["normal", "uniform_0_pi", "log_uniform",
                                  "random_bits", "edges"])
def test_byte_identical_to_percent(name):
    values = _value_class(name, np.random.default_rng(sum(map(ord, name))))
    assert len(values) >= PER_CLASS
    _assert_identical(values)


def test_specials_one_per_row():
    # each special alone in a one-field template, and in rows of mixed text
    for v in SPECIALS.tolist():
        assert floatfmt.format_rows("[%.16e]\n", np.array([[v]])) == "[%.16e]\n" % v
    table = np.resize(SPECIALS, (13, 4))
    template = '{"a": %.16e, "b": [%.16e, %.16e]}, x%.16e'
    assert floatfmt.format_rows(template, table) == _as_percent(template, table)


def test_empty_table_and_field_count():
    assert floatfmt.format_rows(_ROW, np.empty((0, 8))) == ""
    with pytest.raises(ValueError):
        floatfmt.format_rows(_ROW, np.zeros((2, 7)))


def test_digit_table_is_percent_04d():
    # the 4-digit groups are built with numpy; % on each group is the reference
    four, exp_text = floatfmt._text()
    assert four.tobytes() == "".join("%04d" % i for i in range(10_000)).encode()
    assert exp_text.tobytes() == "".join("e%+03d" % e for e in range(-30, 4)).encode()


def test_ties_and_out_of_range_take_the_fallback():
    rng = np.random.default_rng(5)
    _, _, back = floatfmt._decimal(_ties(rng, 10_000))
    assert back.all()
    out_of_range = np.array([1e3, -1e3, 1e300, 9.99e-31, -1e-31, 5e-324,
                             np.inf, -np.inf, np.nan])
    _, _, back = floatfmt._decimal(out_of_range)
    assert back.all()
    _, _, back = floatfmt._decimal(np.array([0.0, -0.0, 1.0, 999.9, 1e-30]))
    assert not back.any()


@pytest.mark.parametrize("n", [2, 3])
def test_sample_table_mostly_vectorized(n):
    params = sample(n, 4096, seed=11).params
    mats = density_batch(n, params[:, :n - 1], params[:, n - 1:])
    table = np.concatenate([params, mats.view(np.float64).reshape(len(params), -1)],
                           axis=1)
    _, _, back = floatfmt._decimal(table.ravel())
    assert back.sum() <= 4
    template = ",".join([floatfmt.FIELD] * table.shape[1]) + "\n"
    assert floatfmt.format_rows(template, table) == _as_percent(template, table)


# values that take the % fallback (ties, |x| < 1e-30, |x| >= 1e3) or sit at
# its edges, planted in the upper cells a lower cell mirrors
_MIRRORED = np.array([1e-31, -1e-31, 1 + 2.0 ** -17, -(1 + 2.0 ** -17), 0.0, -0.0,
                      1e3, -1e3, np.nextafter(1e3, 0), -np.nextafter(1e3, 0),
                      np.nextafter(1e3, np.inf), -np.nextafter(1e3, np.inf), 1e-30,
                      -1e-30, 5e-324, -5e-324])


def _hermitian_table(n: int, rows: int, rng: np.random.Generator) -> np.ndarray:
    """Angle columns, then re and im of each cell of a Hermitian matrix as
    ``density_batch`` writes it: lower cells the exact conjugates of the
    upper ones, the diagonal's im parts +0.0; a third of the upper parts
    are drawn from ``_MIRRORED``."""
    upper = rng.normal(size=(rows, n, n, 2))
    planted = rng.random(upper.shape) < 1 / 3
    upper[planted] = rng.choice(_MIRRORED, planted.sum())
    upper[0, 0, 1] = 1 + 2.0 ** -17, -1e-31         # a fallback in every block
    rho = np.zeros((rows, n, n), np.complex128)
    for i in range(n):
        rho[:, i, i] = upper[:, i, i, 0]
        for j in range(i + 1, n):
            rho[:, i, j] = upper[:, i, j, 0] + 1j * upper[:, i, j, 1]
            rho[:, j, i] = rho[:, i, j].conj()
    table = np.concatenate([rng.uniform(0.0, np.pi, (rows, n * n - 1)),
                            rho.view(np.float64).reshape(rows, -1)], axis=1)
    assert not np.signbit(rho.imag[:, range(n), range(n)]).any()
    return table


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("sep", ["", ", "])
def test_hermitian_rows_match_percent(n, sep):
    # one writer formats blocks of 1024, 1 and 1023 rows in turn, as the CLI
    # does, so a slot that took the fallback in one block is reused in the next
    rng = np.random.default_rng(100 * n + len(sep))
    fields = 2 * n * n + n * n - 1
    template = sep + "[" + ",".join([floatfmt.FIELD] * fields) + "]\n"
    writer = floatfmt.RowWriter(template, 1024, hermitian=(n * n - 1, n))
    for rows in (1024, 1, 1023, 1024):
        table = _hermitian_table(n, rows, rng)
        _, _, back = floatfmt._decimal(table.ravel())
        assert back.sum() >= max(4, rows // 10)     # the fallback is exercised
        got = writer.format(table).decode("ascii").splitlines()
        want = _as_percent(template, table).splitlines()
        bad = [(g, w) for g, w in zip(got, want) if g != w]
        assert len(got) == len(want) == rows and not bad, bad[:2]


def test_writer_checks_its_layout():
    # NUL marks the bytes a slot does not use, so the template may not hold one
    with pytest.raises(ValueError):
        floatfmt.RowWriter("\0" + floatfmt.FIELD, 4)
    with pytest.raises(ValueError):
        floatfmt.RowWriter(",".join([floatfmt.FIELD] * 25), 4, hermitian=(8, 3))
    writer = floatfmt.RowWriter(",".join([floatfmt.FIELD] * 11), 4, hermitian=(3, 2))
    with pytest.raises(ValueError):
        writer.format(np.zeros((5, 11)))


def test_byte_writer_finishes_partial_writes():
    # under PYTHONUNBUFFERED stdout is a text layer straight over a raw
    # FileIO, whose write may take only part of the data
    class Partial(io.RawIOBase):
        def __init__(self):
            self.data = bytearray()

        def writable(self):
            return True

        def write(self, data):
            self.data += bytes(data[:7])
            return min(len(data), 7)

    for buffered in (False, True):
        # buffered: the text layer holds "head," until it is flushed
        raw = Partial()
        out = io.TextIOWrapper(io.BufferedWriter(raw) if buffered else raw,
                               encoding="ascii", write_through=not buffered)
        out.write("head,")
        write = floatfmt.byte_writer(out)
        write(b"x" * 100)
        write(b"tail\n")
        out.flush()
        assert bytes(raw.data) == b"head," + b"x" * 100 + b"tail\n"
    text_only = io.StringIO()           # no binary layer: it takes the text
    floatfmt.byte_writer(text_only)(b"1.0\n")
    assert text_only.getvalue() == "1.0\n"
