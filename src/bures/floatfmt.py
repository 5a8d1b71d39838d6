"""Exact vectorized ``%.16e`` formatting of float tables.

``format_rows(template, table)`` returns the same text as
``"".join(template % tuple(row) for row in table)`` for a row template whose
fields are all ``%.16e``, but formats the table with whole-array numpy
operations instead of one ``%`` call per float.

For a finite x with 1e-30 <= |x| < 1e3 and E = floor(log10 |x|), the 17
printed digits are D = round(y) with y = |x| * 10**(16 - E) in [1e16, 1e17).
y is formed as a double-double: Dekker's exact two-product of |x| and the
high part of 10**(16 - E), plus |x| times its low part (Dekker, Numer. Math.
18 (1971) 224).  y >= 1e16 > 2**53, so the rounded product is an integer and
y's fraction is that of the small remainder, found with an error below
1e-14.  A fraction within 1e-6 of 1/2 may be a tie (``%`` rounds the exact
binary value half to even), so those values go back to ``%``, as do values
out of the magnitude range, non-finite values, and values whose unrounded y
missed [1e16, 1e17) because log10 put E one off.  A y that rounds up to 1e17
prints as 1e16 at E + 1.  Zeros are written directly.

Each field gets a 24-byte slot (sign, 17 digits, point, "e", exponent sign
and up to 3 exponent digits); a keep-mask drops the bytes a field does not
use, so a block of rows becomes text with one compress and one decode.  The
tables are built on first use, so importing this module costs nothing.
"""

from __future__ import annotations

import functools

import numpy as np

FIELD = "%.16e"

_SLOT = 24                  # "-1.2345678901234567e-300": the widest field
_E_MIN, _E_MAX = -30, 2     # decimal exponents of the vector path
_TIE = 1e-6                 # distance from 1/2 within which a fraction may be a tie
_SPLIT = 134217729.0        # 2**27 + 1: Veltkamp's splitting constant
_PADDED = "%-24.16e"        # FIELD left-justified in a slot


# a field's slot: sign, leading digit, point, 16 digits in groups of 4,
# "e" and the signed exponent, and a spare byte a 3-digit exponent needs
_SLOT_DTYPE = np.dtype([("sign", "u1"), ("lead", "u1"), ("point", "u1"),
                        ("digits", "<u4", (4,)), ("exp", "<u4"), ("spare", "u1")])


@functools.cache
def _powers():
    """10**(16 - E) for each E as hi + lo, and hi split in halves."""
    powers = [10 ** (16 - e) for e in range(_E_MIN, _E_MAX + 1)]
    hi = np.array([float(p) for p in powers])
    lo = np.array([float(p - int(h)) for p, h in zip(powers, hi.tolist())])
    return (hi, lo) + _split(hi)


@functools.cache
def _text():
    """Each 4-digit group and each exponent suffix as one little-endian uint32.

    Group i is the ASCII of ``"%04d" % i``: its thousands digit in the low
    byte, its units digit in the high byte, each plus ``"0"``.
    """
    i = np.arange(10_000, dtype=np.uint32)
    four = i // 1000 | i // 100 % 10 << 8 | i // 10 % 10 << 16 | i % 10 << 24
    four += 0x30303030                              # "0000"
    four.flags.writeable = False
    exps = range(_E_MIN, _E_MAX + 2)                # E + 1 for a carry
    return four, np.frombuffer("".join("e%+03d" % e for e in exps).encode(), "<u4")


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of a into a high and a low half of 26 bits each."""
    c = a * _SPLIT
    h = c - (c - a)
    return h, a - h


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each |x| as 17 digits D and exponent E, and the mask of values for ``%``.

    Zeros and the masked values come back as D = 0, E = 0.
    """
    hi_t, lo_t, hh_t, hl_t = _powers()
    a = np.abs(x)
    zero = a == 0.0
    fast = (a >= 1e-30) & (a < 1e3)                # False for inf and nan
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    np.clip(e, _E_MIN, _E_MAX, out=e)
    k = e - _E_MIN
    prod = a * hi_t[k]
    ah, al = _split(a)
    hh, hl = hh_t[k], hl_t[k]
    r = ((ah * hh - prod) + ah * hl + al * hh) + al * hl     # a * hi - prod, exactly
    del ah, al, hh, hl
    r += a * lo_t[k]
    whole = np.floor(r)
    r -= whole                                               # y's fraction
    d = prod.astype(np.int64)
    d += whole.astype(np.int64)
    del prod, whole
    back = ~(fast | zero) | (np.abs(r - 0.5) < _TIE) | (d < 10 ** 16) | (d >= 10 ** 17)
    d += r > 0.5
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    e += carry
    plain = zero | back
    d[plain] = 0
    e[plain] = 0
    return d, e, back


def _slots(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each value's ``%.16e`` text in a 24-byte slot, and the mask of its bytes."""
    four, exp_text = _text()
    d, e, back = _decimal(x)
    top = d // 10 ** 8
    d -= top * 10 ** 8
    lead = top // 10 ** 8
    top -= lead * 10 ** 8
    s = np.empty(x.size, _SLOT_DTYPE)
    s["sign"] = ord("-")
    s["lead"] = lead + ord("0")
    s["point"] = ord(".")
    digits = s["digits"]
    digits[:, 0] = four[top // 10_000]
    digits[:, 1] = four[top % 10_000]
    digits[:, 2] = four[d // 10_000]
    digits[:, 3] = four[d % 10_000]
    s["exp"] = exp_text[e - _E_MIN]
    del d, e, top, lead
    s = s.view(np.uint8).reshape(x.size, _SLOT)
    keep = np.ones((x.size, _SLOT), bool)
    keep[:, 0] = np.signbit(x)
    keep[:, -1] = False

    if back.any():
        values = x[back].tolist()
        text = (_PADDED * len(values)) % tuple(values)
        s[back] = np.frombuffer(text.encode(), np.uint8).reshape(-1, _SLOT)
        keep[back] = s[back] != ord(" ")
    return s, keep


def format_rows(template: str, table: np.ndarray) -> str:
    """``template % tuple(row)`` for every row of table, concatenated.

    Every field of template is ``%.16e`` and it holds no other ``%``; table
    has one column per field.
    """
    pieces = [p.encode("ascii") for p in template.split(FIELD)]
    table = np.asarray(table, dtype=np.float64)
    rows, fields = table.shape
    if fields != len(pieces) - 1:
        raise ValueError(f"template has {len(pieces) - 1} fields, table {fields} columns")
    # one row of the output buffer: each piece, then a slot, then the last piece
    width = len(b"".join(pieces)) + fields * _SLOT
    line = np.zeros(width, np.uint8)
    line_keep = np.zeros(width, bool)
    starts, at = [], 0
    for p in pieces:
        line[at:at + len(p)] = np.frombuffer(p, np.uint8)
        line_keep[at:at + len(p)] = True
        at += len(p)
        starts.append(at)
        at += _SLOT

    s, keep_s = _slots(table.ravel())
    s, keep_s = s.reshape(rows, fields, _SLOT), keep_s.reshape(rows, fields, _SLOT)
    buf = np.empty((rows, width), np.uint8)
    keep = np.empty((rows, width), bool)
    buf[:] = line
    keep[:] = line_keep
    for j, at in enumerate(starts[:-1]):
        buf[:, at:at + _SLOT] = s[:, j]
        keep[:, at:at + _SLOT] = keep_s[:, j]
    del s, keep_s
    text = buf[keep]
    del buf, keep
    return str(text.data, "ascii")
