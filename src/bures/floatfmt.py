"""Exact vectorized ``%.16e`` formatting of float tables.

``format_rows(template, table)`` returns the same text as
``"".join(template % tuple(row) for row in table)`` for a row template whose
fields are all ``%.16e``, but formats the table with whole-array numpy
operations instead of one ``%`` call per float.  ``RowWriter`` does the same
for a stream of blocks of rows, as ASCII bytes, into one buffer it reuses,
and ``byte_writer`` writes such blocks to a text stream's file.

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
and up to 3 exponent digits) in a row buffer that holds the template's text
and is laid out once per writer; a block writes only the slots.  The bytes a
field does not use are NUL, so a block of rows becomes text with one copy
that drops the NULs.

The cells of a ``sample`` row's matrix are Hermitian, so a writer given that
layout formats only the distinct floats: 17 of the 26 fields of an n=3 row
(the 8 angles, the 3 diagonal re parts, re and im of the 3 upper cells) and
7 of the 11 for n=2.  The diagonal im parts, always +0.0, are template text;
a lower cell takes its upper cell's bytes, the im part's sign byte flipped
between "-" and NUL, and a mirrored slot that ``%`` filled (it has no sign
byte) is ``%``'s text of the negated value.  The digit tables are built on
first use.
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


def _percent(values: np.ndarray) -> np.ndarray:
    """``%``'s text of each value in a slot, left-justified and NUL-padded."""
    values = values.tolist()
    text = ((_PADDED * len(values)) % tuple(values)).encode().replace(b" ", b"\0")
    return np.frombuffer(text, np.uint8).reshape(-1, _SLOT)


def _slots(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each value's ``%.16e`` text in a 24-byte slot, NUL where it has no
    byte, and the mask of the values ``%`` formatted.

    A slot of the vector path is the sign ("-" or NUL), the 17 digits with
    their point, the exponent and a NUL; a slot ``%`` filled holds its text
    left-justified.
    """
    four, exp_text = _text()
    d, e, back = _decimal(x)
    top = d // 10 ** 8
    d -= top * 10 ** 8
    lead = top // 10 ** 8
    top -= lead * 10 ** 8
    s = np.empty(x.size, _SLOT_DTYPE)
    s["sign"] = np.where(np.signbit(x), ord("-"), 0)
    s["lead"] = lead + ord("0")
    s["point"] = ord(".")
    digits = s["digits"]
    digits[:, 0] = four[top // 10_000]
    digits[:, 1] = four[top % 10_000]
    digits[:, 2] = four[d // 10_000]
    digits[:, 3] = four[d % 10_000]
    s["exp"] = exp_text[e - _E_MIN]
    s["spare"] = 0
    del d, e, top, lead
    s = s.view(np.uint8).reshape(x.size, _SLOT)
    if back.any():
        s[back] = _percent(x[back])
    return s, back


class RowWriter:
    """``template % tuple(row)`` for blocks of rows, into one reused buffer.

    Every field of template is ``%.16e`` and it holds no other ``%`` and no
    NUL.  The template's text is laid into a (rows, width) byte buffer once;
    ``format`` then fills only the fields' 24-byte slots, for a table of at
    most ``rows`` rows with one column per field.

    ``hermitian=(at, n)`` says that the fields from ``at`` on are re and im
    of each cell of an n x n Hermitian matrix, row by row, whose lower cells
    are the conjugates of the upper ones bit for bit and whose diagonal im
    parts are +0.0.  Those im parts are then printed from the template, and
    a lower cell takes its upper cell's bytes, its im part with the sign
    flipped (or, for a value ``%`` formats, ``%``'s text of the negation), so
    only the distinct columns are formatted: 17 of the 26 of an n=3 sample
    row.
    """

    def __init__(self, template: str, rows: int, hermitian: tuple[int, int] | None = None):
        if "\0" in template:
            raise ValueError("the template holds a NUL")
        pieces = template.split(FIELD)
        self.fields = fields = len(pieces) - 1
        at, n = hermitian or (fields, 0)
        if not 0 <= at <= fields - 2 * n * n:
            raise ValueError(f"template has {fields} fields, too few for {hermitian}")
        # the table column each field prints (None: the literal +0.0), negated or not
        source = [(f, False) for f in range(fields)]
        for i in range(n):
            for j in range(n):
                cell = at + 2 * (i * n + j)
                if i == j:
                    source[cell + 1] = None
                elif i > j:
                    upper = at + 2 * (j * n + i)
                    source[cell], source[cell + 1] = (upper, False), (upper + 1, True)
        self._columns = [f for f in range(fields) if source[f] == (f, False)]
        position = {c: k for k, c in enumerate(self._columns)}
        text, self._slots = [pieces[0]], []
        for src, piece in zip(source, pieces[1:]):
            if src is None:
                text[-1] += FIELD % 0.0 + piece
            else:
                self._slots.append((position[src[0]], src[1]))
                text.append(piece)
        # one row of the buffer: each piece, then a slot, then the last piece
        line, self._starts = b"", []
        for t in text:
            line += t.encode("ascii")
            self._starts.append(len(line))
            line += bytes(_SLOT)
        del self._starts[-1]                    # no slot after the last piece
        self._buf = np.empty((rows, len(line) - _SLOT), np.uint8)
        self._buf[:] = np.frombuffer(line[:-_SLOT], np.uint8)

    def format(self, table: np.ndarray) -> bytes:
        """The rows' text as ASCII bytes."""
        table = np.asarray(table, dtype=np.float64)
        rows, fields = table.shape
        if fields != self.fields:
            raise ValueError(f"template has {self.fields} fields, table {fields} columns")
        if rows > len(self._buf):
            raise ValueError(f"{rows} rows, the buffer holds {len(self._buf)}")
        x = table[:, self._columns]
        s, back = _slots(x.ravel())
        s, back = s.reshape(x.shape + (_SLOT,)), back.reshape(x.shape)
        buf = self._buf[:rows]
        for at, (k, negate) in zip(self._starts, self._slots):
            buf[:, at:at + _SLOT] = s[:, k]
            if negate:
                buf[:, at] ^= ord("-")          # the sign byte: "-" <-> NUL
                # a slot ``%`` filled has no sign byte to flip
                fix = np.flatnonzero(back[:, k])
                buf[fix, at:at + _SLOT] = _percent(-x[fix, k])
        return buf.tobytes().replace(b"\0", b"")


def format_rows(template: str, table: np.ndarray) -> str:
    """``template % tuple(row)`` for every row of table, concatenated.

    Every field of template is ``%.16e`` and it holds no other ``%``; table
    has one column per field.
    """
    table = np.asarray(table, dtype=np.float64)
    return RowWriter(template, len(table)).format(table).decode("ascii")


_PIPE_BYTES = 1 << 20       # Linux's default pipe-max-size for an unprivileged process


def byte_writer(stream):
    """A function that writes ASCII bytes to the text stream ``stream``.

    The text layer takes only ``str``, so it is flushed once and then
    bypassed for its binary layer, or for the raw file under that layer's
    buffer where it has one: a block goes out as the bytes it is, never
    decoded and encoded again.  A raw ``FileIO``'s ``write``, which is
    stdout's binary layer under ``PYTHONUNBUFFERED``, may take only part of
    the data, so each write loops until all is out.  A stream with no binary
    layer (an ``io.StringIO``) takes the decoded text.

    A file that is a pipe smaller than 1 MiB is asked once to grow to it
    (``F_SETPIPE_SZ``, pipe(7)).  It then holds a whole 1024-row ``sample``
    block (0.76 MB at most), and the reader drains one block while the next
    is formed; in Linux's default 64 KiB pipe each write waited on the
    reader.  The growth is for speed only, so a file that is not a pipe
    (EBADF), a refusal or a system without the call leaves the file as it is.
    """
    stream.flush()
    binary = getattr(stream, "buffer", None)
    if binary is None:
        return lambda data: stream.write(str(data, "ascii"))
    raw = getattr(binary, "raw", binary)
    try:
        import fcntl

        if fcntl.fcntl(raw.fileno(), fcntl.F_GETPIPE_SZ) < _PIPE_BYTES:
            fcntl.fcntl(raw.fileno(), fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    except (ImportError, AttributeError, OSError):
        pass

    def write(data) -> None:
        view = memoryview(data)
        while view:
            view = view[raw.write(view):]

    return write
