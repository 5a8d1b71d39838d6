"""Exact vectorized ``%.16e`` formatting of float tables.

``format_rows(template, table)`` returns the same text as
``"".join(template % tuple(row) for row in table)`` for a row template whose
fields are all ``%.16e``, but formats the table with whole-array numpy
operations instead of one ``%`` call per float.  ``RowWriter`` does the same
for a stream of blocks of rows, as ASCII bytes, in buffers it reuses, and
``byte_writer`` writes such blocks to a text stream's file.

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

Each value's text is formed in six aligned little-endian uint32 words: a
NUL, the sign ("-" or NUL), the lead digit and the point; the other 16
digits, four to a word from a 10 000-entry table; "e" and the signed 2-digit
exponent.  Its bytes 1 to 23 are the text with a sign byte, bytes 2 to 23
the text without.  A writer lays the template's text into a row buffer with
a field for each ``%.16e``, as wide as the widest text the block prints
there: 22 bytes where no value prints a "-" (a ``sample`` row's angles and
diagonal), 23 bytes, the sign byte first, where one does (or a ``%`` text is
that wide, as 1e-300's), and 24 bytes, a NUL and the sign byte first, where
a ``%`` text is that wide (a negative value with a 3-digit exponent, as
-5e-324).  It keeps that layout while the blocks' widths allow it, and a
block copies each field's text into its column as one element per row.  A
value the vector path does not take then gets ``%``'s text in its field,
NUL-padded.  The NULs left are the sign bytes of the non-negative values in
23- and 24-byte fields, the leading NUL of a 24-byte field and the padding
of a ``%`` text shorter than its field; they are dropped 64 rows at a time,
by ``bytes.replace``, into an output buffer the writer owns.  The work
arrays are allocated once per writer.

The cells of a ``sample`` row's matrix are Hermitian, so a writer given that
layout formats only the distinct floats: 17 of the 26 fields of an n=3 row
(the 8 angles, the 3 diagonal re parts, re and im of the 3 upper cells) and
7 of the 11 for n=2.  The diagonal im parts, always +0.0, are template text;
a lower cell takes its upper cell's text, the im part's sign byte flipped
between "-" and NUL in a 23- or 24-byte field and dropped in a 22-byte one
(its column is then all negative), and a mirrored field that ``%`` fills is
``%``'s text of the negated value.  The digit tables are built on first use.
"""

from __future__ import annotations

import functools

import numpy as np

FIELD = "%.16e"

_E_MIN, _E_MAX = -30, 2     # decimal exponents of the vector path
_TIE = 1e-6                 # distance from 1/2 within which a fraction may be a tie
_SPLIT = 134217729.0        # 2**27 + 1: Veltkamp's splitting constant
_WIDEST = 24                # "-1.2345678901234567e-300"
_PADDED = "%-24.16e"        # FIELD left-justified in the widest text
_PIECE = 64                 # rows per NUL strip: a sample piece is under 64 KiB


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


class _Digits:
    """The text of up to ``size`` values at a time, as the six words of each
    (``words``), formed in work arrays allocated once.

    Arrays made afresh for each 1024-row n=3 block were freed and faulted in
    again as glibc's heap state had it: up to 690 minor faults per block.
    """

    def __init__(self, size: int):
        self.words = np.empty((size, 6), np.uint32)
        self._float = np.empty((3, size))
        self._int = np.empty((2, size), np.intp)
        self._bool = np.empty((4, size), bool)

    def decimal(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each |x| as 17 digits D and the index k = E - _E_MIN of its
        exponent E, and the mask of the values for ``%``.

        Zeros come back as D = 0, E = 0; a masked value's D and k are in
        range but mean nothing.  The arrays are the work arrays' own, and
        ``words`` is overwritten.
        """
        size = x.size
        # three of the float arrays lie in the words, which are written last
        a, p, r = self._float[:, :size]
        t, u, w = self.words.reshape(-1).view(np.float64).reshape(3, -1)[:, :size]
        k, d = self._int[:, :size]
        fast, zero, back, test = self._bool[:, :size]
        hi_t, lo_t, hh_t, hl_t = _powers()
        np.abs(x, out=a)
        np.equal(a, 0.0, out=zero)
        np.greater_equal(a, 1e-30, out=fast)
        np.less(a, 1e3, out=test)
        fast &= test                                # False for inf and nan
        np.logical_not(fast, out=test)
        np.copyto(a, 1.0, where=test)
        np.log10(a, out=t)
        np.floor(t, out=t)
        np.clip(t, _E_MIN, _E_MAX, out=t)
        t -= _E_MIN
        np.copyto(k, t, casting="unsafe")
        hi_t.take(k, out=p, mode="clip")
        p *= a                                      # prod = a * hi
        lo_t.take(k, out=r, mode="clip")
        r *= a                                      # a * lo, added last
        np.multiply(a, _SPLIT, out=t)               # a's halves: t = ah, a = al
        np.subtract(t, a, out=u)
        t -= u
        a -= t
        # w = ((ah * hh - prod) + ah * hl + al * hh) + al * hl + a * lo, whose
        # first four terms are a * hi - prod exactly
        hh_t.take(k, out=u, mode="clip")
        np.multiply(t, u, out=w)
        w -= p
        np.copyto(d, p, casting="unsafe")           # prod, an integer
        u *= a
        hl_t.take(k, out=p, mode="clip")
        t *= p
        w += t
        w += u
        a *= p
        w += a
        w += r
        np.floor(w, out=t)
        w -= t                                      # y's fraction
        whole = p.view(np.intp)
        np.copyto(whole, t, casting="unsafe")
        d += whole
        np.logical_or(fast, zero, out=back)
        np.logical_not(back, out=back)
        w -= 0.5
        np.abs(w, out=t)
        np.less(t, _TIE, out=test)
        back |= test
        np.less(d, 10 ** 16, out=test)
        back |= test
        np.greater_equal(d, 10 ** 17, out=test)
        back |= test
        np.greater(w, 0.0, out=test)                # the fraction is above 1/2
        d += test
        np.equal(d, 10 ** 17, out=test)
        np.copyto(d, 10 ** 16, where=test)
        k += test
        np.copyto(d, 0, where=zero)
        np.copyto(k, -_E_MIN, where=zero)
        return d, k, back

    def text(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fill ``words`` with the text of each value of x; return the mask
        of the values ``%`` must format and the mask of the negative ones."""
        four, exp_text = _text()
        d, k, back = self.decimal(x)
        top, g = self._float[:2, :x.size].view(np.intp)
        words = self.words[:x.size]
        np.floor_divide(d, 10 ** 8, out=top)        # the first 9 digits
        np.multiply(top, 10 ** 8, out=g)
        d -= g                                      # the last 8
        np.floor_divide(top, 10 ** 8, out=g)        # the lead digit
        np.left_shift(g, 16, out=words[:, 0], casting="unsafe")
        words[:, 0] += 0x2E300000                   # "0."
        np.multiply(g, 10 ** 8, out=g)
        top -= g
        np.floor_divide(top, 10_000, out=g)
        four.take(g, out=words[:, 1], mode="clip")
        np.multiply(g, 10_000, out=g)
        top -= g
        four.take(top, out=words[:, 2], mode="clip")
        np.floor_divide(d, 10_000, out=g)
        four.take(g, out=words[:, 3], mode="clip")
        np.multiply(g, 10_000, out=g)
        d -= g
        four.take(d, out=words[:, 4], mode="clip")
        exp_text.take(k, out=words[:, 5], mode="clip")
        negative = self._bool[3, :x.size]
        np.signbit(x, out=negative)
        np.multiply(negative, ord("-"), out=words.view(np.uint8)[:, 1], casting="unsafe")
        return back, negative


def _percent(values: np.ndarray) -> np.ndarray:
    """``%``'s text of each value in 24 bytes, left-justified and NUL-padded."""
    values = values.tolist()
    text = ((_PADDED * len(values)) % tuple(values)).encode().replace(b" ", b"\0")
    return np.frombuffer(text, np.uint8).reshape(-1, _WIDEST)


class RowWriter:
    """``template % tuple(row)`` for blocks of rows, in buffers it reuses.

    Every field of template is ``%.16e`` and it holds no other ``%`` and no
    NUL.  ``view`` formats a table of at most ``rows`` rows with one column
    per field, and leaves the text in an output buffer of the writer's own;
    ``format`` returns a copy of it.

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
        self._text = [t.encode("ascii") for t in text]
        self._slot_columns = [k for k, _ in self._slots]
        self._negated = np.array([negate for _, negate in self._slots], bool)
        self._rows = rows
        self._x = np.empty((rows, len(self._columns)))
        self._digits = _Digits(self._x.size)
        # the row buffer at its widest, and the output as large
        size = rows * (sum(map(len, self._text)) + _WIDEST * len(self._slots))
        self._memory, self._out = bytearray(size), bytearray(size)
        self._widths = None                         # the layout's field widths

    def _lay_out(self, widths: tuple[int, ...]) -> None:
        """Lay the template's text into the row buffer, with a field of each
        slot's width."""
        line, starts = b"", []
        for piece, width in zip(self._text, widths):
            line += piece
            starts.append(len(line))
            line += bytes(width)
        line += self._text[-1]
        width = len(line)
        buf = np.frombuffer(self._memory, np.uint8, self._rows * width)
        self._buf = buf.reshape(self._rows, width)
        self._buf[:] = np.frombuffer(line, np.uint8)
        # each field as a column of elements of its width, and the text of
        # its table column as the last bytes of the words
        stride = 24 * len(self._columns)
        self._fields = [
            (np.ndarray((self._rows,), f"V{w}", self._buf, start, (width,)),
             np.ndarray((self._rows,), f"V{w}", self._digits.words, 24 - w + 24 * k, (stride,)),
             start, w, negate)
            for start, w, (k, negate) in zip(starts, widths, self._slots)]
        self._widths = widths

    def format(self, table: np.ndarray) -> bytes:
        """The rows' text as ASCII bytes."""
        return bytes(self.view(table))

    def view(self, table: np.ndarray) -> memoryview:
        """The rows' text as ASCII bytes in the writer's output buffer,
        valid until the next call."""
        table = np.asarray(table, dtype=np.float64)
        rows, fields = table.shape
        if fields != self.fields:
            raise ValueError(f"template has {self.fields} fields, table {fields} columns")
        if rows > self._rows:
            raise ValueError(f"{rows} rows, the buffer holds {self._rows}")
        if not rows:
            return memoryview(self._out)[:0]
        x = np.take(table, self._columns, axis=1, out=self._x[:rows], mode="clip")
        back, negative = self._digits.text(x.ravel())
        back = back.reshape(x.shape)
        # a slot prints a "-" where its column holds a negative value, or, if
        # it prints the negation, where its column is not all negative
        count = negative.reshape(x.shape).sum(axis=0)[self._slot_columns]
        widths = 22 + np.where(self._negated, count < rows, count > 0)
        percent = []
        for slot in np.flatnonzero(back.any(axis=0)[self._slot_columns]).tolist():
            k, negate = self._slots[slot]
            at = np.flatnonzero(back[:, k])
            text = _percent(-x[at, k] if negate else x[at, k])
            widths[slot] = max(widths[slot], 22 + text[:, 22:].any(axis=0).sum())
            percent.append((slot, at, text))
        widths = tuple(widths.tolist())
        if widths != self._widths:
            self._lay_out(widths)
        buf = self._buf[:rows]
        for field, text, start, width, negate in self._fields:
            field[:rows] = text[:rows]
            if negate and width > 22:
                buf[:, start + width - 23] ^= ord("-")  # the sign byte: "-" <-> NUL
        for slot, at, text in percent:
            _, _, start, width, _ = self._fields[slot]
            buf[at, start:start + width] = text[:, :width]
        out, end = self._out, 0
        for start in range(0, rows, _PIECE):
            piece = buf[start:start + _PIECE].tobytes().replace(b"\0", b"")
            out[end:end + len(piece)] = piece
            end += len(piece)
        return memoryview(out)[:end]


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
