"""Loading, validation and saving of embedding tables and word frequency
counts.

Embedding files use the plain-text format with a ``"<vocab_size> <dim>"``
header line of two ASCII-digit counts, then one ``"<token> <v1> ... <vd>"``
line per word, single-space separated (one trailing space per row is
accepted, as written by word2vec and fastText), UTF-8, ``\\n`` line
endings. Matrix files
(``save_matrix``) have a ``"<rows> <cols>"`` header and the same rows
without tokens. A value is an optional sign, then decimal digits with an
optional point and exponent, or ``inf``/``infinity``/``nan`` in any case
(read, then rejected as non-finite); underscores, non-ASCII digits and
non-ASCII whitespace are rejected, although ``float()`` takes them. Values
are written with 17 significant digits, which round-trips IEEE-754 doubles
exactly.

Both directions stream. The readers take the file's bytes ``READ_BYTES``
at a time, cut after the last newline; one scan of a piece for the bytes
below ``"0"`` gives its rows' checks, tokens and value fields, and a piece
is decoded only when it is not ASCII. Each value is the double numpy's
float parse (``np.fromstring``) gives, but a value ``[+-]digits.digits``
with at most 22 digits after the point is read by numpy's integer parse,
point deleted, as a mantissa m, and m / 10**s is rounded exactly in
integer arithmetic, in about half the time of the float parse. The other
values (exponent notation, integers, zeros, mantissas beyond int64) take
the float parse, a few at once, or the whole piece when they are more
than a quarter of it. The writer formats the
whole rows of about ``WRITE_BLOCK_VALUES`` values at a time with numpy
arithmetic and writes the same bytes as ``'%.17g'`` on each value: a value
in fixed notation is rounded exactly to 17 digits and laid out by table
lookups in 40 NUL-padded bytes, behind its row's token, and one
``bytes.translate`` per block deletes the NULs (a NUL in a token travels as
0xFF). Zeros and values written with an exponent are formatted one by one.

Frequency files are TSV: ``"<token>\\t<count>"`` per line, the count ASCII
digits, read as one count per table row.
"""
from __future__ import annotations

import functools
import os
import stat
import warnings
from pathlib import Path

import numpy as np

from .layers import _row_norms


class EmbedFormatError(ValueError):
    """Malformed embedding or frequency file; message carries the line number."""


# Bytes per read in the readers, cut after the last newline: about 13,000
# values of 17 digits, checked and parsed at once in about 3 MB of arrays.
READ_BYTES = 1 << 18
# Values per numpy pass in the writer, rounded down to whole rows (at least
# one): its working arrays peak at about 260 bytes per value, 2.1 MB a block.
WRITE_BLOCK_VALUES = 1 << 13

# The most digits after the point that a field on the integer route may
# have: 10**22 is the largest power of ten that is an exact double.
_MAX_FRACTION = 22
_POW10 = np.array([float(10 ** s) for s in range(_MAX_FRACTION + 1)])
_POW5 = np.array([5 ** s for s in range(_MAX_FRACTION + 1)], dtype=np.uint64)
# By a quotient's biased exponent plus s, which is t + 1077 (see
# ``_divide``): 2**-t and 2**t modulo 2**64 where they are integers, else 1
_T = np.arange(2048 + _MAX_FRACTION) - 1077
_DOWN_SHIFT = np.where(_T > -64, np.uint64(1) << np.clip(-_T, 0, 63).astype(np.uint64),
                       0)
_UP_SHIFT = np.where(_T < 64, np.uint64(1) << np.clip(_T, 0, 63).astype(np.uint64), 0)
_INT64 = np.iinfo(np.int64)


def _fromstring(text, count: int, dtype=np.float64, sep: str = " "):
    """``np.fromstring(text, dtype, sep=sep)`` if it gives ``count`` values,
    else ``None``. numpy < 2 only warns on unmatched text and returns the
    values before it, so the warning is raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            values = np.fromstring(text, dtype=dtype, sep=sep)
        except (ValueError, DeprecationWarning):
            return None
    return values if values.size == count else None


def _divide(m, s):
    """The doubles nearest m / 10**s, ties to even, for int64 mantissas
    0 < |m| < 2**63 and fraction lengths 0 < s <= 22.

    With |m| <= 2**53 the floating-point quotient is that double: both
    operands are exact and division rounds correctly. Above, fl(m) is off
    by up to half an ulp of m and the quotient by up to about 1.5 ulps, so
    each such quotient q = Q * 2**e (2**52 <= Q < 2**53) is compared exactly
    with the midpoints K * 2**(e - 2) to its neighbours (K = 4Q + 2 above;
    4Q - 2 below, or 4Q - 1 below a power of two) and stepped one ulp, as
    its bit pattern, until it lies between them. With t = e - 2 + s,
    |m| * 2**-t - K * 5**s * 2**t (each power of two taken only where it is
    an integer) has the sign of |m| / 10**s minus the midpoint. The terms
    overflow 64 bits but the difference stays below 8 * 5**22 < 2**55, so
    wrapping uint64 arithmetic gives it exactly."""
    q = m.astype(np.float64) / _POW10[s]
    mag = np.abs(m).view(np.uint64)
    idx = np.flatnonzero(mag > np.uint64(1 << 53))
    while idx.size:
        bits = q[idx].view(np.uint64)
        sig = bits & np.uint64((1 << 52) - 1)
        exponent = (bits >> np.uint64(52)) & np.uint64(2047)
        shift = exponent.view(np.int64) + s[idx]
        unit = _POW5[s[idx]] * _UP_SHIFT[shift]
        odd = (sig & np.uint64(1)).view(np.int64)
        upper = (sig << np.uint64(2)) + np.uint64((4 << 52) + 2)
        above = (mag[idx] * _DOWN_SHIFT[shift] - upper * unit).view(np.int64)
        below = above + ((unit << np.uint64(2)) - unit * (sig == 0)).view(np.int64)
        step = (above + odd > 0).view(np.int8) - (below - odd < 0).view(np.int8)
        moved = np.flatnonzero(step)
        idx = idx[moved]
        q[idx] = (bits[moved] + step[moved].astype(np.int64).view(np.uint64)
                  ).view(np.float64)
    return q


def _fill(buffer: bytearray, starts, ends, byte: bytes) -> None:
    """Overwrite each span ``buffer[start:end]`` with ``byte``."""
    for start, end in zip(starts, ends):
        buffer[start:end] = byte * (end - start)


def _parse_decimals(text: bytes, at, kind, first, last, digits: bytearray):
    """The values of the fields of ``text`` between the separators
    ``at[first]`` and ``at[last]``, each the double ``np.fromstring`` parses
    from it, or ``None`` where that is not certain. ``at`` holds where the
    bytes below ``"0"`` are and ``kind`` which they are; ``digits`` is
    ``text`` with whitespace between the fields and ``"."`` elsewhere.

    A field ``[+-]digits.digits`` with 1 to 22 digits after the point is
    read as its mantissa, by one integer parse of ``digits`` without
    points, and its number of fraction digits s; ``_divide`` rounds their
    quotient. The other fields (``1e-05``, ``3``, ``-0.0``, mantissas the
    integer parse clamps, ...) take the float parse, joined by commas, as
    long as they are at most a quarter of all. Each of them must then give
    one value on its own, which is the value it gives inside ``text``;
    whitespace-only fields and fields holding a comma are not vouched for."""
    # a letter left in a decimal field makes the integer parse fail
    count = first.size
    fraction = at[last] - at[last - 1] - 1
    sign = kind[last - 2]
    decimal = ((kind[last - 1] == ord(".")) & (fraction > 0)
               & (fraction <= _MAX_FRACTION)
               & ((last - first == 2) | ((last - first == 3) & (
                   (sign == ord("-")) | (sign == ord("+"))))))

    def spans(index):
        """Where the fields at ``index`` begin and end in ``text``."""
        return (at[first[index]] + 1).tolist(), at[last[index]].tolist()

    other = np.flatnonzero(~decimal)
    if other.size > count // 4:
        return None
    # zeros for the other fields, which the integer parse may not take
    _fill(digits, *spans(other), b"0")
    m = _fromstring(bytes(digits).replace(b".", b""), count, dtype=np.int64)
    if m is None:
        return None
    # a zero mantissa has lost its sign, a clamped one its value
    decimal &= (m != 0) & (m != _INT64.max) & (m != _INT64.min)
    other = np.flatnonzero(~decimal)
    if other.size > count // 4:
        return None
    parsed = np.empty(0)
    if other.size:
        fields = [text[start:end] for start, end in zip(*spans(other))]
        joined = b",".join(fields)
        if joined.count(b",") >= len(fields) or not all(f.strip() for f in fields):
            return None
        parsed = _fromstring(joined, len(fields), sep=",")
        if parsed is None:
            return None
        m[other], fraction[other] = 1, 1  # any quotient _divide takes
    values = _divide(m, fraction)
    values[other] = parsed
    return values


def _read_header(fh, path):
    """The two counts of the ``<rows> <cols>`` line that opens ``fh``, each
    ASCII digits (``bytes.isdigit``; ``int()`` would also take a sign,
    whitespace, underscores and the digits of other scripts) and at least 1;
    the line may end in CRLF."""
    line = fh.readline()
    if not line:
        raise EmbedFormatError(f"{path}: empty file")
    fields = line.removesuffix(b"\n").removesuffix(b"\r").split(b" ")
    if len(fields) != 2:
        raise EmbedFormatError(f"{path}:1: header must be '<rows> <cols>'")
    if not all(f.isdigit() for f in fields):
        raise EmbedFormatError(f"{path}:1: non-integer header fields")
    rows, cols = map(int, fields)
    if rows < 1 or cols < 1:
        raise EmbedFormatError(f"{path}:1: header values must be positive")
    return rows, cols


def _read_rows(fh, path, shape, tokens):
    """The ``shape`` matrix read from ``fh``, open past the header, allocated
    once the file is seen to hold its values (two bytes each at least); a
    shape that memory cannot hold is an error naming it. A row is
    ``[<token> ]<v1> ... <vd>``, single-space separated, with one optional
    trailing space; ``tokens``, if not ``None``, receives the tokens. The
    bytes are read ``READ_BYTES`` at a time, cut after the last newline, and
    one scan of a piece serves its rows' checks and ``_parse_decimals``;
    only a piece whose values fail is parsed again row by row, to name the
    line. Errors come in line order, as if read row by row, but a file with
    other than ``shape[0]`` rows raises ``path: header declares N rows,
    found M``, ahead of any row error; the lines are counted only after a row
    error, a short read or text after the last row: each ``\\n`` ends one,
    and a last line without it counts too."""
    rows, dim = shape
    lead = tokens is not None
    seen = set()
    done, extra = 0, False

    def fail(j, message):
        raise EmbedFormatError(f"{path}:{done + j + 2}: {message}")

    def take(text):
        """Check and parse the rows of ``text``: a newline, then whole lines."""
        nonlocal done, extra
        buf = np.frombuffer(text, np.uint8)
        at = np.flatnonzero(buf < ord("0"))  # separators, points, signs, tabs, ...
        kind = buf[at]
        seps = np.flatnonzero((kind == ord(" ")) | (kind == ord("\n")))  # in at
        spaced = kind[seps] == ord(" ")
        nls = np.flatnonzero(~spaced)  # in seps: before each row and after the last
        if done + nls.size > rows + 1:
            extra, nls = True, nls[:rows - done + 1]
            text = text[:at[seps[nls[-1]]] + 1]
        if not text.isascii():
            try:
                text.decode()
            except UnicodeDecodeError as err:
                take(text[:text.rfind(b"\n", 0, err.start) + 1])  # the rows before it
                raise
        n = nls.size - 1
        nl = at[seps[nls]]  # where the newlines are
        count = np.diff(nls) - 1  # spaces per row
        last = nls[1:] - 1  # each row's last separator, in seps
        trail = spaced[last] & (at[seps[last]] + 1 == nl[1:]) & (count == dim + lead)
        count -= trail  # the one trailing space word2vec and fastText write
        # the first row that fails a check, and why; control bytes other than
        # newlines (tabs, \v, \f, \r, ...) are looked at only if there are any
        low = kind < ord(" ")
        control = at[low] if np.count_nonzero(low) > nls.size else at[:0]
        tab = np.searchsorted(nl, control[buf[control] == ord("\t")][:1]) - 1
        wrong = np.flatnonzero(count != dim + lead - 1)[:1]
        bad = min([n, *tab.tolist(), *wrong.tolist()])
        if bad < n:
            message = ("tab in row" if bad in tab.tolist() else
                       f"expected {dim} values, found {count[bad] + 1 - lead}")
        starts = nl[:-1] + 1  # where each row begins, and its values
        opens = at[seps[nls[:bad] + 1]] + 1 if lead else starts
        names = [text[a:b].decode() for a, b in
                 zip(starts[:bad].tolist(), (opens - 1).tolist())] if lead else []
        for j, name in enumerate(names):
            error = _token_error(name, seen)
            if error:
                bad, message = j, error
                break
            seen.add(name)
        # a value split by \v, \f or \r, which float() strips but numpy's
        # parse takes as separators; a CRLF ending splits none
        closes = nl[1:] - trail  # where each row's values end
        edge = control[(buf[control] >= ord("\v")) & (buf[control] <= ord("\r"))]
        crlf = ((buf[edge] == ord("\r")) & (buf[edge + 1] == ord("\n"))
                & (buf[edge - 1] > ord(" ")))
        for j in np.unique(np.searchsorted(nl, edge[~crlf]) - 1).tolist():
            if j < bad and any(len(field.split()) != 1
                               for field in text[opens[j]:closes[j]].split(b" ")):
                bad, message = j, "unparseable value"
        if bad:
            head = text[:nl[bad] + 1]
            fields = nls[bad]  # the separators of the rows before ``bad``
            opening = spaced[:fields].copy() if lead else np.ones(fields, bool)
            opening[last[:bad][trail[:bad]]] = False  # which open a value field
            digits = bytearray(head)
            marks = np.frombuffer(digits, np.uint8)
            marks[nl[1:bad]], marks[nl[[0, bad]]] = ord(" "), ord(".")
            marks[closes[:bad][trail[:bad]]] = ord(".")
            _fill(digits, starts[:bad].tolist(), opens[:bad].tolist(), b".")
            values = _parse_decimals(text, at, kind, seps[:fields][opening],
                                     seps[1:fields + 1][opening], digits)
            if values is None:  # the float parse, with the tokens blanked
                raw = bytearray(head)
                _fill(raw, starts[:bad].tolist(), opens[:bad].tolist(), b" ")
                # numpy reads text that is only whitespace as one value, -1
                values = _fromstring(bytes(raw), bad * dim) if raw.strip() else None
            if values is None or not np.isfinite(values).all():
                for j in range(bad):
                    row = _fromstring(text[opens[j]:closes[j]], dim)
                    if row is None:
                        fail(j, "unparseable value")
                    if not np.isfinite(row).all():
                        fail(j, "non-finite value")
                raise EmbedFormatError(
                    f"{path}:{done + 2}-{done + bad + 1}: unparseable value")
            out[done:done + bad] = values.reshape(bad, dim)
        if bad < n:
            fail(bad, message)
        if lead:
            tokens.extend(names)
        done += n

    piece = [b"\n"]  # the text from the last newline read on
    text, before, chunk = b"\n", 0, b""  # the last text taken, ``done`` before it
    try:
        st = os.fstat(fh.fileno())
        if stat.S_ISREG(st.st_mode) and rows * dim > st.st_size // 2:
            raise EmbedFormatError(f"{path}: header declares {rows} x {dim} values, "
                                   f"more than its {st.st_size} bytes hold")
        out = np.empty(shape)
        while done < rows and not extra:
            chunk = fh.read(READ_BYTES)
            if not chunk:
                if piece == [b"\n"]:
                    break
                chunk = b"\n"  # ends the last line
            cut = chunk.rfind(b"\n") + 1
            if cut:
                text, before = b"".join([*piece, memoryview(chunk)[:cut]]), done
                take(text)
                piece = [chunk[cut - 1:]]
            else:
                piece.append(chunk)
        if done == rows and not extra and piece == [b"\n"] and not fh.peek(1):
            return out
        error = EmbedFormatError(f"{path}: file changed while it was read")
    except (EmbedFormatError, UnicodeDecodeError) as err:
        error = err
    except MemoryError:  # a header that no file size bounds, as a pipe's
        raise EmbedFormatError(f"{path}: header declares {rows} x {dim} values, "
                               "more than memory holds") from None
    # counted on where the reads stopped (a pipe cannot seek) in 64 KB reads,
    # below glibc's mmap threshold: freeing a larger buffer raises it, and
    # later block-sized allocations land on the heap, which keeps the memory
    found, tail = before + text.count(b"\n") - 1, chunk[-1:] or b"\n"
    for chunk in iter(lambda: fh.read(1 << 16), b""):
        found, tail = found + chunk.count(b"\n"), chunk[-1:]
    found += tail != b"\n"
    if found != rows:
        raise EmbedFormatError(f"{path}: header declares {rows} rows, "
                               f"found {found}") from None
    raise error


# -- the block writer ----------------------------------------------------------
#
# '%.17g' writes a value in fixed notation when its rounding to 17 significant
# digits has a decimal exponent E in -4..16, and with an exponent otherwise.
# The canvas holds 40 bytes per value, NUL where a character is absent:
# byte 0 the sign; 1-2 "0." and 3-5 the zeros after it (E < 0); 6 + 2j the
# j-th of the 17 digits; 7 + 2j the point after digit j (E = j); 39 the
# separator. Viewed as five 8-byte words, word 0 holds the lead digit and
# words 1-4 one 4-digit group each.
_WIDTH = 40
_SPLITTER = 134217729.0  # 2**27 + 1
_CARRIED_NUL = bytes(range(255)) + b"\0"  # the translate table: 0xFF to NUL


def _split(v):
    """Veltkamp's split of ``v`` into a 26-bit high part and the exact rest."""
    c = _SPLITTER * v
    high = c - (c - v)
    return high, v - high


class _Tables:
    """The writer's lookup tables, built on its first use (a few ms)."""

    def __init__(self):
        # By E + 4, the least double whose rounding has an exponent of E or
        # more: the double nearest 10**E, which is 10**E for E >= 0 and lies
        # just above it for E < 0; the next double below lies farther from
        # 10**E than half a unit of the 17th digit, so it rounds to E - 1.
        self.decades = np.array([float(f"1e{e}") for e in range(-4, 18)])
        # By biased binary exponent, E + 4 of the binade's least value. A
        # binade spans less than a decade: a value's E is this one or the next.
        self.binade_decade = np.clip(np.searchsorted(
            self.decades, np.ldexp(1.0, np.arange(-1023, 1024)), side="right")
            - 1, 0, 20)
        # By E + 4, 10**(16 - E) and its split: exact, as 10**s is for s <= 22
        self.scale = np.array([float(f"1e{16 - e}") for e in range(-4, 17)])
        self.scale_high, self.scale_low = _split(self.scale)

        # By value, the canvas word of a 4-digit group (words 1-4); word 0
        # keeps only byte 6, where the lead digit d is, as the last of 000d
        quads = np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, -1).T
        group = np.zeros((10000, 8), np.uint8)
        group[:, ::2] = quads + np.uint8(ord("0"))
        self.group = group.view(np.uint64).ravel()
        # By group i (digits 4i + 1 .. 4i + 4), then its value: the index of
        # its last nonzero digit, 0 if it has none (the lead digit is never 0)
        zeros = np.logical_and.accumulate(quads[:, ::-1] == 0, axis=1).sum(axis=1)
        self.last = np.where(zeros < 4, np.arange(4, 20, 4)[:, None] - zeros,
                             0).astype(np.int8)

        # By layout key ((E + 4) * 17 + keep) * 2 + negative, where keep is
        # the last digit written (the last nonzero one, or digit E if later):
        # the canvas bits a value keeps, and the bytes it adds
        col = np.arange(_WIDTH)
        slot = (col - 6) // 2  # the digit or point index from byte 6 on
        digit = (col >= 6) & (col < 39) & (col % 2 == 0)
        point = (col >= 7) & (col < 39) & (col % 2 == 1)
        e = np.arange(-4, 17)[:, None, None, None]
        keep = np.arange(17)[:, None, None]
        negative = np.arange(2)[:, None]
        keeps = (digit & (slot <= keep)) * 255
        marks = ((col == 0) * negative * ord("-")
                 + ((col == 1) & (e < 0)) * ord("0")
                 + ((col == 2) & (e < 0)) * ord(".")
                 + ((col >= 3) & (col <= 5) & (col <= 1 - e)) * ord("0")
                 + (point & (slot == e) & (keep > e)) * ord(".")
                 + (col == 39) * ord(" "))
        self.keep, self.marks = (
            np.broadcast_to(t, (21, 17, 2, _WIDTH)).astype(np.uint8)
            .reshape(-1, _WIDTH).view(np.uint64) for t in (keeps, marks))


@functools.cache
def _tables() -> _Tables:
    return _Tables()


def _format_values(x, dim: int) -> np.ndarray:
    """The canvas of the values of ``x``, one uint8 row of ``dim`` values
    each: every value as ``'%.17g'`` writes it, NUL-padded to ``_WIDTH``
    bytes, then a space, or a newline after a row's last.

    A value in fixed notation is rounded to 17 digits in numpy: |x| times
    10**(16 - E) is exact as the double-double ``p + err`` (Dekker's
    product of Veltkamp splits), and ``p`` is an even integer as it is at
    least 2**53, so ``p`` plus ``err`` rounded half-even is the product
    rounded half-even, as ``'%.17g'`` rounds. Indices are intp and digits
    int64, as numpy's uint64 paths are slow. Zeros and values written with
    an exponent take ``'%.17g'`` one by one."""
    t = _tables()
    a = np.abs(x)
    fixed = (a >= t.decades[0]) & (a < t.decades[-1])
    a[~fixed] = 1.0  # any value in range; these are formatted one by one
    decade = np.take(t.binade_decade, a.view(np.int64) >> 52)
    decade += a >= np.take(t.decades, decade + 1)
    high, low = _split(a)
    scale_high, scale_low = np.take(t.scale_high, decade), np.take(t.scale_low, decade)
    p = a * np.take(t.scale, decade)
    err = (((high * scale_high - p) + high * scale_low + low * scale_high)
           + low * scale_low)
    digits = p.astype(np.int64) + np.rint(err).astype(np.int64)
    upper = digits // 10**8
    g3 = (lower := digits - upper * 10**8) // 10**4
    lead = (head := upper // 10**4) // 10**4
    g1, g2, g4 = head - lead * 10**4, upper - head * 10**4, lower - g3 * 10**4
    last = np.take(t.last[3], g4)  # groups 1-3 matter only where group 4 is 0
    rest = np.flatnonzero(last == 0)
    last[rest] = np.max([t.last[i][g[rest]] for i, g in enumerate((g1, g2, g3))], 0)
    key = (decade * 17 + np.maximum(last, decade - 4)) * 2 + np.signbit(x)
    canvas = np.take(t.keep, key, axis=0)
    for word, part in enumerate((lead, g1, g2, g3, g4)):
        canvas[:, word] &= np.take(t.group, part)
    canvas |= np.take(t.marks, key, axis=0)
    text = canvas.view(np.uint8)
    text[dim - 1::dim, -1] = ord("\n")
    slow = np.flatnonzero(~fixed)
    values = np.array([b"%.17g" % v for v in x[slow].tolist()], f"S{_WIDTH - 1}")
    text[slow, :-1] = values.view(np.uint8).reshape(-1, _WIDTH - 1)
    return text.reshape(-1, dim * _WIDTH)


def _write_rows(path, header: str, matrix, tokens=None) -> None:
    """Stream ``header`` then one line per matrix row, after its token if
    ``tokens`` is given, formatted about ``WRITE_BLOCK_VALUES`` values at a
    time so that memory stays bounded. A block's tokens, NUL-padded to the
    longest plus a space, go in front of its canvas rows, and one
    ``translate`` deleting the NULs gives its lines: a NUL in a token
    travels as 0xFF, a byte UTF-8 never holds, and is mapped back."""
    rows, dim = matrix.shape
    step = max(1, WRITE_BLOCK_VALUES // dim)
    with open(path, "wb") as fh:
        fh.write(f"{header}\n".encode())
        for start in range(0, rows, step):
            lines = _format_values(matrix[start:start + step].ravel(), dim)
            if tokens is not None:
                names = (" \n".join(tokens[start:start + step]) + " ").encode()
                names = np.array(names.replace(b"\0", b"\xff").split(b"\n"))[:, None]
                lines = np.hstack([names.view(np.uint8), lines])
            fh.write(lines.tobytes().translate(_CARRIED_NUL, b"\0"))


def _token_error(token: str, seen) -> str:
    """Why ``token`` cannot join a vocabulary holding the tokens ``seen``, or
    ``""``. A token is a non-empty ``str``, new, and free of every character
    that ``str.split()`` splits at (``str.isspace()``: besides the ASCII
    spaces also ``\\x1c``-``\\x1f``, U+0085, U+00A0, U+2028, ...)."""
    if not token:
        return "empty token"
    if not isinstance(token, str):
        return f"token {token!r} is not a str"
    if token.split() != [token]:
        return f"token {token!r} contains whitespace"
    return f"duplicate token {token!r}" if token in seen else ""


class Vocabulary:
    """Ordered set of unique, non-empty, whitespace-free tokens
    (``_token_error``)."""

    __slots__ = ("tokens", "_index")

    def __init__(self, tokens):
        tokens = tuple(tokens)
        if not tokens:
            raise ValueError("vocabulary must contain at least one token")
        # one pass for the whole rule: the tokens are all new if the index has
        # one entry each, and all non-empty and whitespace-free if splitting
        # them joined gives them back; only a failure is looked for token by
        # token, to raise the first error
        try:
            index = dict(zip(tokens, range(len(tokens))))
            valid = (len(index) == len(tokens)
                     and "\n".join(tokens).split() == list(tokens))
        except TypeError:  # a token that is not a str, or not hashable
            valid = False
        if not valid:
            index = {}
            for i, tok in enumerate(tokens):
                error = _token_error(tok, index)
                if error:
                    raise ValueError(error if tok else f"{error} at position {i}")
                index[tok] = i
        self.tokens = tokens
        self._index = index

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token) -> bool:
        return token in self._index

    def index(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise KeyError(f"token {token!r} not in vocabulary") from None


class EmbeddingTable:
    """A vocabulary plus one embedding row per token, immutable after build.

    A float64 array is adopted, not copied, and marked read-only: the caller
    hands over an array it no longer writes to. A table read whole from its
    sidecar adopts the sidecar's read-only mapped pages themselves. The
    rows' norms are ``norms`` if given (a sidecar stores them), else
    computed on first use; either way they are the bits of ``_row_norms``.
    """

    __slots__ = ("vocab", "matrix", "_norms")

    def __init__(self, vocab: Vocabulary, matrix, norms=None):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError(f"embedding matrix must be 2-d, got {matrix.ndim}-d")
        if matrix.shape[0] != len(vocab):
            raise ValueError(
                f"row count {matrix.shape[0]} != vocabulary size {len(vocab)}"
            )
        if matrix.shape[1] < 1:
            raise ValueError("embedding dimension must be >= 1")
        if not np.isfinite(matrix).all():  # the row is looked for only then
            word = vocab.tokens[int(np.argmin(np.isfinite(matrix).all(axis=1)))]
            raise ValueError(f"embedding matrix contains non-finite values in row {word!r}")
        matrix.setflags(write=False)
        if norms is not None:
            norms.setflags(write=False)
        self.vocab = vocab
        self.matrix = matrix
        self._norms = norms

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def row_norms(self, where=None):
        """The Euclidean norm of each row, computed at most once; given
        ``where``, a zero row raises naming its token and ``where``."""
        if self._norms is None:
            self._norms = _row_norms(self.matrix)
            self._norms.setflags(write=False)
        if where is not None and not self._norms.all():
            word = self.vocab.tokens[int(np.argmin(self._norms != 0.0))]
            raise ValueError(f"zero row {word!r} in {where}")
        return self._norms


def load_embeddings(path) -> EmbeddingTable:
    """Parse an embedding file, validating header, dimensions and values."""
    path = Path(path)
    with open(path, "rb") as fh:
        tokens = []
        matrix = _read_rows(fh, path, _read_header(fh, path), tokens)
    return EmbeddingTable(Vocabulary(tokens), matrix)


def save_embeddings(table: EmbeddingTable, path) -> None:
    """Write a table in the embedding text format; round-trips exactly."""
    _write_rows(path, f"{len(table.vocab)} {table.dim}", table.matrix,
                table.vocab.tokens)


def load_frequencies(path, vocab: Vocabulary) -> np.ndarray:
    """The count of each row of ``vocab``, in table order (int64), from a TSV
    frequency file of ``<token>\\t<count>`` lines, each count ASCII digits.
    Lines for tokens not in ``vocab`` are skipped; a row the file lacks
    counts 1."""
    path = Path(path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise EmbedFormatError(f"{path}: empty frequency file")
    counts = np.full(len(vocab), -1, dtype=np.int64)  # -1: not in the file yet
    for i, line in enumerate(lines):
        lineno = i + 1
        parts = line.removesuffix("\r").split("\t")
        if len(parts) != 2:
            raise EmbedFormatError(f"{path}:{lineno}: expected 'token<TAB>count'")
        token, raw = parts
        # a count is ASCII digits; int() would also take a sign, spaces,
        # underscores and the digits of other scripts
        digits = raw.removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            raise EmbedFormatError(f"{path}:{lineno}: non-integer count {raw!r}")
        if digits != raw:
            raise EmbedFormatError(f"{path}:{lineno}: negative count {raw}")
        count = int(raw)
        if count > _INT64.max:
            raise EmbedFormatError(f"{path}:{lineno}: count {count} beyond int64")
        if token not in vocab:
            continue
        row = vocab.index(token)
        if counts[row] >= 0:
            raise EmbedFormatError(f"{path}:{lineno}: duplicate token {token!r}")
        counts[row] = count
    counts[counts < 0] = 1
    return counts


def save_frequencies(vocab: Vocabulary, counts, path) -> None:
    """Write one ``<token>\\t<count>`` line per row of ``vocab``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for tok, count in zip(vocab.tokens, np.asarray(counts).tolist()):
            fh.write(f"{tok}\t{count}\n")


def normalize_rows(table: EmbeddingTable, where: str = "the table") -> EmbeddingTable:
    """Rescale every row to unit Euclidean norm; a zero row is an error
    naming its token and ``where``."""
    norms = table.row_norms(where)
    return EmbeddingTable(table.vocab, table.matrix / norms[:, None])


def save_matrix(matrix, path) -> None:
    """Write a bare matrix as text: 'rows cols' header then value rows."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] < 1:
        # ``load_matrix`` would refuse the file
        raise ValueError(f"matrix must be 2-d with columns, got shape {matrix.shape}")
    _write_rows(path, f"{matrix.shape[0]} {matrix.shape[1]}", matrix)


def load_matrix(path) -> np.ndarray:
    """Read a matrix written by ``save_matrix``, with the embedding reader's
    row rules (no token)."""
    path = Path(path)
    with open(path, "rb") as fh:
        return _read_rows(fh, path, _read_header(fh, path), None)
